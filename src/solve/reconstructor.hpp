#pragma once

/// \file reconstructor.hpp
/// The unified reconstruction API: a `Reconstructor` turns one measured
/// instance into one `SolveResult`; a `SolverRegistry` holds named
/// factories that construct reconstructors from typed textual options.
///
/// The registry mirrors `engine::ScenarioRegistry` deliberately: both
/// declare their parameters as `ParamSpec`s (util/params.hpp), both are
/// listed by `npd_run` (`--list-solvers` / `--list`), and both treat
/// unknown names and malformed values as hard errors.  The payoff is
/// that "add a solver" × "add a scenario" is a cross product: any
/// engine scenario that selects its solver via a `solver=<name>`
/// parameter runs every registered algorithm without new code.
///
/// The built-in solvers (builtin_solvers.cpp) are thin adapters over the
/// legacy free functions (`core::greedy_reconstruct`,
/// `core::two_stage_reconstruct`, `amp::amp_reconstruct`,
/// `netsim::run_distributed_*`), which remain the reference
/// implementations; the adapters are pinned bit-identical to them by
/// tests/solve_test.cpp.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "noise/channel.hpp"
#include "rand/rng.hpp"
#include "solve/solve_result.hpp"
#include "util/params.hpp"

namespace npd::solve {

/// A configured reconstruction algorithm.  Implementations are immutable
/// after construction and `solve` is const, so one instance can serve
/// concurrent jobs; all randomness (for solvers that use any) must come
/// from the passed `rng`.
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  Reconstructor() = default;
  Reconstructor(const Reconstructor&) = delete;
  Reconstructor& operator=(const Reconstructor&) = delete;

  /// The registry name this reconstructor was built under.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Reconstruct the hidden bits of one measured instance.  `channel`
  /// is the channel that produced `instance.results` (the model assumes
  /// its parameters are public knowledge; channel-aware solvers read
  /// its linearization).
  [[nodiscard]] virtual SolveResult solve(const core::Instance& instance,
                                          const noise::NoiseChannel& channel,
                                          rand::Rng& rng) const = 0;
};

/// Named factory for one solver family.
class SolverFactory {
 public:
  virtual ~SolverFactory() = default;

  SolverFactory() = default;
  SolverFactory(const SolverFactory&) = delete;
  SolverFactory& operator=(const SolverFactory&) = delete;

  /// Registry key (also the `solver=<name>` value).
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line description for `npd_run --list-solvers`.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Typed options this solver accepts (defaults included).
  [[nodiscard]] virtual std::vector<ParamSpec> params() const { return {}; }

  /// Build a reconstructor from resolved options.
  [[nodiscard]] virtual std::unique_ptr<Reconstructor> make(
      const ParamSet& params) const = 0;
};

/// Name-keyed solver collection.
class SolverRegistry {
 public:
  /// Register a factory; duplicate names are a contract violation.
  void add(std::unique_ptr<SolverFactory> factory);

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const SolverFactory* find(std::string_view name) const;

  /// All factories, sorted by name.
  [[nodiscard]] std::vector<const SolverFactory*> list() const;

  /// Construct a solver by name with packed textual options
  /// ("key=value[;key=value...]", see `ParamSet::set_packed`).  Unknown
  /// solver names, unknown option names and malformed values throw
  /// `std::invalid_argument`.
  [[nodiscard]] std::unique_ptr<Reconstructor> make(
      std::string_view name, std::string_view packed_options = {}) const;

 private:
  std::vector<std::unique_ptr<SolverFactory>> factories_;
};

/// Register the built-in solver roster (see builtin_solvers.cpp):
/// greedy, greedy_channel_aware, two_stage, amp, amp_se, dist_greedy,
/// dist_amp, dist_topk.
void register_builtin_solvers(SolverRegistry& registry);

/// The process-wide registry with the built-in roster pre-registered
/// (constructed on first use; read-only afterwards).  Engine scenarios
/// resolve `solver=<name>` parameters against it.
[[nodiscard]] const SolverRegistry& builtin_solvers();

}  // namespace npd::solve
