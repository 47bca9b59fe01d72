// Scenario: distributed inference on a GPU cluster (the paper's noisy
// channel model).
//
// A cluster of query nodes — GPUs evaluating a neural network — measures
// groups of agents in parallel; each transmitted bit flips with
// probability p (false negative) or q (false positive), the "random bit
// flips in a distributed machine learning environment" of Section I.
// Because q is typically much smaller than p in practice (the Z-channel
// motivation, [14, 53]), we compare both channels.
//
// This example runs the *faithful distributed protocol* on the network
// simulator and reports the communication profile the paper's conclusion
// reasons about: one broadcast per query node, a Θ(log² n)-round sorting
// network, and one rank notification per agent.

#include <cmath>
#include <cstdio>

#include "core/evaluation.hpp"
#include "core/instance.hpp"
#include "core/theory.hpp"
#include "netsim/distributed_greedy.hpp"
#include "netsim/sorting_network.hpp"
#include "noise/channel.hpp"
#include "pooling/query_design.hpp"
#include "rand/rng.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace npd;

  CliParser cli("gpu_cluster",
                "Distributed inference on a GPU cluster (noisy channel "
                "model).");
  const long long& n_arg = cli.add_int("n", 1024, "worker agents");
  const long long& seed = cli.add_int("seed", 31337, "base RNG seed");
  cli.parse(argc, argv);

  std::printf("=== GPU-cluster inference (noisy channel model) ===\n\n");

  if (n_arg < 4) {
    std::fprintf(stderr, "error: --n must be at least 4 (got %lld)\n",
                 n_arg);
    return 1;
  }

  const auto n = static_cast<Index>(n_arg);  // worker agents
  const Index k = pooling::sublinear_k(n, 0.25);

  ConsoleTable table({"channel", "m", "recovered?", "rounds", "messages",
                      "KiB on wire", "sort depth"});

  struct Config {
    const char* label;
    double p;
    double q;
  };
  for (const Config config : {Config{"Z-channel p=0.1", 0.10, 0.0},
                              Config{"Z-channel p=0.3", 0.30, 0.0},
                              Config{"general p=0.1 q=0.01", 0.10, 0.01}}) {
    const noise::BitFlipChannel channel(config.p, config.q);
    // Interpolated Theorem 1 bound with 2.5x slack: the asymptotic
    // constant undershoots at n = 1024 (the implementable Delta*·k/2
    // centering costs a gamma-factor of the score gap at finite n).
    const auto m = static_cast<Index>(
        std::ceil(2.5 * core::theory::channel_sublinear_interpolated(
                            n, 0.25, config.p, config.q, 0.1)));

    rand::Rng rng(static_cast<std::uint64_t>(seed) +
                  static_cast<std::uint64_t>(config.p * 100) +
                  static_cast<std::uint64_t>(config.q * 10000));
    const core::Instance instance =
        core::make_instance(n, k, m, pooling::paper_design(n), channel, rng);
    const auto result = netsim::run_distributed_greedy(instance);

    table.add_row(
        {config.label, std::to_string(m),
         core::exact_success(result.estimate, instance.truth) ? "yes" : "no",
         std::to_string(result.stats.rounds),
         std::to_string(result.stats.messages),
         format_double(std::round(static_cast<double>(result.stats.bytes) /
                                  1024.0)),
         std::to_string(result.sorting_depth)});
  }
  std::fputs(table.render().c_str(), stdout);

  const netsim::SortingSchedule schedule = netsim::make_odd_even_schedule(n);
  std::printf(
      "\nProtocol anatomy at n = %lld:\n"
      "  phase I : 1 round, one broadcast per query node to its distinct\n"
      "            neighbors\n"
      "  phase II: %lld comparator rounds (Batcher odd-even mergesort,\n"
      "            %lld comparators total, 2 messages each)\n"
      "  phase III: 1 rank-notification round (n messages)\n",
      static_cast<long long>(n), static_cast<long long>(schedule.depth()),
      static_cast<long long>(schedule.comparator_count()));
  std::printf(
      "\nTakeaway: the whole reconstruction needs a single information\n"
      "exchange per network node plus a logarithmic-depth sort — no\n"
      "iterative network-wide flooding (contrast with AMP, see\n"
      "`npd_run --scenarios abl7`).\n");
  return 0;
}
