// Tests for the unified reconstruction API (src/solve): the registry
// round-trip (register → list → construct-by-name with textual options),
// the bit-identity pins between every registry-constructed solver and
// its legacy free-function counterpart on the paper's channels, and the
// hard-error contract for unknown solver names/options.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "amp/amp.hpp"
#include "core/greedy.hpp"
#include "core/instance.hpp"
#include "core/scores.hpp"
#include "core/two_stage.hpp"
#include "netsim/distributed_greedy.hpp"
#include "netsim/distributed_topk.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/query_design.hpp"
#include "solve/channel_spec.hpp"
#include "solve/design_spec.hpp"
#include "solve/reconstructor.hpp"
#include "util/assert.hpp"

namespace npd::solve {
namespace {

constexpr Index kN = 160;
constexpr Index kM = 220;

Index test_k() { return pooling::sublinear_k(kN, 0.25); }

/// One fresh instance per (channel, salt): the same (instance, channel)
/// pair feeds the legacy path and the registry path, so estimates must
/// agree bit for bit.
core::Instance make_test_instance(const noise::NoiseChannel& channel,
                                  std::uint64_t salt) {
  rand::Rng rng(1234 + salt);
  return core::make_instance(kN, test_k(), kM, pooling::paper_design(kN),
                             channel, rng);
}

/// The three channels the bit-identity pins run on.
std::vector<std::unique_ptr<noise::NoiseChannel>> test_channels() {
  std::vector<std::unique_ptr<noise::NoiseChannel>> channels;
  channels.push_back(noise::make_noiseless());
  channels.push_back(noise::make_z_channel(0.1));
  channels.push_back(noise::make_bitflip_channel(0.1, 0.05));
  return channels;
}

noise::Linearization lin_of(const core::Instance& instance,
                            const noise::NoiseChannel& channel) {
  return channel.linearization(instance.n(), instance.k(),
                               pooling::paper_design(kN).gamma);
}

// --------------------------------------------------------------- registry

TEST(SolverRegistryTest, BuiltinRosterIsRegisteredAndSorted) {
  const SolverRegistry& registry = builtin_solvers();
  for (const char* name :
       {"greedy", "greedy_channel_aware", "two_stage", "amp", "amp_se",
        "dist_greedy", "dist_amp", "dist_topk"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  const auto all = registry.list();
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());
  }
  EXPECT_EQ(registry.find("no_such_solver"), nullptr);
}

TEST(SolverRegistryTest, UnknownNamesAndOptionsAreHardErrors) {
  const SolverRegistry& registry = builtin_solvers();
  EXPECT_THROW((void)registry.make("no_such_solver"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("amp", "no_such_option=1"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("amp", "max_iterations=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("amp", "malformed"),
               std::invalid_argument);
  // Solvers without options reject any option.
  EXPECT_THROW((void)registry.make("greedy", "anything=1"),
               std::invalid_argument);
  // Out-of-range values fail at construction, before any job runs.
  EXPECT_THROW((void)registry.make("amp", "damping=0"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("amp", "max_iterations=0"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("two_stage", "max_rounds=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("amp_se", "se_tol=0"),
               std::invalid_argument);
}

TEST(SolverRegistryTest, DuplicateNamesAreRejected) {
  SolverRegistry registry;
  register_builtin_solvers(registry);
  EXPECT_THROW(register_builtin_solvers(registry), ContractViolation);
}

TEST(SolverRegistryTest, OptionsParseAndApply) {
  const std::unique_ptr<Reconstructor> solver = builtin_solvers().make(
      "amp", "max_iterations=3;convergence_tol=0;damping=0.9");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->name(), "amp");

  const auto channel = noise::make_z_channel(0.1);
  const core::Instance instance = make_test_instance(*channel, 7);
  rand::Rng rng(0);
  const SolveResult result = solver->solve(instance, *channel, rng);
  // tol=0 forces the full (tiny) budget to be used without converging.
  EXPECT_EQ(result.iterations, 3);
  EXPECT_FALSE(result.converged);
}

// ---------------------------------------- bit-identity vs the legacy paths

TEST(SolverBitIdentityTest, GreedyMatchesLegacyOnAllChannels) {
  const auto solver = builtin_solvers().make("greedy");
  for (const auto& channel : test_channels()) {
    const core::Instance instance = make_test_instance(*channel, 1);
    rand::Rng rng(0);
    const SolveResult result = solver->solve(instance, *channel, rng);
    const core::GreedyResult legacy = core::greedy_reconstruct(instance);
    EXPECT_EQ(result.estimate, legacy.estimate) << channel->name();
    // The soft scores are the centered Algorithm 1 statistic.
    EXPECT_EQ(result.scores, core::compute_scores(instance).centered_scores())
        << channel->name();
    EXPECT_TRUE(result.converged);
  }
}

TEST(SolverBitIdentityTest, ChannelAwareGreedyMatchesLegacyCentering) {
  const auto solver = builtin_solvers().make("greedy_channel_aware");
  for (const auto& channel : test_channels()) {
    const core::Instance instance = make_test_instance(*channel, 2);
    rand::Rng rng(0);
    const SolveResult result = solver->solve(instance, *channel, rng);
    const pooling::QueryDesign design = pooling::paper_design(kN);
    const core::GreedyResult legacy = core::greedy_reconstruct(
        instance,
        core::centering_from(lin_of(instance, *channel), design.gamma));
    EXPECT_EQ(result.estimate, legacy.estimate) << channel->name();
  }
}

TEST(SolverBitIdentityTest, TwoStageMatchesLegacyOnAllChannels) {
  const auto solver = builtin_solvers().make("two_stage");
  for (const auto& channel : test_channels()) {
    const core::Instance instance = make_test_instance(*channel, 3);
    rand::Rng rng(0);
    const SolveResult result = solver->solve(instance, *channel, rng);
    const core::TwoStageResult legacy =
        core::two_stage_reconstruct(instance, lin_of(instance, *channel));
    EXPECT_EQ(result.estimate, legacy.estimate) << channel->name();
    EXPECT_EQ(result.iterations, legacy.rounds_used) << channel->name();
    EXPECT_EQ(result.converged, legacy.converged) << channel->name();
  }
}

TEST(SolverBitIdentityTest, AmpMatchesLegacyOnAllChannels) {
  const auto solver = builtin_solvers().make("amp");
  for (const auto& channel : test_channels()) {
    const core::Instance instance = make_test_instance(*channel, 4);
    rand::Rng rng(0);
    const SolveResult result = solver->solve(instance, *channel, rng);
    const amp::AmpResult legacy =
        amp::amp_reconstruct(instance, lin_of(instance, *channel));
    EXPECT_EQ(result.estimate, legacy.estimate) << channel->name();
    EXPECT_EQ(result.scores, legacy.x) << channel->name();
    EXPECT_EQ(result.iterations, legacy.iterations) << channel->name();
  }
}

TEST(SolverBitIdentityTest, AmpSeMatchesAmpEstimateAndAddsPrediction) {
  const auto amp_solver = builtin_solvers().make("amp");
  const auto se_solver = builtin_solvers().make("amp_se");
  const auto channel = noise::make_z_channel(0.1);
  const core::Instance instance = make_test_instance(*channel, 5);
  rand::Rng rng(0);
  const SolveResult amp_result = amp_solver->solve(instance, *channel, rng);
  const SolveResult se_result = se_solver->solve(instance, *channel, rng);
  EXPECT_EQ(se_result.estimate, amp_result.estimate);
  EXPECT_EQ(se_result.scores, amp_result.scores);
  ASSERT_NE(se_result.diagnostics.find("se_tau2_final"), nullptr);
  ASSERT_NE(se_result.diagnostics.find("se_iterations"), nullptr);
  EXPECT_GT(se_result.diagnostics.at("se_tau2_final").as_double(), 0.0);
}

TEST(SolverBitIdentityTest, DistGreedyMatchesLegacyOnAllChannels) {
  const auto solver = builtin_solvers().make("dist_greedy");
  for (const auto& channel : test_channels()) {
    const core::Instance instance = make_test_instance(*channel, 6);
    rand::Rng rng(0);
    const SolveResult result = solver->solve(instance, *channel, rng);
    const netsim::DistributedGreedyResult legacy =
        netsim::run_distributed_greedy(instance);
    EXPECT_EQ(result.estimate, legacy.estimate) << channel->name();
    ASSERT_TRUE(result.net.has_value());
    EXPECT_EQ(result.net->rounds, legacy.stats.rounds);
    EXPECT_EQ(result.net->messages, legacy.stats.messages);
    EXPECT_EQ(result.net->bytes, legacy.stats.bytes);
  }
}

TEST(SolverBitIdentityTest, DistTopKMatchesLegacyProtocol) {
  const auto solver = builtin_solvers().make("dist_topk");
  const auto channel = noise::make_z_channel(0.1);
  const core::Instance instance = make_test_instance(*channel, 8);
  rand::Rng rng(0);
  const SolveResult result = solver->solve(instance, *channel, rng);
  const std::vector<double> scores =
      core::compute_scores(instance).centered_scores();
  const netsim::DistributedTopKResult legacy =
      netsim::run_distributed_topk(scores, instance.k());
  EXPECT_EQ(result.estimate, legacy.estimate);
  // Same tie-break as the centralized selection.
  EXPECT_EQ(result.estimate, core::greedy_reconstruct(instance).estimate);
  ASSERT_TRUE(result.net.has_value());
  EXPECT_EQ(result.net->messages, legacy.stats.messages);
}

TEST(SolverBitIdentityTest, DistAmpCarriesNetworkCost) {
  // Small n: the faithful distributed AMP floods the full bipartite
  // graph every iteration.
  const auto solver = builtin_solvers().make("dist_amp", "max_iterations=5");
  const auto channel = noise::make_z_channel(0.1);
  rand::Rng rng(99);
  const core::Instance instance = core::make_instance(
      60, 4, 80, pooling::paper_design(60), *channel, rng);
  rand::Rng solve_rng(0);
  const SolveResult result = solver->solve(instance, *channel, solve_rng);
  EXPECT_EQ(static_cast<Index>(result.estimate.size()), instance.n());
  ASSERT_TRUE(result.net.has_value());
  EXPECT_GT(result.net->messages, 0);
  ASSERT_NE(result.diagnostics.find("amp_messages"), nullptr);
  // Estimate agrees with the centralized AMP run it mirrors (the
  // distributed execution is bit-identical per the netsim tests).
  const amp::AmpOptions options{.max_iterations = 5};
  const amp::AmpResult centralized = amp::amp_reconstruct(
      instance, channel->linearization(60, 4, 30), options);
  EXPECT_EQ(result.estimate, centralized.estimate);
}

// ------------------------------------------------------------ channel spec

TEST(ChannelSpecTest, ParsesTheGrammar) {
  const ChannelSpec z = parse_channel_spec("z:0.1");
  EXPECT_EQ(z.family, ChannelSpec::Family::BitFlip);
  EXPECT_DOUBLE_EQ(z.p, 0.1);
  EXPECT_DOUBLE_EQ(z.q, 0.0);
  EXPECT_EQ(z.label(), "z:0.1");

  const ChannelSpec bf = parse_channel_spec("bitflip:0.2:0.05");
  EXPECT_DOUBLE_EQ(bf.q, 0.05);
  EXPECT_EQ(bf.make()->name(), noise::make_bitflip_channel(0.2, 0.05)->name());

  const ChannelSpec gauss = parse_channel_spec("gauss:1.5");
  EXPECT_EQ(gauss.family, ChannelSpec::Family::Gaussian);
  EXPECT_DOUBLE_EQ(gauss.lambda, 1.5);

  EXPECT_EQ(parse_channel_spec("noiseless").make()->name(), "noiseless");

  EXPECT_THROW((void)parse_channel_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("z"), std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("z:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("bitflip:0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("wat:1"), std::invalid_argument);
  // Out-of-range parameters are rejected at parse time, not deep in the
  // channel/theory code (and gauss:-1 must not silently run noiseless).
  EXPECT_THROW((void)parse_channel_spec("z:1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("z:-0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("bitflip:0.6:0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_channel_spec("gauss:-1"), std::invalid_argument);
  EXPECT_EQ(parse_channel_spec("gauss:0").make()->name(), "noiseless");
}

TEST(ChannelSpecTest, TheoryBoundMatchesFamily) {
  const ChannelSpec z = parse_channel_spec("z:0.1");
  const ChannelSpec gauss = parse_channel_spec("gauss:1");
  EXPECT_GT(z.theory_m(1000, 0.25, 0.1), 0.0);
  EXPECT_GT(gauss.theory_m(1000, 0.25, 0.1), 0.0);
  EXPECT_NE(z.theory_m(1000, 0.25, 0.1), gauss.theory_m(1000, 0.25, 0.1));
}

TEST(DesignSpecTest, ParsesTheGrammar) {
  const DesignSpec paper = parse_design_spec("paper");
  EXPECT_EQ(paper.family, DesignSpec::Family::Paper);
  EXPECT_EQ(paper.label(), "paper");

  const DesignSpec wr = parse_design_spec("wr:0.25");
  EXPECT_EQ(wr.family, DesignSpec::Family::Fractional);
  EXPECT_EQ(wr.mode, pooling::SamplingMode::WithReplacement);
  EXPECT_DOUBLE_EQ(wr.fraction, 0.25);
  EXPECT_EQ(wr.label(), "wr:0.25");

  const DesignSpec wor = parse_design_spec("wor:0.5");
  EXPECT_EQ(wor.mode, pooling::SamplingMode::WithoutReplacement);
  EXPECT_EQ(wor.label(), "wor:0.5");

  const DesignSpec bernoulli = parse_design_spec("bernoulli:0.1");
  EXPECT_EQ(bernoulli.mode, pooling::SamplingMode::Bernoulli);
  EXPECT_EQ(bernoulli.label(), "bernoulli:0.1");

  const DesignSpec regular = parse_design_spec("regular:6");
  EXPECT_EQ(regular.family, DesignSpec::Family::Regular);
  EXPECT_EQ(regular.delta, 6);
  EXPECT_EQ(regular.label(), "regular:6");
}

TEST(DesignSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_design_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wr"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wr:0.1:0.2"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wr:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("regular"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("regular:x"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wat:1"), std::invalid_argument);
  // Out-of-range parameters fail at parse time, not at instantiate.
  EXPECT_THROW((void)parse_design_spec("wr:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wr:1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("bernoulli:-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("regular:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("regular:-3"), std::invalid_argument);
}

TEST(DesignSpecTest, InstantiateResolvesEachFamily) {
  const pooling::GraphDesign paper = parse_design_spec("paper").instantiate(100);
  EXPECT_EQ(paper.family, pooling::DesignFamily::PerQuery);
  EXPECT_EQ(paper.per_query.gamma, 50);
  EXPECT_EQ(paper.per_query.mode, pooling::SamplingMode::WithReplacement);

  const pooling::GraphDesign wor = parse_design_spec("wor:0.25").instantiate(100);
  EXPECT_EQ(wor.family, pooling::DesignFamily::PerQuery);
  EXPECT_EQ(wor.per_query.gamma, 25);
  EXPECT_EQ(wor.per_query.mode, pooling::SamplingMode::WithoutReplacement);

  const pooling::GraphDesign regular = parse_design_spec("regular:6").instantiate(100);
  EXPECT_EQ(regular.family, pooling::DesignFamily::DoublyRegular);
  EXPECT_EQ(regular.delta, 6);

  // Degenerate resolutions surface as the pooling layer's usage errors.
  EXPECT_THROW((void)parse_design_spec("paper").instantiate(1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_design_spec("wr:0.001").instantiate(100),
               std::invalid_argument);
}

}  // namespace
}  // namespace npd::solve
