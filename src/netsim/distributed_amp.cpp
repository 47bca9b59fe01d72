#include "netsim/distributed_amp.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "netsim/distributed_topk.hpp"
#include "util/assert.hpp"

namespace npd::netsim {

namespace {

/// Public constants every node knows (model parameters + standardization).
struct SharedKnowledge {
  Index n = 0;
  Index m = 0;
  amp::DesignOperator design;  // only μ, 1/s and `finish` are used
  double tau2_floor = 0.0;
  const amp::Denoiser* denoiser = nullptr;
  Index iterations = 0;
};

/// One graph neighbour of a node and the edge's multiplicity.
struct Neighbour {
  Index id = 0;
  double count = 0.0;
};

/// Agent i: holds x_i and its own (query, multiplicity) list — it knows
/// which queries measured it and how often (local knowledge).
class AmpAgentNode final : public Node {
 public:
  AmpAgentNode(Index self, const SharedKnowledge* shared)
      : self_(self), shared_(shared) {}

  void add_query(Index j, Index count) {
    queries_.push_back({j, static_cast<double>(count)});
  }

  void on_round(Index round, std::span<const Message> received,
                NetworkContext& ctx) override {
    // Agent rounds are the odd rounds: 1, 3, ..., 2T-1.
    if (round % 2 != 1 || round > 2 * shared_->iterations - 1) {
      return;
    }
    NPD_ASSERT(static_cast<Index>(received.size()) == shared_->m);

    // Reconstruct tau² and the pseudo-data r_i = (Bᵀz)_i + x_i with the
    // operator's summation order: own queries ascending, then Σ_j z_j
    // ascending, then `finish`.
    double z_norm_sq = 0.0;
    double z_sum = 0.0;
    for (const Message& msg : received) {
      z_norm_sq += msg.a * msg.a;
      z_sum += msg.a;
    }
    double own = 0.0;
    for (const Neighbour& q : queries_) {
      own += q.count * received[static_cast<std::size_t>(q.id)].a;
    }
    const double pseudo = shared_->design.finish(own, z_sum) + x_;
    const double tau2 =
        std::max(z_norm_sq / static_cast<double>(shared_->m),
                 shared_->tau2_floor);

    x_ = shared_->denoiser->eta(pseudo, tau2);
    const double eta_prime = shared_->denoiser->eta_prime(pseudo, tau2);

    // Send (x_i, η'_i) back to every query node unless this was the last
    // iteration (the queries' final residual update is never consumed).
    const bool last_iteration = round == 2 * shared_->iterations - 1;
    if (!last_iteration) {
      for (Index j = 0; j < shared_->m; ++j) {
        ctx.send(self_, shared_->n + j, Tag::User, x_, eta_prime);
      }
    }
  }

  [[nodiscard]] double x() const { return x_; }

 private:
  Index self_;
  const SharedKnowledge* shared_;
  std::vector<Neighbour> queries_;  // ascending query id
  double x_ = 0.0;
};

/// Query node j: holds y_j, z_j and its own (distinct agent,
/// multiplicity) list — its row of the counting matrix (local knowledge).
class AmpQueryNode final : public Node {
 public:
  AmpQueryNode(Index network_id, const SharedKnowledge* shared, double y,
               std::vector<Neighbour> agents)
      : network_id_(network_id),
        shared_(shared),
        y_(y),
        z_(y),
        agents_(std::move(agents)) {}

  void on_round(Index round, std::span<const Message> received,
                NetworkContext& ctx) override {
    // Query rounds are the even rounds 0, 2, ..., 2(T-1).
    if (round % 2 != 0 || round > 2 * (shared_->iterations - 1)) {
      return;
    }
    if (round > 0) {
      // Update the residual with the Onsager term:
      //   z = y − (B·x)_j + z_old·(Σ_i η'_i)/m,
      // with (B·x)_j in the operator's summation order: own agents
      // ascending, then Σ_i x_i ascending, then `finish`.
      NPD_ASSERT(static_cast<Index>(received.size()) == shared_->n);
      double x_sum = 0.0;
      double eta_prime_sum = 0.0;
      for (const Message& msg : received) {
        x_sum += msg.a;
        eta_prime_sum += msg.b;
      }
      double own = 0.0;
      for (const Neighbour& a : agents_) {
        own += a.count * received[static_cast<std::size_t>(a.id)].a;
      }
      const double bx = shared_->design.finish(own, x_sum);
      const double onsager = eta_prime_sum / static_cast<double>(shared_->m);
      z_ = y_ - bx + z_ * onsager;
    }
    for (Index i = 0; i < shared_->n; ++i) {
      ctx.send(network_id_, i, Tag::User, z_);
    }
  }

 private:
  Index network_id_;
  const SharedKnowledge* shared_;
  double y_;
  double z_;
  std::vector<Neighbour> agents_;  // ascending agent id
};

}  // namespace

DistributedAmpResult run_distributed_amp(const core::Instance& instance,
                                         const amp::AmpProblem& problem,
                                         const amp::Denoiser& denoiser,
                                         Index iterations) {
  NPD_CHECK_MSG(iterations >= 1, "need at least one AMP iteration");
  const Index n = problem.n;
  const Index m = problem.m;
  NPD_CHECK(instance.n() == n && instance.m() == m);
  NPD_CHECK_MSG(problem.b.graph == &instance.graph,
                "problem must be standardized from this instance");

  SharedKnowledge shared;
  shared.n = n;
  shared.m = m;
  shared.design = problem.b;
  shared.tau2_floor = std::max(problem.effective_noise_var, 1e-12);
  shared.denoiser = &denoiser;
  shared.iterations = iterations;

  Network network;
  std::vector<AmpAgentNode*> agents;
  agents.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    auto agent = std::make_unique<AmpAgentNode>(i, &shared);
    agents.push_back(agent.get());
    (void)network.add_node(std::move(agent));
  }
  // One pass over the query lists in ascending j hands every agent its
  // queries in ascending order.
  for (Index j = 0; j < m; ++j) {
    const auto distinct = instance.graph.query_distinct(j);
    const auto counts = instance.graph.query_multiplicity(j);
    std::vector<Neighbour> row;
    row.reserve(distinct.size());
    for (std::size_t idx = 0; idx < distinct.size(); ++idx) {
      row.push_back({distinct[idx], static_cast<double>(counts[idx])});
      agents[static_cast<std::size_t>(distinct[idx])]->add_query(j,
                                                                  counts[idx]);
    }
    (void)network.add_node(std::make_unique<AmpQueryNode>(
        n + j, &shared, problem.y[static_cast<std::size_t>(j)],
        std::move(row)));
  }

  // Rounds 0..2T-1: T query rounds interleaved with T agent rounds.
  network.run_rounds(2 * iterations);
  NPD_CHECK_MSG(network.pending_messages() == 0,
                "AMP protocol must end quiescent");

  DistributedAmpResult result;
  result.iterations = iterations;
  result.iteration_stats = network.stats();
  result.x.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    result.x[static_cast<std::size_t>(i)] =
        agents[static_cast<std::size_t>(i)]->x();
  }

  const DistributedTopKResult topk =
      run_distributed_topk(result.x, problem.k);
  result.topk_stats = topk.stats;
  result.estimate = topk.estimate;
  return result;
}

}  // namespace npd::netsim
