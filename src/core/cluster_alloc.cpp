#include "core/cluster_alloc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace clip::core {

std::vector<int> ClusterAllocator::power_of_two_counts() const {
  std::vector<int> counts;
  for (int n = 1; n <= spec_->nodes; n *= 2) counts.push_back(n);
  return counts;
}

ClusterDecision ClusterAllocator::allocate(
    const AppModels& models, Watts cluster_budget,
    const std::vector<int>& predefined_counts) const {
  CLIP_REQUIRE(cluster_budget.value() > 0.0,
               "cluster budget must be positive");

  // Every candidate configuration is priced once for the whole plan; the
  // recommendation and each node count below only pick from the table.
  CandidateTable table = selector_->price(models);

  // Budget-free recommendation: the configuration the application would run
  // at given ample power; its acceptable range anchors the allocation.
  const NodeDecision unbounded =
      selector_->select(table, Watts(spec_->max_node_w()));
  const PowerRange range = models.power.acceptable_range(
      unbounded.config.threads, unbounded.config.affinity,
      unbounded.config.mem_level);
  CLIP_ENSURE(range.low.value() > 0.0 && range.high >= range.low,
              "degenerate power range");

  std::vector<int> candidates = predefined_counts;
  if (candidates.empty())
    for (int n = 1; n <= spec_->nodes; ++n) candidates.push_back(n);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [&](int n) { return n < 1 || n > spec_->nodes; }),
      candidates.end());
  CLIP_REQUIRE(!candidates.empty(), "no feasible node counts");

  if (options_.strict_algorithm1)
    return allocate_strict(table, cluster_budget, predefined_counts, range);
  return allocate_scored(table, cluster_budget, candidates, range);
}

ClusterDecision ClusterAllocator::allocate_scored(
    CandidateTable& table, Watts cluster_budget,
    const std::vector<int>& candidates, const PowerRange& range) const {
  ClusterDecision best;
  double best_score = std::numeric_limits<double>::infinity();
  for (int nodes : candidates) {
    const double node_share = cluster_budget.value() / nodes;
    // The full share goes to the node; RAPL enforcement only draws what the
    // chosen operating point needs, so watts above the acceptable range's
    // top are naturally left unused (the predicted time flattens there,
    // which is what steers the node-count choice).
    const Watts usable(node_share);
    if (usable.value() <= spec_->shape.sockets *
                              (spec_->socket_parked_w +
                               spec_->mem_parked_w_per_socket) +
                              2.0)
      continue;  // not even enough for an idle node

    NodeDecision node;
    try {
      obs::ScopedSpan span(obs_, "pipeline.node_select", "pipeline");
      span.arg("nodes", nodes);
      span.arg("node_share_w", node_share);
      node = selector_->select(table, usable);
      span.arg("threads", node.config.threads);
    } catch (const PreconditionError&) {
      continue;  // no feasible node config under this share
    }
    // Strong scaling: per-node time divides by the node count. (The
    // communication term is unknown to the model — a deliberate source of
    // model error, as on the real system.)
    const double score = node.predicted_time.value() / nodes;
    if (score < best_score) {
      best_score = score;
      best.nodes = nodes;
      best.node_budget = Watts(node_share);
      best.node = node;
      best.predicted_score = score;
    }
  }
  CLIP_REQUIRE(std::isfinite(best_score),
               "no feasible cluster allocation under this budget");
  best.node_range = range;
  return best;
}

ClusterDecision ClusterAllocator::allocate_strict(
    CandidateTable& table, Watts cluster_budget,
    const std::vector<int>& predefined_counts,
    const PowerRange& range) const {
  const double p_lo = range.low.value();
  const double p_hi = range.high.value();

  int nodes;
  if (!predefined_counts.empty()) {
    std::vector<int> counts = predefined_counts;
    std::sort(counts.begin(), counts.end());
    const double affordable = cluster_budget.value() / p_lo;
    nodes = counts.front();
    for (int c : counts)
      if (c <= spec_->nodes && static_cast<double>(c) <= affordable)
        nodes = c;
    nodes = std::min(nodes, spec_->nodes);
  } else {
    if (cluster_budget.value() > spec_->nodes * p_hi) {
      nodes = spec_->nodes;
    } else {
      nodes =
          static_cast<int>(std::floor(cluster_budget.value() / p_hi));
      nodes = std::clamp(nodes, 1, spec_->nodes);
    }
  }

  ClusterDecision d;
  d.nodes = nodes;
  d.node_budget = Watts(cluster_budget.value() / nodes);
  d.node_range = range;
  const Watts usable(std::min(d.node_budget.value(), p_hi));
  obs::ScopedSpan span(obs_, "pipeline.node_select", "pipeline");
  span.arg("nodes", nodes);
  d.node = selector_->select(table, usable);
  d.predicted_score = d.node.predicted_time.value() / nodes;
  return d;
}

}  // namespace clip::core
