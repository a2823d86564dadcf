// Cluster-level power allocation — paper §III-B and Algorithm 1.
//
// §III-B1: "we can obtain several options for the node count, each
// corresponding to a node power budget falling in the range
// [P_cpu,L2 + P_mem,L2, P_cpu,L1 + P_mem,L1]. For each application, the
// scheduler could choose the best number n of nodes."
//
// The default mode implements exactly that: enumerate the candidate node
// counts (the application's predefined process counts, or every count up to
// the cluster size), ask the node-level selector for the best configuration
// under each per-node share, and keep the count whose *predicted* cluster
// performance (node time / node count) is best. No execution is involved —
// the scoring runs entirely on the prediction models.
//
// `strict_algorithm1 = true` switches to the literal pseudocode of
// Algorithm 1 (largest predefined count clearing the range's lower bound;
// otherwise P_ub / P_hi nodes). The ablation bench quantifies the gap.
#pragma once

#include <vector>

#include "core/node_config.hpp"
#include "obs/session.hpp"
#include "core/power_range.hpp"
#include "sim/machine.hpp"

namespace clip::core {

struct ClusterDecision {
  int nodes = 1;
  Watts node_budget{0.0};   ///< P_ub / nodes
  PowerRange node_range;    ///< acceptable range at the recommended config
  NodeDecision node;        ///< final node-level decision under node_budget
  double predicted_score = 0.0;  ///< predicted node time / nodes (lower = better)
};

struct ClusterAllocOptions {
  bool strict_algorithm1 = false;
};

class ClusterAllocator {
 public:
  ClusterAllocator(const sim::MachineSpec& spec,
                   const NodeConfigSelector& selector,
                   ClusterAllocOptions options = ClusterAllocOptions{})
      : spec_(&spec), selector_(&selector), options_(options) {}

  /// Choose node count + per-node budget + node config for a profiled
  /// application under the cluster budget. `predefined_counts` empty = the
  /// application decomposes at any node count. The node configurations
  /// are priced once, from `models` (built once by the caller), and every
  /// node count picks from that one table.
  [[nodiscard]] ClusterDecision allocate(
      const AppModels& models, Watts cluster_budget,
      const std::vector<int>& predefined_counts = {}) const;

  /// Default predefined process counts for grid codes: powers of two up to
  /// the cluster size.
  [[nodiscard]] std::vector<int> power_of_two_counts() const;

  /// Attach an observability session (nullptr detaches): one
  /// "pipeline.node_select" span per candidate node count scored.
  void set_observer(obs::ObsSession* obs) { obs_ = obs; }

 private:
  [[nodiscard]] ClusterDecision allocate_scored(
      CandidateTable& table, Watts cluster_budget,
      const std::vector<int>& candidates, const PowerRange& range) const;

  [[nodiscard]] ClusterDecision allocate_strict(
      CandidateTable& table, Watts cluster_budget,
      const std::vector<int>& predefined_counts,
      const PowerRange& range) const;

  const sim::MachineSpec* spec_;
  const NodeConfigSelector* selector_;
  ClusterAllocOptions options_;
  obs::ObsSession* obs_ = nullptr;
};

}  // namespace clip::core
