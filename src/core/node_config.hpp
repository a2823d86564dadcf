// Node-level application-aware configuration selection (paper §III-A, Fig. 5).
//
// Given the application's profile, scalability class and inflection point,
// and a per-node power budget, the selector chooses:
//   * the number of active cores (class-dependent candidate set),
//   * the core/memory affinity (from measured memory access intensity),
//   * the memory power level (lowest level that still feeds the demand —
//     every watt saved on DRAM is a watt of CPU frequency headroom),
//   * the CPU/DRAM power split (the caps actually programmed into RAPL).
//
// Candidates are ranked with the *prediction models* only — no exhaustive
// execution — which is the paper's central claim ("identify a (near) optimal
// configuration without exhaustively searching the configuration space").
#pragma once

#include "core/power_range.hpp"
#include "core/predictor.hpp"
#include "core/profile.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "workloads/signature.hpp"

namespace clip::core {

/// A ranked node configuration with its predictions.
struct NodeDecision {
  sim::NodeConfig config;
  double f_rel_expected = 1.0;   ///< frequency the budget should sustain
  Seconds predicted_time{0.0};
  Watts predicted_power{0.0};
};

struct NodeSelectorOptions {
  double mem_demand_guardband = 1.10;  ///< level must cover demand * this
  double mem_cap_slack_w = 0.5;        ///< extra watts on the DRAM cap
};

/// The prediction models one plan prices its candidates with: built once
/// from the application's profile, class and N_P, then shared by every
/// node-count candidate the allocator scores and by the acceptable range
/// it reports. `spec` must be the machine of the selector that uses them.
struct AppModels {
  AppModels(const sim::MachineSpec& spec, const ProfileData& profile,
            workloads::ScalabilityClass scalability, int inflection)
      : affinity(profile.preferred_affinity),
        power(spec, profile),
        perf(spec, profile, scalability, inflection) {}

  parallel::AffinityPolicy affinity;  ///< the profile's preferred placement
  PowerEstimator power;
  PerfPredictor perf;
};

class NodeConfigSelector {
 public:
  NodeConfigSelector(const sim::MachineSpec& spec,
                     NodeSelectorOptions options = NodeSelectorOptions{})
      : spec_(&spec), options_(options) {}

  /// Choose the best node configuration under `node_budget` (CPU+DRAM watts).
  [[nodiscard]] NodeDecision select(const AppModels& models,
                                    Watts node_budget) const;

  /// Like select(), but with the thread count dictated by the caller (the
  /// §VII constrained-runtime mode): CLIP still coordinates affinity,
  /// memory level and the CPU/DRAM split at exactly `threads`.
  [[nodiscard]] NodeDecision select_forced(const AppModels& models,
                                           Watts node_budget,
                                           int threads) const;

  /// The class-dependent candidate thread counts (paper §II conclusions:
  /// linear keeps every core; logarithmic considers every even count up to
  /// all cores; parabolic never exceeds N_P).
  [[nodiscard]] std::vector<int> candidate_threads(
      workloads::ScalabilityClass cls, int np) const;

  /// Memory power level for a thread count: the lowest (most power-frugal)
  /// level whose bandwidth capacity covers the predicted demand with a
  /// guardband.
  [[nodiscard]] sim::MemPowerLevel choose_mem_level(
      const PowerEstimator& power, int threads,
      parallel::AffinityPolicy affinity) const;

 private:
  [[nodiscard]] NodeDecision select_from(const AppModels& models,
                                         Watts node_budget,
                                         const std::vector<int>& candidates)
      const;

  const sim::MachineSpec* spec_;
  NodeSelectorOptions options_;
};

}  // namespace clip::core
