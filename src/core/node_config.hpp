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
// A plan prices each candidate once (price() builds its CandidateTable);
// each node budget the plan tries then only picks from that table.
#pragma once

#include <cstddef>
#include <vector>

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

/// A memory level must cover the predicted bandwidth demand times this.
inline constexpr double kMemDemandGuardband = 1.10;
/// Extra watts on the DRAM cap above the level's draw.
inline constexpr double kMemCapSlackW = 0.5;

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

/// One plan's candidates, priced once: everything a pick reads that
/// depends on the machine and the plan but not on the node budget. For
/// each candidate thread count, the socket base watts and the CPU watts at
/// every ladder state; for each (threads, memory level) pair the
/// unpriced-bandwidth rule keeps, its DRAM cap and the bandwidth the
/// predictor prices it at; for each pair and ladder state, one predicted
/// time, filled the first time a pick lands on that state (so a predictor
/// that throws does so at the same budget as a fresh pricing would). Built
/// by NodeConfigSelector::price(); it reads the plan's predictor, so it
/// must not outlive the AppModels it was built from.
class CandidateTable {
 private:
  friend class NodeConfigSelector;

  struct Pair {
    int threads;
    std::size_t row;           ///< the thread count's row in cpu_w_
    sim::MemPowerLevel level;
    Watts mem_cap;             ///< the DRAM cap, slack included
    double bw;                 ///< the bandwidth the time is predicted at
  };

  CandidateTable(const AppModels& models, std::size_t states)
      : models_(&models), states_(states) {}

  const AppModels* models_;
  std::size_t states_;          ///< ladder states per row
  std::vector<double> base_w_;  ///< cpu_base_w per thread count
  std::vector<double> cpu_w_;   ///< cpu_power_at_state, [row * states_ + s]
  std::vector<Pair> pairs_;     ///< in (threads, level) order
  std::vector<double> times_;   ///< [pair * states_ + s]; NaN until used
};

class NodeConfigSelector {
 public:
  explicit NodeConfigSelector(const sim::MachineSpec& spec) : spec_(&spec) {}

  /// Price the class-dependent candidates of one plan (paper §II
  /// conclusions: see candidate_threads()), once for every budget the
  /// plan tries.
  [[nodiscard]] CandidateTable price(const AppModels& models) const;
  CandidateTable price(const AppModels&& models) const = delete;

  /// Choose the best priced configuration under `node_budget` (CPU+DRAM
  /// watts): per candidate, subtract its DRAM cap, find the highest ladder
  /// state that fits (or the duty cycle below the lowest) and compare the
  /// predicted times, the first of equal times winning. Fills the table's
  /// time slots it reaches.
  [[nodiscard]] NodeDecision select(CandidateTable& table,
                                    Watts node_budget) const;

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
  [[nodiscard]] CandidateTable price(const AppModels& models,
                                     const std::vector<int>& candidates)
      const;

  const sim::MachineSpec* spec_;
};

}  // namespace clip::core
