// Node power estimation and the acceptable power range (paper §III-B1).
//
// From the measured all-core profile, CLIP calibrates a per-core load power
// and a per-core DRAM demand, then predicts node power at any (threads,
// placement, frequency, memory level) point using the hardware constants of
// the power model (socket base powers, DVFS exponent — facts about the
// machine, not the application). The acceptable node power range is
//   [ P_cpu,L2 + P_mem,L2 ,  P_cpu,L1 + P_mem,L1 ]
// where L1/L2 are the highest/lowest DVFS states at the recommended
// configuration: below the lower bound "performance decreases significantly
// and the performance loss can outweigh the gain on the power savings";
// above the upper bound power is wasted.
#pragma once

#include <vector>

#include "core/profile.hpp"
#include "sim/machine.hpp"
#include "util/units.hpp"

namespace clip::core {

/// The acceptable power range of one node for one application+config.
struct PowerRange {
  Watts low{0.0};   ///< P_cpu,L2 + P_mem,L2 (lowest frequency)
  Watts high{0.0};  ///< P_cpu,L1 + P_mem,L1 (highest frequency)
};

class PowerEstimator {
 public:
  PowerEstimator(const sim::MachineSpec& spec, const ProfileData& profile);

  /// Predicted processor-domain power at an operating point.
  [[nodiscard]] Watts cpu_power(int threads,
                                parallel::AffinityPolicy affinity,
                                double f_rel) const;

  /// cpu_power() at state `state` of the machine's DVFS ladder (ascending,
  /// as FrequencyLadder::states()), bit for bit: the f_rel^exponent term of
  /// every state is taken once, when the estimator is built, so a selector
  /// pricing the ladder for each candidate pays no pow() per state.
  [[nodiscard]] Watts cpu_power_at_state(int threads,
                                         parallel::AffinityPolicy affinity,
                                         std::size_t state) const;

  /// The load-independent part of cpu_power(): base power of the sockets
  /// holding threads plus parked power of the empty ones.
  [[nodiscard]] double cpu_base_w(int threads,
                                  parallel::AffinityPolicy affinity) const;

  /// cpu_power_at_state(), cpu_base_w() and mem_power_at_bw() at the
  /// placement parallel::place_threads gives (threads, affinity), bit for
  /// bit: a caller pricing many states and levels at one thread count
  /// places its threads once.
  [[nodiscard]] Watts cpu_power_at_state(
      const parallel::Placement& placement, std::size_t state) const;
  [[nodiscard]] double cpu_base_w(const parallel::Placement& placement) const;
  [[nodiscard]] Watts mem_power_at_bw(const parallel::Placement& placement,
                                      double achieved_bw_gbps) const;

  /// Predicted memory-domain power (achieved bandwidth capped by the level).
  [[nodiscard]] Watts mem_power(int threads,
                                parallel::AffinityPolicy affinity,
                                sim::MemPowerLevel level) const;

  /// Memory-domain power at an explicit achieved bandwidth (GB/s).
  [[nodiscard]] Watts mem_power_at_bw(int threads,
                                      parallel::AffinityPolicy affinity,
                                      double achieved_bw_gbps) const;

  [[nodiscard]] Watts node_power(int threads,
                                 parallel::AffinityPolicy affinity,
                                 sim::MemPowerLevel level,
                                 double f_rel) const;

  /// Acceptable range at a configuration (Eqs. of §III-B1).
  [[nodiscard]] PowerRange acceptable_range(
      int threads, parallel::AffinityPolicy affinity,
      sim::MemPowerLevel level) const;

  /// Predicted DRAM demand (GB/s) of `threads` threads at nominal frequency.
  [[nodiscard]] double bw_demand_gbps(int threads) const;

 private:
  [[nodiscard]] parallel::Placement placement(
      int threads, parallel::AffinityPolicy affinity) const;

  const sim::MachineSpec* spec_;
  double per_core_load_w_ = 0.0;
  double per_core_bw_gbps_ = 0.0;
  std::vector<double> ladder_pow_;  ///< f_rel^exponent per ladder state
};

}  // namespace clip::core
