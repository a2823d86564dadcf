// RAPL-style power-cap enforcement for one node.
//
// The contract mirrors Intel RAPL as the paper uses it (§IV-B4, §V-A): the
// scheduler writes a PKG-domain and a DRAM-domain wattage limit; the
// "hardware" then picks the highest DVFS state whose modeled power fits the
// PKG limit, and throttles DRAM bandwidth so memory power fits the DRAM
// limit. When even the lowest DVFS state exceeds the PKG cap, RAPL
// duty-cycles the clock: we model that as a proportional slowdown with
// power clamped at the cap.
#pragma once

#include <vector>

#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "workloads/signature.hpp"

namespace clip::sim {

/// The solved operating point of one node under its caps.
struct OperatingPoint {
  GHz frequency{0.0};
  double f_rel = 1.0;
  double duty_factor = 1.0;  ///< <1 = clock duty-cycling below min frequency
  NodePerfOutput perf;
  Watts cpu_power{0.0};
  Watts mem_power{0.0};
};

class RaplSolver {
 public:
  /// Validates `spec` (as Variability does), then builds the per-machine
  /// tables every prepare() reads: the DVFS ladder in walk order with each
  /// state's pow(f_rel, power_exponent), and the placement of every
  /// (threads, affinity). `spec` must outlive the solver.
  explicit RaplSolver(const MachineSpec& spec);

  /// Cap-independent context of one (workload, work share, placement): every
  /// term the ladder walk reads that depends on neither cap, hoisted out of
  /// the per-cap loop. Each stored value is a *whole* subexpression of the
  /// scalar model, evaluated with the identical operation tree — reusing it
  /// across cap points cannot change a bit of any result, because no sum or
  /// product is reassociated (see docs/performance.md, "hoisting
  /// invariants"). Valid only while the solver that prepared it lives.
  struct Prepared {
    const parallel::Placement* placement = nullptr;  ///< the solver's table
    double work_s = 0.0;
    double level_bw_gbps = 0.0;  ///< active * socket_bw * bw_fraction(level)
    double mem_base_w = 0.0;     ///< DRAM base draw of the socket mix
    double w_per_gbps = 0.0;     ///< spec.mem_w_per_gbps()
    double numa_factor = 0.0;    ///< 1 - remote_numa_penalty * remote_frac
    double remote_fraction = 0.0;
    double one_minus_m = 0.0;    ///< 1 - memory_boundedness
    double mem_numerator = 0.0;  ///< (1 - s) * m
    double fork_s = 0.0;         ///< fork_overhead_s * (n - 1)
    /// The workload's per-DVFS-state terms, in ladder *walk* order (highest
    /// state first, as the solver's ladder table).
    struct State {
      double demand_gbps = 0.0;  ///< (n * bw_per_core) * f_rel
      double serial_t = 0.0;     ///< s / f_rel
      double compute_t = 0.0;    ///< ((1-s)*(1-m)) / (n * f_rel)
      double nf = 0.0;           ///< n * f_rel
      double sync_t = 0.0;       ///< (sync_coeff * pow(n-1, e)) / f_rel
    };
    std::vector<State> states;
  };

  /// Hoist the cap-independent work of `solve` for `w` at `work_s` under
  /// `cfg`'s placement knobs (threads, affinity, mem_level — the caps in
  /// `cfg` are ignored). Build once per candidate frontier.
  [[nodiscard]] Prepared prepare(const workloads::WorkloadSignature& w,
                                 double work_s, const NodeConfig& cfg) const;

  /// Solve one cap point against a prepared context. `solve` delegates
  /// here, so the scalar and batch paths share one implementation and are
  /// bit-identical by construction.
  [[nodiscard]] OperatingPoint solve_prepared(
      const workloads::WorkloadSignature& w, const Prepared& p, Watts cpu_cap,
      Watts mem_cap, double cpu_multiplier = 1.0) const;

  /// Solve the operating point of a node executing `work_s` 1-core-seconds
  /// of `w` under `cfg`, with manufacturing multiplier `cpu_multiplier`.
  [[nodiscard]] OperatingPoint solve(const workloads::WorkloadSignature& w,
                                     double work_s, const NodeConfig& cfg,
                                     double cpu_multiplier = 1.0) const;

  /// DRAM bandwidth ceiling implied by the memory power level and DRAM cap
  /// for a given placement (before NUMA penalties).
  [[nodiscard]] double bandwidth_ceiling(const parallel::Placement& placement,
                                         MemPowerLevel level,
                                         Watts mem_cap) const;

 private:
  /// The clock-modulation fallback when even the lowest DVFS state exceeds
  /// the PKG cap.
  void apply_duty_cycle(const Prepared& p, Watts cpu_cap,
                        OperatingPoint& op) const;

  /// Memory-domain power from hoisted terms — value-identical to
  /// PowerModel::mem_power at the same activity (same operands, same order).
  [[nodiscard]] Watts mem_power_prepared(const Prepared& p,
                                         double achieved_bw_gbps) const;

  /// One DVFS state of the machine's ladder.
  struct LadderState {
    GHz freq{0.0};
    double f_rel = 0.0;
    double pow_f = 0.0;  ///< pow(f_rel, power_exponent)
  };

  const MachineSpec* spec_;
  std::vector<LadderState> ladder_;  ///< walk order: highest state first
  std::vector<parallel::Placement> placements_;  ///< [(threads-1)*2 + policy]
};

}  // namespace clip::sim
