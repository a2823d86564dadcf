// SimExecutor: the single entry point through which schedulers "run" a
// workload on the simulated cluster and observe time, power, energy, and
// hardware events. This is the stand-in for the paper's real 8-node Haswell
// testbed (see DESIGN.md §1 for the substitution argument). An executor and
// the cache attached to it are used from one thread at a time: run()
// advances the meter's noise stream.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/session.hpp"
#include "sim/comm_model.hpp"
#include "sim/config.hpp"
#include "sim/exec_cache.hpp"
#include "sim/machine.hpp"
#include "sim/phased.hpp"
#include "sim/power_meter.hpp"
#include "sim/rapl.hpp"
#include "sim/variability.hpp"
#include "workloads/phases.hpp"
#include "workloads/signature.hpp"

namespace clip::sim {

class SimExecutor {
 public:
  /// `meter` options control measurement noise (disable for exact tests).
  explicit SimExecutor(MachineSpec spec, MeterOptions meter = MeterOptions{});

  /// Neither copyable nor movable: the RAPL solver and its power model
  /// point at this executor's own spec_, so a copy or a moved-to executor
  /// would read the source's. Factories returning a prvalue still work
  /// (guaranteed copy elision).
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  [[nodiscard]] const MachineSpec& spec() const { return spec_; }
  [[nodiscard]] const Variability& variability() const {
    return variability_;
  }

  /// The measurement-noise meter run() reads through — exposed so callers
  /// can program faults or attach a flight recorder (meter.set_timeline).
  [[nodiscard]] PowerMeter& meter() { return meter_; }

  /// Attach an observability session (nullptr detaches): every run bumps
  /// `sim.runs`/`sim.node_solves` and, with a sink attached, emits a
  /// "sim.run" span. Detached cost is one branch per run. Counter handles
  /// are resolved here once (registry references are stable), so the hot
  /// paths bump atomics directly instead of re-finding metrics by name.
  void set_observer(obs::ObsSession* obs);

  /// Attach a memoization cache for exact runs (nullptr detaches; not
  /// owned). The exact path is a pure function of (spec, workload, config),
  /// so hits return bit-identical measurements. run_exact probes it (and so
  /// do run() and narrow run_batch frontiers; wide frontiers do not). Hits
  /// bump `sim.exact_cache_hits` and skip `sim.runs`; misses bump
  /// `sim.exact_cache_misses` and compute as before. One cache may be shared
  /// by several executors — keys embed the full machine spec.
  void set_exact_cache(ExactRunCache* cache);
  [[nodiscard]] ExactRunCache* exact_cache() const { return cache_; }

  /// Execute `w` under `cfg` and return the (noisy) measurement.
  ///
  /// The problem strong-scales across the active nodes; every node runs the
  /// same node config (optionally with per-node CPU-cap overrides from the
  /// variability coordinator); the job completes when the slowest node
  /// finishes plus communication time.
  [[nodiscard]] Measurement run(const workloads::WorkloadSignature& w,
                                const ClusterConfig& cfg);

  /// Ground-truth run with no measurement noise — used by oracle searches
  /// and tests. Identical model, exact values.
  [[nodiscard]] Measurement run_exact(const workloads::WorkloadSignature& w,
                                      const ClusterConfig& cfg) const;

  /// The execution time of run_exact(w, cfg), bit for bit, and nothing
  /// else: no per-node measurements, event rates, power or energy are
  /// built, and the attached ExactRunCache is neither probed nor filled
  /// (its hit/miss counters stay flat). Each call counts one `sim.runs`
  /// and `cfg.nodes` `sim.node_solves` under a "sim.run" span, as a
  /// run_exact miss does. For callers that compare times and memoize them
  /// themselves, like the oracle's bound memo.
  [[nodiscard]] Seconds exact_time(const workloads::WorkloadSignature& w,
                                   const ClusterConfig& cfg) const;

  /// Evaluate a whole cap frontier in one call: `result[i]` equals
  /// `run_exact(w, base with caps[i] substituted).time` bit for bit. The
  /// cap-independent work (placement, perf/power/comm subexpressions,
  /// frequency-ladder terms) is hoisted and done once for the frontier,
  /// exact duplicates within the frontier are computed once, and each point
  /// solves its nodes, takes the slowest and adds the frontier's one
  /// communication term — no Measurement is built. The frontier encodes no
  /// cache key and consults no cache (like exact_time, it leaves the
  /// hit/miss counters flat): whole frontiers almost never recur, and a
  /// batched point is cheaper to recompute than to store. Requires empty
  /// cpu_cap_overrides (per-node overrides are scalar-only). Frontiers
  /// smaller than `kMinBatchFrontier` skip the batch machinery entirely and
  /// loop run_exact, cache probes included — below that width the setup
  /// costs more than it saves.
  [[nodiscard]] std::vector<Seconds> run_batch(
      const workloads::WorkloadSignature& w, const ClusterConfig& base,
      const std::vector<CapPoint>& caps) const;

  /// Frontier width below which run_batch bypasses every gram of batch
  /// setup (dedupe, hoisting) and takes the plain scalar path. Pinned by
  /// tests/test_batch.cpp.
  static constexpr std::size_t kMinBatchFrontier = 4;

  /// Execute a phased workload with per-phase node configurations over one
  /// node allocation (exact, noise-free). At each phase boundary the node
  /// runtime re-throttles, re-pins and re-programs the caps.
  [[nodiscard]] PhasedMeasurement run_phased_exact(
      const workloads::PhasedWorkload& w,
      const PhasedClusterConfig& cfg) const;

 private:
  /// run_exact's argument checks, shared with exact_time.
  void require_runnable(const ClusterConfig& cfg) const;

  /// The uncached model evaluation: returns the run's time and, when `full`
  /// is non-null, fills that (empty) measurement — the pre-memoization
  /// run_exact body.
  Seconds compute_exact(const workloads::WorkloadSignature& w,
                        const ClusterConfig& cfg, Measurement* full) const;

  /// Solve every node of `cfg` against `prep` in node order — once when the
  /// nodes are identical — and return the slowest node's time. `nodes`,
  /// when non-null, receives each node's measurement.
  [[nodiscard]] Seconds solve_nodes(
      const workloads::WorkloadSignature& w, const RaplSolver::Prepared& prep,
      const ClusterConfig& cfg, std::vector<NodeMeasurement>* nodes) const;

  /// NodeMeasurement (events included) from one solved operating point.
  [[nodiscard]] NodeMeasurement node_measurement(
      const workloads::WorkloadSignature& w, int threads,
      const OperatingPoint& op) const;

  MachineSpec spec_;
  Variability variability_;
  RaplSolver rapl_;
  EventModel events_;
  PowerMeter meter_;
  obs::ObsSession* obs_ = nullptr;
  ExactRunCache* cache_ = nullptr;
  std::string cache_prefix_;  ///< encoded spec, computed once on attach
  /// Metric handles resolved by set_observer (null iff obs_ is null).
  struct Metrics {
    obs::Counter* runs = nullptr;
    obs::Counter* node_solves = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* batch_runs = nullptr;
    obs::Histogram* batch_width = nullptr;
  } metrics_;
};

}  // namespace clip::sim
