// SimExecutor: the single entry point through which schedulers "run" a
// workload on the simulated cluster and observe time, power, energy, and
// hardware events. This is the stand-in for the paper's real 8-node Haswell
// testbed (see DESIGN.md §1 for the substitution argument).
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
  /// so hits return bit-identical measurements. Hits bump
  /// `sim.exact_cache_hits` and skip `sim.runs`; misses bump
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

  /// run_exact minus the cache: same bytes, but the attached ExactRunCache
  /// is neither probed nor filled (and the hit/miss counters stay flat —
  /// no cache was consulted). For callers that memoize results themselves,
  /// like the oracle's bound memo: paying ~0.5 KiB of key encoding to
  /// store an entry nobody will ever look up again is pure overhead.
  [[nodiscard]] Measurement run_exact_uncached(
      const workloads::WorkloadSignature& w, const ClusterConfig& cfg) const;

  /// Evaluate a whole cap frontier in one call: `(*result)[i]` equals
  /// `run_exact(w, base with caps[i] substituted)` bit for bit, but the
  /// cap-independent work (placement, perf/power/comm subexpressions,
  /// frequency-ladder terms, cache key prefix) is hoisted and done once for
  /// the frontier, per-cap state is laid out contiguously (optionally
  /// walked two points per SSE2 instruction — see set_batch_simd), exact
  /// duplicates within the frontier are computed once, and the cache is
  /// probed/filled at *frontier* granularity: one lookup serves the whole
  /// call, a miss inserts the computed vector by move, and a hit returns
  /// the stored vector without copying a Measurement (hence the shared_ptr
  /// return). Requires empty cpu_cap_overrides (per-node overrides are
  /// scalar-only). Frontiers smaller than `kMinBatchFrontier` skip the
  /// batch machinery entirely and loop run_exact — below that width the
  /// setup costs more than it saves.
  [[nodiscard]] FrontierResult run_batch(const workloads::WorkloadSignature& w,
                                         const ClusterConfig& base,
                                         const std::vector<CapPoint>& caps)
      const;

  /// Frontier width below which run_batch bypasses every gram of batch
  /// setup (prefix encoding, shard grouping, hoisting) and takes the plain
  /// scalar path. Pinned by tests/test_batch.cpp.
  static constexpr std::size_t kMinBatchFrontier = 4;

  /// Toggle the SSE2 frontier kernel (no-op unless compiled in — see
  /// RaplSolver::simd_compiled). On by default when available; the scalar
  /// fallback is bit-identical, so this only exists for A/B tests.
  void set_batch_simd(bool on) { batch_simd_ = on; }
  [[nodiscard]] bool batch_simd() const { return batch_simd_; }

  /// Execute a phased workload with per-phase node configurations over one
  /// node allocation (exact, noise-free). At each phase boundary the node
  /// runtime re-throttles, re-pins and re-programs the caps.
  [[nodiscard]] PhasedMeasurement run_phased_exact(
      const workloads::PhasedWorkload& w,
      const PhasedClusterConfig& cfg) const;

 private:
  /// The uncached model evaluation (the pre-memoization run_exact body).
  [[nodiscard]] Measurement compute_exact(const workloads::WorkloadSignature& w,
                                          const ClusterConfig& cfg) const;

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
  bool batch_simd_ = RaplSolver::simd_compiled();
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
