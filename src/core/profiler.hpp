// SmartProfiler — paper §IV-B1.
//
// Gathers everything CLIP needs about an unknown application with at most
// three short sample-configuration executions on one node:
//   1. all cores, full power, scatter placement. The measured DRAM traffic
//      and remote-access intensity decide the placement preference used for
//      the remaining profiles ("distinguish mapping preference ... and
//      determine the core affinity for the half-core profile").
//   2. half of the cores with that placement. The half/all performance
//      ratio classifies the scalability trend.
//   3. for non-linear classes only: a validation run at the concurrency the
//      inflection predictor suggests, refining the performance model.
//
// Profiling executes a truncated problem ("a few iterations ... compared to
// a full run, which is usually hundreds or thousands of iterations"): we run
// kProfileFraction of the workload and scale times back up.
#pragma once

#include <functional>

#include "core/profile.hpp"
#include "obs/session.hpp"
#include "sim/executor.hpp"
#include "workloads/signature.hpp"

namespace clip::core {

/// Share of the full run each sample configuration executes.
inline constexpr double kProfileFraction = 0.05;
/// Memory intensity at or above which the profiler keeps scatter placement.
inline constexpr double kScatterBwThreshold = 0.35;

class SmartProfiler {
 public:
  explicit SmartProfiler(sim::SimExecutor& executor) : executor_(&executor) {}

  /// Steps 1 and 2 (always executed). The returned ProfileData has no
  /// validation sample yet; add one with `validate_at` when the predictor
  /// proposes a concurrency.
  [[nodiscard]] ProfileData profile(const workloads::WorkloadSignature& w);

  /// Step 3: run the sample configuration at `threads` and attach it.
  void validate_at(const workloads::WorkloadSignature& w,
                   ProfileData& profile, int threads);

  [[nodiscard]] sim::SimExecutor& executor() { return *executor_; }

  /// Attach an observability session (nullptr detaches): one
  /// "profiler.sample" span and a `profiler.samples` count per sample
  /// configuration executed.
  void set_observer(obs::ObsSession* obs) { obs_ = obs; }

 private:
  [[nodiscard]] SampleProfile run_sample(
      const workloads::WorkloadSignature& w, int threads,
      parallel::AffinityPolicy affinity);

  sim::SimExecutor* executor_;
  obs::ObsSession* obs_ = nullptr;
};

}  // namespace clip::core
