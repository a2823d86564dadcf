// The "Coordinated" baseline (paper §V-C) — Ge et al., "The case for
// cross-component power coordination on power bounded systems", ICPP 2016.
//
// Application-aware in two respects: the per-node floor is the application's
// own acceptable-range lower bound (not a fixed 180 W), and the CPU/DRAM
// split follows the power model (the memory domain gets what its measured
// demand needs, the CPU the rest). However it always executes at the
// highest possible concurrency — no thread throttling — which is exactly
// where CLIP's class-aware concurrency control wins (paper observation 4:
// "CLIP defends Coordinated for parabolic applications ... by up to 60%").
#pragma once

#include "baselines/scheduler_iface.hpp"
#include "core/node_config.hpp"
#include "core/profiler.hpp"
#include "sim/executor.hpp"

namespace clip::baselines {

class CoordinatedScheduler final : public PowerScheduler {
 public:
  /// Profiles applications through the same smart-profiler machinery CLIP
  /// uses (one all-core sample is all it needs for the power model).
  explicit CoordinatedScheduler(sim::SimExecutor& executor);

  [[nodiscard]] std::string name() const override { return "Coordinated"; }

  [[nodiscard]] sim::ClusterConfig plan(
      const workloads::WorkloadSignature& app,
      Watts cluster_budget) override;

 private:
  sim::SimExecutor* executor_;
  core::SmartProfiler profiler_;
};

}  // namespace clip::baselines
