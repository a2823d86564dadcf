#include "baselines/coordinated.hpp"

#include <algorithm>
#include <cmath>

#include "core/power_range.hpp"
#include "util/check.hpp"

namespace clip::baselines {

CoordinatedScheduler::CoordinatedScheduler(sim::SimExecutor& executor)
    : executor_(&executor), profiler_(executor) {}

sim::ClusterConfig CoordinatedScheduler::plan(
    const workloads::WorkloadSignature& app, Watts cluster_budget) {
  app.validate();
  CLIP_REQUIRE(cluster_budget.value() > 0.0, "budget must be positive");
  const auto& spec = executor_->spec();
  const int all_cores = spec.shape.total_cores();

  const core::ProfileData profile = profiler_.profile(app);
  const core::PowerEstimator power(spec, profile);

  // Highest possible concurrency, placement from measured memory intensity
  // (the ICPP'16 method coordinates components, not thread counts).
  const parallel::AffinityPolicy affinity = profile.preferred_affinity;

  // CPU/DRAM split from the power model: memory gets its demand-driven
  // allocation at the level that feeds all cores.
  const core::NodeConfigSelector selector(spec);
  const sim::MemPowerLevel level =
      selector.choose_mem_level(power, all_cores, affinity);
  const Watts mem_w = power.mem_power(all_cores, affinity, level);

  // Application-specific node floor: the lower bound of the acceptable
  // range at full concurrency.
  const core::PowerRange range =
      power.acceptable_range(all_cores, affinity, level);
  const int affordable = static_cast<int>(
      std::floor(cluster_budget.value() / range.low.value()));
  int nodes = std::clamp(affordable, 1, spec.nodes);
  if (app.has_predefined_process_counts) {
    // Being application-aware, this method also honors the application's
    // valid decomposition counts (as CLIP and the oracle do).
    int snapped = 1;
    for (int n = 1; n <= nodes; n *= 2) snapped = n;
    nodes = snapped;
  }

  sim::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.node.threads = all_cores;
  cfg.node.affinity = affinity;
  cfg.node.mem_level = level;
  const double node_share = cluster_budget.value() / nodes;
  cfg.node.mem_cap = mem_w + Watts(0.5);
  cfg.node.cpu_cap = Watts(std::max(1.0, node_share - mem_w.value()));
  return cfg;
}

}  // namespace clip::baselines
