#include "core/host_governor.hpp"

#include <algorithm>

#include "sim/power_model.hpp"
#include "util/check.hpp"

namespace clip::core {

HostGovernor::HostGovernor(sim::MachineSpec model)
    : model_(std::move(model)), selector_(model_) {
  model_.validate();
}

GovernorDecision HostGovernor::govern(parallel::ThreadPool& pool,
                                      const GovernedKernel& kernel,
                                      Watts node_budget) {
  CLIP_REQUIRE(node_budget.value() > 0.0, "budget must be positive");
  const int full = std::min(pool.max_threads(), model_.shape.total_cores());
  const int half = std::max(1, full / 2);

  // Real sample-configuration runs.
  pool.set_concurrency(full);
  const workloads::KernelResult r_full = kernel(pool);
  pool.set_concurrency(half);
  const workloads::KernelResult r_half = kernel(pool);
  CLIP_REQUIRE(r_full.seconds > 0.0 && r_half.seconds > 0.0,
               "kernel must run for a measurable time");

  GovernorDecision decision;
  decision.full_time_s = r_full.seconds;
  decision.half_time_s = r_half.seconds;

  // Assemble a CLIP profile from the measurements. Power for the all-core
  // sample comes from the host model at full utilization (no RAPL counters
  // in this environment); bandwidth from the measured traffic.
  ProfileData& p = decision.profile;
  p.app_name = "governed-kernel";
  p.all_core.config.threads = full;
  p.all_core.time = Seconds(r_full.seconds);
  const double bw_full =
      r_full.bytes_moved / r_full.seconds / 1e9;  // GB/s
  const double bw_half = r_half.bytes_moved / r_half.seconds / 1e9;
  p.node_bw_gbps = bw_full;
  p.per_core_bw_gbps = std::max(bw_full / full, bw_half / half);
  const double peak_bw = model_.shape.sockets * model_.socket_bw_gbps;
  p.memory_intensity = std::min(1.0, bw_full / peak_bw);
  p.preferred_affinity = p.memory_intensity >= 0.35
                             ? parallel::AffinityPolicy::kScatter
                             : parallel::AffinityPolicy::kCompact;
  {
    // Model-based power for the profiled point (documented substitution).
    const sim::PowerModel power(model_);
    sim::NodeActivity activity{
        .placement = parallel::place_threads(model_.shape, full,
                                             parallel::AffinityPolicy::kScatter),
        .f_rel = 1.0,
        .utilization = 1.0,
        .compute_intensity = 0.9,
        .achieved_bw_gbps = bw_full,
        .cpu_load_multiplier = 1.0};
    p.all_core.cpu_power = power.cpu_power(activity);
    p.all_core.mem_power = power.mem_power(activity);
    p.all_core.events.cycles_active_per_s =
        full * model_.ladder.nominal().value() * 1e9;
  }
  p.half_core.config.threads = half;
  p.half_core.time = Seconds(r_half.seconds);
  p.perf_ratio_half_over_all = r_full.seconds / r_half.seconds;
  p.all_core.events.read_bw_gbps = bw_full;

  decision.cls = classifier_.classify(p);
  // The inflection for non-linear classes: without the MLR (no event
  // counters on the host), fall back to the half-core count — the paper's
  // conservative anchor (the half sample is the last point known to be on
  // the scaling segment, or past the peak when the ratio exceeds one).
  const int np = decision.cls == workloads::ScalabilityClass::kLinear
                     ? 0
                     : std::max(2, half);
  decision.node =
      selector_.select(AppModels(model_, p, decision.cls, np), node_budget);

  // Enforce on the real pool.
  pool.set_concurrency(decision.node.config.threads);
  pool.set_affinity(decision.node.config.affinity, model_.shape);
  return decision;
}

}  // namespace clip::core
