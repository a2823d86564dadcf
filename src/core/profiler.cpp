#include "core/profiler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace clip::core {

SampleProfile SmartProfiler::run_sample(const workloads::WorkloadSignature& w,
                                        int threads,
                                        parallel::AffinityPolicy affinity) {
  obs::ScopedSpan span(obs_, "profiler.sample", "profiler");
  span.arg("app", w.name);
  span.arg("threads", threads);
  span.arg("affinity", parallel::to_string(affinity));
  obs::count(obs_, "profiler.samples");
  // Profile a truncated problem: same signature, scaled work. Thread-team
  // forks happen once per iteration, so running a fraction of the
  // iterations also runs a fraction of the forks.
  workloads::WorkloadSignature probe = w;
  probe.node_base_time_s = w.node_base_time_s * kProfileFraction;
  probe.fork_overhead_s = w.fork_overhead_s * kProfileFraction;

  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.threads = threads;
  cfg.node.affinity = affinity;
  cfg.node.mem_level = sim::MemPowerLevel::kL0;
  // "Sufficient power": caps far above any feasible draw.
  cfg.node.cpu_cap = Watts(1e9);
  cfg.node.mem_cap = Watts(1e9);

  const sim::Measurement m = executor_->run(probe, cfg);
  CLIP_ENSURE(m.nodes.size() == 1, "profiling runs on one node");

  SampleProfile s;
  s.config = cfg.node;
  // Scale the truncated run back to full-problem time.
  s.time = Seconds(m.time.value() / kProfileFraction);
  s.cpu_power = m.nodes.front().cpu_power;
  s.mem_power = m.nodes.front().mem_power;
  s.events = m.nodes.front().events;
  return s;
}

ProfileData SmartProfiler::profile(const workloads::WorkloadSignature& w) {
  const auto& spec = executor_->spec();
  const int all = spec.shape.total_cores();
  const int half = all / 2;

  ProfileData p;
  p.app_name = w.name;
  p.app_parameters = w.parameters;

  // Step 1: all cores, scatter (uses every memory controller, so the
  // measured bandwidth reflects true demand, not a placement artifact).
  p.all_core = run_sample(w, all, parallel::AffinityPolicy::kScatter);

  p.node_bw_gbps = p.all_core.events.read_bw_gbps +
                   p.all_core.events.write_bw_gbps;
  const double peak_bw = spec.shape.sockets * spec.socket_bw_gbps;
  p.memory_intensity = peak_bw > 0.0 ? p.node_bw_gbps / peak_bw : 0.0;

  // Mapping preference: memory-hungry workloads need both controllers
  // (scatter); compute-bound ones pack onto as few sockets as possible so
  // unused sockets can park and their power feeds the frequency budget.
  p.preferred_affinity =
      p.memory_intensity >= kScatterBwThreshold
          ? parallel::AffinityPolicy::kScatter
          : parallel::AffinityPolicy::kCompact;

  // Step 2: half cores with the preferred placement.
  p.half_core = run_sample(w, half, p.preferred_affinity);

  // Per-core DRAM demand: the all-core sample may be saturated (achieved
  // bandwidth capped by the memory system, not by demand), which would
  // underestimate what each core asks for. The half-core sample saturates
  // less, so take the larger per-thread figure.
  const double half_bw = p.half_core.events.read_bw_gbps +
                         p.half_core.events.write_bw_gbps;
  p.per_core_bw_gbps = std::max(p.node_bw_gbps / all, half_bw / half);

  p.perf_ratio_half_over_all =
      p.all_core.time.value() / p.half_core.time.value();
  p.all_core.events.perf_ratio_full_half = 1.0 / p.perf_ratio_half_over_all;
  p.half_core.events.perf_ratio_full_half = 1.0 / p.perf_ratio_half_over_all;

  p.profiling_cost =
      Seconds((p.all_core.time.value() + p.half_core.time.value()) *
              kProfileFraction);
  return p;
}

void SmartProfiler::validate_at(const workloads::WorkloadSignature& w,
                                ProfileData& profile, int threads) {
  CLIP_REQUIRE(threads >= 1 &&
                   threads <= executor_->spec().shape.total_cores(),
               "validation thread count outside the node");
  obs::count(obs_, "profiler.validation_samples");
  profile.validation = run_sample(w, threads, profile.preferred_affinity);
  profile.profiling_cost +=
      Seconds(profile.validation->time.value() * kProfileFraction);
}

}  // namespace clip::core
