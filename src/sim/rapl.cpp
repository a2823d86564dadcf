#include "sim/rapl.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace clip::sim {

double RaplSolver::bandwidth_ceiling(const parallel::Placement& placement,
                                     MemPowerLevel level,
                                     Watts mem_cap) const {
  const int active = placement.active_sockets();
  CLIP_REQUIRE(active > 0, "need at least one active socket");

  // Only sockets with threads serve traffic in this model; the others park.
  const double level_bw =
      active * spec_->socket_bw_gbps * bw_fraction(level);

  // The DRAM cap bounds base + activity power; convert the activity
  // headroom back into a bandwidth ceiling.
  const int parked = spec_->shape.sockets - active;
  const double base_w = active * spec_->mem_base_w_per_socket +
                        parked * spec_->mem_parked_w_per_socket;
  const double headroom_w = mem_cap.value() - base_w;
  const double cap_bw =
      headroom_w <= 0.0 ? 0.0 : headroom_w / spec_->mem_w_per_gbps();

  return std::min(level_bw, cap_bw);
}

RaplSolver::RaplSolver(const MachineSpec& spec) : spec_(&spec) {
  spec.validate();
  const auto& states = spec.ladder.states();
  ladder_.reserve(states.size());
  for (auto it = states.rbegin(); it != states.rend(); ++it) {
    LadderState st;
    st.freq = *it;
    st.f_rel = spec.ladder.relative(*it);
    CLIP_REQUIRE(st.f_rel > 0.0 && st.f_rel <= 1.5, "f_rel out of range");
    st.pow_f = std::pow(st.f_rel, spec.power_exponent);
    ladder_.push_back(st);
  }
  const int all = spec.shape.total_cores();
  placements_.reserve(static_cast<std::size_t>(all) * 2);
  for (int threads = 1; threads <= all; ++threads) {
    for (const parallel::AffinityPolicy policy :
         {parallel::AffinityPolicy::kCompact,
          parallel::AffinityPolicy::kScatter}) {
      placements_.push_back(
          parallel::place_threads(spec.shape, threads, policy));
      CLIP_REQUIRE(threads == placements_.back().total_threads(),
                   "placement/thread count mismatch");
      CLIP_REQUIRE(placements_.back().active_sockets() > 0,
                   "need at least one active socket");
    }
  }
}

RaplSolver::Prepared RaplSolver::prepare(const workloads::WorkloadSignature& w,
                                         double work_s,
                                         const NodeConfig& cfg) const {
  CLIP_REQUIRE(cfg.threads >= 1 && cfg.threads <= spec_->shape.total_cores(),
               "thread count outside the node");
  CLIP_REQUIRE(work_s > 0.0, "work must be positive");

  Prepared p;
  p.placement = &placements_[static_cast<std::size_t>(cfg.threads - 1) * 2 +
                             (cfg.affinity == parallel::AffinityPolicy::kCompact
                                  ? 0
                                  : 1)];
  p.work_s = work_s;

  const int active = p.placement->active_sockets();
  p.level_bw_gbps =
      active * spec_->socket_bw_gbps * bw_fraction(cfg.mem_level);
  const int parked = spec_->shape.sockets - active;
  p.mem_base_w = active * spec_->mem_base_w_per_socket +
                 parked * spec_->mem_parked_w_per_socket;
  p.w_per_gbps = spec_->mem_w_per_gbps();

  p.remote_fraction =
      w.shared_data_fraction * p.placement->cross_socket_factor();
  p.numa_factor = 1.0 - spec_->remote_numa_penalty * p.remote_fraction;

  const double n = cfg.threads;
  const double s = w.serial_fraction;
  const double m = w.memory_boundedness;
  p.one_minus_m = 1.0 - m;
  p.mem_numerator = (1.0 - s) * m;
  p.fork_s = w.fork_overhead_s * (n - 1.0);
  // The sync pow() is the one cap-independent pow left per frontier; the
  // power-law pow of every state is in the ladder table.
  const double kp_sync = w.sync_coeff_s * std::pow(n - 1.0, w.sync_exponent);
  const double nb_demand = n * w.bw_per_core_gbps;
  const double compute_num = (1.0 - s) * (1.0 - m);

  p.states.resize(ladder_.size());
  for (std::size_t k = 0; k < ladder_.size(); ++k) {
    const double f_rel = ladder_[k].f_rel;
    Prepared::State& st = p.states[k];
    st.demand_gbps = nb_demand * f_rel;
    st.serial_t = s / f_rel;
    st.nf = n * f_rel;
    st.compute_t = compute_num / st.nf;
    st.sync_t = kp_sync / f_rel;
  }
  return p;
}

Watts RaplSolver::mem_power_prepared(const Prepared& p,
                                     double achieved_bw_gbps) const {
  double total = 0.0;
  const int active = p.placement->active_sockets();
  CLIP_ENSURE(active > 0, "memory power needs at least one active socket");
  const double activity_w = achieved_bw_gbps * p.w_per_gbps;
  for (int threads : p.placement->threads_per_socket) {
    if (threads > 0) {
      total += spec_->mem_base_w_per_socket + activity_w / active;
    } else {
      total += spec_->mem_parked_w_per_socket;
    }
  }
  return Watts(total);
}

void RaplSolver::apply_duty_cycle(const Prepared& p, Watts cpu_cap,
                                  OperatingPoint& op) const {
  // Even the lowest state exceeds the PKG cap: clock modulation (T-states)
  // duty-cycles the pipeline. Gating stops the *dynamic* power; the socket
  // base draw stays — so the duty factor solves
  //   cap = base + load(f_min) * duty.
  // A cap at/below the base power is physically unenforceable by clock
  // gating; the node floors at the deepest modulation step.
  double base_w = 0.0;
  for (int t : p.placement->threads_per_socket)
    base_w += t > 0 ? spec_->socket_base_w : spec_->socket_parked_w;
  const double load_w = op.cpu_power.value() - base_w;
  CLIP_ENSURE(load_w > 0.0, "no dynamic power to modulate");
  constexpr double kDeepestDuty = 1.0 / 16.0;  // hardware modulation floor
  op.duty_factor = std::clamp(
      (cpu_cap.value() - base_w) / load_w, kDeepestDuty, 1.0);
  op.perf.time = Seconds(op.perf.time.value() / op.duty_factor);
  op.perf.achieved_bw_gbps *= op.duty_factor;
  op.cpu_power = Watts(base_w + load_w * op.duty_factor);
  op.mem_power = mem_power_prepared(p, op.perf.achieved_bw_gbps);
}

OperatingPoint RaplSolver::solve_prepared(const workloads::WorkloadSignature& w,
                                          const Prepared& p, Watts cpu_cap,
                                          Watts mem_cap,
                                          double cpu_multiplier) const {
  CLIP_REQUIRE(cpu_cap.value() > 0.0 && mem_cap.value() > 0.0,
               "caps must be positive");
  CLIP_REQUIRE(cpu_multiplier > 0.0, "variability multiplier must be > 0");

  // bandwidth_ceiling, from the hoisted level/base terms.
  const double headroom_w = mem_cap.value() - p.mem_base_w;
  const double cap_bw =
      headroom_w <= 0.0 ? 0.0 : headroom_w / p.w_per_gbps;
  const double bw_cap = std::min(p.level_bw_gbps, cap_bw);
  CLIP_REQUIRE(w.memory_boundedness == 0.0 || bw_cap > 0.0,
               "memory-bound workload with zero bandwidth budget — DRAM cap "
               "below base power");
  const double bw_eff = bw_cap * p.numa_factor;

  const double m = w.memory_boundedness;
  const double ci = w.compute_intensity;

  OperatingPoint op;
  bool fitted = false;
  // Walk the DVFS ladder downward; take the fastest state under the cap.
  for (std::size_t k = 0; k < ladder_.size(); ++k) {
    const LadderState& ls = ladder_[k];
    const Prepared::State& st = p.states[k];
    const double sat =
        st.demand_gbps > 0.0 ? std::min(1.0, bw_eff / st.demand_gbps) : 1.0;
    CLIP_ENSURE(m == 0.0 || sat > 0.0,
                "memory-bound work with zero usable bandwidth");
    const double util = p.one_minus_m + m * sat;
    const double memory_t = m > 0.0 ? p.mem_numerator / (st.nf * sat) : 0.0;
    const double time =
        p.work_s * (st.serial_t + st.compute_t + memory_t + st.sync_t) +
        p.fork_s;
    CLIP_ENSURE(time > 0.0 && std::isfinite(time), "non-physical node time");

    CLIP_REQUIRE(util >= 0.0 && util <= 1.0, "utilization in [0,1]");
    const double activity =
        spec_->core_power_floor +
        (1.0 - spec_->core_power_floor) * util * ci;
    const double per_core = spec_->core_max_w * activity * ls.pow_f;
    double total = 0.0;
    for (int threads : p.placement->threads_per_socket) {
      if (threads > 0) {
        total += spec_->socket_base_w + threads * per_core * cpu_multiplier;
      } else {
        total += spec_->socket_parked_w;
      }
    }
    const Watts cpu_w{total};
    if (cpu_w <= cpu_cap || k + 1 == ladder_.size()) {
      op.frequency = ls.freq;
      op.f_rel = ls.f_rel;
      op.perf.time = Seconds(time);
      op.perf.saturation = sat;
      op.perf.utilization = util;
      op.perf.achieved_bw_gbps = std::min(st.demand_gbps, bw_eff);
      op.perf.bw_eff_gbps = bw_eff;
      op.perf.remote_fraction = p.remote_fraction;
      op.cpu_power = cpu_w;
      op.mem_power = mem_power_prepared(p, op.perf.achieved_bw_gbps);
      fitted = cpu_w <= cpu_cap;
      break;
    }
  }
  CLIP_ENSURE(op.frequency.value() > 0.0, "ladder walk found no state");

  if (!fitted) apply_duty_cycle(p, cpu_cap, op);
  // The DRAM cap bounds *activity* power; base power is irreducible (DIMMs
  // stay powered), so a cap below base floors at the base draw.
  CLIP_ENSURE(op.mem_power <= mem_cap + Watts(1e-9) ||
                  op.perf.achieved_bw_gbps <= 1e-12,
              "memory enforcement exceeded the DRAM cap");
  return op;
}

OperatingPoint RaplSolver::solve(const workloads::WorkloadSignature& w,
                                 double work_s, const NodeConfig& cfg,
                                 double cpu_multiplier) const {
  return solve_prepared(w, prepare(w, work_s, cfg), cfg.cpu_cap, cfg.mem_cap,
                        cpu_multiplier);
}

}  // namespace clip::sim
