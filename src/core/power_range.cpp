#include "core/power_range.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace clip::core {

PowerEstimator::PowerEstimator(const sim::MachineSpec& spec,
                               const ProfileData& profile)
    : spec_(&spec) {
  const int all = spec.shape.total_cores();
  // The all-core profile ran with every socket populated; subtract the
  // known socket base powers to isolate the per-core load power.
  const double base_w = spec.shape.sockets * spec.socket_base_w;
  const double load_w =
      std::max(0.0, profile.all_core.cpu_power.value() - base_w);
  per_core_load_w_ = load_w / all;
  CLIP_REQUIRE(per_core_load_w_ >= 0.0, "negative per-core load power");
  per_core_bw_gbps_ = profile.per_core_bw_gbps;
  ladder_pow_.reserve(spec.ladder.state_count());
  for (const GHz f : spec.ladder.states())
    ladder_pow_.push_back(
        std::pow(spec.ladder.relative(f), spec.power_exponent));
}

parallel::Placement PowerEstimator::placement(
    int threads, parallel::AffinityPolicy affinity) const {
  CLIP_REQUIRE(threads >= 1 && threads <= spec_->shape.total_cores(),
               "threads outside the node");
  return parallel::place_threads(spec_->shape, threads, affinity);
}

double PowerEstimator::bw_demand_gbps(int threads) const {
  return per_core_bw_gbps_ * threads;
}

double PowerEstimator::cpu_base_w(int threads,
                                  parallel::AffinityPolicy affinity) const {
  return cpu_base_w(placement(threads, affinity));
}

double PowerEstimator::cpu_base_w(
    const parallel::Placement& placement) const {
  double total = 0.0;
  for (int t : placement.threads_per_socket)
    total += t > 0 ? spec_->socket_base_w : spec_->socket_parked_w;
  return total;
}

Watts PowerEstimator::cpu_power(int threads,
                                parallel::AffinityPolicy affinity,
                                double f_rel) const {
  CLIP_REQUIRE(f_rel > 0.0 && f_rel <= 1.5, "f_rel out of range");
  return Watts(cpu_base_w(threads, affinity) +
               threads * per_core_load_w_ *
                   std::pow(f_rel, spec_->power_exponent));
}

Watts PowerEstimator::cpu_power_at_state(int threads,
                                         parallel::AffinityPolicy affinity,
                                         std::size_t state) const {
  return cpu_power_at_state(placement(threads, affinity), state);
}

Watts PowerEstimator::cpu_power_at_state(const parallel::Placement& placement,
                                         std::size_t state) const {
  CLIP_REQUIRE(state < ladder_pow_.size(), "state outside the ladder");
  return Watts(cpu_base_w(placement) + placement.total_threads() *
                                           per_core_load_w_ *
                                           ladder_pow_[state]);
}

Watts PowerEstimator::mem_power(int threads,
                                parallel::AffinityPolicy affinity,
                                sim::MemPowerLevel level) const {
  const parallel::Placement at = placement(threads, affinity);
  const double level_bw = at.active_sockets() * spec_->socket_bw_gbps *
                          sim::bw_fraction(level);
  return mem_power_at_bw(at, std::min(bw_demand_gbps(threads), level_bw));
}

Watts PowerEstimator::mem_power_at_bw(int threads,
                                      parallel::AffinityPolicy affinity,
                                      double achieved_bw_gbps) const {
  return mem_power_at_bw(placement(threads, affinity), achieved_bw_gbps);
}

Watts PowerEstimator::mem_power_at_bw(const parallel::Placement& placement,
                                      double achieved_bw_gbps) const {
  CLIP_REQUIRE(achieved_bw_gbps >= 0.0, "achieved bandwidth must be >= 0");
  const int active = placement.active_sockets();
  const int parked = spec_->shape.sockets - active;
  return Watts(active * spec_->mem_base_w_per_socket +
               parked * spec_->mem_parked_w_per_socket +
               achieved_bw_gbps * spec_->mem_w_per_gbps());
}

Watts PowerEstimator::node_power(int threads,
                                 parallel::AffinityPolicy affinity,
                                 sim::MemPowerLevel level,
                                 double f_rel) const {
  return cpu_power(threads, affinity, f_rel) +
         mem_power(threads, affinity, level);
}

PowerRange PowerEstimator::acceptable_range(
    int threads, parallel::AffinityPolicy affinity,
    sim::MemPowerLevel level) const {
  const double f_hi = 1.0;
  const double f_lo = spec_->ladder.min() / spec_->ladder.nominal();
  PowerRange range;
  range.high = node_power(threads, affinity, level, f_hi);
  range.low = node_power(threads, affinity, level, f_lo);
  CLIP_ENSURE(range.low <= range.high, "inverted power range");
  return range;
}

}  // namespace clip::core
