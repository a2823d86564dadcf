#include "sim/power_meter.hpp"

#include <algorithm>

#include "obs/timeline.hpp"

namespace clip::sim {

double corrupt_reading(const MeterFaultState& fault, double truth_w) {
  switch (fault.kind) {
    case MeterFaultState::Kind::kNone:
      return truth_w;
    case MeterFaultState::Kind::kStuckAt:
      return fault.value;
    case MeterFaultState::Kind::kDropout:
      return 0.0;
    case MeterFaultState::Kind::kSpike:
      return truth_w * fault.value;
  }
  return truth_w;
}

double PowerMeter::jitter(double sigma) {
  if (!options_.enabled) return 1.0;
  // Clamp to ±4 sigma so a single unlucky draw cannot flip a decision in a
  // way no real meter would.
  const double draw = std::clamp(rng_.normal(0.0, sigma), -4.0 * sigma,
                                 4.0 * sigma);
  return 1.0 + draw;
}

Watts PowerMeter::read_power(Watts truth) {
  return Watts(corrupt_reading(
      fault_, truth.value() * jitter(kPowerNoiseSigma)));
}

Seconds PowerMeter::read_time(Seconds truth) {
  return Seconds(truth.value() * jitter(kTimeNoiseSigma));
}

void PowerMeter::observe(Measurement& m) {
  if (options_.enabled) {
    m.time = read_time(m.time);
    for (auto& node : m.nodes) {
      node.time = read_time(node.time);
      node.cpu_power = read_power(node.cpu_power);
      node.mem_power = read_power(node.mem_power);
    }
    // Derived quantities stay consistent with the noisy reads.
    double watts = 0.0;
    for (const auto& node : m.nodes)
      watts += node.cpu_power.value() + node.mem_power.value();
    m.avg_power = Watts(watts);
    m.energy = m.avg_power * m.time;
  }
  if (timeline_ != nullptr)
    timeline_->record("meter.power_w", sample_time_s_, m.avg_power.value());
}

}  // namespace clip::sim
