// Measurement-noise layer — the "power meter reader" of the paper's system
// interface helper tools (§IV-B4).
//
// Real RAPL energy counters and wall-socket meters read with a small
// sampling error; the profiler consumes *measured* values, so the noise
// flows into CLIP's models exactly as it would on hardware. Noise is
// multiplicative and seeded: ±0.5% (1 sigma) for power and ±0.3% for time.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "util/rng.hpp"

namespace clip::obs {
class Timeline;
}

namespace clip::sim {

struct MeterOptions {
  bool enabled = true;  ///< off: reads return the truth
};

inline constexpr double kPowerNoiseSigma = 0.005;  ///< 1 sigma, relative
inline constexpr double kTimeNoiseSigma = 0.003;   ///< 1 sigma, relative
inline constexpr std::uint64_t kMeterSeed = 7;     ///< the noise stream

/// A programmed meter malfunction layered on top of the noise model: while
/// active, power reads return a corrupted value instead of the (noisy)
/// truth. Defaults to kNone — a strict no-op — so fault-free behaviour is
/// byte-identical. The fault-injection subsystem (src/fault) programs these
/// from a FaultPlan's timed windows.
struct MeterFaultState {
  enum class Kind { kNone, kStuckAt, kDropout, kSpike };
  Kind kind = Kind::kNone;
  double value = 0.0;  ///< stuck-at watts, or spike multiplier
};

/// The corruption a faulty meter applies to one power reading.
[[nodiscard]] double corrupt_reading(const MeterFaultState& fault,
                                     double truth_w);

class PowerMeter {
 public:
  explicit PowerMeter(MeterOptions options = MeterOptions{})
      : options_(options), rng_(kMeterSeed) {}

  /// Apply measurement noise (and any programmed fault) to a ground-truth
  /// measurement in place.
  void observe(Measurement& m);

  /// Noisy scalar reads.
  [[nodiscard]] Watts read_power(Watts truth);
  [[nodiscard]] Seconds read_time(Seconds truth);

  /// Program (or, with kNone, clear) the meter's fault layer.
  void set_fault(MeterFaultState fault) { fault_ = fault; }
  [[nodiscard]] const MeterFaultState& fault() const { return fault_; }

  /// Attach a flight recorder (nullptr detaches): each observe() appends
  /// the measured total draw to the `meter.power_w` series at the sample
  /// time set via set_sample_time(). Detached cost is one branch.
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }

  /// Simulated-seconds timestamp the next observe() records at. Must be
  /// non-decreasing across calls (timeline series are monotone).
  void set_sample_time(double t_s) { sample_time_s_ = t_s; }

 private:
  [[nodiscard]] double jitter(double sigma);

  MeterOptions options_;
  Rng rng_;
  MeterFaultState fault_;
  obs::Timeline* timeline_ = nullptr;
  double sample_time_s_ = 0.0;
};

}  // namespace clip::sim
