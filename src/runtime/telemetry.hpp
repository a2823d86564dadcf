// Telemetry — the paper's "power meter reader ... automates the collection
// and recording of performance and power data for jobs" (§IV-B4).
//
// Produces a sampled time series of per-node power, frequency and phase for
// an executed job (flat or phased), with the meter's sampling noise, and
// exports it as CSV for external plotting or as Chrome-trace counter tracks
// through the clip::obs sink interface. With noise disabled, the rectangle-
// rule integral of the power series reproduces the job's measured energy to
// within the last partial sample — a test invariant asserted by
// test_runtime.cpp and test_dynamics.cpp.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "sim/executor.hpp"
#include "sim/phased.hpp"
#include "util/csv.hpp"

namespace clip::runtime {

struct TelemetrySample {
  double time_s = 0.0;
  std::string phase;        ///< "-" for flat runs
  int node = 0;
  double cpu_power_w = 0.0;
  double mem_power_w = 0.0;
  double freq_ghz = 0.0;
  int threads = 0;
};

struct TelemetryOptions {
  double sample_period_s = 0.1;
  double noise_sigma = 0.01;  ///< per-sample multiplicative meter noise
};

/// Seed of the meter-noise stream each record() draws from.
inline constexpr std::uint64_t kTelemetrySeed = 11;

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = TelemetryOptions{});

  /// Record a flat job: one steady operating point per node.
  [[nodiscard]] std::vector<TelemetrySample> record(
      const sim::Measurement& m, int threads) const;

  /// Record a phased job: the series steps at phase boundaries.
  [[nodiscard]] std::vector<TelemetrySample> record_phased(
      const sim::PhasedMeasurement& m, int nodes) const;

  /// Energy integral of a series in joules: Σ (cpu_w + mem_w) · Δt over all
  /// samples (rectangle rule — samples are uniformly spaced, so no
  /// trapezoid correction is needed).
  [[nodiscard]] static double energy_j(
      const std::vector<TelemetrySample>& series, double sample_period_s);

  /// Export as CSV (columns: time_s,phase,node,cpu_w,mem_w,freq_ghz,threads).
  static void write(const std::filesystem::path& path,
                    const std::vector<TelemetrySample>& series);

  /// Bridge into the obs sink interface: one Chrome-trace counter track per
  /// node ("power.node<N>" with cpu_w/mem_w series, seconds mapped to the
  /// trace's microsecond axis) so a job's power draw plots under its spans
  /// in Perfetto. Feed to obs::write_chrome_trace or a TraceSink.
  [[nodiscard]] static std::vector<obs::CounterSample> to_trace_counters(
      const std::vector<TelemetrySample>& series);

  /// Bridge into the flight recorder: per-node `node<N>.cpu_w` /
  /// `node<N>.mem_w` / `node<N>.freq_ghz` sample series on the simulated
  /// axis, plus one `job.phase` event per phase change (taken from node 0's
  /// samples; flat runs emit a single "-" event). Timestamps are shifted by
  /// `t0_s` so successive jobs land one after another on a shared timeline.
  static void to_timeline(obs::Timeline& timeline,
                          const std::vector<TelemetrySample>& series,
                          double t0_s = 0.0);

 private:
  TelemetryOptions options_;
};

}  // namespace clip::runtime
