#include "runtime/telemetry.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace clip::runtime {

Telemetry::Telemetry(TelemetryOptions options) : options_(options) {
  CLIP_REQUIRE(options.sample_period_s > 0.0,
               "sample period must be positive");
  CLIP_REQUIRE(options.noise_sigma >= 0.0, "noise sigma must be >= 0");
}

std::vector<TelemetrySample> Telemetry::record(const sim::Measurement& m,
                                               int threads) const {
  CLIP_REQUIRE(!m.nodes.empty(), "measurement has no nodes");
  Rng rng(kTelemetrySeed);
  std::vector<TelemetrySample> series;
  const int samples = std::max(
      1, static_cast<int>(m.time.value() / options_.sample_period_s));
  for (int s = 0; s < samples; ++s) {
    for (std::size_t n = 0; n < m.nodes.size(); ++n) {
      const auto& node = m.nodes[n];
      TelemetrySample sample;
      sample.time_s = s * options_.sample_period_s;
      sample.phase = "-";
      sample.node = static_cast<int>(n);
      const double jitter = 1.0 + rng.normal(0.0, options_.noise_sigma);
      sample.cpu_power_w = node.cpu_power.value() * jitter;
      sample.mem_power_w = node.mem_power.value() * jitter;
      sample.freq_ghz = node.frequency.value();
      sample.threads = threads;
      series.push_back(std::move(sample));
    }
  }
  return series;
}

std::vector<TelemetrySample> Telemetry::record_phased(
    const sim::PhasedMeasurement& m, int nodes) const {
  CLIP_REQUIRE(!m.phases.empty(), "phased measurement has no phases");
  CLIP_REQUIRE(nodes >= 1, "need at least one node");
  Rng rng(kTelemetrySeed);
  std::vector<TelemetrySample> series;
  double t0 = 0.0;
  for (const auto& phase : m.phases) {
    const int samples = std::max(
        1,
        static_cast<int>(phase.time.value() / options_.sample_period_s));
    const double per_node_power = phase.avg_power.value() / nodes;
    for (int s = 0; s < samples; ++s) {
      for (int n = 0; n < nodes; ++n) {
        TelemetrySample sample;
        sample.time_s = t0 + s * options_.sample_period_s;
        sample.phase = phase.phase;
        sample.node = n;
        const double jitter = 1.0 + rng.normal(0.0, options_.noise_sigma);
        // The phased measurement reports whole-cluster power; split evenly
        // (homogeneous default) and keep the CPU/DRAM split implicit.
        sample.cpu_power_w = per_node_power * 0.78 * jitter;
        sample.mem_power_w = per_node_power * 0.22 * jitter;
        sample.freq_ghz = phase.frequency.value();
        sample.threads = phase.threads;
        series.push_back(std::move(sample));
      }
    }
    t0 += phase.time.value();
  }
  return series;
}

double Telemetry::energy_j(const std::vector<TelemetrySample>& series,
                           double sample_period_s) {
  double acc = 0.0;
  for (const auto& s : series)
    acc += (s.cpu_power_w + s.mem_power_w) * sample_period_s;
  return acc;
}

std::vector<obs::CounterSample> Telemetry::to_trace_counters(
    const std::vector<TelemetrySample>& series) {
  std::vector<obs::CounterSample> counters;
  counters.reserve(series.size());
  for (const auto& s : series) {
    obs::CounterSample c;
    c.name = "power.node" + std::to_string(s.node);
    c.time_us = s.time_s * 1e6;
    c.series = {{"cpu_w", s.cpu_power_w}, {"mem_w", s.mem_power_w}};
    counters.push_back(std::move(c));
  }
  return counters;
}

void Telemetry::to_timeline(obs::Timeline& timeline,
                            const std::vector<TelemetrySample>& series,
                            double t0_s) {
  std::string last_phase;
  for (const auto& s : series) {
    const std::string prefix = "node" + std::to_string(s.node);
    const double t = t0_s + s.time_s;
    timeline.record(prefix + ".cpu_w", t, s.cpu_power_w);
    timeline.record(prefix + ".mem_w", t, s.mem_power_w);
    timeline.record(prefix + ".freq_ghz", t, s.freq_ghz);
    if (s.node == 0 && s.phase != last_phase) {
      timeline.event("job.phase", t, s.phase);
      last_phase = s.phase;
    }
  }
}

void Telemetry::write(const std::filesystem::path& path,
                      const std::vector<TelemetrySample>& series) {
  CsvDocument doc;
  doc.header = {"time_s", "phase", "node", "cpu_w", "mem_w", "freq_ghz",
                "threads"};
  for (const auto& s : series) {
    doc.rows.push_back({format_double(s.time_s, 4), s.phase,
                        std::to_string(s.node),
                        format_double(s.cpu_power_w, 3),
                        format_double(s.mem_power_w, 3),
                        format_double(s.freq_ghz, 2),
                        std::to_string(s.threads)});
  }
  write_csv(path, doc);
}

}  // namespace clip::runtime
