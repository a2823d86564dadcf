// The estimator `recovery` and `obs_overhead` price a duty-cycle cost with:
// the median of paired off/on CPU-time ratios.
//
// One sweep takes milliseconds, so a stray scheduler preemption dwarfs the
// cost being priced, and on a shared host the baseline itself drifts by
// more than that cost. So the estimator times adjacent off/on samples
// (drift cancels within a pair because the sides run back to back),
// alternates which side goes first (the second sample of a pair runs
// measurably slower, so a fixed order would bias the ratio) and takes the
// median of the per-pair ratios (a preempted pair is an outlier the median
// ignores). It escalates sampling while the estimate sits near its bench's
// bound: a healthy reading stops after one round, a borderline one earns
// more rounds so one noisy window cannot decide the verdict, and a real
// regression keeps every round and still reads high.
#pragma once

#include <algorithm>
#include <ctime>
#include <functional>
#include <vector>

namespace clip::bench {

struct PairedSampling {
  int sweeps_per_sample = 1;  ///< sweeps timed back to back as one sample
  int pairs = 1;              ///< off/on pairs per round
  int max_rounds = 1;
  double stop_at_pct = 0.0;   ///< stop after a round reading at most this
};

struct PairedOverhead {
  double off_ms = 0.0;  ///< fastest off sample, per sweep (informational)
  double on_ms = 0.0;   ///< fastest on sample, per sweep (informational)
  double pct = 0.0;     ///< median paired overhead in percent, at least 0
};

/// Process CPU time in ms. Not steady_clock: co-tenant preemption inflates
/// wall-clock by more than the priced cost, while CPU time is the same
/// duration minus the time stolen from this process, and it charges a
/// helper thread's cycles (the telemetry accept thread) to the side that
/// owns them.
inline double process_cpu_ms() {
  timespec ts{};
  // clip-lint: allow(D1) prices host cost in real CPU ms; a simulated clock has nothing to say here
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// What `sweep(true)` costs over `sweep(false)`, sampled as `s` says. Each
/// side runs once untimed first, to warm both paths.
inline PairedOverhead paired_overhead(const std::function<void(bool)>& sweep,
                                      const PairedSampling& s) {
  const auto time_one = [&](bool on) {
    const double t0 = process_cpu_ms();
    for (int i = 0; i < s.sweeps_per_sample; ++i) sweep(on);
    return (process_cpu_ms() - t0) / s.sweeps_per_sample;
  };
  const auto median_pct = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double m = v.size() % 2 == 1
                         ? v[v.size() / 2]
                         : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    return (m - 1.0) * 100.0;
  };
  sweep(false);
  sweep(true);
  PairedOverhead out;
  std::vector<double> ratios;
  for (int round = 0; round < s.max_rounds; ++round) {
    for (int rep = 0; rep < s.pairs; ++rep) {
      const bool off_first = (rep + round * s.pairs) % 2 == 0;
      const double first = time_one(!off_first);
      const double second = time_one(off_first);
      const double off = off_first ? first : second;
      const double on = off_first ? second : first;
      out.off_ms = ratios.empty() ? off : std::min(out.off_ms, off);
      out.on_ms = ratios.empty() ? on : std::min(out.on_ms, on);
      if (off > 0.0) ratios.push_back(on / off);
    }
    if (median_pct(ratios) <= s.stop_at_pct) break;
  }
  out.pct = std::max(0.0, median_pct(ratios));
  return out;
}

}  // namespace clip::bench
