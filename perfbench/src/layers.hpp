// Layer attribution for the traced run: a TraceSink that folds every
// completed span into per-name self time on the fly, and a PowerScheduler
// decorator that opens a span around each plan() call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/oracle.hpp"
#include "baselines/scheduler_iface.hpp"
#include "obs/session.hpp"
#include "obs/sink.hpp"

namespace perfbench {

/// Totals of one span name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< inclusive duration
  double self_us = 0.0;   ///< duration minus the direct children's durations
};

/// Aggregates spans without storing them: a queue pass emits hundreds of
/// thousands. Children complete before their parent on the same thread, so
/// per (thread, depth) the sink sums the durations of completed children
/// until the parent at depth - 1 completes and takes them off its own
/// duration. Durations of the names given to keep_samples() are kept for
/// percentiles.
class LayerSink final : public clip::obs::TraceSink {
 public:
  void keep_samples(const std::string& name) { samples_[name]; }
  void on_span(const clip::obs::SpanRecord& span) override;

  [[nodiscard]] SpanTotals totals(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, SpanTotals, std::less<>>& all()
      const {
    return totals_;
  }
  /// Durations (µs) of the spans named `name`, if keep_samples(name).
  [[nodiscard]] std::vector<double> samples(const std::string& name) const;

 private:
  std::mutex mu_;
  std::map<std::string, SpanTotals, std::less<>> totals_;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
  std::vector<std::vector<double>> child_us_;  ///< [tid][depth]
};

/// Forwards plan() to `inner` inside a span named `span`, so the sink can
/// attribute planning time to the method's layer. With `oracle` set, each
/// plan's search cost is added to the `bench.oracle_evals` counter.
class TimedScheduler final : public clip::baselines::PowerScheduler {
 public:
  TimedScheduler(std::shared_ptr<clip::baselines::PowerScheduler> inner,
                 clip::obs::ObsSession* session, std::string span,
                 const clip::baselines::OracleScheduler* oracle = nullptr)
      : inner_(std::move(inner)),
        session_(session),
        span_(std::move(span)),
        oracle_(oracle) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] clip::sim::ClusterConfig plan(
      const clip::workloads::WorkloadSignature& app,
      clip::Watts cluster_budget) override;

 private:
  std::shared_ptr<clip::baselines::PowerScheduler> inner_;
  clip::obs::ObsSession* session_;
  std::string span_;
  const clip::baselines::OracleScheduler* oracle_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Per-layer metrics of one traced run, per timed iteration: the sink's
/// span totals and the session's counters (both accumulated over
/// `iterations` traced iterations), the iterations' wall time, and the
/// untraced iterations' wall time for the overhead figure.
struct LayerInputs {
  const LayerSink* sink = nullptr;
  clip::obs::MetricsRegistry* metrics = nullptr;
  int iterations = 0;
  double traced_iter_s = 0.0;    ///< median traced iteration
  double untraced_iter_s = 0.0;  ///< median untraced iteration
  double traced_total_s = 0.0;   ///< sum over traced iterations
  std::map<std::string, double> extra;  ///< workload-side per-iteration values
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in);

}  // namespace perfbench
