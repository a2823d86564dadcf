#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>

namespace perfbench {

void LayerSink::on_span(const clip::obs::SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto tid = static_cast<std::size_t>(span.tid);
  const auto depth = static_cast<std::size_t>(span.depth);
  if (child_us_.size() <= tid) child_us_.resize(tid + 1);
  std::vector<double>& child = child_us_[tid];
  if (child.size() <= depth + 1) child.resize(depth + 2, 0.0);

  SpanTotals& t = totals_[span.name];
  ++t.count;
  t.total_us += span.duration_us;
  t.self_us += span.duration_us - child[depth + 1];
  child[depth + 1] = 0.0;
  child[depth] += span.duration_us;

  const auto it = samples_.find(span.name);
  if (it != samples_.end()) it->second.push_back(span.duration_us);
}

SpanTotals LayerSink::totals(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotals{} : it->second;
}

std::vector<double> LayerSink::samples(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

clip::sim::ClusterConfig TimedScheduler::plan(
    const clip::workloads::WorkloadSignature& app,
    clip::Watts cluster_budget) {
  clip::sim::ClusterConfig cfg;
  {
    const clip::obs::ScopedSpan span(session_, span_, "bench");
    cfg = inner_->plan(app, cluster_budget);
  }
  if (oracle_ != nullptr)
    clip::obs::count(session_, "bench.oracle_evals",
                     static_cast<std::uint64_t>(oracle_->last_search_cost()));
  return cfg;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// Which layer each span's self time belongs to. The bench.* spans are the
// benchmark's own, opened around calls into a layer's public functions;
// bench.iteration is the root and its self time is benchmark glue.
struct LayerOf {
  std::string_view prefix;
  std::string_view layer;
};
constexpr std::array<LayerOf, 16> kLayerOf = {{
    {"sim.", "sim"},
    {"bench.testbed", "sim"},
    {"clip.schedule", "core"},
    {"pipeline.", "core"},
    {"profiler.", "core"},
    {"bench.clip_plan", "core"},
    {"bench.methods_setup", "core"},
    {"bench.oracle_plan", "baselines"},
    {"bench.others_plan", "baselines"},
    {"queue.", "runtime"},
    {"runtime.", "runtime"},
    {"bench.harness", "runtime"},
    {"bench.queue_run", "runtime"},
    {"bench.queue_recover", "runtime"},
    {"fault.", "fault"},
    {"budget.", "fault"},
}};

std::string_view layer_of(std::string_view span) {
  for (const LayerOf& l : kLayerOf)
    if (span.substr(0, l.prefix.size()) == l.prefix) return l.layer;
  return {};
}

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const LayerSink& sink = *in.sink;
  const double it = std::max(1, in.iterations);
  const auto counter = [&](std::string_view name) -> double {
    const clip::obs::Counter* c = in.metrics->find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const auto self_ms = [&](std::initializer_list<const char*> names) {
    double us = 0.0;
    for (const char* n : names) us += sink.totals(n).self_us;
    return us / it / 1000.0;
  };
  const auto total_ms = [&](const char* name) {
    return sink.totals(name).total_us / it / 1000.0;
  };
  const auto per_it = [&](double v) { return v / it; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto merged_samples = [&](std::initializer_list<const char*> names) {
    std::vector<double> all;
    for (const char* n : names) {
      const std::vector<double> s = sink.samples(n);
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };
  const auto extra = [&](const char* name) {
    const auto e = in.extra.find(name);
    return e == in.extra.end() ? 0.0 : e->second;
  };

  std::map<std::string, double> layer_self_us;
  double attributed_us = 0.0;
  for (const auto& [name, t] : sink.all()) {
    const std::string_view layer = layer_of(name);
    if (layer.empty()) continue;
    layer_self_us[std::string(layer)] += t.self_us;
    attributed_us += t.self_us;
  }
  const double wall_us = in.traced_total_s * 1e6;
  const auto share = [&](const char* layer) {
    return ratio(layer_self_us[layer], wall_us) * 100.0;
  };

  std::vector<Metric> m;
  // --- sim ---------------------------------------------------------------
  const double sim_runs = counter("sim.runs");
  const double hits = counter("sim.exact_cache_hits");
  const double misses = counter("sim.exact_cache_misses");
  const double sim_self = self_ms({"sim.run", "sim.batch",
                                   "sim.rapl_controller.simulate"});
  const clip::obs::Histogram* widths =
      in.metrics->find_histogram("sim.batch_width");
  m.push_back({"sim.runs", per_it(sim_runs), "count"});
  m.push_back({"sim.batch_runs", per_it(counter("sim.batch_runs")), "count"});
  m.push_back({"sim.cache_hit_ratio", ratio(hits, hits + misses), "ratio"});
  m.push_back({"sim.batch_width_p50",
               widths == nullptr || widths->count() == 0
                   ? 0.0
                   : widths->quantile(0.5),
               "count"});
  m.push_back({"sim.self_ms", sim_self, "ms"});
  m.push_back({"sim.us_per_run", ratio(sim_self * 1000.0, per_it(sim_runs)),
               "us"});
  m.push_back({"sim.share_pct", share("sim"), "%"});
  // --- baselines -----------------------------------------------------------
  const std::vector<double> oracle_us = merged_samples({"bench.oracle_plan"});
  m.push_back({"baselines.oracle_plans",
               per_it(static_cast<double>(oracle_us.size())), "count"});
  m.push_back({"baselines.oracle_plan_ms", total_ms("bench.oracle_plan"),
               "ms"});
  m.push_back({"baselines.oracle_self_ms", self_ms({"bench.oracle_plan"}),
               "ms"});
  m.push_back({"baselines.oracle_plan_p99_ms",
               quantile(oracle_us, 0.99) / 1000.0, "ms"});
  m.push_back({"baselines.oracle_evals", per_it(counter("bench.oracle_evals")),
               "count"});
  m.push_back({"baselines.others_plan_ms", total_ms("bench.others_plan"),
               "ms"});
  m.push_back({"baselines.share_pct", share("baselines"), "%"});
  // --- core ----------------------------------------------------------------
  const double schedules = counter("scheduler.schedules") +
                           counter("scheduler.constrained_schedules");
  const std::vector<double> sched_us =
      merged_samples({"clip.schedule", "clip.schedule_constrained"});
  const double db_hits = counter("scheduler.db_hits");
  const double db_misses = counter("scheduler.db_misses");
  m.push_back({"core.schedules", per_it(schedules), "count"});
  m.push_back({"core.schedule_p50_us", quantile(sched_us, 0.5), "us"});
  m.push_back({"core.schedule_p99_us", quantile(sched_us, 0.99), "us"});
  m.push_back({"core.node_select_ms", self_ms({"pipeline.node_select"}),
               "ms"});
  m.push_back({"core.allocate_ms", self_ms({"pipeline.allocate"}), "ms"});
  m.push_back({"core.profile_ms",
               self_ms({"pipeline.profile", "pipeline.classify",
                        "pipeline.inflect", "profiler.sample"}),
               "ms"});
  m.push_back({"core.db_hit_ratio", ratio(db_hits, db_hits + db_misses),
               "ratio"});
  m.push_back({"core.clip_plan_ms", total_ms("bench.clip_plan"), "ms"});
  m.push_back({"core.share_pct", share("core"), "%"});
  // --- runtime: admission --------------------------------------------------
  const std::vector<double> try_us = merged_samples({"queue.try_start"});
  const double tries = static_cast<double>(try_us.size());
  const double started = counter("queue.jobs_started");
  m.push_back({"runtime.try_start_calls", per_it(tries), "count"});
  m.push_back({"runtime.jobs_started", per_it(started), "count"});
  m.push_back({"runtime.admission_yield", ratio(started, tries), "ratio"});
  m.push_back({"runtime.schedules_per_start", ratio(schedules, started),
               "ratio"});
  m.push_back({"runtime.try_start_p99_us", quantile(try_us, 0.99), "us"});
  // --- runtime: loop, harness, journal -------------------------------------
  m.push_back({"runtime.loop_self_ms",
               self_ms({"bench.queue_run", "bench.queue_recover"}), "ms"});
  m.push_back({"runtime.harness_ms", self_ms({"bench.harness"}), "ms"});
  m.push_back({"runtime.journal_records", extra("journal_records"), "count"});
  m.push_back({"runtime.journal_snapshots", extra("journal_snapshots"),
               "count"});
  m.push_back({"runtime.journal_kb", extra("journal_kb"), "KiB"});
  m.push_back({"runtime.replayed", per_it(counter("journal.replayed")),
               "count"});
  m.push_back({"runtime.redist_ticks", per_it(counter("redist.ticks")),
               "count"});
  m.push_back({"runtime.share_pct", share("runtime"), "%"});
  // --- fault ---------------------------------------------------------------
  m.push_back({"fault.events", per_it(counter("fault.injected")), "count"});
  m.push_back({"fault.retries", per_it(counter("queue.retries")), "count"});
  m.push_back({"fault.jobs_failed", per_it(counter("queue.jobs_failed")),
               "count"});
  m.push_back({"fault.meter_reads_rejected",
               per_it(counter("fault.meter_reads_rejected")), "count"});
  m.push_back({"fault.self_ms",
               self_ms({"fault.inject", "budget.reprogram"}), "ms"});
  m.push_back({"fault.share_pct", share("fault"), "%"});
  // --- obs -----------------------------------------------------------------
  m.push_back({"obs.timeline_points", extra("timeline_points"), "count"});
  // --- the trace itself ----------------------------------------------------
  m.push_back({"trace.overhead_pct",
               (ratio(in.traced_iter_s, in.untraced_iter_s) - 1.0) * 100.0,
               "%"});
  m.push_back({"trace.coverage_pct", ratio(attributed_us, wall_us) * 100.0,
               "%"});
  m.push_back({"trace.iterations", static_cast<double>(in.iterations),
               "count"});
  return m;
}

}  // namespace perfbench
