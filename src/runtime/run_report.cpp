#include "runtime/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "runtime/journal.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

// Journal::load salvages torn tails and reports the gap; a report that
// ignores that result would silently present a truncated record stream as
// complete, so E1 tracks it here.
// clip-lint: fallible(load)

namespace clip::runtime {

namespace {

using obs::format_exact;

constexpr int kPowerPoints = 12;      ///< instants in the per-node power table
constexpr std::size_t kTopSpans = 5;  ///< rows in the slowest-spans table

/// A number cell of a run record, which must be finite as well as all
/// number: a run writes only finite times, powers and energies, and a NaN
/// would break the slowest-spans sort and the JSON report.
double finite(const std::string& cell, const char* column) {
  const double value = parse_cell<double>(cell, column);
  CLIP_REQUIRE(std::isfinite(value), std::string("column '") + column +
                                         "' is not finite: '" + cell + "'");
  return value;
}

/// `read()`, with a PreconditionError it throws renamed to name the record
/// file and the row (the header is row 1).
template <typename Read>
auto in_row(const std::filesystem::path& file, std::size_t row, Read read) {
  try {
    return read();
  } catch (const PreconditionError& e) {
    throw PreconditionError("run record " + file.string() + " row " +
                            std::to_string(row) + ": " + e.what());
  }
}

const std::vector<std::string>& jobs_header() {
  static const std::vector<std::string> header = {
      "app",      "parameters", "submit_s",  "start_s",
      "end_s",    "nodes",      "budget_w",  "power_w",
      "attempts", "completed",  "crashed_node"};
  return header;
}

/// jobs.csv header for a record written with tracing on. The extra column
/// appears only then: untraced records keep the legacy header bytes.
const std::vector<std::string>& jobs_header_traced() {
  static const std::vector<std::string> header = [] {
    std::vector<std::string> h = jobs_header();
    h.push_back("trace_id");
    return h;
  }();
  return header;
}

const std::vector<std::string>& spans_header() {
  static const std::vector<std::string> header = {
      "name", "category", "start_us", "duration_us", "tid", "depth"};
  return header;
}

/// Everything a render needs, loaded from a record directory. Holds the
/// (non-movable) Timeline by value, so it is constructed in place.
struct LoadedRecord {
  std::filesystem::path summary_path;
  /// summary.csv key -> its value and row. A value is parsed when read, as
  /// the type its key holds.
  std::map<std::string, std::pair<std::string, std::size_t>> summary;
  std::vector<QueuedJobResult> jobs;
  obs::Timeline timeline;
  std::vector<obs::SpanRecord> spans;

  /// The value of `key`: all of its cell a T, finite and not negative,
  /// since every key counts or measures something.
  template <typename T>
  [[nodiscard]] T scalar(const std::string& key) const {
    const auto it = summary.find(key);
    CLIP_REQUIRE(it != summary.end(), "run record " + summary_path.string() +
                                          " has no key '" + key + "'");
    const std::string& cell = it->second.first;
    return in_row(summary_path, it->second.second, [&] {
      const T value = parse_cell<T>(cell, key);
      CLIP_REQUIRE(std::isfinite(value) && value >= T{},
                   "column '" + key + "' is negative or not finite: '" +
                       cell + "'");
      return value;
    });
  }
  /// Like scalar(), for keys newer than the record (e.g. the redist.*
  /// accounting on records written before redistribution existed).
  template <typename T>
  [[nodiscard]] T scalar_or(const std::string& key, T fallback) const {
    return summary.count(key) != 0 ? scalar<T>(key) : fallback;
  }
  [[nodiscard]] std::vector<int> crashed_nodes() const {
    const auto it = summary.find("crashed_nodes");
    if (it == summary.end() || it->second.first.empty()) return {};
    return in_row(summary_path, it->second.second, [&] {
      std::vector<int> nodes;
      for (const auto& field : split(it->second.first, ';'))
        nodes.push_back(parse_cell<int>(field, "crashed_nodes"));
      return nodes;
    });
  }
};

void load_record(const std::filesystem::path& dir, LoadedRecord& rec) {
  CLIP_REQUIRE(std::filesystem::is_directory(dir),
               "not a run-record directory: " + dir.string());
  rec.summary_path = dir / RunRecordFiles::kSummary;
  const CsvDocument summary = read_csv(rec.summary_path);
  CLIP_REQUIRE(summary.header == std::vector<std::string>({"key", "value"}),
               "malformed summary.csv in " + dir.string());
  for (std::size_t i = 0; i < summary.rows.size(); ++i)
    rec.summary[summary.rows[i][0]] = {summary.rows[i][1], i + 2};

  const auto jobs_path = dir / RunRecordFiles::kJobs;
  const CsvDocument jobs = read_csv(jobs_path);
  const bool traced = jobs.header == jobs_header_traced();
  CLIP_REQUIRE(traced || jobs.header == jobs_header(),
               "malformed jobs.csv in " + dir.string());
  for (std::size_t i = 0; i < jobs.rows.size(); ++i) {
    const auto& row = jobs.rows[i];
    rec.jobs.push_back(in_row(jobs_path, i + 2, [&] {
      QueuedJobResult j;
      j.app = row[0];
      j.parameters = row[1];
      j.submit_s = finite(row[2], "submit_s");
      j.start_s = finite(row[3], "start_s");
      j.end_s = finite(row[4], "end_s");
      j.nodes = parse_cell<int>(row[5], "nodes");
      j.budget_w = finite(row[6], "budget_w");
      j.power_w = finite(row[7], "power_w");
      j.attempts = parse_cell<int>(row[8], "attempts");
      j.completed = row[9] == "1";
      j.crashed_node = parse_cell<int>(row[10], "crashed_node");
      if (traced) j.trace_id = row[11];
      return j;
    }));
  }

  rec.timeline.load_csv(dir / RunRecordFiles::kTimeline);

  const auto spans_path = dir / RunRecordFiles::kSpans;
  if (std::filesystem::exists(spans_path)) {
    const CsvDocument spans = read_csv(spans_path);
    CLIP_REQUIRE(spans.header == spans_header(),
                 "malformed spans.csv in " + dir.string());
    for (std::size_t i = 0; i < spans.rows.size(); ++i) {
      const auto& row = spans.rows[i];
      rec.spans.push_back(in_row(spans_path, i + 2, [&] {
        obs::SpanRecord s;
        s.name = row[0];
        s.category = row[1];
        s.start_us = finite(row[2], "start_us");
        s.duration_us = finite(row[3], "duration_us");
        s.tid = parse_cell<int>(row[4], "tid");
        s.depth = parse_cell<int>(row[5], "depth");
        return s;
      }));
    }
  }
}

/// Node indices with a `node<N>.power_w` series, numerically sorted.
std::vector<int> power_nodes(const obs::Timeline& timeline) {
  std::vector<int> nodes;
  for (const auto& name : timeline.series_names()) {
    if (!starts_with(name, "node")) continue;
    const auto dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot) != ".power_w") continue;
    const std::string digits = name.substr(4, dot - 4);
    if (digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    if (const auto node = parse_whole<int>(digits)) nodes.push_back(*node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// The kTopSpans slowest spans, slowest first, in a total (duration, name,
/// start) order, so the table is deterministic under ties.
std::vector<obs::SpanRecord> slowest_spans(std::vector<obs::SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.duration_us != b.duration_us)
                return a.duration_us > b.duration_us;
              if (a.name != b.name) return a.name < b.name;
              return a.start_us < b.start_us;
            });
  if (spans.size() > kTopSpans) spans.resize(kTopSpans);
  return spans;
}

}  // namespace

void write_run_record(const std::filesystem::path& dir, Watts cluster_budget,
                      const QueueReport& report,
                      const obs::Timeline& timeline,
                      const std::vector<obs::SpanRecord>& spans,
                      const obs::MetricsRegistry* metrics) {
  std::filesystem::create_directories(dir);
  timeline.write_csv(dir / RunRecordFiles::kTimeline);

  bool traced = false;
  for (const auto& j : report.jobs) traced = traced || !j.trace_id.empty();
  CsvDocument jobs;
  jobs.header = traced ? jobs_header_traced() : jobs_header();
  for (const auto& j : report.jobs) {
    jobs.rows.push_back({j.app, j.parameters, format_exact(j.submit_s),
                         format_exact(j.start_s), format_exact(j.end_s),
                         std::to_string(j.nodes), format_exact(j.budget_w),
                         format_exact(j.power_w), std::to_string(j.attempts),
                         j.completed ? "1" : "0",
                         std::to_string(j.crashed_node)});
    if (traced) jobs.rows.back().push_back(j.trace_id);
  }
  write_csv(dir / RunRecordFiles::kJobs, jobs);

  std::string crashed;
  for (std::size_t i = 0; i < report.crashed_nodes.size(); ++i) {
    if (i > 0) crashed += ';';
    crashed += std::to_string(report.crashed_nodes[i]);
  }
  CsvDocument summary;
  summary.header = {"key", "value"};
  summary.rows = {
      {"cluster_budget_w", format_exact(cluster_budget.value())},
      {"makespan_s", format_exact(report.makespan_s)},
      {"mean_turnaround_s", format_exact(report.mean_turnaround_s)},
      {"total_energy_j", format_exact(report.total_energy_j)},
      {"node_seconds_used", format_exact(report.node_seconds_used)},
      {"node_seconds_available", format_exact(report.node_seconds_available)},
      {"retries", std::to_string(report.retries)},
      {"jobs_failed", std::to_string(report.jobs_failed)},
      {"caps_reprogrammed", std::to_string(report.caps_reprogrammed)},
      {"violation_s", format_exact(report.violation_s)},
      {"violation_ws", format_exact(report.violation_ws)},
      {"meter_reads_rejected", std::to_string(report.meter_reads_rejected)},
      {"crashed_nodes", crashed},
      {"redist_claw_backs", std::to_string(report.redist_claw_backs)},
      {"redist_regrants", std::to_string(report.redist_regrants)},
      {"redist_subsystem_shifts",
       std::to_string(report.redist_subsystem_shifts)},
      {"redist_regrants_rejected",
       std::to_string(report.redist_regrants_rejected)},
      {"redist_reclaimed_w", format_exact(report.redist_reclaimed_w)},
      {"redist_granted_w", format_exact(report.redist_granted_w)},
  };
  write_csv(dir / RunRecordFiles::kSummary, summary);

  CsvDocument span_doc;
  span_doc.header = spans_header();
  for (const auto& s : spans)
    span_doc.rows.push_back({s.name, s.category, format_exact(s.start_us),
                             format_exact(s.duration_us),
                             std::to_string(s.tid), std::to_string(s.depth)});
  write_csv(dir / RunRecordFiles::kSpans, span_doc);

  if (metrics != nullptr) {
    std::ofstream out(dir / RunRecordFiles::kMetrics, std::ios::trunc);
    CLIP_REQUIRE(out.good(), "cannot write metrics.prom in " + dir.string());
    out << metrics->render_prometheus();
  }
}

std::string render_markdown_report(const std::filesystem::path& dir) {
  LoadedRecord rec;
  load_record(dir, rec);

  const double budget_w = rec.scalar<double>("cluster_budget_w");
  const double makespan_s = rec.scalar<double>("makespan_s");
  const double total_energy_j = rec.scalar<double>("total_energy_j");
  const double used = rec.scalar<double>("node_seconds_used");
  const double avail = rec.scalar<double>("node_seconds_available");
  const double node_util = avail > 0.0 ? used / avail : 0.0;
  const double budget_util = budget_w > 0.0 && makespan_s > 0.0
                                 ? total_energy_j / (budget_w * makespan_s)
                                 : 0.0;
  std::size_t completed = 0;
  for (const auto& j : rec.jobs)
    if (j.completed) ++completed;

  std::ostringstream out;
  out << "# CLIP run report\n\n## Summary\n\n| key | value |\n|---|---|\n";
  out << "| cluster budget (W) | " << format_double(budget_w, 1) << " |\n";
  out << "| makespan (s) | " << format_double(makespan_s, 3) << " |\n";
  out << "| jobs completed | " << completed << "/" << rec.jobs.size()
      << " |\n";
  out << "| retries | " << rec.scalar<int>("retries") << " |\n";
  out << "| jobs failed | " << rec.scalar<int>("jobs_failed") << " |\n";
  out << "| total energy (kJ) | " << format_double(total_energy_j / 1000.0, 2)
      << " |\n";
  out << "| node utilization | " << format_double(node_util, 3) << " |\n";
  out << "| budget utilization | " << format_double(budget_util, 3) << " |\n";
  // Violation figures print shortest-exact: they are the BudgetGuard's
  // ground-truth accounting and tests compare them bit-for-bit.
  out << "| cap violation (s) | "
      << format_exact(rec.scalar<double>("violation_s")) << " |\n";
  out << "| cap violation (W·s) | "
      << format_exact(rec.scalar<double>("violation_ws")) << " |\n";
  out << "| caps clawed back | " << rec.scalar<int>("caps_reprogrammed")
      << " |\n";
  out << "| meter reads rejected | "
      << rec.scalar<std::uint64_t>("meter_reads_rejected") << " |\n";
  out << "| redistribution (claws/regrants/shifts) | "
      << rec.scalar_or("redist_claw_backs", 0) << "/"
      << rec.scalar_or("redist_regrants", 0) << "/"
      << rec.scalar_or("redist_subsystem_shifts", 0) << " |\n";
  out << "| watts reclaimed / re-granted | "
      << format_double(rec.scalar_or("redist_reclaimed_w", 0.0), 1) << " / "
      << format_double(rec.scalar_or("redist_granted_w", 0.0), 1) << " |\n";
  const auto crashed = rec.crashed_nodes();
  out << "| crashed nodes | ";
  if (crashed.empty()) {
    out << "none";
  } else {
    for (std::size_t i = 0; i < crashed.size(); ++i)
      out << (i > 0 ? " " : "") << crashed[i];
  }
  out << " |\n";

  const auto nodes = power_nodes(rec.timeline);
  if (!nodes.empty()) {
    out << "\n## Per-node power (W)\n\n| t (s) |";
    for (int n : nodes) out << " node" << n << " |";
    out << "\n|---|";
    for (std::size_t i = 0; i < nodes.size(); ++i) out << "---|";
    out << "\n";
    for (int p = 0; p < kPowerPoints; ++p) {
      const double t =
          makespan_s * p / static_cast<double>(kPowerPoints - 1);
      out << "| " << format_double(t, 1) << " |";
      for (int n : nodes) {
        const double v = rec.timeline.value_at(
            "node" + std::to_string(n) + ".power_w", t);
        out << ' ' << (std::isnan(v) ? "-" : format_double(v, 1)) << " |";
      }
      out << "\n";
    }
    out << "\n| node | energy (kJ) |\n|---|---|\n";
    for (int n : nodes) {
      const double e = rec.timeline.integral(
          "node" + std::to_string(n) + ".power_w", 0.0, makespan_s);
      out << "| node" << n << " | " << format_double(e / 1000.0, 2) << " |\n";
    }
  }

  out << "\n## Jobs\n\n| app | start (s) | end (s) | nodes | cap (W) | "
         "power (W) | energy (kJ) | attempts | completed | crashed node "
         "|\n|---|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& j : rec.jobs) {
    const double energy_j = j.power_w * (j.end_s - j.start_s);
    out << "| " << j.app << " | " << format_double(j.start_s, 2) << " | "
        << format_double(j.end_s, 2) << " | " << j.nodes << " | "
        << format_double(j.budget_w, 1) << " | "
        << format_double(j.power_w, 1) << " | "
        << format_double(energy_j / 1000.0, 2) << " | " << j.attempts
        << " | " << (j.completed ? "yes" : "no") << " | "
        << (j.crashed_node >= 0 ? std::to_string(j.crashed_node) : "-")
        << " |\n";
  }

  out << "\n## Fault events\n\n";
  const auto faults = rec.timeline.events("fault");
  if (faults.empty()) {
    out << "none\n";
  } else {
    for (const auto& e : faults)
      out << "- " << format_double(e.t_s, 3) << " s — " << e.label << "\n";
  }

  if (!rec.spans.empty()) {
    out << "\n## Slowest pipeline spans\n\n| span | category | duration "
           "(ms) |\n|---|---|---|\n";
    for (const auto& s : slowest_spans(rec.spans))
      out << "| " << s.name << " | " << s.category << " | "
          << format_double(s.duration_us / 1000.0, 3) << " |\n";
  }
  return out.str();
}

std::string render_json_report(const std::filesystem::path& dir) {
  LoadedRecord rec;
  load_record(dir, rec);

  const double budget_w = rec.scalar<double>("cluster_budget_w");
  const double makespan_s = rec.scalar<double>("makespan_s");
  const double total_energy_j = rec.scalar<double>("total_energy_j");
  const double used = rec.scalar<double>("node_seconds_used");
  const double avail = rec.scalar<double>("node_seconds_available");
  std::size_t completed = 0;
  for (const auto& j : rec.jobs)
    if (j.completed) ++completed;

  std::ostringstream out;
  out << "{\n";
  out << "  \"budget_w\": " << format_exact(budget_w) << ",\n";
  out << "  \"makespan_s\": " << format_exact(makespan_s) << ",\n";
  out << "  \"jobs_total\": " << rec.jobs.size() << ",\n";
  out << "  \"jobs_completed\": " << completed << ",\n";
  out << "  \"retries\": " << rec.scalar<int>("retries") << ",\n";
  out << "  \"jobs_failed\": " << rec.scalar<int>("jobs_failed") << ",\n";
  out << "  \"total_energy_j\": " << format_exact(total_energy_j) << ",\n";
  out << "  \"node_utilization\": "
      << format_exact(avail > 0.0 ? used / avail : 0.0) << ",\n";
  out << "  \"budget_utilization\": "
      << format_exact(budget_w > 0.0 && makespan_s > 0.0
                          ? total_energy_j / (budget_w * makespan_s)
                          : 0.0)
      << ",\n";
  out << "  \"violation_s\": "
      << format_exact(rec.scalar<double>("violation_s")) << ",\n";
  out << "  \"violation_ws\": "
      << format_exact(rec.scalar<double>("violation_ws")) << ",\n";
  out << "  \"caps_reprogrammed\": " << rec.scalar<int>("caps_reprogrammed")
      << ",\n";
  out << "  \"meter_reads_rejected\": "
      << rec.scalar<std::uint64_t>("meter_reads_rejected") << ",\n";
  out << "  \"redist_claw_backs\": " << rec.scalar_or("redist_claw_backs", 0)
      << ",\n";
  out << "  \"redist_regrants\": " << rec.scalar_or("redist_regrants", 0)
      << ",\n";
  out << "  \"redist_subsystem_shifts\": "
      << rec.scalar_or("redist_subsystem_shifts", 0) << ",\n";
  out << "  \"redist_regrants_rejected\": "
      << rec.scalar_or<std::uint64_t>("redist_regrants_rejected", 0)
      << ",\n";
  out << "  \"redist_reclaimed_w\": "
      << format_exact(rec.scalar_or("redist_reclaimed_w", 0.0)) << ",\n";
  out << "  \"redist_granted_w\": "
      << format_exact(rec.scalar_or("redist_granted_w", 0.0)) << ",\n";
  out << "  \"crashed_nodes\": [";
  const auto crashed = rec.crashed_nodes();
  for (std::size_t i = 0; i < crashed.size(); ++i)
    out << (i > 0 ? "," : "") << crashed[i];
  out << "],\n";

  out << "  \"node_energy_j\": {";
  const auto nodes = power_nodes(rec.timeline);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double e = rec.timeline.integral(
        "node" + std::to_string(nodes[i]) + ".power_w", 0.0, makespan_s);
    out << (i > 0 ? "," : "") << "\"node" << nodes[i]
        << "\":" << format_exact(e);
  }
  out << "},\n";

  out << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < rec.jobs.size(); ++i) {
    const auto& j = rec.jobs[i];
    out << "    {\"app\":\"" << obs::json_escape(j.app) << "\",\"start_s\":"
        << format_exact(j.start_s) << ",\"end_s\":" << format_exact(j.end_s)
        << ",\"nodes\":" << j.nodes
        << ",\"budget_w\":" << format_exact(j.budget_w)
        << ",\"power_w\":" << format_exact(j.power_w)
        << ",\"attempts\":" << j.attempts
        << ",\"completed\":" << (j.completed ? "true" : "false")
        << ",\"crashed_node\":" << j.crashed_node << "}"
        << (i + 1 < rec.jobs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"fault_events\": [";
  const auto faults = rec.timeline.events("fault");
  for (std::size_t i = 0; i < faults.size(); ++i)
    out << (i > 0 ? "," : "") << "{\"t_s\":" << format_exact(faults[i].t_s)
        << ",\"label\":\"" << obs::json_escape(faults[i].label) << "\"}";
  out << "],\n";

  out << "  \"slowest_spans\": [";
  const auto top = slowest_spans(rec.spans);
  for (std::size_t i = 0; i < top.size(); ++i)
    out << (i > 0 ? "," : "") << "{\"name\":\"" << obs::json_escape(top[i].name)
        << "\",\"category\":\"" << obs::json_escape(top[i].category)
        << "\",\"duration_us\":" << format_exact(top[i].duration_us) << "}";
  out << "]\n}\n";
  return out.str();
}

namespace {

/// True when `text`, split on single spaces, contains `token` exactly —
/// the attribution primitive of the job story (labels and journal payloads
/// are space-separated token lists).
bool has_token(const std::string& text, const std::string& token) {
  for (const auto& t : split(text, ' '))
    if (t == token) return true;
  return false;
}

}  // namespace

std::string render_job_story(const std::filesystem::path& dir,
                             std::size_t job_index) {
  LoadedRecord rec;
  load_record(dir, rec);
  CLIP_REQUIRE(job_index < rec.jobs.size(),
               "job index " + std::to_string(job_index) +
                   " out of range (record has " +
                   std::to_string(rec.jobs.size()) + " jobs)");
  const QueuedJobResult& job = rec.jobs[job_index];
  const bool traced = !job.trace_id.empty();
  const std::string trace_token = "trace=" + job.trace_id;

  std::ostringstream out;
  out << "# Job story: " << job.app << " (job " << job_index << ")\n\n";
  out << "| key | value |\n|---|---|\n";
  out << "| trace | " << (traced ? job.trace_id : std::string("untraced"))
      << " |\n";
  out << "| parameters | " << (job.parameters.empty() ? "-" : job.parameters)
      << " |\n";
  out << "| submitted (s) | " << format_double(job.submit_s, 3) << " |\n";
  out << "| started (s) | " << format_double(job.start_s, 3) << " |\n";
  out << "| finished (s) | " << format_double(job.end_s, 3) << " |\n";
  out << "| nodes | " << job.nodes << " |\n";
  out << "| power slice (W) | " << format_double(job.budget_w, 1) << " |\n";
  out << "| measured draw (W) | " << format_double(job.power_w, 1) << " |\n";
  out << "| attempts | " << job.attempts << " |\n";
  out << "| completed | " << (job.completed ? "yes" : "no") << " |\n";
  out << "| crashed node | "
      << (job.crashed_node >= 0 ? std::to_string(job.crashed_node) : "-")
      << " |\n";

  // One merged, time-ordered stream of the job's flight-recorder events.
  // The `job` stream attributes by trace token when the record is traced
  // (exact even when several jobs run the same app); `redist`/`mode`
  // labels carry only the app name, so those attribute by app.
  struct StoryEvent {
    double t_s;
    int stream_rank;
    std::string stream;
    std::string label;
  };
  std::vector<StoryEvent> story;
  const char* streams[] = {"job", "redist", "mode"};
  for (int rank = 0; rank < 3; ++rank) {
    for (const auto& e : rec.timeline.events(streams[rank])) {
      const bool mine =
          rank == 0 ? (traced ? has_token(e.label, trace_token)
                              : has_token(e.label, job.app))
                    : has_token(e.label, job.app);
      if (mine)
        story.push_back({e.t_s, rank, streams[rank], e.label});
    }
  }
  std::stable_sort(story.begin(), story.end(),
                   [](const StoryEvent& a, const StoryEvent& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     return a.stream_rank < b.stream_rank;
                   });
  out << "\n## Flight-recorder events\n\n";
  if (story.empty()) {
    out << "none\n";
  } else {
    for (const auto& e : story)
      out << "- " << format_double(e.t_s, 3) << " s [" << e.stream << "] "
          << e.label << "\n";
  }

  // Recovery evidence is global (a replay gap is not attributable to one
  // job) but belongs in any story that crosses a coordinator death.
  const auto recovery = rec.timeline.events("journal");
  if (!recovery.empty()) {
    out << "\n## Recovery events\n\n";
    for (const auto& e : recovery)
      out << "- " << format_double(e.t_s, 3) << " s — " << e.label << "\n";
  }

  const auto journal_path = dir / RunRecordFiles::kJournal;
  if (std::filesystem::exists(journal_path)) {
    Journal journal;
    const JournalLoadResult loaded = journal.load(journal_path);
    out << "\n## Journal records\n\n";
    if (loaded.salvaged)
      out << "- **salvaged**: dropped " << loaded.dropped_lines
          << " corrupt tail line(s) — " << loaded.gap << "\n";
    const std::string job_token = "job=" + std::to_string(job_index);
    std::size_t rows = 0;
    for (const auto& r : journal.records()) {
      if (r.kind == "snapshot") continue;
      if (!has_token(r.payload, job_token) &&
          !(traced && has_token(r.payload, trace_token)))
        continue;
      ++rows;
      out << "- seq " << r.seq << " **" << r.kind << "** " << r.payload
          << "\n";
    }
    if (rows == 0) out << "none\n";
  }
  return out.str();
}

}  // namespace clip::runtime
