// Run records and run reports — the persistence and reporting side of the
// cluster flight recorder (obs/timeline.hpp).
//
// A *run record* is a directory capturing one queue run: the timeline CSV,
// the per-job outcomes, the report scalars (including fault::BudgetGuard's
// ground-truth violation accounting — see docs/robustness.md), the decision
// pipeline's spans, and optionally a Prometheus metrics snapshot. Everything
// is CSV / text with shortest-exact double formatting, so a record written
// from a deterministic run is byte-stable and round-trips exactly.
//
// A *run report* renders a record back for humans (Markdown) or tooling
// (JSON): summary scalars, the per-node power timeline resampled to a small
// table, per-node energy integrals, the job completion/retry table, the
// fault event log, and the slowest decision-pipeline spans. Rendering is a
// pure function of the record directory — repeat invocations are
// byte-identical (`clipctl report` asserts nothing and recomputes nothing
// stochastic). Format reference: docs/observability.md.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/timeline.hpp"
#include "runtime/queue.hpp"

namespace clip::runtime {

/// File names inside a run-record directory.
struct RunRecordFiles {
  static constexpr const char* kTimeline = "timeline.csv";
  static constexpr const char* kJobs = "jobs.csv";
  static constexpr const char* kSummary = "summary.csv";
  static constexpr const char* kSpans = "spans.csv";
  static constexpr const char* kMetrics = "metrics.prom";
  /// Write-ahead journal (runtime/journal.hpp) — written by `clipctl record`,
  /// consumed by `clipctl journal` / `clipctl recover`. Not produced by
  /// write_run_record (the journal is live state, saved by its owner).
  static constexpr const char* kJournal = "journal.clipj";
};

/// Persist one queue run into `dir` (created if needed): timeline.csv,
/// jobs.csv, summary.csv (key/value scalars incl. violation accounting),
/// spans.csv, and — when `metrics` is non-null — metrics.prom.
void write_run_record(const std::filesystem::path& dir, Watts cluster_budget,
                      const QueueReport& report,
                      const obs::Timeline& timeline,
                      const std::vector<obs::SpanRecord>& spans = {},
                      const obs::MetricsRegistry* metrics = nullptr);

/// Render a run record as a deterministic Markdown report: the per-node
/// power table samples 12 evenly spaced instants, and the slowest-spans
/// table lists 5 spans.
[[nodiscard]] std::string render_markdown_report(
    const std::filesystem::path& dir);

/// Render a run record as a deterministic JSON report (the 5 slowest
/// spans). Doubles print shortest-exact, so e.g. `violation_s` equals the
/// recorded BudgetGuard figure bit-for-bit after parse-back.
[[nodiscard]] std::string render_json_report(const std::filesystem::path& dir);

/// Render one job's causal story (Markdown): its jobs.csv row, every
/// flight-recorder event attributable to it (admit/start/finish/crash/
/// requeue/fail on the `job` stream, claw/regrant/shift on `redist`,
/// brownout claws on `mode`), the `journal` stream's recovery/gap events,
/// and — when journal.clipj sits in the record directory — every journal
/// record carrying the job's index. Attribution uses the job's trace id
/// when the record was written with tracing on (QueueOptions::trace),
/// falling back to app-name matching for untraced records. `clipctl
/// report --job N` prints this.
[[nodiscard]] std::string render_job_story(const std::filesystem::path& dir,
                                           std::size_t job_index);

}  // namespace clip::runtime
