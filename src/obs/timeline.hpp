// Timeline — the cluster flight recorder, keyed by *simulated* seconds.
//
// Spans and metrics (tracer.hpp, metrics.hpp) answer "where did host time
// go"; the Timeline answers "what did the cluster do over simulated time" —
// exactly the per-node power/cap/frequency series the paper's power meter
// reader collects (§IV-B4, Figs. 1/3/7–9). It is an append-only, per-series
// store of (t_s, value) samples and (t_s, label) events with:
//
//   * deterministic CSV export (doubles print as shortest-exact %.17g,
//     series in name order, points in time order — two identical runs
//     serialize byte-identically; the telemetry server's /timeline
//     endpoint renders one series' tail as JSON lines);
//   * compact deltas: write_delta() renders only the points appended to
//     each series since a caller's TimelineMark — the scheduler journal's
//     snapshots carry the flight record this way, and recovery folds the
//     deltas back in order (apply_delta), so a snapshot costs what
//     changed, not the whole run;
//   * alignment and summary queries over the step-function interpretation
//     of a series (value_at, resample, integral, time_above, summary).
//
// Producers attach one via set_timeline(Timeline*) — the same discipline as
// set_observer(): nullptr means "off" and every hook collapses to a single
// pointer test, so a run with no timeline is byte-identical to one before
// this class existed. Within a series, timestamps must be non-decreasing
// (the event loops that feed it are monotone in simulated time); violating
// that is a caller bug and throws.
//
// The series catalog and units live in docs/observability.md.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <mutex>

namespace clip {
struct CsvDocument;
}

namespace clip::obs {

struct TimelinePoint {
  double t_s = 0.0;
  double value = 0.0;
};

struct TimelineEvent {
  double t_s = 0.0;
  std::string label;
};

/// Per series, the count of points it held when the last delta was written
/// against this mark. Sample and event series are counted apart: one name
/// may be both.
struct TimelineMark {
  std::map<std::string, std::uint64_t, std::less<>> samples;
  std::map<std::string, std::uint64_t, std::less<>> events;
};

/// min/mean/max over a sample series plus its time extent.
struct SeriesSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double first_t_s = 0.0;
  double last_t_s = 0.0;
};

class Timeline {
 public:
  Timeline() = default;

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Append one sample. `t_s` must be >= the series' last timestamp.
  void record(std::string_view series, double t_s, double value);

  /// Append one labeled event. `t_s` must be >= the series' last timestamp.
  void event(std::string_view series, double t_s, std::string_view label);

  /// All series names (samples and events merged), sorted.
  [[nodiscard]] std::vector<std::string> series_names() const;

  /// Snapshot of a sample series in time order (empty if unknown).
  [[nodiscard]] std::vector<TimelinePoint> samples(
      std::string_view series) const;

  /// Snapshot of an event series in time order (empty if unknown).
  [[nodiscard]] std::vector<TimelineEvent> events(
      std::string_view series) const;

  [[nodiscard]] std::size_t total_samples() const;

  [[nodiscard]] SeriesSummary summary(std::string_view series) const;

  /// Step-function (sample-and-hold) value at `t_s`: the value of the last
  /// sample at or before `t_s`. NaN when the series is empty or `t_s`
  /// precedes its first sample.
  [[nodiscard]] double value_at(std::string_view series, double t_s) const;

  /// `points` step-function values at evenly spaced instants over
  /// [t0, t1] (both ends included when points > 1).
  [[nodiscard]] std::vector<TimelinePoint> resample(std::string_view series,
                                                    double t0, double t1,
                                                    std::size_t points) const;

  /// ∫ series dt over [t0, t1] under the step-function interpretation
  /// (value·seconds; e.g. a power series integrates to joules). The stretch
  /// before the first sample contributes zero.
  [[nodiscard]] double integral(std::string_view series, double t0,
                                double t1) const;

  /// Seconds within [t0, t1] during which the series exceeds `threshold`
  /// (step-function; e.g. time-above-cap for a power series).
  [[nodiscard]] double time_above(std::string_view series, double threshold,
                                  double t0, double t1) const;

  /// CSV document: header `kind,series,t_s,value,label`; sample rows first,
  /// then event rows, series in name order, points in time order.
  void write_csv(const std::filesystem::path& path) const;

  /// The exact bytes write_csv would produce, as a string — what tests and
  /// benches compare to prove two runs' flight records byte-identical.
  [[nodiscard]] std::string to_csv_string() const;

  /// Append to `out` every point appended since `mark`, then advance
  /// `mark` to now. One block per series with new points, sample series
  /// first, each in name order:
  ///
  ///   ('s' | 'e') <name> (',' <t_s> ',' <value | label>)* ';'
  ///
  /// Doubles render by append_exact. Names and labels escape backslash,
  /// space, newline, ',' and ';' as \\ \s \n \c \e, so any bytes round-trip
  /// and the delta is one space-free, single-line token.
  void write_delta(std::string& out, TimelineMark& mark) const;

  /// Append the points of a write_delta() rendering, in order, exactly as
  /// record()/event() would. Throws on malformed input. Folding a run's
  /// deltas in order into a fresh timeline reproduces its to_csv_string()
  /// byte for byte.
  void apply_delta(std::string_view delta);

  /// The mark a delta written now would leave: every point counted.
  [[nodiscard]] TimelineMark mark() const;

  /// Append the contents of a write_csv() file into this timeline. Each
  /// number cell must be all number, as format_exact writes it (no blank,
  /// no '+'); malformed input throws PreconditionError naming the file, the
  /// row and the column, and leaves the timeline as it was. load then write
  /// round-trips byte-identically.
  void load_csv(const std::filesystem::path& path);

  void clear();

 private:
  [[nodiscard]] CsvDocument to_csv_document() const;
  void load_csv_document(const CsvDocument& doc, const std::string& context);

  mutable std::mutex mu_;
  std::map<std::string, std::deque<TimelinePoint>, std::less<>> samples_;
  std::map<std::string, std::deque<TimelineEvent>, std::less<>> events_;
};

/// Shortest-exact double formatting (%.17g trimmed): parses back to the
/// same bits, so timeline exports and run reports round-trip exactly.
[[nodiscard]] std::string format_exact(double v);

/// format_exact(v) appended to `out`: payloads and snapshots that render
/// many doubles build them in one buffer, without a string per value.
void append_exact(std::string& out, double v);

}  // namespace clip::obs
