// Trace records and the pluggable sink interface.
//
// The tracer hands each *completed* span to one sink. MemorySink (tests, the
// run record and the clipctl trace subcommand, exported to Chrome-trace JSON
// afterwards) is the one implementation here; a program may attach its own
// TraceSink. With no sink attached at all, instrumented code takes a single
// predictable branch per call site and records nothing.
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace clip::obs {

/// One argument attached to a span. `numeric` controls JSON rendering:
/// numeric values are emitted unquoted so trace viewers can plot them.
struct SpanArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

/// A completed span: a named interval on one thread with nesting depth.
struct SpanRecord {
  std::string name;
  std::string category;  ///< Chrome-trace "cat" — e.g. "pipeline", "sim"
  std::vector<SpanArg> args;
  double start_us = 0.0;
  double duration_us = 0.0;
  int tid = 0;    ///< small stable per-thread index assigned by the tracer
  int depth = 0;  ///< nesting depth at begin (0 = top-level)
};

/// One sample of a counter track (Chrome-trace "C" event): a timestamp plus
/// one or more named series values, rendered as a stacked area in Perfetto.
struct CounterSample {
  std::string name;
  double time_us = 0.0;
  std::vector<std::pair<std::string, double>> series;
};

/// Receives completed trace records. Implementations must be thread-safe:
/// spans finish concurrently on every instrumented thread.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
};

/// Accumulates records in memory for later export or inspection.
class MemorySink final : public TraceSink {
 public:
  void on_span(const SpanRecord& span) override;

  /// Snapshot copy (the sink may keep recording concurrently).
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::size_t span_count() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

}  // namespace clip::obs
