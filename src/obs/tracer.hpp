// Tracer: nested spans over an injected monotonic clock.
//
// A span is opened by constructing a ScopedSpan and closed by its destructor
// (RAII guarantees begin/end pairing even across exceptions — important in a
// codebase whose error paths throw). Completed spans flow to the attached
// TraceSink; with no sink attached the ScopedSpan constructor reduces to one
// pointer test and the object stays inert, which is what keeps always-on
// instrumentation cheap on production hot paths (bench/micro_runtime measures
// the detached span at single-digit nanoseconds).
//
// Thread identity is a small stable index assigned on first use per thread,
// so Chrome-trace tracks are numbered 0,1,2,... rather than opaque OS ids.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#include "obs/clock.hpp"
#include "obs/sink.hpp"

namespace clip::obs {

class Tracer {
 public:
  /// `clock` must outlive the tracer.
  explicit Tracer(const Clock& clock) : clock_(&clock) {}

  /// Attach a sink (nullptr detaches). Spans already open stay inert or
  /// active as constructed; the switch applies to spans opened afterwards.
  void set_sink(TraceSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }
  [[nodiscard]] bool active() const {
    return sink_.load(std::memory_order_acquire) != nullptr;
  }

  [[nodiscard]] const Clock& clock() const { return *clock_; }

  /// Deliver a completed span to the sink, if one is still attached.
  void emit(const SpanRecord& span);

  /// Stable small index for the calling thread (0 for the first thread).
  [[nodiscard]] int thread_index();

 private:
  const Clock* clock_;
  std::atomic<TraceSink*> sink_{nullptr};
  std::mutex mu_;
  // Ordered map (clip-lint D2): a handful of threads, looked up under the
  // mutex anyway — hash-order freedom buys nothing here.
  std::map<std::thread::id, int> thread_indices_;
};

class ObsSession;

/// RAII span. Inert (single branch, no allocation) when the session is null
/// or no sink is attached; otherwise records [construction, destruction] on
/// the current thread with the tracer's clock.
class ScopedSpan {
 public:
  ScopedSpan(ObsSession* session, std::string_view name,
             std::string_view category = "clip");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach an argument (no-op when inert).
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, int value);

  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

}  // namespace clip::obs
