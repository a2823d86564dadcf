#include "obs/tracer.hpp"

// The thread-index table is the tracer's only cross-thread mutable state.
// clip-lint: guards(mu_: thread_indices_)

#include "obs/session.hpp"
#include "obs/timeline.hpp"

namespace clip::obs {

namespace {

/// Per-thread nesting depth. Process-wide rather than per-tracer: spans nest
/// lexically within a thread regardless of which session records them, and a
/// plain thread_local keeps the hot path free of map lookups.
thread_local int t_span_depth = 0;

}  // namespace

void Tracer::emit(const SpanRecord& span) {
  if (TraceSink* sink = sink_.load(std::memory_order_acquire))
    sink->on_span(span);
}

int Tracer::thread_index() {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = thread_indices_.emplace(
      std::this_thread::get_id(),
      static_cast<int>(thread_indices_.size()));
  (void)inserted;
  return it->second;
}

ScopedSpan::ScopedSpan(ObsSession* session, std::string_view name,
                       std::string_view category) {
  if (session == nullptr || !session->tracer().active()) return;
  tracer_ = &session->tracer();
  record_.name = name;
  record_.category = category;
  record_.tid = tracer_->thread_index();
  record_.depth = t_span_depth++;
  record_.start_us = tracer_->clock().now_us();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  record_.duration_us = tracer_->clock().now_us() - record_.start_us;
  --t_span_depth;
  tracer_->emit(record_);
}

void ScopedSpan::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.args.push_back({std::string(key), std::string(value), false});
}

void ScopedSpan::arg(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  // Shortest-exact (clip-lint D3): trace args must parse back to the value
  // the instrumented code saw, not a 3-decimal rounding of it.
  record_.args.push_back({std::string(key), format_exact(value), true});
}

void ScopedSpan::arg(std::string_view key, int value) {
  if (tracer_ == nullptr) return;
  record_.args.push_back({std::string(key), std::to_string(value), true});
}

}  // namespace clip::obs
