#include "obs/sink.hpp"

// MemorySink collects from whatever thread emits spans; storage mutates
// only under mu_ (clip-analyze L1 enforces the write side).
// clip-lint: guards(mu_: spans_)

namespace clip::obs {

void MemorySink::on_span(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> MemorySink::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t MemorySink::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void MemorySink::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

}  // namespace clip::obs
