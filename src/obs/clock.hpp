// Monotonic time source for the observability layer.
//
// Every timestamp the tracer or the scoped timers record flows through this
// interface — never through wall-clock reads at the call sites — so tests can
// substitute a FakeClock and get byte-identical trace output across runs
// (the same discipline the simulator applies to randomness via seeded RNGs).
// Chrome-trace timestamps are microseconds; we keep that unit everywhere and
// allow fractional values for sub-microsecond spans.
#pragma once

#include <chrono>

namespace clip::obs {

/// Abstract monotonic clock. Implementations must be non-decreasing; the
/// origin is arbitrary (trace viewers only consume relative times).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Microseconds since an arbitrary fixed origin.
  [[nodiscard]] virtual double now_us() const = 0;
};

/// Production clock: std::chrono::steady_clock relative to construction.
class SteadyClock final : public Clock {
 public:
  SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now_us() const override {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Test clock: time advances only when told to. Mutation is intended from a
/// single thread (the test body); readers may be concurrent.
class FakeClock final : public Clock {
 public:
  [[nodiscard]] double now_us() const override { return now_us_; }

  void advance_us(double us) { now_us_ += us; }

 private:
  double now_us_ = 0.0;
};

}  // namespace clip::obs
