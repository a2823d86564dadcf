// Heap-allocation counting for the two benches that price a fixed cost
// (`recovery`: the journal; `obs_overhead`: telemetry + tracing). A time
// share drifts with the host and with every speed-up elsewhere; an exact
// count of `operator new` calls reads the same on every run, under every
// preset. alloc_count.cpp replaces the global operator new and delete, so
// it is linked into those two binaries only, never into bench_common.
#pragma once

#include <cstdint>
#include <functional>

namespace clip::bench {

/// Heap allocations (`operator new` calls, on any thread) `sweep(true)`
/// makes beyond `sweep(false)`. Each side runs once uncounted first, so
/// one-time set-up (static tables, the telemetry accept thread,
/// thread-local buffers) lands in the warm-up, not the reading.
[[nodiscard]] std::int64_t extra_allocations(
    const std::function<void(bool)>& sweep);

}  // namespace clip::bench
