// Chunked parallel-for on top of ThreadPool — the analogue of
// `#pragma omp parallel for schedule(static|dynamic)` that the real CLIP
// runtime throttles. Header-only templates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace clip::parallel {

enum class Schedule { kStatic, kDynamic };

/// Run body(i) for i in [begin, end) across the pool's current team.
///
/// kStatic: contiguous block per worker (cache-friendly for streaming).
/// kDynamic: workers grab `chunk`-sized ranges from a shared counter
/// (load-balancing for irregular iterations).
template <class Body>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  const Body& body, Schedule schedule = Schedule::kStatic,
                  std::int64_t chunk = 64) {
  CLIP_REQUIRE(begin <= end, "parallel_for needs begin <= end");
  CLIP_REQUIRE(chunk > 0, "chunk must be positive");
  if (begin == end) return;

  if (schedule == Schedule::kStatic) {
    pool.run_region([&](int rank, int team) {
      const std::int64_t total = end - begin;
      const std::int64_t per = total / team;
      const std::int64_t extra = total % team;
      // First `extra` workers take one additional iteration.
      const std::int64_t my_begin =
          begin + rank * per + std::min<std::int64_t>(rank, extra);
      const std::int64_t my_count = per + (rank < extra ? 1 : 0);
      for (std::int64_t i = my_begin; i < my_begin + my_count; ++i) body(i);
    });
  } else {
    std::atomic<std::int64_t> next{begin};
    pool.run_region([&](int, int) {
      while (true) {
        const std::int64_t start =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= end) break;
        const std::int64_t stop = std::min(start + chunk, end);
        for (std::int64_t i = start; i < stop; ++i) body(i);
      }
    });
  }
}

/// Parallel reduction: sums worker-local accumulators produced by
/// body(i, local_acc&). Deterministic per team size (worker-ordered merge).
template <class T, class Body>
T parallel_reduce(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  T init, const Body& body) {
  CLIP_REQUIRE(begin <= end, "parallel_reduce needs begin <= end");
  std::vector<T> partial(static_cast<std::size_t>(pool.max_threads()), T{});
  pool.run_region([&](int rank, int team) {
    const std::int64_t total = end - begin;
    const std::int64_t per = total / team;
    const std::int64_t extra = total % team;
    const std::int64_t my_begin =
        begin + rank * per + std::min<std::int64_t>(rank, extra);
    const std::int64_t my_count = per + (rank < extra ? 1 : 0);
    T acc{};
    for (std::int64_t i = my_begin; i < my_begin + my_count; ++i)
      body(i, acc);
    partial[static_cast<std::size_t>(rank)] = acc;
  });
  T result = init;
  for (const T& p : partial) result += p;
  return result;
}

}  // namespace clip::parallel
