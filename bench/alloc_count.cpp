#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// Every form of operator new and delete that takes ordinary memory is
// replaced: the sanitizer runtimes supply their own, and a form left to
// them would go uncounted, or free memory it did not allocate, under asan
// and tsan only. Over-aligned forms stay the library's (nothing here
// allocates over-aligned memory; they would go uncounted in every build).

namespace {

// Relaxed: the count orders nothing, and an atomic increment keeps the
// telemetry accept thread's allocations race-free under tsan.
std::atomic<std::uint64_t> g_allocations{0};

void* counted(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

using NoThrow = const std::nothrow_t&;

}  // namespace

void* operator new(std::size_t size) { return or_throw(counted(size)); }
void* operator new[](std::size_t size) { return or_throw(counted(size)); }
void* operator new(std::size_t size, NoThrow) noexcept { return counted(size); }
void* operator new[](std::size_t size, NoThrow) noexcept {
  return counted(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, NoThrow) noexcept { std::free(p); }
void operator delete[](void* p, NoThrow) noexcept { std::free(p); }

namespace clip::bench {

std::int64_t extra_allocations(const std::function<void(bool)>& sweep) {
  sweep(false);
  sweep(true);
  const auto count = [&](bool on) {
    const std::uint64_t before = g_allocations.load();
    sweep(on);
    return static_cast<std::int64_t>(g_allocations.load() - before);
  };
  const std::int64_t off = count(false);
  return count(true) - off;
}

}  // namespace clip::bench
