// Binary-wide operator new/delete, plain and nothrow, that count while a
// test::AllocationCounter (helpers.h) is alive. Every other test sees a plain
// malloc-backed operator new.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "helpers.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too: left to the runtime (a sanitizer's allocator, say),
// their memory would reach the free() below from another allocator.
// std::stable_sort's temporary buffer comes from here.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
// Every delete funnels into one out-of-line free: inlined at a call site,
// GCC 12 pairs the counting operator new with a bare free() and reports a
// spurious -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace mccs::test {

AllocationCounter::AllocationCounter() {
  MCCS_CHECK(!g_counting.load(), "allocation counters do not nest");
  g_count.store(0);
  g_counting.store(true);
}

AllocationCounter::~AllocationCounter() { g_counting.store(false); }

std::uint64_t AllocationCounter::count() const { return g_count.load(); }

}  // namespace mccs::test
