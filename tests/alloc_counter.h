// Global allocation counter for the zero-steady-state-allocation pins. It
// replaces the global operator new/delete, so include it from exactly one
// translation unit per test binary. The thread_local flag scopes counting
// to the calling thread, so idle pool workers and the OpenMP runtime don't
// show up as noise. Disabled under sanitizers, which own the allocator;
// tests check WFIRE_ALLOC_COUNTING and skip.
#pragma once

#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WFIRE_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WFIRE_ALLOC_COUNTING 0
#else
#define WFIRE_ALLOC_COUNTING 1
#endif
#else
#define WFIRE_ALLOC_COUNTING 1
#endif

#if WFIRE_ALLOC_COUNTING
namespace {
thread_local bool t_count_allocs = false;
thread_local long t_alloc_count = 0;

// Number of operator new calls fn() makes on the calling thread.
template <typename F>
long count_allocs(F&& fn) {
  t_alloc_count = 0;
  t_count_allocs = true;
  fn();
  t_count_allocs = false;
  return t_alloc_count;
}
}  // namespace

// Out of line, so gcc's -Wmismatched-new-delete never sees the malloc
// inside operator new paired with a delete at an inlined call site; every
// delete forwards to the one free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#endif
