// Counting global allocator for the allocation tests (test_*_alloc.cpp).
//
// Replaces every form of the global operator new/delete with a malloc /
// aligned_alloc passthrough that counts the calls to new; allocs() reads
// the count. The passthrough is sanitizer-friendly: ASan still sees every
// underlying malloc/free. Include this header in exactly one translation
// unit of a test binary, and give the hook its own binary so it cannot
// perturb the other suites.
//
// The replacements are noinline: inlined into a caller, gcc would pair the
// malloc with a call to operator delete (or operator new with the free) and
// report -Wmismatched-new-delete.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_new_calls{0};

/// Global operator new calls so far, every form included.
std::size_t allocs() { return g_new_calls.load(std::memory_order_relaxed); }
}  // namespace

#define AGCM_COUNTING_NEW __attribute__((noinline))

AGCM_COUNTING_NEW void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
AGCM_COUNTING_NEW void* operator new[](std::size_t size) {
  return ::operator new(size);
}
AGCM_COUNTING_NEW void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
AGCM_COUNTING_NEW void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
AGCM_COUNTING_NEW void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
AGCM_COUNTING_NEW void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  return ::operator new(size, align);
}
AGCM_COUNTING_NEW void operator delete(void* p) noexcept { std::free(p); }
AGCM_COUNTING_NEW void operator delete[](void* p) noexcept { std::free(p); }
AGCM_COUNTING_NEW void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
AGCM_COUNTING_NEW void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
AGCM_COUNTING_NEW void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
AGCM_COUNTING_NEW void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
AGCM_COUNTING_NEW void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
AGCM_COUNTING_NEW void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

#undef AGCM_COUNTING_NEW
