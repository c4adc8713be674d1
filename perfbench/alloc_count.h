// Process-wide heap-allocation counter for medium.allocs_per_frame.
//
// Replaces the global allocating operator new / new[] (and the matching
// deletes) with versions that bump one relaxed atomic. Include from exactly
// one translation unit: the operators are non-inline definitions.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Allocations since process start; subtract two readings for a region.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

inline void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
