// Counts heap allocations made by the calling thread while armed, so a test
// can assert that a code path allocates nothing:
//
//   t_allocations = 0;
//   t_countAllocations = true;
//   ...code under test...
//   t_countAllocations = false;
//   EXPECT_EQ(t_allocations, 0u);
//
// Replaces the global operator new/delete, so include it from exactly one
// source file of a test binary.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local bool t_countAllocations = false;
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// GCC cannot see that this operator new pairs with the free() below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (t_countAllocations) ++t_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's buffer uses it): left to the
// sanitizer's allocator, its blocks would reach the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_countAllocations) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
