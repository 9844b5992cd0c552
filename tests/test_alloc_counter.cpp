// Tests of the test binary's allocation counter (alloc_counter.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <vector>

#include "helpers.h"

namespace mccs {
namespace {

TEST(AllocationCounter, CountsNothrowAllocations) {
  std::vector<int> v(1000);
  for (int i = 0; i < 1000; ++i) v[static_cast<std::size_t>(i)] = (i * 7919) % 1000;
  {
    // The merge sort's temporary buffer is a nothrow allocation.
    test::AllocationCounter allocs;
    std::stable_sort(v.begin(), v.end());
    EXPECT_GE(allocs.count(), 1u);
  }
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  {
    test::AllocationCounter allocs;
    int* p = new (std::nothrow) int(7);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(allocs.count(), 1u);
    delete p;
  }
}

}  // namespace
}  // namespace mccs
