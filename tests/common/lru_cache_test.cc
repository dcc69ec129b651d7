#include "src/common/lru_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace quilt {
namespace {

TEST(LruCacheTest, InsertReplacesAndEvictsLeastRecent) {
  LruCache<int, std::string> cache(2);
  EXPECT_TRUE(cache.Insert(1, "a"));
  EXPECT_TRUE(cache.Insert(2, "b"));
  // An existing key takes the new value and becomes the most recent entry.
  EXPECT_FALSE(cache.Insert(1, "a2"));
  ASSERT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(*cache.Lookup(1), "a2");
  // So key 2 is the least recent and goes first.
  EXPECT_TRUE(cache.Insert(3, "c"));
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  // A lookup also refreshes recency: 3 is touched, so 1 is evicted next.
  ASSERT_NE(cache.Lookup(3), nullptr);
  EXPECT_TRUE(cache.Insert(4, "d"));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.evictions(), 2);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0);
}

}  // namespace
}  // namespace quilt
