#include "serve/label_cache.hpp"

#include <gtest/gtest.h>

namespace gv {
namespace {

Sha256Digest digest_of(const std::string& s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

TEST(LabelCache, MissThenHit) {
  LabelCache cache(4);
  const auto d = digest_of("row0");
  EXPECT_FALSE(cache.get(0, d).has_value());
  cache.put(0, d, 2, /*generation=*/0);
  const auto hit = cache.get(0, d);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2u);
}

TEST(LabelCache, DigestMismatchEvictsStaleEntry) {
  LabelCache cache(4);
  cache.put(7, digest_of("old-features"), 1, /*generation=*/0);
  EXPECT_FALSE(cache.get(7, digest_of("new-features")).has_value());
  // The stale entry is gone entirely, not just bypassed.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LabelCache, EvictsLeastRecentlyUsed) {
  LabelCache cache(2);
  cache.put(1, digest_of("a"), 0, /*generation=*/0);
  cache.put(2, digest_of("b"), 0, /*generation=*/0);
  // Touch node 1 so node 2 becomes the LRU entry.
  EXPECT_TRUE(cache.get(1, digest_of("a")).has_value());
  cache.put(3, digest_of("c"), 0, /*generation=*/0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(1, digest_of("a")).has_value());
  EXPECT_FALSE(cache.get(2, digest_of("b")).has_value());
  EXPECT_TRUE(cache.get(3, digest_of("c")).has_value());
}

TEST(LabelCache, UpdateExistingEntryKeepsSizeStable) {
  LabelCache cache(2);
  cache.put(1, digest_of("a"), 0, /*generation=*/0);
  cache.put(1, digest_of("a2"), 5, /*generation=*/0);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.get(1, digest_of("a2"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 5u);
}

TEST(LabelCache, ZeroCapacityDisables) {
  LabelCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(0, digest_of("x"), 1, /*generation=*/0);
  EXPECT_FALSE(cache.get(0, digest_of("x")).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LabelCache, FeatureRowDigestDistinguishesRows) {
  Matrix dense(3, 4, 0.0f);
  dense(0, 1) = 1.0f;
  dense(1, 2) = 1.0f;
  dense(2, 1) = 1.0f;  // same pattern as row 0
  const CsrMatrix features = CsrMatrix::from_dense(dense);
  EXPECT_NE(feature_row_digest(features, 0), feature_row_digest(features, 1));
  EXPECT_EQ(feature_row_digest(features, 0), feature_row_digest(features, 2));
}

}  // namespace
}  // namespace gv
