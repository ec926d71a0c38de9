// Live-graph serving: update_features swaps the backbone snapshot and
// clears the label cache.
#include <gtest/gtest.h>

#include "serve/label_cache.hpp"
#include "serve/vault_server.hpp"
#include "serve_test_util.hpp"

namespace gv {
namespace {

/// Copy of `features` with every stored value of `row` scaled (changes the
/// row's digest without touching sparsity or other rows).
CsrMatrix scale_row(const CsrMatrix& features, std::uint32_t row, float factor) {
  CsrMatrix out = features;
  auto& vals = out.mutable_values();
  for (std::int64_t i = out.row_ptr()[row]; i < out.row_ptr()[row + 1]; ++i) {
    vals[i] *= factor;
  }
  return out;
}

/// First row at or after `from` that stores at least one feature (scaling an
/// all-zero row would not change its digest).
std::uint32_t nonempty_row(const CsrMatrix& features, std::uint32_t from) {
  for (std::uint32_t r = from; r < features.rows(); ++r) {
    if (features.row_nnz(r) > 0) return r;
  }
  throw Error("no nonempty feature row found");
}

TEST(LabelCache, PutFromBeforeAClearIsDropped) {
  const Dataset ds = serve_dataset(55);
  LabelCache cache(16);
  const std::uint32_t node = nonempty_row(ds.features, 3);
  const Sha256Digest digest = feature_row_digest(ds.features, node);
  // A batch reads the generation, then a feature update clears the cache
  // while the batch is still computing against the old snapshot.
  const std::uint64_t started = cache.generation();
  cache.clear();
  EXPECT_EQ(cache.generation(), started + 1);
  cache.put(node, digest, 0, started);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(node, digest).has_value());
  // A batch that started after the clear files its label as usual.
  cache.put(node, digest, 1, cache.generation());
  EXPECT_EQ(cache.get(node, digest), std::optional<std::uint32_t>(1));
}

TEST(VaultServer, UpdateFeaturesServesLabelsOfNewSnapshot) {
  const Dataset ds = serve_dataset(56);
  TrainedVault tv = serve_vault(ds);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(500);
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto new_truth = tv.predict_rectified(mutated);

  server.update_features(mutated);
  for (std::uint32_t v = 0; v < 16; ++v) {
    EXPECT_EQ(server.query(v), new_truth[v]) << "node " << v;
  }
  EXPECT_EQ(server.stats().feature_updates, 1u);
}

TEST(VaultServer, UpdateFeaturesInvalidatesNeighbourDependentCacheEntries) {
  const Dataset ds = serve_dataset(57);
  TrainedVault tv = serve_vault(ds);
  const auto old_truth = tv.predict_rectified(ds.features);
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(500);
  cfg.cache_capacity = 64;
  VaultServer server(ds, tv, {}, cfg);

  // Find a node whose own feature row stays put while rescaling its
  // neighbours' rows moves its label: the digest of its own row cannot see
  // the change, so only dropping the entry keeps the served label exact.
  const auto& g = ds.graph;
  for (std::uint32_t v = 0; v < ds.num_nodes(); ++v) {
    CsrMatrix mutated = ds.features;
    auto& vals = mutated.mutable_values();
    for (const std::uint32_t u : g.neighbors(v)) {
      for (std::int64_t i = mutated.row_ptr()[u]; i < mutated.row_ptr()[u + 1]; ++i) {
        vals[i] *= -4.0f;
      }
    }
    if (feature_row_digest(mutated, v) != feature_row_digest(ds.features, v)) continue;
    const auto new_truth = tv.predict_rectified(mutated);
    if (new_truth[v] == old_truth[v]) continue;

    EXPECT_EQ(server.query(v), old_truth[v]);
    EXPECT_EQ(server.query(v), old_truth[v]);  // now a cache hit
    server.update_features(mutated);
    EXPECT_EQ(server.query(v), new_truth[v]) << "node " << v;
    return;
  }
  FAIL() << "no node whose label moves with its neighbours only";
}

TEST(VaultServer, QueuedRequestsResolveAgainstNewSnapshot) {
  const Dataset ds = serve_dataset(58);
  TrainedVault tv = serve_vault(ds);
  ServerConfig cfg;
  cfg.max_batch = 1024;
  cfg.max_wait = std::chrono::seconds(30);
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto new_truth = tv.predict_rectified(mutated);

  auto fut = server.submit(6);  // parked in the open batch
  server.update_features(mutated);
  server.flush();
  // The batch executed after the swap: it pinned the NEW snapshot.
  EXPECT_EQ(fut.get(), new_truth[6]);
}

TEST(VaultServer, RejectsShapeChangingUpdates) {
  const Dataset ds = serve_dataset(59);
  VaultServer server(ds, serve_vault(ds), {}, {});
  CsrMatrix wrong_rows(CsrMatrix::from_coo(ds.num_nodes() + 1, ds.feature_dim(), {}));
  EXPECT_THROW(server.update_features(wrong_rows), Error);
  CsrMatrix wrong_cols(CsrMatrix::from_coo(ds.num_nodes(), ds.feature_dim() + 5, {}));
  EXPECT_THROW(server.update_features(wrong_cols), Error);
}

}  // namespace
}  // namespace gv
