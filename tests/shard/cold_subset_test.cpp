// Cold cross-shard subset inference: labels for an arbitrary node subset
// computed on demand by walking the L-hop frontier ACROSS shard boundaries
// (halo pulls over the attested channels), with the materialized stores
// acting as a cache rather than the only source of truth.  Pinned here:
//   * bit-exactness vs the single-enclave oracle AND vs the post-refresh
//     stores on all six Table-I dataset twins — fully cold (no refresh
//     ever) and warm (store-served halo pulls);
//   * subsets whose frontier spans >= 3 shards, and queries whose frontier
//     stays inside one shard leave the rest of the fleet untouched;
//   * the router serves un-materialized stores through the cold path
//     (cold-start server) instead of failing;
//   * incremental promotion re-materialization (rematerialize_shard) and a
//     cold query racing a promotion: fence or consistent labels, never
//     stale ones;
//   * refresh, rematerialize_shard and rebuild_boundary_retained leave the
//     same retained stores behind for every scheme and shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/deployment.hpp"
#include "data/catalog.hpp"
#include "shard/replica_manager.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_server.hpp"
#include "shard_test_util.hpp"

namespace gv {
namespace {

TrainedVault quick_vault(const Dataset& ds,
                         RectifierKind kind = RectifierKind::kParallel) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {16, 8}, {16, 8}, 0.4f};
  cfg.rectifier = kind;
  cfg.backbone_train.epochs = 25;
  cfg.rectifier_train.epochs = 25;
  cfg.seed = 29;
  return train_vault(ds, cfg);
}

/// A query mix with cross-shard spread, a contiguous run, and duplicates.
std::vector<std::uint32_t> mixed_queries(const Dataset& ds) {
  std::vector<std::uint32_t> q;
  const std::uint32_t step = std::max<std::uint32_t>(1, ds.num_nodes() / 23);
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) q.push_back(v);
  for (std::uint32_t v = 0; v < std::min<std::uint32_t>(6, ds.num_nodes()); ++v) {
    q.push_back(v);
  }
  q.push_back(q.front());  // duplicate
  return q;
}

TEST(ColdSubset, BitExactOnAllSixDatasetsColdAndWarm) {
  for (const DatasetId id : all_dataset_ids()) {
    const Dataset ds = load_dataset(id, /*seed=*/7, /*scale=*/0.06);
    TrainedVault tv = quick_vault(ds);
    const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
    ShardedVaultDeployment dep(ds, tv, plan);

    const auto q = mixed_queries(ds);
    const auto oracle = tv.predict_rectified_subset(ds.features, q);

    // FULLY COLD: no refresh has ever run — no label stores, no retained
    // boundary activations; the frontier walk recurses across boundaries.
    ColdSubsetStats cold_stats;
    const auto got_cold =
        dep.infer_labels_subset_cold(ds.features, q, &cold_stats);
    EXPECT_EQ(got_cold, oracle) << dataset_name(id) << " (cold-start fleet)";
    EXPECT_FALSE(dep.refreshed());
    EXPECT_GE(cold_stats.shards_computed, 1u);

    // WARM: refresh materializes the stores; the cold path must agree with
    // both the oracle and the stores it is a fallback for.
    const auto truth = dep.infer_labels(ds.features);
    ColdSubsetStats warm_stats;
    const auto got_warm =
        dep.infer_labels_subset_cold(ds.features, q, &warm_stats);
    EXPECT_EQ(got_warm, oracle) << dataset_name(id) << " (warm fleet)";
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(got_warm[i], truth[q[i]])
          << dataset_name(id) << " query " << q[i] << " vs materialized store";
    }
    EXPECT_TRUE(warm_stats.backbone_cache_hit) << dataset_name(id);
  }
}

TEST(ColdSubset, WorksForCascadedAndSeriesRectifiers) {
  const Dataset ds = shard_dataset(61);
  for (const RectifierKind kind :
       {RectifierKind::kCascaded, RectifierKind::kSeries}) {
    TrainedVault tv = quick_vault(ds, kind);
    ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
    const auto q = mixed_queries(ds);
    const auto oracle = tv.predict_rectified_subset(ds.features, q);
    EXPECT_EQ(dep.infer_labels_subset_cold(ds.features, q), oracle)
        << rectifier_kind_name(kind) << " cold-start";
    dep.refresh(ds.features);
    EXPECT_EQ(dep.infer_labels_subset_cold(ds.features, q), oracle)
        << rectifier_kind_name(kind) << " warm";
  }
}

TEST(ColdSubset, FrontierSpansThreeShardsAndAuditsStayClean) {
  const Dataset ds = shard_dataset(62);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 4));
  dep.refresh(ds.features);
  const std::uint64_t label_bytes_before = dep.halo_label_bytes();
  const std::uint64_t package_bytes_before = dep.halo_package_bytes();

  // One query node from each of three different shards: at least those
  // three owners compute, so the frontier provably spans >= 3 shards.
  std::vector<std::uint32_t> q;
  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_FALSE(dep.plan().shards[s].nodes.empty());
    q.push_back(dep.plan().shards[s].nodes.front());
  }
  ColdSubsetStats st;
  const auto got = dep.infer_labels_subset_cold(ds.features, q, &st);
  EXPECT_EQ(got, tv.predict_rectified_subset(ds.features, q));
  EXPECT_GE(st.shards_computed, 3u);
  EXPECT_GE(st.shards_touched, st.shards_computed);
  EXPECT_GT(st.halo_embedding_bytes + st.halo_request_bytes, 0u);

  // The cold path moves embeddings and requests ONLY: no labels, no
  // packages ever ride the inter-shard channels.
  EXPECT_EQ(dep.halo_label_bytes(), label_bytes_before);
  EXPECT_EQ(dep.halo_package_bytes(), package_bytes_before);
}

TEST(ColdSubset, InteriorQueryLeavesDisjointShardsUntouched) {
  const Dataset ds = shard_dataset(63);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 4));
  dep.refresh(ds.features);

  // An interior node: its whole (L-1)-hop neighbourhood shares its shard,
  // so the warm frontier never crosses a boundary (halo pulls happen for
  // the input frontiers of layers 1..L-1, whose deepest reach is L-1 hops).
  const CsrMatrix& adj = *tv.real_adj;
  const std::size_t hops = tv.rectifier->config().channels.size() - 1;
  std::uint32_t interior = ds.num_nodes();
  for (std::uint32_t v = 0; v < ds.num_nodes() && interior == ds.num_nodes();
       ++v) {
    const std::uint32_t s = dep.owner(v);
    std::vector<std::uint32_t> ball{v};
    bool inside = true;
    for (std::size_t h = 0; h < hops && inside; ++h) {
      std::vector<std::uint32_t> next;
      for (const auto u : ball) {
        for (std::int64_t i = adj.row_ptr()[u]; i < adj.row_ptr()[u + 1]; ++i) {
          const std::uint32_t w = adj.col_idx()[i];
          inside = inside && dep.owner(w) == s;
          next.push_back(w);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      ball.swap(next);
    }
    if (inside) interior = v;
  }
  ASSERT_LT(interior, ds.num_nodes()) << "test graph has no interior node";

  ColdSubsetStats st;
  const auto got = dep.infer_labels_subset_cold(
      ds.features, std::vector<std::uint32_t>{interior}, &st);
  EXPECT_EQ(got, tv.predict_rectified_subset(
                     ds.features, std::vector<std::uint32_t>{interior}));
  // Empty-intersection shards are never touched: one owner computes, and
  // with the frontier inside the shard there is nobody to pull from.
  EXPECT_EQ(st.shards_computed, 1u);
  EXPECT_EQ(st.shards_touched, 1u);
  EXPECT_EQ(st.halo_embedding_bytes, 0u);
  EXPECT_EQ(st.halo_request_bytes, 0u);
}

TEST(ColdSubset, RouterServesUnmaterializedStoresThroughColdPath) {
  const Dataset ds = shard_dataset(64);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  ShardRouter router(dep);
  router.set_cold_path([&](std::span<const std::uint32_t> nodes) {
    return dep.infer_labels_subset_cold(ds.features, nodes);
  });

  // No refresh ever ran: a direct lookup refuses, the router goes cold.
  ASSERT_FALSE(dep.store_materialized(0));
  const auto q = mixed_queries(ds);
  EXPECT_EQ(router.route(q), tv.predict_rectified_subset(ds.features, q));
  EXPECT_GE(router.cold_batches(), 1u);

  // After a refresh the stores are materialized and the router goes warm
  // again: the cold counter stops moving.
  dep.refresh(ds.features);
  const std::uint64_t cold_before = router.cold_batches();
  EXPECT_EQ(router.route(q), tv.predict_rectified_subset(ds.features, q));
  EXPECT_EQ(router.cold_batches(), cold_before);
}

TEST(ColdSubset, ColdStartServerServesAndMaterializesOnUpdate) {
  const Dataset ds = shard_dataset(65);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto oracle = tv.predict_rectified(ds.features);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;  // every query reaches the router
  cfg.materialize_on_start = false;
  ShardedVaultServer server(ds, tv, plan, {}, cfg);

  const std::uint32_t step = std::max<std::uint32_t>(1, ds.num_nodes() / 29);
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
    EXPECT_EQ(server.query(v), oracle[v]) << "cold-start node " << v;
  }
  EXPECT_GE(server.stats().cold_batches, 1u);

  // update_features materializes the stores; serving goes warm.
  server.update_features(ds.features);
  const std::uint64_t cold_before = server.stats().cold_batches;
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
    EXPECT_EQ(server.query(v), oracle[v]) << "post-update node " << v;
  }
  EXPECT_EQ(server.stats().cold_batches, cold_before);
}

// Killing a shard on a COLD-START fleet (no refresh ever ran): promotion
// has no store to re-materialize — the adopted PRIMARY serves demand-driven
// through the cold path like everyone else, and a later update_features
// still materializes the whole fleet.
TEST(ColdSubset, ColdStartServerSurvivesKillAndPromotion) {
  const Dataset ds = shard_dataset(69);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto oracle = tv.predict_rectified(ds.features);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;
  cfg.materialize_on_start = false;
  cfg.replicate = true;
  ShardedVaultServer server(ds, tv, plan, {}, cfg);

  const std::uint32_t victim = server.deployment().owner(3);
  server.kill_shard(victim);

  const std::uint32_t step = std::max<std::uint32_t>(1, ds.num_nodes() / 31);
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
    EXPECT_EQ(server.query(v), oracle[v]) << "post-kill cold node " << v;
  }
  EXPECT_GE(server.stats().cold_batches, 1u);
  EXPECT_EQ(server.stats().promotions, 1u);

  server.update_features(ds.features);  // materializes every store
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
    EXPECT_EQ(server.query(v), oracle[v]) << "post-update node " << v;
  }
}

TEST(ColdSubset, RematerializeShardRebuildsOneStoreWithoutEpochBump) {
  const Dataset ds = shard_dataset(66);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);
  const std::uint64_t epoch = dep.refresh_epoch();

  // Shard-local re-materialization is idempotent on a healthy shard and
  // leaves the refresh epoch alone (the snapshot did not move).
  dep.rematerialize_shard(1, ds.features);
  EXPECT_EQ(dep.refresh_epoch(), epoch);
  const auto& owned = dep.plan().shards[1].nodes;
  ASSERT_FALSE(owned.empty());
  const auto labels = dep.lookup(1, owned);
  for (std::size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(labels[i], truth[owned[i]]) << "node " << owned[i];
  }

  // The fingerprint guard: a different snapshot must go through refresh().
  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.5f;
  EXPECT_THROW(dep.rematerialize_shard(1, mutated), Error);
}

// Refresh, rematerialize_shard and rebuild_boundary_retained all run the one
// frontier engine with different retain sets: the stores each leaves behind
// must be the same bytes, and cold queries pulling from them stay exact.
TEST(ColdSubset, RetainedStoresAgreeAcrossRefreshAndRematerialization) {
  const Dataset ds = shard_dataset(69, 400);
  for (const RectifierKind kind :
       {RectifierKind::kParallel, RectifierKind::kCascaded, RectifierKind::kSeries}) {
    TrainedVault tv = quick_vault(ds, kind);
    for (const std::uint32_t K : {1u, 2u, 4u}) {
      const std::string where =
          rectifier_kind_name(kind) + " K=" + std::to_string(K);
      ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, K));
      // Replicated before the refresh, so the promotion below cannot
      // warm-adopt and must re-materialize.
      ReplicaManager replicas(dep);
      replicas.replicate_all();
      dep.refresh(ds.features);
      auto retained_bytes = [&] {
        std::vector<std::size_t> out;
        for (std::uint32_t t = 0; t < K; ++t) {
          out.push_back(dep.shard_enclave(t).memory().bytes("halo.retained"));
        }
        return out;
      };
      const auto after_refresh = retained_bytes();
      if (K > 1) EXPECT_GT(after_refresh[0], 0u) << where;

      const std::uint32_t s = K - 1;
      dep.rematerialize_shard(s, ds.features);
      EXPECT_EQ(retained_bytes(), after_refresh) << where;
      dep.rebuild_boundary_retained(s, ds.features);
      EXPECT_EQ(retained_bytes(), after_refresh) << where;
      dep.kill_shard(s);
      replicas.promote(s, [&] { dep.rematerialize_shard(s, ds.features); });
      EXPECT_EQ(retained_bytes(), after_refresh) << where << " after promotion";
      ASSERT_TRUE(dep.retained_valid(s)) << where;

      // Warm cold queries over one shard's nodes: only that shard computes;
      // every halo input comes from a peer's retained store.
      for (const std::uint32_t owner : {s, (s + 1) % K}) {
        const auto& q = dep.plan().shards[owner].nodes;
        ColdSubsetStats st;
        EXPECT_EQ(dep.infer_labels_subset_cold(ds.features, q, &st),
                  tv.predict_rectified_subset(ds.features, q))
            << where << " shard " << owner;
        EXPECT_EQ(st.shards_computed, 1u) << where << " shard " << owner;
      }
    }
  }
}

TEST(ColdSubset, StalePromotionUsesShardLocalForwardBitExactly) {
  const Dataset ds = shard_dataset(67);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  ShardRouter router(dep, &replicas);

  // A refresh the standbys never see: promote() cannot warm-adopt and must
  // run the shard-local re-materialization callback.
  dep.refresh(ds.features);
  const std::uint64_t epoch = dep.refresh_epoch();
  const std::uint32_t victim = 0;
  dep.kill_shard(victim);
  bool callback_ran = false;
  replicas.promote(victim, [&] {
    callback_ran = true;
    dep.rematerialize_shard(victim, ds.features);
  });
  EXPECT_TRUE(callback_ran);
  EXPECT_EQ(dep.refresh_epoch(), epoch);  // no fleet-wide refresh

  const auto q = mixed_queries(ds);
  const auto got = router.route(q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(got[i], truth[q[i]]) << "node " << q[i] << " after promotion";
  }
}

// A cold query racing a promotion must fence (or fail) and then serve
// labels consistent with the current snapshot — never a stale or partially
// re-materialized store.
TEST(ColdSubset, ColdQueryRacingPromotionServesConsistentLabels) {
  const Dataset ds = shard_dataset(68);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  ShardRouter router(dep, &replicas);
  router.set_cold_path([&](std::span<const std::uint32_t> nodes) {
    return dep.infer_labels_subset_cold(ds.features, nodes);
  });
  router.set_fence_timeout(std::chrono::seconds(30));

  dep.refresh(ds.features);  // stale-ify: force the shard-local path
  const std::uint32_t victim = 0;
  dep.kill_shard(victim);
  replicas.begin_promotion(victim);

  const auto q = mixed_queries(ds);  // spans the victim and the survivors
  std::atomic<bool> racing{false};
  std::vector<std::uint32_t> routed;
  std::thread client([&] {
    racing.store(true);
    routed = router.route(q);  // fences on the PROMOTING victim
  });
  while (!racing.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Direct cold queries against a surviving shard while the promotion is
  // in flight: either a clean failure (dead frontier shard) or labels that
  // match the current snapshot — never stale ones.
  const auto& survivors = dep.plan().shards[1].nodes;
  ASSERT_FALSE(survivors.empty());
  std::vector<std::uint32_t> probe(survivors.begin(),
                                   survivors.begin() +
                                       std::min<std::size_t>(8, survivors.size()));
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      const auto got = dep.infer_labels_subset_cold(ds.features, probe);
      for (std::size_t i = 0; i < probe.size(); ++i) {
        EXPECT_EQ(got[i], truth[probe[i]]) << "racing cold query, node "
                                           << probe[i];
      }
    } catch (const Error&) {
      // The probe's frontier reached the dead shard before adoption — the
      // allowed outcome; the router covers retry-after-fence.
    }
  }

  replicas.promote(victim,
                   [&] { dep.rematerialize_shard(victim, ds.features); });
  client.join();
  ASSERT_EQ(routed.size(), q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(routed[i], truth[q[i]]) << "fenced route, node " << q[i];
  }
  EXPECT_GE(router.fenced(), 1u);
}

}  // namespace
}  // namespace gv
