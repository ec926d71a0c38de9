// GraphDrift: live private-graph mutation + online rebalancing.  Pinned:
//   * bit-exactness vs a single-enclave oracle REBUILT ON THE MUTATED
//     GRAPH, on all six Table-I dataset twins, after random edge
//     insert/delete/node-add sequences — both demand-driven (stale stores,
//     cold path) and after the next refresh;
//   * digest-based invalidation: exactly the receptive field goes stale, a
//     cancelled delta invalidates nothing, direct lookups refuse stale
//     entries, and routed traffic heals the store through the cold path;
//   * plan_diff: moves only drift nodes, and replaying it on its own
//     output is a no-op (idempotence);
//   * migration: plan-diff moves are bit-exact, audited (node transfers
//     are the only adjacency-bearing payload kind; labels/packages never
//     ride inter-shard channels), idempotent to replay, safe while racing
//     concurrent routed queries and a promotion, a standby whose package
//     predates the topology refuses promotion, and the next feature update
//     re-replicates it;
//   * auto-restaff: two back-to-back failovers with no manual restaff();
//   * dead-shard detection: an injected ecall failure triggers the same
//     fence + promote path as an explicit kill_shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "data/catalog.hpp"
#include "shard/graph_drift.hpp"
#include "shard/migration.hpp"
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
  cfg.seed = 31;
  return train_vault(ds, cfg);
}

/// Random drift: `deletes` existing edges out, `inserts` random pairs in,
/// `adds` fresh nodes with one-hot-ish feature rows.  Degenerate picks
/// (duplicates, self-loops, already-present edges) are intended — the
/// no-op semantics must agree between the fleet and the oracle.
GraphDelta random_delta(const Dataset& ds, Rng& rng, std::size_t inserts,
                        std::size_t deletes, std::size_t adds) {
  GraphDelta d;
  const std::uint32_t n_after =
      ds.num_nodes() + static_cast<std::uint32_t>(adds);
  const auto& edges = ds.graph.edges();
  for (std::size_t i = 0; i < deletes && !edges.empty(); ++i) {
    const Edge& e = edges[rng.uniform_index(edges.size())];
    d.edge_deletes.push_back({e.a, e.b});
  }
  for (std::size_t i = 0; i < inserts; ++i) {
    d.edge_inserts.push_back(
        {static_cast<std::uint32_t>(rng.uniform_index(n_after)),
         static_cast<std::uint32_t>(rng.uniform_index(n_after))});
  }
  for (std::size_t i = 0; i < adds; ++i) {
    std::vector<std::pair<std::uint32_t, float>> row;
    row.push_back({static_cast<std::uint32_t>(
                       rng.uniform_index(ds.features.cols())),
                   1.0f});
    d.node_adds.push_back(std::move(row));
  }
  return d;
}

std::vector<std::uint32_t> spread_queries(std::uint32_t n, std::uint32_t parts) {
  std::vector<std::uint32_t> q;
  const std::uint32_t step = std::max<std::uint32_t>(1, n / parts);
  for (std::uint32_t v = 0; v < n; v += step) q.push_back(v);
  q.push_back(n - 1);  // appended nodes are the most drift-sensitive
  q.push_back(q.front());
  return q;
}

TEST(GraphDrift, BitExactAfterRandomDriftOnAllSixDatasets) {
  for (const DatasetId id : all_dataset_ids()) {
    Dataset ds = load_dataset(id, /*seed=*/9, /*scale=*/0.06);
    TrainedVault tv = quick_vault(ds);
    ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
    dep.refresh(ds.features);

    Rng rng(0xd21f7 + static_cast<std::uint64_t>(id));
    const GraphDelta delta = random_delta(ds, rng, /*inserts=*/12,
                                          /*deletes=*/8, /*adds=*/2);
    Dataset mds = ds;
    apply_delta(mds, delta);
    const auto stats = dep.update_graph(delta, &mds.features);
    EXPECT_GT(stats.edges_inserted + stats.edges_deleted + stats.nodes_added,
              0u)
        << dataset_name(id);
    EXPECT_EQ(dep.num_nodes(), mds.num_nodes()) << dataset_name(id);

    const TrainedVault oracle = revault_on(tv, mds);

    // Demand-driven, BEFORE any refresh: stale stores must not leak
    // pre-mutation labels; the cold path computes on the mutated topology.
    const auto q = spread_queries(mds.num_nodes(), 23);
    EXPECT_EQ(dep.infer_labels_subset_cold(mds.features, q),
              oracle.predict_rectified_subset(mds.features, q))
        << dataset_name(id) << " (cold, stale stores)";

    // Full refresh on the mutated graph: every store re-materializes.
    EXPECT_EQ(dep.infer_labels(mds.features),
              oracle.predict_rectified(mds.features))
        << dataset_name(id) << " (refresh)";
    EXPECT_EQ(dep.stale_store_entries(0) + dep.stale_store_entries(1) +
                  dep.stale_store_entries(2),
              0u)
        << dataset_name(id);
  }
}

TEST(GraphDrift, WorksForCascadedAndSeriesRectifiers) {
  Dataset ds = shard_dataset(71);
  for (const RectifierKind kind :
       {RectifierKind::kCascaded, RectifierKind::kSeries}) {
    TrainedVault tv = quick_vault(ds, kind);
    ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
    dep.refresh(ds.features);
    Rng rng(0xcafe + static_cast<std::uint64_t>(kind));
    const GraphDelta delta = random_delta(ds, rng, 10, 6, 1);
    Dataset mds = ds;
    apply_delta(mds, delta);
    dep.update_graph(delta, &mds.features);
    const TrainedVault oracle = revault_on(tv, mds);
    const auto q = spread_queries(mds.num_nodes(), 19);
    EXPECT_EQ(dep.infer_labels_subset_cold(mds.features, q),
              oracle.predict_rectified_subset(mds.features, q))
        << rectifier_kind_name(kind);
    EXPECT_EQ(dep.infer_labels(mds.features),
              oracle.predict_rectified(mds.features))
        << rectifier_kind_name(kind);
  }
}

TEST(GraphDrift, StaleInvalidationIsScopedAndHealsThroughTheRouter) {
  Dataset ds = shard_dataset(72);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  dep.refresh(ds.features);

  // One real edge insert between two previously unconnected nodes.
  std::uint32_t a = 0, b = 0;
  for (std::uint32_t u = 0; u < ds.num_nodes() && b == 0; ++u) {
    for (std::uint32_t v = u + 2; v < ds.num_nodes(); ++v) {
      if (!ds.graph.has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, b);
  GraphDelta delta;
  delta.edge_inserts.push_back({a, b});
  Dataset mds = ds;
  apply_delta(mds, delta);
  const auto stats = dep.update_graph(delta);
  EXPECT_EQ(stats.edges_inserted, 1u);
  ASSERT_FALSE(stats.stale_nodes.empty());
  // The endpoints are inside the invalidated receptive field.
  EXPECT_TRUE(std::binary_search(stats.stale_nodes.begin(),
                                 stats.stale_nodes.end(), a));
  EXPECT_TRUE(std::binary_search(stats.stale_nodes.begin(),
                                 stats.stale_nodes.end(), b));

  // Direct lookups refuse invalidated entries.
  const std::uint32_t sa = dep.owner(a);
  EXPECT_GT(dep.stale_store_entries(sa), 0u);
  EXPECT_THROW(dep.lookup(sa, std::vector<std::uint32_t>{a}), Error);

  // The router splits stale nodes onto the cold path and serves the
  // mutated-graph truth; the cold write-back heals the store.
  const TrainedVault oracle = revault_on(tv, mds);
  const auto truth = oracle.predict_rectified(mds.features);
  ShardRouter router(dep);
  router.set_cold_path([&](std::span<const std::uint32_t> nodes) {
    return dep.infer_labels_subset_cold(mds.features, nodes);
  });
  const std::size_t stale_before = dep.stale_store_entries(sa);
  std::vector<std::uint32_t> mixed = stats.stale_nodes;
  mixed.push_back((a + 7) % ds.num_nodes());
  const auto got = router.route(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(got[i], truth[mixed[i]]) << "node " << mixed[i];
  }
  EXPECT_LT(dep.stale_store_entries(sa), stale_before);
  // Healed entries serve warm again — and serve the NEW label.
  EXPECT_EQ(dep.lookup(sa, std::vector<std::uint32_t>{a}),
            (std::vector<std::uint32_t>{truth[a]}));
}

TEST(GraphDrift, CancelledDeltaInvalidatesNothing) {
  Dataset ds = shard_dataset(73);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  dep.refresh(ds.features);
  const std::uint64_t epoch = dep.refresh_epoch();
  const std::uint64_t topo = dep.topology_version();

  ASSERT_FALSE(ds.graph.edges().empty());
  const Edge e = ds.graph.edges().front();
  GraphDelta delta;
  delta.edge_inserts.push_back({e.a, e.b});  // duplicate: no-op
  delta.edge_deletes.push_back({e.a, e.a});  // self: no-op
  GraphDelta cancel;  // delete + re-insert: digests come back identical
  cancel.edge_deletes.push_back({e.a, e.b});
  cancel.edge_inserts.push_back({e.b, e.a});

  const auto s1 = dep.update_graph(delta);
  EXPECT_EQ(s1.edges_inserted + s1.edges_deleted, 0u);
  EXPECT_TRUE(s1.stale_nodes.empty());
  EXPECT_EQ(dep.refresh_epoch(), epoch);
  EXPECT_EQ(dep.topology_version(), topo);

  const auto s2 = dep.update_graph(cancel);
  EXPECT_EQ(s2.edges_deleted, 1u);
  EXPECT_EQ(s2.edges_inserted, 1u);
  // Same degrees, same values, same digests: nothing went stale.
  EXPECT_TRUE(s2.stale_nodes.empty());
  EXPECT_EQ(dep.stale_store_entries(dep.owner(e.a)), 0u);
  EXPECT_EQ(dep.infer_labels_subset_cold(ds.features,
                                         std::vector<std::uint32_t>{e.a, e.b}),
            tv.predict_rectified_subset(ds.features,
                                        std::vector<std::uint32_t>{e.a, e.b}));
}

TEST(GraphDrift, RejectedDeltaLeavesTheDeploymentIntact) {
  Dataset ds = shard_dataset(81);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  GraphDelta bad;
  bad.node_adds.push_back({{0, 1.0f}});
  bad.edge_inserts.push_back({0, ds.num_nodes() + 5});  // out of range
  EXPECT_THROW(dep.update_graph(bad, nullptr), Error);

  // Validation ran BEFORE any mutation: no ghost node, serving unaffected.
  EXPECT_EQ(dep.num_nodes(), ds.num_nodes());
  const auto q = spread_queries(ds.num_nodes(), 17);
  ShardRouter router(dep);
  const auto got = router.route(q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(got[i], truth[q[i]]) << "node " << q[i];
  }
  EXPECT_EQ(dep.infer_labels(ds.features), truth);
}

TEST(PlanDiff, MovesOnlyDriftNodesAndIsIdempotent) {
  Dataset ds = shard_dataset(74);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  DriftTracker tracker(dep.plan());

  Rng rng(0xd81f);
  const GraphDelta delta = random_delta(ds, rng, 40, 20, 3);
  Dataset mds = ds;
  apply_delta(mds, delta);
  const auto stats = dep.update_graph(delta, &mds.features);
  tracker.record(stats);
  ASSERT_FALSE(tracker.drift_nodes().empty());
  EXPECT_GT(tracker.cut_growth() + tracker.load_imbalance(), 0.0);

  const PlanDiff pd = ShardPlanner::plan_diff(mds, tv, dep.plan(),
                                              tracker.drift_nodes());
  const auto& drift = tracker.drift_nodes();
  for (const NodeMove& m : pd.moves) {
    EXPECT_TRUE(std::binary_search(drift.begin(), drift.end(), m.node))
        << "plan_diff moved non-drift node " << m.node;
    EXPECT_EQ(m.from, dep.plan().owner[m.node]);
    EXPECT_EQ(m.to, pd.plan.owner[m.node]);
  }
  // Untouched nodes never move.
  for (std::uint32_t v = 0; v < mds.num_nodes(); ++v) {
    if (!std::binary_search(drift.begin(), drift.end(), v)) {
      EXPECT_EQ(pd.plan.owner[v], dep.plan().owner[v]) << "node " << v;
    }
  }
  // Idempotence: plan_diff on its own output emits no moves.
  const PlanDiff again =
      ShardPlanner::plan_diff(mds, tv, pd.plan, tracker.drift_nodes());
  EXPECT_TRUE(again.moves.empty());
  // And an empty drift set is always a no-op.
  const PlanDiff none = ShardPlanner::plan_diff(mds, tv, dep.plan(), {});
  EXPECT_TRUE(none.moves.empty());
}

TEST(Migration, PlanDiffMovesAreBitExactAuditedAndReplayable) {
  Dataset ds = shard_dataset(75);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);
  const std::uint64_t label_bytes = dep.halo_label_bytes();
  const std::uint64_t package_bytes = dep.halo_package_bytes();

  // Hand-picked moves: three nodes of shard 0 go to shard 1.
  std::vector<NodeMove> moves;
  const auto shard0 = dep.plan().shards[0].nodes;  // copy: plan mutates
  ASSERT_GT(shard0.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    moves.push_back({shard0[i * 2], 0, 1});
  }
  MigrationExecutor exec(dep);
  const MigrationStats ms = exec.execute(moves);
  EXPECT_EQ(ms.moves_executed, 3u);
  EXPECT_GT(ms.transfer_bytes, 0u);
  EXPECT_GE(ms.wire_bytes, ms.transfer_bytes);  // bucket padding
  EXPECT_GT(ms.max_fence_ms, 0.0);

  // Ownership flipped; the label stores moved with the nodes.
  ShardRouter router(dep);
  const auto q = spread_queries(ds.num_nodes(), 23);
  const auto got = router.route(q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(got[i], truth[q[i]]) << "node " << q[i];
  }
  for (const NodeMove& m : moves) {
    EXPECT_EQ(dep.owner(m.node), 1u);
    EXPECT_EQ(dep.lookup(1, std::vector<std::uint32_t>{m.node}),
              (std::vector<std::uint32_t>{truth[m.node]}));
    EXPECT_THROW(dep.lookup(0, std::vector<std::uint32_t>{m.node}), Error);
  }

  // Audit: migration moved node-transfer payloads ONLY — still no labels
  // or packages on inter-shard channels, ever.
  EXPECT_EQ(dep.halo_label_bytes(), label_bytes);
  EXPECT_EQ(dep.halo_package_bytes(), package_bytes);
  EXPECT_GT(dep.halo_transfer_bytes(), 0u);

  // Replaying the same move-set is a no-op.
  const MigrationStats replay = exec.execute(moves);
  EXPECT_EQ(replay.moves_executed, 0u);
  EXPECT_EQ(replay.moves_skipped, 3u);

  // The rebalanced fleet still refreshes bit-exactly (halo lists and
  // channels were re-routed correctly).
  EXPECT_EQ(dep.infer_labels(ds.features), tv.predict_rectified(ds.features));
}

TEST(Migration, DriftPlanMigrateLifecycleStaysBitExact) {
  Dataset ds = shard_dataset(76);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  dep.refresh(ds.features);
  DriftTracker tracker(dep.plan());

  Rng rng(0x9e37);
  const GraphDelta delta = random_delta(ds, rng, 50, 25, 2);
  Dataset mds = ds;
  apply_delta(mds, delta);
  tracker.record(dep.update_graph(delta, &mds.features));

  const PlanDiff pd = ShardPlanner::plan_diff(mds, tv, dep.plan(),
                                              tracker.drift_nodes());
  MigrationExecutor exec(dep);
  exec.execute(pd.moves);
  tracker.reset(pd.plan);

  const TrainedVault oracle = revault_on(tv, mds);
  const auto q = spread_queries(mds.num_nodes(), 29);
  EXPECT_EQ(dep.infer_labels_subset_cold(mds.features, q),
            oracle.predict_rectified_subset(mds.features, q))
      << "demand-driven after migrate";
  EXPECT_EQ(dep.infer_labels(mds.features),
            oracle.predict_rectified(mds.features))
      << "refresh after migrate";
}

TEST(Migration, StalePackageRefusesPromotionFreshOnePromotes) {
  Dataset ds = shard_dataset(77);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();

  // Migration retires the replicated topology...
  const auto shard0 = dep.plan().shards[0].nodes;
  ASSERT_GT(shard0.size(), 1u);
  dep.move_node(shard0.front(), 1);

  // ...so the stale standby must refuse to promote (it would resurrect
  // pre-migration ownership inside the adopted enclave).
  dep.kill_shard(0);
  EXPECT_THROW(replicas.begin_promotion(0), Error);

  // A fresh fleet replicated AFTER the migration promotes fine and serves
  // the migrated layout.
  ShardedVaultDeployment dep2(ds, tv, ShardPlanner::plan(ds, tv, 3));
  dep2.infer_labels(ds.features);
  dep2.move_node(shard0.front(), 1);
  ReplicaManager replicas2(dep2);
  replicas2.replicate_all();
  dep2.kill_shard(0);
  replicas2.promote(0, [&] { dep2.rematerialize_shard(0, ds.features); });
  ShardRouter router(dep2, &replicas2);
  const auto q = spread_queries(ds.num_nodes(), 23);
  const auto got = router.route(q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(got[i], truth[q[i]]) << "node " << q[i];
  }
}

// A feature update after a migration re-ships the standbys WITHOUT a manual
// replicate_all(): the label sync notices the package predates the live
// topology and re-replicates it, so the next failover promotes and serves
// the new snapshot exactly.
TEST(Migration, UpdateFeaturesAfterMigrationNeedsNoManualReplication) {
  const Dataset ds = shard_dataset(79);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  ShardedServerConfig cfg;
  cfg.server.max_batch = 4;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;
  cfg.replicate = true;
  ShardedVaultServer server(ds, tv, plan, {}, cfg);
  server.replicas()->wait_ready();

  const auto shard0 = plan.shards[0].nodes;
  ASSERT_GT(shard0.size(), 4u);
  MigrationExecutor exec(server.deployment());
  ASSERT_EQ(exec.execute(std::vector<NodeMove>{{shard0[0], 0, 1}, {shard0[2], 0, 2}})
                .moves_executed,
            2u);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.5f;
  const auto truth = tv.predict_rectified(mutated);
  ASSERT_NO_THROW(server.update_features(mutated));

  server.kill_shard(0);
  const auto q = spread_queries(ds.num_nodes(), 23);
  for (const auto v : q) EXPECT_EQ(server.query(v), truth[v]) << "node " << v;
  server.join_promotion();
  EXPECT_EQ(server.stats().promotions, 1u);
  EXPECT_TRUE(server.deployment().shard_alive(0));
}

// Migration racing routed queries AND a promotion: per-move fences, the
// copy-on-write owner map, and the topology stamp must keep every answer
// bit-exact with no torn ownership observable.
TEST(Migration, RacingQueriesAndPromotionStayBitExact) {
  Dataset ds = shard_dataset(78);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  ShardRouter router(dep, &replicas);
  router.set_cold_path([&](std::span<const std::uint32_t> nodes) {
    return dep.infer_labels_subset_cold(ds.features, nodes);
  });
  router.set_fence_timeout(std::chrono::seconds(30));

  const auto q = spread_queries(ds.num_nodes(), 31);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> clients;
  std::atomic<bool> mismatch{false};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        const auto got = router.route(q);
        for (std::size_t i = 0; i < q.size(); ++i) {
          if (got[i] != truth[q[i]]) mismatch.store(true);
        }
        served.fetch_add(q.size());
      }
    });
  }

  // Migrate a handful of nodes while the clients hammer the router.
  const auto shard0 = dep.plan().shards[0].nodes;
  ASSERT_GT(shard0.size(), 6u);
  MigrationExecutor exec(dep);
  std::vector<NodeMove> moves;
  for (std::size_t i = 0; i < 4; ++i) moves.push_back({shard0[i], 0, 2});
  exec.execute(moves);

  // Now a failover on a DIFFERENT shard, mid-traffic: replicate the
  // post-migration topology, kill, promote.
  replicas.replicate_all();
  dep.kill_shard(1);
  replicas.begin_promotion(1);
  replicas.promote(1, [&] { dep.rematerialize_shard(1, ds.features); });

  while (served.load() < 6 * q.size()) std::this_thread::yield();
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_FALSE(mismatch.load());

  const auto got = router.route(q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(got[i], truth[q[i]]) << "node " << q[i];
  }
}

TEST(AutoRestaff, BackToBackFailoversNeedNoManualCall) {
  const Dataset ds = shard_dataset(79);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto truth = ShardedVaultDeployment(ds, tv, plan).infer_labels(ds.features);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;
  cfg.replicate = true;  // auto_restaff defaults on
  ShardedVaultServer server(ds, tv, plan, {}, cfg);

  const std::uint32_t victim = server.deployment().owner(5);
  // Two kills of the SAME shard, no restaff()/replicate() in between: the
  // gen-2 standby provisioned by the first promotion absorbs the second.
  for (int round = 1; round <= 2; ++round) {
    server.kill_shard(victim);
    for (std::uint32_t v = 0; v < 24; ++v) {
      EXPECT_EQ(server.query(v), truth[v])
          << "round " << round << ", node " << v;
    }
  }
  for (int i = 0; i < 500; ++i) {
    const auto snap = server.stats();
    if (snap.restaffs >= 2 && snap.promotions >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto s = server.stats();
  EXPECT_EQ(s.promotions, 2u);
  EXPECT_EQ(s.restaffs, 2u);
  EXPECT_EQ(server.replicas()->state(victim), ReplicaState::kStandby);
  EXPECT_TRUE(server.replicas()->ready(victim));
}

TEST(DeadShardDetection, FailedEcallTriggersFenceAndPromotion) {
  const Dataset ds = shard_dataset(80);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto truth = ShardedVaultDeployment(ds, tv, plan).infer_labels(ds.features);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 2;  // a burst splits into several racing batches
  cfg.server.worker_threads = 2;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;
  cfg.replicate = true;
  ShardedVaultServer server(ds, tv, plan, {}, cfg);
  server.replicas()->wait_ready();

  const std::uint32_t probe = 3;
  const std::uint32_t victim = server.deployment().owner(probe);
  // Nobody calls kill_shard: the enclave just dies under the next serving
  // ecalls — possibly under TWO racing worker threads at once (both must
  // detect, one promotes, the other joins; a handler invoked under the
  // shard's serving lock would deadlock here against the adoption).  The
  // server fences + promotes, the router retries the batches onto the new
  // PRIMARY, and no caller ever sees the crash.
  server.deployment().shard_enclave(victim).inject_ecall_failure(
      "simulated enclave teardown", /*count=*/2);
  std::vector<std::uint32_t> burst;
  for (std::uint32_t v = 0; v < 24; ++v) burst.push_back(v);
  auto futs = server.submit_many(burst);
  for (std::uint32_t v = 0; v < 24; ++v) {
    EXPECT_EQ(futs[v].get(), truth[v]) << "node " << v;
  }
  // Queries unblock the moment the fence lifts; the promotion metric lands
  // when the async promote (incl. auto-restaff) fully returns — poll.
  for (int i = 0; i < 500 && server.stats().promotions < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto s = server.stats();
  EXPECT_GE(s.shard_faults, 1u);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_TRUE(server.deployment().shard_alive(victim));
}

// The cold cross-shard path is the ONLY serving path on a cold-start
// fleet; an enclave dying under a cold ecall must trigger the same
// detection + fence + promote as a warm lookup crash.
TEST(DeadShardDetection, ColdPathEcallFailureAlsoFailsOver) {
  const Dataset ds = shard_dataset(82);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto oracle = tv.predict_rectified(ds.features);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 4;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;
  cfg.replicate = true;
  cfg.materialize_on_start = false;  // every query goes down the cold path
  ShardedVaultServer server(ds, tv, plan, {}, cfg);
  server.replicas()->wait_ready();

  const std::uint32_t victim = server.deployment().owner(2);
  server.deployment().shard_enclave(victim).inject_ecall_failure(
      "simulated enclave teardown (cold walk)");
  const std::uint32_t step = std::max<std::uint32_t>(1, ds.num_nodes() / 25);
  for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
    EXPECT_EQ(server.query(v), oracle[v]) << "node " << v;
  }
  for (int i = 0; i < 500 && server.stats().promotions < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto s = server.stats();
  EXPECT_GE(s.shard_faults, 1u);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_TRUE(server.deployment().shard_alive(victim));
}

}  // namespace
}  // namespace gv
