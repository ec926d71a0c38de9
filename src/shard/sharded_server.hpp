// ShardedVaultServer: VaultServer semantics for a tenant that spans N
// shard enclaves.
//
// The serving front is the same JobServe ServeFrontEnd VaultServer uses
// (serve/serve_frontend.hpp), including duplicate-query coalescing, the LRU
// label cache, pooled batches/tokens, and the work-stealing priority job
// system.  The back end differs: a refresh materializes every node's label
// via the layer-synchronous sharded forward (halo exchange over attested
// channels), and each flushed batch then becomes one label-only lookup
// ecall per touched shard, merged by the ShardRouter.  With replication
// enabled, a killed shard's queries transparently fail over to its warm
// replica and the failover is recorded in the metrics.
//
// Tenant QoS on the shared workers: batch flushes run INTERACTIVE; the
// post-promotion boundary rebuild runs as a COLD job (it is exactly the
// demand recompute class — queries are already flowing when it starts);
// callers can post migration / re-materialization sweeps as MAINTENANCE
// through front_end().post_background(), capped in flight so they never
// starve interactive latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_safety.hpp"
#include "serve/serve_frontend.hpp"
#include "serve/vault_server.hpp"
#include "shard/graph_drift.hpp"
#include "shard/replica_manager.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_deployment.hpp"

namespace gv {

struct ShardedServerConfig {
  ServerConfig server{};
  /// Keep a warm replica of every shard on the standby platform.
  bool replicate = false;
  Sha256Digest standby_platform_key = ReplicaConfig::standby_platform_default_key();
  /// Run the full-fleet refresh at construction (label stores warm before
  /// the first query).  When false the server starts COLD: queries are
  /// served demand-driven through the cross-shard cold path until the
  /// first update_features materializes the stores — the store hierarchy
  /// is LabelCache -> shard stores -> cold cross-shard forward, and the
  /// first two are caches over the third.
  bool materialize_on_start = true;
  /// After every successful promotion, automatically provision + replicate
  /// a gen-2 standby so back-to-back failovers need no operator.
  bool auto_restaff = true;
};

class ShardedVaultServer : private ServeBackend {
 public:
  /// Provisions one enclave per plan shard, runs the initial refresh over
  /// `ds.features`, kicks off async replication (when configured), and
  /// starts the serving front end.
  ShardedVaultServer(const Dataset& ds, TrainedVault vault, ShardPlan plan,
                     ShardedDeploymentOptions dopts = {},
                     ShardedServerConfig cfg = {});
  ~ShardedVaultServer();

  ShardedVaultServer(const ShardedVaultServer&) = delete;
  ShardedVaultServer& operator=(const ShardedVaultServer&) = delete;

  SubmitToken submit(std::uint32_t node) { return frontend_.submit(node); }
  SubmitBatch submit_many(std::span<const std::uint32_t> nodes) {
    return frontend_.submit_many(nodes);
  }
  std::uint32_t query(std::uint32_t node) { return frontend_.query(node); }

  /// New feature snapshot: joins any in-flight promotion, re-runs the
  /// sharded forward (all shards must be alive), re-ships replica label
  /// stores (re-replicating standbys whose package predates a migration or
  /// graph update), and clears the label cache.
  void update_features(const CsrMatrix& new_features);

  /// GraphDrift: apply private-graph mutations WITHOUT a refresh.  The
  /// deltas land inside the owning enclaves; label-store and cache entries
  /// within the rectifier's receptive field of a change are invalidated
  /// and serve demand-driven (healing the store) until the next refresh.
  /// `new_features` is the snapshot queries use from now on — identical
  /// rows for existing nodes, one appended row per added node (pass the
  /// current snapshot when the delta adds no nodes).  Standby replicas are
  /// re-replicated afterwards: the old packages describe a retired
  /// topology and may no longer promote.
  GraphUpdateStats update_graph(const GraphDelta& delta,
                                const CsrMatrix& new_features);

  /// Kill a shard's primary enclave.  With replication, the standby is
  /// fenced (PROMOTING) before this returns and promoted asynchronously:
  /// it rebuilds the rectifier and sub-adjacency from its re-sealed
  /// package, re-runs the attested handshake with the surviving shards,
  /// rejoins the halo exchange, and INCREMENTALLY re-materializes only the
  /// adopted shard's label store from the CURRENT feature snapshot (a
  /// shard-local cold forward with halo pulls from the survivors' retained
  /// boundary stores — not a full-fleet refresh); queries for the shard
  /// block on the router fence until the promotion lands, then hit the new
  /// PRIMARY.  Without replication, queries for the shard throw until
  /// re-provisioned.
  void kill_shard(std::uint32_t shard);

  void flush() { frontend_.flush(); }
  std::size_t pending() const { return frontend_.pending(); }

  /// Control-plane quiesce: join the in-flight async promotion, if any
  /// (rethrows its failure).  After it returns, the promoted shard's
  /// re-materialization and boundary rebuild have fully landed in the
  /// deployment's cost meters — benches call this before stats() so the
  /// modeled total does not depend on where the snapshot races the
  /// promotion pipeline.
  void join_promotion();

  MetricsSnapshot stats() const;

  ShardedVaultDeployment& deployment() { return deployment_; }
  const ShardedVaultDeployment& deployment() const { return deployment_; }
  ShardRouter& router() { return *router_; }
  ReplicaManager* replicas() { return replicas_.get(); }
  const ShardedServerConfig& config() const { return cfg_; }
  /// The shared serving front end (priority-class job posting, QoS knobs).
  ServeFrontEnd& front_end() { return frontend_; }
  /// Current feature snapshot (shared handle: stays valid across a
  /// concurrent update_features).
  std::shared_ptr<const CsrMatrix> features() const;

 private:
  // ServeBackend: one batch = one routed fan-out over the shard fleet.
  Sha256Digest row_digest(std::uint32_t node) const override;
  BatchResult execute(std::span<const std::uint32_t> nodes,
                      std::span<std::uint32_t> labels,
                      std::span<Sha256Digest> digests) override;
  double modeled_seconds_total() const override;

  /// Fence the standby + launch the async promotion (caller holds
  /// promotion_mu_; the deployment-side shard is already dead).
  void launch_promotion(std::uint32_t shard);
  /// Dead-shard detection callback: a serving ecall died on `shard`.
  void handle_shard_failure(std::uint32_t shard);
  /// Fold one cold query's telemetry into the aggregate counters and the
  /// global MetricsRegistry (previously computed and discarded).
  void record_cold_stats(const ColdSubsetStats& stats);

  ShardedServerConfig cfg_;
  ShardedVaultDeployment deployment_;
  std::unique_ptr<ReplicaManager> replicas_;
  std::unique_ptr<ShardRouter> router_;
  /// GraphDrift health since construction: update_graph folds each applied
  /// update in and stats() surfaces the current cut-growth / imbalance.
  mutable Mutex drift_mu_{gv::lockrank::kServerState};
  DriftTracker drift_;
  /// Cold cross-shard path telemetry, aggregated per query.
  std::atomic<std::uint64_t> cold_queries_{0};
  std::atomic<std::uint64_t> cold_shards_computed_{0};
  std::atomic<std::uint64_t> cold_shards_touched_{0};
  std::atomic<std::uint64_t> cold_frontier_rows_{0};
  std::atomic<std::uint64_t> cold_halo_request_bytes_{0};
  std::atomic<std::uint64_t> cold_halo_embedding_bytes_{0};
  std::atomic<std::uint64_t> cold_backbone_cache_hits_{0};

  mutable Mutex snap_mu_{gv::lockrank::kServerSnap};
  std::shared_ptr<const CsrMatrix> features_;
  /// features_fingerprint(*features_), hashed once per snapshot so cold
  /// batches do not pay an O(nnz) scan per query.  Guarded by snap_mu_.
  std::uint64_t features_fp_ = 0;

  /// Control-plane mutex: serializes kill_shard / update_features /
  /// shutdown against each other and guards promotion_ (std::future is not
  /// thread-safe for concurrent get/assign).  Never taken by the data
  /// plane (job workers, router) or the promotion thread itself.
  Mutex promotion_mu_{gv::lockrank::kServerControl};
  std::future<void> promotion_;  // in-flight replica promotion

  /// Last member: its destructor stops the serving threads before anything
  /// they touch is torn down (the explicit ~ShardedVaultServer still joins
  /// the promotion first — it may be waiting on a COLD job).
  ServeFrontEnd frontend_;
};

}  // namespace gv
