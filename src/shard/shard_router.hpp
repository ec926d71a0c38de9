// ShardRouter: splits a micro-batch by shard ownership, fans label lookups
// out to the owner enclaves (or their replicas on failover), and merges the
// results back into request order.
//
// Ownership (node -> shard) is serving metadata: the router must see it to
// route.  What it never sees is WHY two nodes share a shard — the cut
// edges, sub-adjacencies, and halo lists stay inside enclaves.  Distinct
// shards serve their sub-batches on distinct enclaves (typically distinct
// platforms), so one routed batch's modeled time is the slowest touched
// shard, not the sum.
//
// Promotion fencing: while a shard is PROMOTING (its primary died and the
// standby is rebuilding + re-materializing; shard/replica_manager.hpp), the
// router holds that shard's sub-batches on the fence until the promotion
// lands — or fails fast after `fence_timeout` — and NEVER reads the
// standby's pre-promotion label store.
//
// Cold misses: a live shard whose label store is NOT materialized (never
// refreshed, or just adopted) is not an error — the router sends those
// sub-batches down the cold cross-shard path (set_cold_path), treating the
// materialized stores as a cache over demand-driven inference rather than
// the only source of truth.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "shard/replica_manager.hpp"
#include "shard/sharded_deployment.hpp"
#include "common/thread_safety.hpp"

namespace gv {

class ShardRouter {
 public:
  /// `replicas` may be null (no failover: a dead shard's queries throw).
  ShardRouter(ShardedVaultDeployment& deployment, ReplicaManager* replicas = nullptr);

  /// Labels for `nodes` in request order.  Sub-batches for a PROMOTING
  /// shard block on the fence until the promoted PRIMARY serves them;
  /// sub-batches for a live shard with an un-materialized store go down the
  /// cold path; store entries invalidated by a graph update are split onto
  /// the cold path (which heals them) while the fresh remainder serves
  /// warm; nodes mid-migration wait on the per-move fence, and a batch
  /// that raced an ownership flip regroups against a fresh owner snapshot;
  /// sub-batches for dead shards fail over to ready (and epoch-fresh)
  /// replicas; throws gv::Error when nobody can answer.
  std::vector<std::uint32_t> route(std::span<const std::uint32_t> nodes);

  /// Demand-driven fallback for un-materialized label stores (typically
  /// ShardedVaultDeployment::infer_labels_subset_cold under the server's
  /// current feature snapshot).  The callee accounts its own modeled time.
  using ColdPathFn =
      std::function<std::vector<std::uint32_t>(std::span<const std::uint32_t>)>;
  void set_cold_path(ColdPathFn fn) { cold_path_ = std::move(fn); }

  /// Routed sub-batches answered by a replica or a just-promoted PRIMARY.
  std::uint64_t failovers() const { return failovers_.load(); }
  /// Routed sub-batches served through the cold cross-shard path.
  std::uint64_t cold_batches() const { return cold_batches_.load(); }
  /// Routed sub-batches that waited out a promotion fence.
  std::uint64_t fenced() const { return fenced_.load(); }
  /// Fencing policy for a PROMOTING shard: block up to this long for the
  /// promotion to land, then fail fast.  Zero = always fail fast.
  void set_fence_timeout(std::chrono::milliseconds timeout) {
    fence_timeout_ = timeout;
  }
  /// Modeled seconds of all routed batches (max across shards per batch).
  double modeled_seconds() const;
  /// Sub-batches dispatched to each shard so far (load-balance telemetry).
  std::vector<std::uint64_t> per_shard_batches() const;

 private:
  /// One grouping + serving attempt against a single owner-map snapshot.
  std::vector<std::uint32_t> route_once(std::span<const std::uint32_t> nodes);

  ShardedVaultDeployment* deployment_;
  ReplicaManager* replicas_;
  ColdPathFn cold_path_;
  std::chrono::milliseconds fence_timeout_{30000};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> fenced_{0};
  std::atomic<std::uint64_t> cold_batches_{0};
  mutable Mutex stats_mu_{gv::lockrank::kTelemetry};
  double modeled_seconds_ = 0.0;
  std::vector<std::uint64_t> per_shard_batches_;
};

}  // namespace gv
