#include "shard/shard_router.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"

namespace {

/// Seconds elapsed since `start` — the router's stage-timing helper.
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

namespace gv {

ShardRouter::ShardRouter(ShardedVaultDeployment& deployment,
                         ReplicaManager* replicas)
    : deployment_(&deployment),
      replicas_(replicas),
      per_shard_batches_(deployment.num_shards(), 0) {}

std::vector<std::uint32_t> ShardRouter::route(
    std::span<const std::uint32_t> nodes) {
  // Migration/update retry loop: ownership is read from one immutable
  // snapshot per attempt; if a migration flips an owner mid-batch the
  // lookup throws, the ownership epoch has moved, and the batch regroups
  // against a fresh snapshot.  Bounded — each retry needs a racing move.
  for (int attempt = 0;; ++attempt) {
    // Per-node migration fences + the global graph-update fence: no lookup
    // may observe split ownership or a not-yet-invalidated store entry.
    const auto fence_start = std::chrono::steady_clock::now();
    GV_CHECK(deployment_->await_moves(nodes, fence_timeout_),
             "migration / graph update did not complete within the fence "
             "timeout");
    record_query_stage(QueryStage::kFence, seconds_since(fence_start));
    const std::uint64_t epoch0 = deployment_->ownership_epoch();
    try {
      return route_once(nodes);
    } catch (const Error&) {
      if (attempt >= 3 || deployment_->ownership_epoch() == epoch0) throw;
      // An ownership change landed under this batch: regroup and retry.
    }
  }
}

std::vector<std::uint32_t> ShardRouter::route_once(
    std::span<const std::uint32_t> nodes) {
  TraceSpan route_span("route", "route_batch");
  route_span.arg("nodes", double(nodes.size()));
  const std::uint32_t num_shards = deployment_->num_shards();
  const auto owner = deployment_->owner_snapshot();
  // Split by ownership, remembering each node's position in the request.
  std::vector<std::vector<std::uint32_t>> shard_nodes(num_shards);
  std::vector<std::vector<std::size_t>> shard_positions(num_shards);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    GV_CHECK(nodes[i] < owner->size(), "query node out of range");
    const std::uint32_t s = (*owner)[nodes[i]];
    shard_nodes[s].push_back(nodes[i]);
    shard_positions[s].push_back(i);
  }

  std::vector<std::uint32_t> out(nodes.size(), 0);
  double slowest = 0.0;
  std::vector<std::uint32_t> touched;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (shard_nodes[s].empty()) continue;
    touched.push_back(s);
    double delta = 0.0;
    std::vector<std::uint32_t> labels;
    TraceSpan shard_span("route", "shard_lookup");
    shard_span.arg("shard", double(s));
    shard_span.arg("nodes", double(shard_nodes[s].size()));
    // The kill -> fence transition is not atomic (kill_shard kills the
    // primary, THEN flips the replica to PROMOTING), so a state observed
    // here can be fenced by the time the lookup runs; one retry through the
    // fence covers every interleaving.
    for (bool retried = false;; retried = true) {
      bool after_fence = false;
      if (replicas_ != nullptr &&
          replicas_->state(s) == ReplicaState::kPromoting) {
        // Promotion fence: the shard has no trustworthy label store right
        // now (the primary is dead, the standby is mid-rebuild).  Wait for
        // the promotion to land rather than EVER returning a pre-promotion
        // label, then serve through the normal path below (so a cold walk
        // after the fence still enjoys the frontier-fence retry).
        {
          TraceSpan fence_span("route", "promotion_fence_wait");
          fence_span.arg("shard", double(s));
          const auto fence_start = std::chrono::steady_clock::now();
          GV_CHECK(replicas_->await_promotion(s, fence_timeout_),
                   "shard promotion did not complete within the fence timeout");
          record_query_stage(QueryStage::kFence, seconds_since(fence_start));
        }
        fenced_.fetch_add(1);
        GV_CHECK(deployment_->shard_alive(s), "shard promotion failed");
        after_fence = true;
      }
      bool used_cold = false;
      try {
        if (deployment_->shard_alive(s)) {
          if (!deployment_->store_materialized(s) && cold_path_ != nullptr) {
            // Un-materialized store on a live shard (never refreshed, or a
            // cold-start fleet's freshly promoted PRIMARY): the store is
            // only a cache — serve demand-driven through the cold
            // cross-shard path.  Its modeled time lands on the
            // deployment's meter, not on this batch's lookup delta.
            used_cold = true;
            labels = cold_path_(shard_nodes[s]);
            cold_batches_.fetch_add(1);
          } else if (cold_path_ != nullptr &&
                     deployment_->stale_store_entries(s) > 0) {
            // Graph drift invalidated part of this shard's store: serve
            // the still-fresh entries from the store and only the stale
            // ones demand-driven (the cold forward writes the recomputed
            // labels back, healing the store as traffic touches it).
            const auto mask = deployment_->stale_mask(s, shard_nodes[s]);
            std::vector<std::uint32_t> fresh, stale;
            std::vector<std::size_t> fresh_at, stale_at;
            for (std::size_t i = 0; i < mask.size(); ++i) {
              (mask[i] ? stale : fresh).push_back(shard_nodes[s][i]);
              (mask[i] ? stale_at : fresh_at).push_back(i);
            }
            labels.assign(shard_nodes[s].size(), 0);
            if (!fresh.empty()) {
              const auto ecall_start = std::chrono::steady_clock::now();
              const auto got = deployment_->lookup(s, fresh, &delta);
              record_query_stage(QueryStage::kEcall, seconds_since(ecall_start));
              for (std::size_t i = 0; i < got.size(); ++i) {
                labels[fresh_at[i]] = got[i];
              }
            }
            if (!stale.empty()) {
              used_cold = true;
              const auto got = cold_path_(stale);
              for (std::size_t i = 0; i < got.size(); ++i) {
                labels[stale_at[i]] = got[i];
              }
              cold_batches_.fetch_add(1);
            }
          } else {
            const auto ecall_start = std::chrono::steady_clock::now();
            labels = deployment_->lookup(s, shard_nodes[s], &delta);
            record_query_stage(QueryStage::kEcall, seconds_since(ecall_start));
          }
          // Served by a freshly promoted PRIMARY: a failover from the
          // router's point of view.
          if (after_fence) failovers_.fetch_add(1);
          break;
        }
        GV_CHECK(replicas_ != nullptr,
                 "shard enclave is down and no replica is ready");
        const auto ecall_start = std::chrono::steady_clock::now();
        labels = replicas_->lookup(s, shard_nodes[s], &delta);
        record_query_stage(QueryStage::kEcall, seconds_since(ecall_start));
        failovers_.fetch_add(1);
        break;
      } catch (const Error&) {
        // A kill (and its fence) may have landed between our checks and the
        // lookup — the primary died under us, the standby got fenced
        // (kill_shard -> begin_promotion), or a cold walk hit a FRONTIER
        // shard mid-promotion.  Wait the fences out and go around once.
        // Anything else — or a second failure — is real.
        if (retried || replicas_ == nullptr) throw;
        bool frontier_fenced = false;
        for (std::uint32_t t = 0; t < num_shards; ++t) {
          if (t == s || replicas_->state(t) != ReplicaState::kPromoting) continue;
          {
            TraceSpan fence_span("route", "promotion_fence_wait");
            fence_span.arg("shard", double(t));
            const auto fence_start = std::chrono::steady_clock::now();
            GV_CHECK(replicas_->await_promotion(t, fence_timeout_),
                     "frontier shard promotion did not complete within the "
                     "fence timeout");
            record_query_stage(QueryStage::kFence, seconds_since(fence_start));
          }
          fenced_.fetch_add(1);
          frontier_fenced = true;
        }
        // A cold walk's failed frontier shard may have finished promoting
        // between the throw and the state scan above — a cold attempt is
        // idempotent, so it always earns its one retry.  Likewise a shard
        // that is ALIVE again by now: a dead-shard-detection promotion can
        // land (and auto-restaff can flip the slot back to STANDBY) before
        // this thread even reaches the catch, and the retry then serves
        // from the already-promoted PRIMARY.
        if (!frontier_fenced && !used_cold && !deployment_->shard_alive(s) &&
            replicas_->state(s) == ReplicaState::kStandby) {
          throw;
        }
      }
    }
    shard_span.modeled_seconds(delta);
    slowest = std::max(slowest, delta);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      out[shard_positions[s][i]] = labels[i];
    }
  }
  route_span.modeled_seconds(slowest);
  {
    MutexLock lock(stats_mu_);
    modeled_seconds_ += slowest;
    for (const auto s : touched) ++per_shard_batches_[s];
  }
  return out;
}

double ShardRouter::modeled_seconds() const {
  MutexLock lock(stats_mu_);
  return modeled_seconds_;
}

std::vector<std::uint64_t> ShardRouter::per_shard_batches() const {
  MutexLock lock(stats_mu_);
  return per_shard_batches_;
}

}  // namespace gv
