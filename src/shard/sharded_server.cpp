#include "shard/sharded_server.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/tenant_ledger.hpp"
#include "obs/trace.hpp"
#include "sgxsim/attested_channel.hpp"

namespace gv {

ShardedVaultServer::ShardedVaultServer(const Dataset& ds, TrainedVault vault,
                                       ShardPlan plan,
                                       ShardedDeploymentOptions dopts,
                                       ShardedServerConfig cfg)
    : cfg_(cfg),
      deployment_(ds, std::move(vault), std::move(plan), std::move(dopts)),
      drift_(deployment_.plan()),
      features_(std::make_shared<const CsrMatrix>(ds.features)),
      frontend_(*this, cfg.server, ds.features.rows()) {
  // The front end's threads are already up, but no query can reach the
  // backend until this constructor returns the server to a caller — the
  // fleet bring-up below runs single-threaded on the constructing thread.
  //
  // Labels are usually materialized up front: the sharded forward is the
  // expensive, EPC-bounded part, and it amortizes over every query until
  // the next feature update.  A cold start skips it — the router serves
  // misses through the demand-driven cross-shard path instead.
  if (cfg_.materialize_on_start) deployment_.refresh(*features_);
  if (cfg_.replicate) {
    ReplicaConfig rcfg;
    rcfg.standby_platform_key = cfg_.standby_platform_key;
    rcfg.auto_restaff = cfg_.auto_restaff;
    replicas_ = std::make_unique<ReplicaManager>(deployment_, rcfg);
    replicas_->replicate_async();
  }
  // Dead-shard detection: a serving ecall that dies marks the shard dead
  // and lands here — same fence + promote path as an explicit kill_shard.
  deployment_.set_shard_failure_handler(
      [this](std::uint32_t shard) { handle_shard_failure(shard); });
  features_fp_ = ShardedVaultDeployment::features_fingerprint(*features_);
  router_ = std::make_unique<ShardRouter>(deployment_, replicas_.get());
  router_->set_cold_path([this](std::span<const std::uint32_t> nodes) {
    std::shared_ptr<const CsrMatrix> snap;
    std::uint64_t fp;
    {
      MutexLock lock(snap_mu_);
      snap = features_;
      fp = features_fp_;
    }
    TraceSpan span("shard", "cold_subset");
    span.arg("nodes", double(nodes.size()));
    const auto cold_start = std::chrono::steady_clock::now();
    ColdSubsetStats stats;
    auto labels = deployment_.infer_labels_subset_cold(*snap, fp, nodes, &stats);
    record_query_stage(
        QueryStage::kCold,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cold_start)
            .count());
    span.arg("shards_touched", double(stats.shards_touched));
    span.arg("frontier_rows", double(stats.frontier_rows));
    span.modeled_seconds(stats.modeled_seconds);
    record_cold_stats(stats);
    return labels;
  });
  // Flight-recorder fleet topology: every read below is an atomic or a
  // lock-free accessor, so the provider is safe from fault paths that hold
  // the control-plane locks (see FlightRecorder's lock discipline).
  FlightRecorder::instance().set_topology_provider(this, [this] {
    std::ostringstream out;
    const std::uint32_t K = deployment_.num_shards();
    out << "{\"num_shards\":" << K
        << ",\"ownership_epoch\":" << deployment_.ownership_epoch()
        << ",\"shards\":[";
    for (std::uint32_t s = 0; s < K; ++s) {
      if (s != 0) out << ',';
      out << "{\"shard\":" << s << ",\"alive\":"
          << (deployment_.shard_alive(s) ? "true" : "false")
          << ",\"store_materialized\":"
          << (deployment_.store_materialized(s) ? "true" : "false")
          << ",\"stale_store_entries\":" << deployment_.stale_store_entries(s)
          << ",\"replica_state\":\""
          << (replicas_ != nullptr ? replica_state_name(replicas_->state(s))
                                   : "none")
          << "\"}";
    }
    out << "]}";
    return out.str();
  });
  // EngineScope: attribute this fleet's metered usage — modeled seconds,
  // ecalls, batches, cache work, cold-walk rows, attested-channel bytes
  // (padding included) — to its tenant.  stats() takes only server-state
  // leaves, legal from the ledger's unlocked provider pass.
  TenantLedger::global().register_provider(
      this, frontend_.config().tenant, [this] {
        const MetricsSnapshot s = stats();
        TenantUsage u;
        u.modeled_seconds = s.modeled_seconds;
        u.ecalls = s.ecalls;
        u.batches = s.batches;
        u.cache_hits = s.cache_hits;
        u.cache_misses = s.cache_misses;
        u.cold_queries = s.cold_queries;
        u.cold_frontier_rows = s.cold_frontier_rows;
        std::uint64_t channel = 0;
        for (const auto& kp : AttestedChannel::kKindPolicies) {
          channel += deployment_.halo_kind_bytes(kp.kind);
        }
        u.channel_bytes = channel;
        u.channel_padded_bytes = deployment_.halo_padded_bytes();
        return u;
      });
}

ShardedVaultServer::~ShardedVaultServer() {
  // Unregister the ledger provider before anything else: it reads router /
  // deployment / replica state the teardown below destroys, and
  // unregister() blocks out any in-flight ledger pass.
  TenantLedger::global().unregister(this);
  // A bundle tripped during teardown must not call back into a
  // half-destroyed server (owner-scoped, so a successor's provider survives).
  FlightRecorder::instance().clear_topology_provider(this);
  try {
    // Before stopping the front end: the promotion tail may be waiting on a
    // COLD boundary-rebuild job, which needs the workers alive to run.
    join_promotion();
  } catch (...) {
    // A promotion that failed at teardown has nobody left to report to.
  }
  frontend_.stop();
}

void ShardedVaultServer::join_promotion() {
  // Held across the get(): concurrent joiners must all observe the
  // promotion retired, not race valid()/get() on one shared state.
  MutexLock lock(promotion_mu_);
  if (promotion_.valid()) promotion_.get();
}

std::shared_ptr<const CsrMatrix> ShardedVaultServer::features() const {
  MutexLock lock(snap_mu_);
  return features_;
}

Sha256Digest ShardedVaultServer::row_digest(std::uint32_t node) const {
  std::shared_ptr<const CsrMatrix> snap;
  {
    MutexLock lock(snap_mu_);
    snap = features_;
  }
  return feature_row_digest(*snap, node);
}

double ShardedVaultServer::modeled_seconds_total() const {
  // Critical-path time: refresh phases + the slowest shard of every routed
  // batch (distinct shard enclaves answer in parallel).
  return deployment_.modeled_seconds() + router_->modeled_seconds();
}

ServeBackend::BatchResult ShardedVaultServer::execute(
    std::span<const std::uint32_t> nodes, std::span<std::uint32_t> labels,
    std::span<Sha256Digest> digests) {
  // Pin the snapshot BEFORE the lookups: if update_features lands while
  // this batch is in flight, the labels we fetched pair with the OLD
  // digest and the cache entries self-evict on their next probe, instead
  // of stale labels being filed under the new digest.
  std::shared_ptr<const CsrMatrix> snap;
  if (!digests.empty()) {
    MutexLock lock(snap_mu_);
    snap = features_;
  }
  const std::uint64_t epoch_before = deployment_.ownership_epoch();
  const auto out = router_->route(nodes);
  std::copy(out.begin(), out.end(), labels.begin());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digests[i] = feature_row_digest(*snap, nodes[i]);
  }
  // A graph update or migration that landed mid-batch may have invalidated
  // what we just fetched — and unlike a feature update it does NOT change
  // the row digests the cache keys on, so filing these labels would poison
  // the cache permanently.  Report the batch uncacheable; the next miss
  // re-fetches through the (stale-aware) router.
  return BatchResult{deployment_.ownership_epoch() == epoch_before};
}

void ShardedVaultServer::update_features(const CsrMatrix& new_features) {
  GV_CHECK(new_features.rows() == frontend_.num_nodes(),
           "feature update must keep the node set");
  // Control-plane exclusion, held for the whole update: a mid-flight
  // promotion refreshes against the snapshot it pinned, so it must land
  // first — and no NEW kill/promotion may start under our refresh (it
  // would see the shard dead and throw).
  MutexLock control(promotion_mu_);
  if (promotion_.valid()) promotion_.get();
  auto fresh = std::make_shared<const CsrMatrix>(new_features);
  const std::uint64_t fresh_fp =
      ShardedVaultDeployment::features_fingerprint(*fresh);
  // The sharded forward rebuilds every shard's label store in place
  // (serialized against itself; lookups between shard updates see a mix of
  // old and new labels, the usual eventual-consistency window of a rolling
  // refresh).
  deployment_.refresh(*fresh);
  {
    MutexLock lock(snap_mu_);
    features_ = std::move(fresh);
    features_fp_ = fresh_fp;
  }
  if (replicas_ != nullptr) {
    replicas_->wait_ready();
    replicas_->sync_labels();
  }
  // After the refresh and the snapshot swap: a batch that started before
  // this clear may pair old labels with new digests, so its puts are
  // dropped (LabelCache generation); one that starts after it sees both.
  frontend_.cache().clear();
  frontend_.metrics().record_feature_update();
}

void ShardedVaultServer::kill_shard(std::uint32_t shard) {
  MutexLock lock(promotion_mu_);
  // Under the control-plane lock: wait_ready() joins ReplicaManager's
  // replication future, which is not safe to get() from two threads.
  if (replicas_ != nullptr) replicas_->wait_ready();
  if (promotion_.valid()) promotion_.get();  // one promotion at a time
  // Refuse to kill a shard whose replica slot cannot take over (already
  // promoted and not restaffed): killing first and failing later would
  // leave the shard dead with nobody to promote.
  GV_CHECK(replicas_ == nullptr ||
               (replicas_->state(shard) == ReplicaState::kStandby &&
                replicas_->ready(shard)),
           "shard has no promotable standby (already promoted? restaff and "
           "replicate first)");
  deployment_.kill_shard(shard);
  FlightRecorder::instance().trip(FaultKind::kDeadShard,
                                  static_cast<int>(shard),
                                  "kill_shard: operator-initiated failover");
  if (replicas_ == nullptr) return;
  launch_promotion(shard);
}

void ShardedVaultServer::launch_promotion(std::uint32_t shard) {
  // Fence BEFORE returning: from this point no query can read the standby's
  // (soon to be stale) store — the router blocks on the PROMOTING state
  // until the replica has rebuilt from its re-sealed package, re-handshaked
  // with the survivors, and re-materialized from the current snapshot.
  replicas_->begin_promotion(shard);
  promotion_ = std::async(std::launch::async, [this, shard] {
    // Incremental re-materialization: only the adopted shard's store is
    // rebuilt (shard-local cold forward, halo pulls from the survivors'
    // retained boundary stores) — the fencing window no longer pays a
    // full-fleet refresh.  A cold-start fleet (no refresh yet) has no
    // stores at all: the adopted shard serves demand-driven like everyone
    // else, so there is nothing to re-materialize.
    const double ms = replicas_->promote(shard, [this, shard] {
      if (deployment_.refreshed()) {
        deployment_.rematerialize_shard(shard, *features());
      }
    });
    frontend_.metrics().record_promotion_ms(ms);
    // Warm adoption installs a bit-fresh label store but no retained
    // boundary activations; rebuild them OUTSIDE the fence (queries are
    // already flowing) so the shard's halo contributions to cold queries
    // go back to store-served instead of live-computed until the next
    // refresh.  The rebuild is exactly the demand-recompute class, so it
    // runs as a COLD job on the shared workers — interactive flushes
    // preempt it instead of queueing behind it — and this promotion thread
    // waits for it, keeping join_promotion()'s "fully landed" contract.
    if (deployment_.refreshed() && deployment_.store_materialized(shard) &&
        !deployment_.retained_valid(shard)) {
      auto done = std::make_shared<std::promise<void>>();
      auto landed = done->get_future();
      frontend_.post_background(
          JobClass::kCold,
          [this, shard, done] {
            try {
              deployment_.rebuild_boundary_retained(shard, *features());
              done->set_value();
            } catch (...) {
              done->set_exception(std::current_exception());
            }
          },
          [done] {
            // Shed at shutdown: the retained stores simply stay invalid
            // (the next refresh rebuilds them); surface the usual error to
            // whoever still joins this promotion.
            done->set_exception(
                std::make_exception_ptr(Error("server shutting down")));
          });
      landed.get();
    }
  });
}

void ShardedVaultServer::handle_shard_failure(std::uint32_t shard) {
  // Called from the job-system worker whose serving ecall just died (the
  // deployment has already marked the shard dead and counted the fault).
  // Mirror kill_shard's fence + promote; the failed batch retries through
  // the router's promotion fence and lands on the new PRIMARY.  Best
  // effort by design: a control-plane problem (stale standby package, an
  // earlier promotion's failure resurfacing from its future) must not
  // replace the data-path error on a query's stack — the shard then simply
  // stays dead and the router reports it honestly.
  FlightRecorder::instance().trip(FaultKind::kDeadShard,
                                  static_cast<int>(shard),
                                  "serving ecall died; attempting promotion");
  try {
    MutexLock lock(promotion_mu_);
    if (replicas_ == nullptr) return;  // nothing to promote: queries fail
    replicas_->wait_ready();
    if (promotion_.valid()) promotion_.get();
    // A concurrent failure of the same shard may have promoted it while we
    // waited for the control plane: nothing left to do.
    if (deployment_.shard_alive(shard)) return;
    if (replicas_->state(shard) != ReplicaState::kStandby ||
        !replicas_->ready(shard)) {
      return;  // no promotable standby; the shard stays dead
    }
    launch_promotion(shard);
  } catch (const std::exception& e) {
    GV_LOG_WARN << "dead-shard promotion for shard " << shard
                << " could not be launched: " << e.what();
  }
}

void ShardedVaultServer::record_cold_stats(const ColdSubsetStats& stats) {
  cold_queries_.fetch_add(1, std::memory_order_relaxed);
  cold_shards_computed_.fetch_add(stats.shards_computed,
                                  std::memory_order_relaxed);
  cold_shards_touched_.fetch_add(stats.shards_touched,
                                 std::memory_order_relaxed);
  cold_frontier_rows_.fetch_add(stats.frontier_rows, std::memory_order_relaxed);
  cold_halo_request_bytes_.fetch_add(stats.halo_request_bytes,
                                     std::memory_order_relaxed);
  cold_halo_embedding_bytes_.fetch_add(stats.halo_embedding_bytes,
                                       std::memory_order_relaxed);
  if (stats.backbone_cache_hit) {
    cold_backbone_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  auto& reg = MetricsRegistry::global();
  reg.counter("cold.queries").add(1);
  reg.counter("cold.shards_touched").add(stats.shards_touched);
  reg.counter("cold.frontier_rows").add(stats.frontier_rows);
  reg.counter("cold.halo_bytes", MetricLabels::of("channel_kind", "request"))
      .add(stats.halo_request_bytes);
  reg.counter("cold.halo_bytes", MetricLabels::of("channel_kind", "embedding"))
      .add(stats.halo_embedding_bytes);
  reg.histogram("cold.modeled_seconds").record(stats.modeled_seconds);
}

GraphUpdateStats ShardedVaultServer::update_graph(const GraphDelta& delta,
                                                  const CsrMatrix& new_features) {
  // Control-plane exclusion, like update_features: promotions re-handshake
  // enclaves the update needs alive, so they must land first.
  MutexLock control(promotion_mu_);
  if (promotion_.valid()) promotion_.get();
  GV_CHECK(new_features.rows() ==
               deployment_.num_nodes() + delta.node_adds.size(),
           "post-update features must cover existing plus appended nodes");
  auto fresh = std::make_shared<const CsrMatrix>(new_features);
  const std::uint64_t fresh_fp =
      ShardedVaultDeployment::features_fingerprint(*fresh);
  // The snapshot swap runs under the deployment's update fence: a batch
  // waking from await_moves must never pair the grown node count with the
  // old (smaller) snapshot on the cold path.
  const GraphUpdateStats stats =
      deployment_.update_graph(delta, &new_features, [&] {
        {
          MutexLock lock(snap_mu_);
          features_ = fresh;
          features_fp_ = fresh_fp;
        }
        frontend_.set_num_nodes(fresh->rows());
      });
  // The label cache keys on (node, feature-row digest); a graph mutation
  // moves labels through the private neighbourhood while the digests stay
  // put, so the delta-derived affected set is evicted by node id.
  const std::size_t evicted =
      frontend_.cache().invalidate_nodes(stats.stale_nodes);
  frontend_.metrics().record_graph_update(stats.store_entries_invalidated +
                                          evicted);
  {
    // Fold the update into the drift health readings (DriftTracker also
    // publishes them as gauges to the global registry).
    MutexLock lock(drift_mu_);
    drift_.record(stats);
  }
  // Telemetry push at the state change: a drift update is exactly when EPC
  // occupancy and channel traffic move, so don't wait for a stats() pull.
  deployment_.publish_epc_gauges();
  deployment_.publish_channel_audit();
  if (replicas_ != nullptr) {
    // The standby packages now describe a retired topology (they refuse to
    // promote); re-replicate so the fleet is failover-ready again.
    replicas_->wait_ready();
    replicas_->replicate_async();
  }
  return stats;
}

MetricsSnapshot ShardedVaultServer::stats() const {
  MetricsSnapshot s = frontend_.metrics().snapshot();
  s.failovers = router_->failovers();
  s.fenced_batches = router_->fenced();
  s.cold_batches = router_->cold_batches();
  s.restaffs = replicas_ != nullptr ? replicas_->restaffs() : 0;
  s.shard_faults = deployment_.shard_faults();
  s.cold_queries = cold_queries_.load(std::memory_order_relaxed);
  s.cold_shards_computed = cold_shards_computed_.load(std::memory_order_relaxed);
  s.cold_shards_touched = cold_shards_touched_.load(std::memory_order_relaxed);
  s.cold_frontier_rows = cold_frontier_rows_.load(std::memory_order_relaxed);
  s.cold_halo_request_bytes =
      cold_halo_request_bytes_.load(std::memory_order_relaxed);
  s.cold_halo_embedding_bytes =
      cold_halo_embedding_bytes_.load(std::memory_order_relaxed);
  s.cold_backbone_cache_hits =
      cold_backbone_cache_hits_.load(std::memory_order_relaxed);
  {
    MutexLock lock(drift_mu_);
    s.drift_cut_growth = drift_.cut_growth();
    s.drift_load_imbalance = drift_.load_imbalance();
  }
  const CostMeter m = deployment_.aggregate_meter();
  s.ecalls = m.ecalls;
  s.bytes_in = m.bytes_in;
  s.modeled_seconds = modeled_seconds_total();
  const auto served = s.completed + s.cache_hits;
  s.requests_per_second =
      s.modeled_seconds > 0.0 ? static_cast<double>(served) / s.modeled_seconds : 0.0;
  // Refresh the channel-kind byte-audit gauges alongside the poll, so a
  // registry snapshot taken next to stats() is internally consistent.
  deployment_.publish_channel_audit();
  return s;
}

}  // namespace gv
