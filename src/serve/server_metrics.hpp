// Serving-side observability: request/batch/cache counters plus a
// log-bucketed latency histogram from which the snapshot estimates
// p50/p95/p99 in O(buckets) — no copy, no sort, and recording a latency
// sample never takes the metrics mutex.
//
// The SGX cost model charges modeled time (ecall transitions, MEE-encrypted
// copies, paging) rather than sleeping, so the snapshot reports both wall
// seconds and modeled seconds; requests/sec is computed against the modeled
// serving time, which is what batching actually improves.
#pragma once

#include <cstdint>
#include <string>

#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "common/thread_safety.hpp"

namespace gv {

struct MetricsSnapshot {
  std::uint64_t requests = 0;        // submitted (cache hits included)
  std::uint64_t completed = 0;       // resolved through a batch
  std::uint64_t batches = 0;         // flushed batches == batched ecalls
  std::uint64_t coalesced = 0;       // duplicate in-flight queries that rode
                                     // an already queued node's slot
  std::uint64_t failovers = 0;       // shard batches served by a replica or
                                     // a just-promoted PRIMARY (spliced in
                                     // from the ShardRouter)
  std::uint64_t fenced_batches = 0;  // shard batches that waited out a
                                     // promotion fence (from the router)
  std::uint64_t cold_batches = 0;    // shard batches served demand-driven
                                     // through the cold cross-shard path
                                     // (un-materialized label store)
  std::uint64_t promotions = 0;      // replicas promoted to PRIMARY
  std::uint64_t restaffs = 0;        // gen-2 standbys auto-provisioned after
                                     // a promotion (from the ReplicaManager)
  std::uint64_t shard_faults = 0;    // dead shards detected from a failed
                                     // ecall (vs an explicit kill_shard;
                                     // spliced in from the deployment)
  std::uint64_t feature_updates = 0; // backbone snapshot refreshes
  std::uint64_t graph_updates = 0;   // private-graph mutations applied
                                     // (GraphDrift update_graph calls)
  std::uint64_t stale_label_evictions = 0;  // label-store entries + cache
                                            // entries invalidated by graph
                                            // updates
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t ecalls = 0;          // enclave transitions (from the meter)
  std::uint64_t bytes_in = 0;        // untrusted -> enclave copies

  // Cold cross-shard path, aggregated from the per-query ColdSubsetStats
  // the deployment reports (previously computed and discarded).
  std::uint64_t cold_queries = 0;          // cold subset inferences served
  std::uint64_t cold_shards_computed = 0;  // shards that ran layer compute
  std::uint64_t cold_shards_touched = 0;   // computed + halo-pulled-from
  std::uint64_t cold_frontier_rows = 0;    // cross-shard frontier expansions
  std::uint64_t cold_halo_request_bytes = 0;    // frontier row-id requests
  std::uint64_t cold_halo_embedding_bytes = 0;  // pulled halo embeddings
  std::uint64_t cold_backbone_cache_hits = 0;   // cold queries that reused a
                                                // materialized backbone

  // GraphDrift health (latest DriftTracker readings, 0 until drift occurs).
  double drift_cut_growth = 0.0;      // fraction of new edges crossing shards
  double drift_load_imbalance = 0.0;  // max shard load / mean shard load

  double cache_hit_rate = 0.0;       // hits / (hits + misses)
  double mean_batch_size = 0.0;
  double wall_seconds = 0.0;         // since server start / metrics reset
  double modeled_seconds = 0.0;      // meter total under the cost model
  double requests_per_second = 0.0;  // completed+hits over modeled seconds
  double p50_latency_ms = 0.0;       // queue-to-completion, wall clock,
                                     // histogram-estimated (<=9% rel. error)
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double mean_promotion_ms = 0.0;    // wall time from kill to the promoted
                                     // PRIMARY serving again
  double max_promotion_ms = 0.0;

  std::string summary() const;
};

class ServerMetrics {
 public:
  void record_request();
  void record_cache_hit();
  void record_cache_miss();
  /// One flushed batch resolving `size` requests (coalesced waiters count).
  void record_batch(std::size_t size);
  /// A duplicate in-flight query coalesced onto a queued node's slot.
  void record_coalesced();
  /// A feature-snapshot refresh (update_features).
  void record_feature_update();
  /// A private-graph mutation (update_graph) that invalidated `stale`
  /// label-store/cache entries.
  void record_graph_update(std::size_t stale);
  /// One replica promotion to PRIMARY and its kill-to-serving wall latency.
  void record_promotion_ms(double ms);
  /// Queue-to-completion latency of one request.  Lock-free: lands in the
  /// log-bucketed histogram without touching the counter mutex.
  void record_latency_ms(double ms) { latency_ms_.record(ms); }

  /// Counters + percentiles; the caller merges in meter-derived fields.
  /// O(histogram buckets) — never copies or sorts a sample window.
  MetricsSnapshot snapshot() const;
  void reset();

 private:
  mutable Mutex mu_{gv::lockrank::kTelemetry};
  Stopwatch since_;
  std::uint64_t requests_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t feature_updates_ = 0;
  std::uint64_t graph_updates_ = 0;
  std::uint64_t stale_label_evictions_ = 0;
  std::uint64_t promotions_ = 0;
  double promotion_ms_total_ = 0.0;
  double promotion_ms_max_ = 0.0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  Histogram latency_ms_;  // not guarded by mu_: internally atomic
};

}  // namespace gv
