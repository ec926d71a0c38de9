// EngineScope EngineProbe: serving-engine occupancy + throughput telemetry.
//
// PR 9 rebuilt the serving core (work-stealing JobSystem, TokenPool,
// arena-backed MicroBatchQueue) but left it almost blind: JobSystem::stats()
// was a coarse struct behind a mutex and the pools exposed no occupancy.
// The probe folds the engine's worker-local relaxed counters into labeled
// MetricsRegistry instruments on PULL (nothing on the execute/steal hot
// path pays for it), and accepts PUSHES for warm-up-only state changes
// (token-pool chunk grows, arena growth at batch release) so retained
// memory is visible without polling:
//
//   jobs.executed{engine,worker,lane}        counter (per lane fold)
//   jobs.steals{engine,result=hit|miss}      counter
//   jobs.parks / jobs.unparks{engine,worker} counter
//   jobs.depth / jobs.depth_high_water{engine,worker,lane}   gauge
//   jobs.maintenance_{cap,in_flight,high_water}{engine}      gauge
//   tokens.{capacity,free,in_use,chunks}{engine}             gauge (push)
//   arena.{retained_bytes,blocks,high_water_bytes}{engine}   gauge (push)
//   queue.{depth_high_water,slots,free_slots,index_size}{engine}  gauge
//
// The `engine` label is the owning front end's tenant name (ServerConfig::
// tenant), so engine pressure lines up with the TenantLedger's attribution.
// Every live probe registers itself; ops_report() calls pull_all() and
// embeds the per-engine snapshots.
//
// Lock discipline: push APIs take only the probe's own kTelemetry mutex
// (plus, lazily, the registry's kTelemetry mutex to resolve an instrument),
// so publishers may call them under serving leaves (kTokenState, kJobQueue
// — both below kTelemetry).  pull() gathers engine state BEFORE taking the
// probe mutex, because the deque/queue accessors it reads rank BELOW
// kTelemetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_safety.hpp"
#include "obs/metrics.hpp"
#include "serve/job_system.hpp"

namespace gv {

class TokenPool;
class MicroBatchQueue;

class EngineProbe {
 public:
  /// Registers the probe in the process-wide set pull_all() walks.
  EngineProbe(MetricsRegistry& reg, const std::string& engine);
  ~EngineProbe();

  EngineProbe(const EngineProbe&) = delete;
  EngineProbe& operator=(const EngineProbe&) = delete;

  /// Attach the engine pieces pull() reads.  Any may be null (skipped).
  /// The attached objects must outlive the probe.
  void attach(const JobSystem* jobs, const TokenPool* tokens,
              const MicroBatchQueue* queue);

  const std::string& engine() const { return engine_; }

  /// Push APIs — state-change publishing (atomic gauge stores; instruments
  /// resolve lazily on first use, a warm-up-only event).
  void publish_token_pool(std::size_t capacity, std::size_t free_count,
                          std::size_t chunks);
  /// Per-batch arenas publish GROWTH DELTAS (the gauges aggregate across
  /// the owner's whole batch pool); negative deltas rewind on batch death.
  void add_arena_delta(double retained_bytes, double blocks,
                       double high_water_bytes);

  /// Fold the engine's worker-local counters + occupancy into the registry
  /// (delta-based: registry counters stay monotone) and refresh the cached
  /// per-engine snapshot ops_report() embeds.
  void pull();

  /// Last pull()'s snapshot as one JSON object (pulls first if never
  /// pulled).  {"engine":...,"workers":N,"executed":{...},...}.
  std::string snapshot_json();

  /// pull() every live probe (ops_report, benches).
  static void pull_all();
  /// JSON array of every live probe's cached snapshot.  `live` pulls
  /// first; pass false from leaf-lock-only contexts (flight bundles).
  static std::string engines_json(bool live = true);

 private:
  struct WorkerInstruments {
    Counter* executed[kNumJobClasses] = {nullptr, nullptr, nullptr};
    Counter* parks = nullptr;
    Counter* unparks = nullptr;
    Gauge* depth[kNumJobClasses] = {nullptr, nullptr, nullptr};
    Gauge* depth_hw[kNumJobClasses] = {nullptr, nullptr, nullptr};
  };
  struct WorkerPrev {
    std::uint64_t executed[kNumJobClasses] = {0, 0, 0};
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
  };

  void resolve_worker_locked(std::size_t i) GV_REQUIRES(mu_);
  void resolve_scalars_locked() GV_REQUIRES(mu_);

  MetricsRegistry& reg_;
  const std::string engine_;

  /// Serializes pull() end-to-end (gather + delta fold).  Two interleaved
  /// pulls could otherwise fold an older snapshot after a newer one and
  /// underflow the unsigned counter deltas.  attach() also takes it, so a
  /// detach (front-end teardown) blocks until any in-flight pull has
  /// finished reading the engine objects.  kProbe: ordered before the
  /// engine locks and mu_, equal to the process-wide probes mutex
  /// pull_all() holds.
  Mutex pull_mu_{gv::lockrank::kProbe};

  mutable Mutex mu_{gv::lockrank::kTelemetry};
  const JobSystem* jobs_ GV_GUARDED_BY(mu_) = nullptr;
  const TokenPool* tokens_ GV_GUARDED_BY(mu_) = nullptr;
  const MicroBatchQueue* queue_ GV_GUARDED_BY(mu_) = nullptr;

  std::vector<WorkerInstruments> worker_instruments_ GV_GUARDED_BY(mu_);
  std::vector<WorkerPrev> worker_prev_ GV_GUARDED_BY(mu_);
  std::uint64_t prev_steal_hits_ GV_GUARDED_BY(mu_) = 0;
  std::uint64_t prev_steal_misses_ GV_GUARDED_BY(mu_) = 0;

  bool scalars_resolved_ GV_GUARDED_BY(mu_) = false;
  Counter* steals_hit_ GV_GUARDED_BY(mu_) = nullptr;
  Counter* steals_miss_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* maint_cap_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* maint_in_flight_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* maint_hw_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* tokens_capacity_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* tokens_free_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* tokens_in_use_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* tokens_chunks_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* arena_retained_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* arena_blocks_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* arena_hw_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* queue_depth_hw_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* queue_slots_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* queue_free_slots_ GV_GUARDED_BY(mu_) = nullptr;
  Gauge* queue_index_ GV_GUARDED_BY(mu_) = nullptr;

  std::string snapshot_ GV_GUARDED_BY(mu_);
};

}  // namespace gv
