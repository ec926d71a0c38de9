#include "shard/replica_manager.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace gv {

const char* replica_state_name(ReplicaState s) {
  switch (s) {
    case ReplicaState::kStandby: return "STANDBY";
    case ReplicaState::kPromoting: return "PROMOTING";
    case ReplicaState::kPrimary: return "PRIMARY";
  }
  return "?";
}

Sha256Digest ReplicaConfig::standby_platform_default_key() {
  Sha256 h;
  h.update(std::string("gnnvault-simulated-standby-cpu-fuse-key-v1"));
  return h.finish();
}

Sha256Digest ReplicaConfig::standby_generation_key(std::uint32_t shard,
                                                   std::uint32_t generation) {
  Sha256 h;
  h.update(std::string("gnnvault-simulated-standby-cpu-fuse-key-v1"));
  h.update(std::string("/shard=") + std::to_string(shard) +
           "/gen=" + std::to_string(generation));
  return h.finish();
}

ReplicaManager::ReplicaManager(ShardedVaultDeployment& primary, ReplicaConfig cfg)
    : primary_(&primary), cfg_(cfg) {
  replicas_.reserve(primary.num_shards());
  for (std::uint32_t s = 0; s < primary.num_shards(); ++s) {
    auto rep = std::make_unique<Replica>();
    rep->platform_key = cfg_.standby_platform_key;
    rep->enclave = primary.make_peer_enclave(s, cfg_.standby_platform_key);
    // Handshake now: the primary attests the standby (and vice versa)
    // before any package bytes move.
    rep->channel = std::make_unique<AttestedChannel>(
        primary.shard_enclave(s), *rep->enclave, primary.shard_platform_key(s),
        cfg_.standby_platform_key);
    replicas_.push_back(std::move(rep));
  }
}

ReplicaManager::~ReplicaManager() {
  if (pending_.valid()) {
    try {
      pending_.get();
    } catch (...) {
      // Replication failure at teardown has nobody left to report to.
    }
  }
}

void ReplicaManager::replicate_one(std::uint32_t shard) {
  Replica& rep = *replicas_[shard];
  // A promoted replica IS the shard's primary now — there is no standby to
  // replicate into until restaff() provisions one.  (A promotion that
  // failed after consuming the slot also leaves it empty until restaffed.)
  if (rep.state.load() != ReplicaState::kStandby || rep.enclave == nullptr ||
      rep.channel == nullptr) {
    return;
  }
  // A primary that died mid-pass is skipped, not an error: poisoning the
  // replication future would make the dead-shard handler's wait_ready()
  // rethrow the very failure it is trying to recover from.  The standby
  // keeps whatever it replicated last (and its stamps fail safe).
  if (!primary_->shard_alive(shard)) return;
  MutexLock slot(rep.mu);
  // Primary side: package (and labels when available) leave the primary
  // enclave only through the attested channel.  Capture the epoch and
  // topology version BEFORE the send: if a refresh / graph update lands
  // mid-replication the copy is stamped with the older value and reads
  // fail safe (stale), never the other way.
  const std::uint64_t epoch = primary_->refresh_epoch();
  const std::uint64_t topology = primary_->topology_version();
  primary_->send_payload(shard, *rep.channel);
  // Labels whose store entries were invalidated by a graph update must not
  // be replicated as fresh — the standby cannot see the stale bits.  Skip
  // the label sync; the stale standby refuses reads until the store heals.
  const bool with_labels =
      primary_->refreshed() && primary_->stale_store_entries(shard) == 0;
  if (with_labels) primary_->send_labels(shard, *rep.channel);

  // Standby side: receive, RE-SEAL under the standby platform key, and keep
  // the label store warm.
  rep.enclave->ecall([&] {
    const auto bytes = rep.channel->recv_package(*rep.enclave);
    rep.payload = deserialize_shard_payload(bytes);
    rep.sealed = rep.enclave->seal(bytes);
    auto& mem = rep.enclave->memory();
    mem.set("replica.package", rep.payload.payload_bytes());
    if (with_labels) {
      auto block = rep.channel->recv_labels(*rep.enclave);
      GV_CHECK(block.nodes == rep.payload.owned,
               "replicated label store does not cover the shard's nodes");
      rep.labels = std::move(block.labels);
      mem.set("labels.store", rep.labels.size() * sizeof(std::uint32_t));
    }
  });
  if (with_labels) rep.synced_epoch.store(epoch);
  rep.synced_topology.store(topology);
  rep.ready.store(true);
}

void ReplicaManager::replicate_all() {
  MutexLock lock(replicate_mu_);
  for (std::uint32_t s = 0; s < replicas_.size(); ++s) replicate_one(s);
}

void ReplicaManager::replicate_async() {
  wait_ready();  // one async replication at a time
  pending_ = std::async(std::launch::async, [this] { replicate_all(); });
}

void ReplicaManager::wait_ready() {
  if (pending_.valid()) pending_.get();
}

bool ReplicaManager::ready(std::uint32_t shard) const {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  return replicas_[shard]->ready.load();
}

void ReplicaManager::sync_labels() {
  MutexLock lock(replicate_mu_);
  sync_labels_locked();
}

void ReplicaManager::sync_labels_locked() {
  for (std::uint32_t s = 0; s < replicas_.size(); ++s) {
    Replica& rep = *replicas_[s];
    if (rep.state.load() != ReplicaState::kStandby || rep.channel == nullptr) {
      continue;
    }
    if (!rep.ready.load() || !primary_->shard_alive(s)) continue;
    // A package replicated before a migration or graph update describes a
    // retired owned set, so a bare label sync cannot line up with it:
    // re-replicate package and labels together.
    if (rep.synced_topology.load() != primary_->topology_version()) {
      replicate_one(s);
      continue;
    }
    // A store with graph-update-invalidated entries must not be shipped as
    // fresh (the stale bits do not travel); skip until it heals.
    if (primary_->stale_store_entries(s) > 0) continue;
    MutexLock slot(rep.mu);
    const std::uint64_t epoch = primary_->refresh_epoch();
    primary_->send_labels(s, *rep.channel);
    rep.enclave->ecall([&] {
      auto block = rep.channel->recv_labels(*rep.enclave);
      GV_CHECK(block.nodes == rep.payload.owned,
               "replicated label store does not cover the shard's nodes");
      rep.labels = std::move(block.labels);
      rep.enclave->memory().set("labels.store",
                                rep.labels.size() * sizeof(std::uint32_t));
    });
    rep.synced_epoch.store(epoch);
  }
}

ReplicaState ReplicaManager::state(std::uint32_t shard) const {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  return replicas_[shard]->state.load();
}

void ReplicaManager::begin_promotion(std::uint32_t shard) {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  Replica& rep = *replicas_[shard];
  GV_CHECK(rep.ready.load(), "cannot promote an unreplicated standby");
  GV_CHECK(rep.synced_topology.load() == primary_->topology_version(),
           "replica package predates the live topology (graph drift or "
           "migration since replication) — re-replicate before promoting");
  GV_CHECK(!primary_->shard_alive(shard),
           "cannot promote while the primary shard is alive");
  ReplicaState expected = ReplicaState::kStandby;
  GV_CHECK(rep.state.compare_exchange_strong(expected, ReplicaState::kPromoting),
           std::string("replica is ") + replica_state_name(expected) +
               ", expected STANDBY");
}

double ReplicaManager::promote(std::uint32_t shard,
                               const std::function<void()>& rematerialize) {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  Replica& rep = *replicas_[shard];
  if (rep.state.load() != ReplicaState::kPromoting) begin_promotion(shard);
  Stopwatch watch;
  // Promotion phases are emitted with explicit timestamps (not one RAII
  // span) because the "promotion" slice must stop where the latency metric
  // stops — when serving resumes — while this function continues into the
  // background restaff.
  const auto promo_start = std::chrono::steady_clock::now();
  // Promotion must not race replication traffic into the same enclave.
  MutexLock lock(replicate_mu_);
  try {
    // Warm-adoption fast path: when the standby's replicated label store
    // was synced at the CURRENT refresh epoch, it is bit-identical to what
    // any re-materialization would compute — and it already lives inside
    // the enclave being adopted.  Promotion then needs no forward at all;
    // `rematerialize` is the fallback for a store that missed a refresh.
    bool warm = primary_->refreshed() &&
                rep.synced_epoch.load() == primary_->refresh_epoch();
    std::vector<std::uint32_t> warm_labels;
    {
      // Exclude any lookup that slipped past the PROMOTING fence before it
      // went up: the slot's enclave/labels must not be consumed under a
      // reader.  Released before the (possibly long) re-materialization.
      MutexLock slot(rep.mu);
      // Relaunch from the RE-SEALED package: the blob opens only inside
      // this standby enclave (sealing binds to the standby platform fuse
      // key), so this is exactly the restart-from-local-sealed-storage
      // path a real standby machine would take — no vendor, no dead
      // platform in the loop.
      ShardPayload payload;
      {
        TraceSpan unseal_span("promotion", "unseal");
        unseal_span.arg("shard", double(shard));
        rep.enclave->ecall([&] {
          payload = deserialize_shard_payload(rep.enclave->unseal(rep.sealed));
        });
      }
      // adopt_shard consumes the slot only once every precondition passed;
      // a rejected adoption (throw) leaves a fully functional warm standby —
      // which is why the warm labels are taken only AFTER it succeeds.
      {
        TraceSpan adopt_span("promotion", "adopt");
        adopt_span.arg("shard", double(shard));
        primary_->adopt_shard(shard, rep.enclave, payload, rep.sealed,
                              rep.platform_key);
      }
      // Now the donation is committed: take the warm store (it stays inside
      // the same, now-adopted enclave; install_labels re-registers it there)
      // and drop the replication channel (its dead-primary endpoint is
      // retired, its standby endpoint donated).
      if (warm) warm_labels = std::move(rep.labels);
      rep.channel.reset();
      rep.ready.store(false);
      rep.labels.clear();
      rep.payload = ShardPayload{};
      rep.synced_epoch.store(0);
      rep.synced_topology.store(0);
    }
    // Label stores (re)materialize from the CURRENT feature snapshot while
    // the router fence is still up — no query ever sees a pre-promotion
    // (or empty) store.
    const std::uint64_t epoch_before = primary_->refresh_epoch();
    if (warm) {
      TraceSpan install_span("promotion", "install_labels");
      install_span.arg("shard", double(shard));
      primary_->install_labels(shard, std::move(warm_labels));
    } else {
      TraceSpan remat_span("promotion", "rematerialize");
      remat_span.arg("shard", double(shard));
      rematerialize();
    }
    // A full-refresh re-materialization bumps the refresh epoch without
    // changing the snapshot; re-stamp the OTHER shards' standbys before the
    // fence lifts so their (bit-identical) stores do not read as stale.
    // The warm-adopt and shard-local (rematerialize_shard) paths leave the
    // epoch alone, so the standbys are already fresh and the fencing window
    // skips the fleet-wide label re-ship.
    if (primary_->refresh_epoch() != epoch_before) {
      TraceSpan sync_span("promotion", "sync_labels");
      sync_span.arg("shard", double(shard));
      sync_labels_locked();
    }
  } catch (const std::exception& e) {
    // Failed promotion: drop back to STANDBY so fenced routers unblock
    // instead of hanging forever.  A rejected adoption left the slot a
    // warm standby (ready stays true); a slot consumed before the failure
    // refuses lookups (ready=false) and waits for restaff().  Logged here
    // because the caller may only join (and rethrow) much later.
    GV_LOG_WARN << "promotion of shard " << shard << " failed: " << e.what();
    // Postmortem bundle while the failure is still on the stack (trip only
    // takes leaf locks, so calling under replicate_mu_ is safe).
    FlightRecorder::instance().trip(FaultKind::kPromotionFailure,
                                    static_cast<int>(shard), e.what());
    rep.ready.store(rep.enclave != nullptr);
    {
      MutexLock state_lock(promote_mu_);
      rep.state.store(ReplicaState::kStandby);
    }
    promote_cv_.notify_all();
    throw;
  }
  {
    MutexLock state_lock(promote_mu_);
    rep.state.store(ReplicaState::kPrimary);
  }
  promote_cv_.notify_all();
  // Serving resumed at the notify above — the promotion latency (the
  // kill-to-serving fencing window) stops HERE; auto-restaff is background
  // work that must not inflate it.
  const double promotion_ms = watch.seconds() * 1e3;
  TraceRecorder::instance().emit("promotion", "promotion", promo_start,
                                 std::chrono::steady_clock::now(), 0.0,
                                 {{"shard", double(shard)}});
  if (cfg_.auto_restaff) {
    // Gen-2 standby on a fresh derived platform key: the fleet survives
    // back-to-back failovers with nobody in the loop.  Best effort — a
    // failed restaff leaves the slot empty for an explicit retry and never
    // fails the promotion that already landed (replicate_mu_ is still
    // held, so nothing races the fresh slot).
    try {
      TraceSpan restaff_span("promotion", "restaff");
      restaff_span.arg("shard", double(shard));
      rep.generation += 1;
      restaff_locked(shard,
                     ReplicaConfig::standby_generation_key(shard, rep.generation));
      replicate_one(shard);
      restaffs_.fetch_add(1);
    } catch (...) {
      // Slot stays empty; restaff() can retry explicitly.
    }
  }
  return promotion_ms;
}

bool ReplicaManager::await_promotion(std::uint32_t shard,
                                     std::chrono::milliseconds timeout) const {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  const Replica& rep = *replicas_[shard];
  MutexLock lock(promote_mu_);
  return promote_cv_.wait_for(promote_mu_, timeout, [&] {
    return rep.state.load() != ReplicaState::kPromoting;
  });
}

void ReplicaManager::restaff(std::uint32_t shard, const Sha256Digest& platform_key) {
  MutexLock lock(replicate_mu_);
  restaff_locked(shard, platform_key);
}

void ReplicaManager::restaff_locked(std::uint32_t shard,
                                    const Sha256Digest& platform_key) {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  Replica& rep = *replicas_[shard];
  // Restaffable slots: a completed promotion (PRIMARY), or a STANDBY slot
  // whose enclave was consumed by a promotion that failed after adoption.
  // A live standby is not restaffed from under its own feet.
  GV_CHECK(rep.state.load() == ReplicaState::kPrimary || rep.enclave == nullptr,
           "only an empty (promoted or failed-promotion) replica slot can be "
           "restaffed");
  GV_CHECK(primary_->shard_alive(shard),
           "restaff requires the shard's primary to be alive");
  MutexLock slot(rep.mu);
  rep.platform_key = platform_key;
  rep.enclave = primary_->make_peer_enclave(shard, platform_key);
  rep.channel = std::make_unique<AttestedChannel>(
      primary_->shard_enclave(shard), *rep.enclave,
      primary_->shard_platform_key(shard), platform_key);
  rep.payload = ShardPayload{};
  rep.labels.clear();
  rep.sealed = SealedBlob{};
  rep.synced_epoch.store(0);
  rep.synced_topology.store(0);
  rep.ready.store(false);
  {
    MutexLock state_lock(promote_mu_);
    rep.state.store(ReplicaState::kStandby);
  }
}

std::vector<std::uint32_t> ReplicaManager::lookup(std::uint32_t shard,
                                                  std::span<const std::uint32_t> nodes,
                                                  double* modeled_delta) {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  Replica& rep = *replicas_[shard];
  // Slot lock: a promotion that won the race must not consume the enclave
  // or label store from under this reader.
  MutexLock slot(rep.mu);
  GV_CHECK(rep.state.load() == ReplicaState::kStandby,
           std::string("replica is ") + replica_state_name(rep.state.load()) +
               "; lookups are served by the shard enclave");
  GV_CHECK(rep.ready.load(), "replica not yet replicated");
  // Never serve a snapshot the primary has since replaced: a standby that
  // missed a feature refresh must be promoted (re-materializing from the
  // current snapshot), not read.
  GV_CHECK(rep.synced_epoch.load() == primary_->refresh_epoch(),
           "replica label store is stale (missed a feature refresh); "
           "promotion required");
  const double before =
      rep.enclave->meter_snapshot().total_seconds(primary_->cost_model());
  auto labels = rep.enclave->ecall([&] {
    // Label-store state is read only here, inside the ecall, so the enclave
    // entry mutex serializes lookups against a concurrent sync_labels.
    GV_CHECK(!rep.labels.empty() || rep.payload.owned.empty(),
             "replica has no label store yet");
    std::vector<std::uint32_t> out;
    out.reserve(nodes.size());
    for (const auto v : nodes) {
      const auto it =
          std::lower_bound(rep.payload.owned.begin(), rep.payload.owned.end(), v);
      GV_CHECK(it != rep.payload.owned.end() && *it == v,
               "node not owned by this shard");
      out.push_back(
          rep.labels[static_cast<std::size_t>(it - rep.payload.owned.begin())]);
    }
    return out;
  });
  if (modeled_delta != nullptr) {
    *modeled_delta =
        rep.enclave->meter_snapshot().total_seconds(primary_->cost_model()) - before;
  }
  return labels;
}

Enclave& ReplicaManager::replica_enclave(std::uint32_t shard) {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  GV_CHECK(replicas_[shard]->enclave != nullptr,
           "replica enclave was promoted into the deployment");
  return *replicas_[shard]->enclave;
}

const SealedBlob& ReplicaManager::sealed_payload(std::uint32_t shard) const {
  GV_CHECK(shard < replicas_.size(), "shard index out of range");
  return replicas_[shard]->sealed;
}

std::uint64_t ReplicaManager::package_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& r : replicas_) {
    if (r->channel != nullptr) sum += r->channel->package_bytes();
  }
  return sum;
}

std::uint64_t ReplicaManager::label_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& r : replicas_) {
    if (r->channel != nullptr) sum += r->channel->label_bytes();
  }
  return sum;
}

}  // namespace gv
