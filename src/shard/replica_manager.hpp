// ReplicaManager: warm-standby failover AND full promotion for sharded
// vaults.
//
// A shard enclave can die (machine reboot, enclave teardown, EPC pressure
// eviction); without a standby, every query for its nodes fails until the
// vendor re-provisions.  The manager keeps one replica enclave per shard on
// a STANDBY platform:
//
//   * package replication — the primary shard ships its package (weights +
//     sub-adjacency + halo routing) over a mutually attested channel; the
//     standby re-seals it under ITS platform key, so the replica can
//     relaunch from local sealed storage without the vendor in the loop.
//     Sealed blobs never move across platforms directly (they cannot: the
//     sealing key binds to the platform fuse key) — re-sealing after an
//     attested transfer is the only sound path.
//   * label-store replication — after every refresh the primary streams its
//     owned labels (labels may cross enclave-to-enclave channels), so
//     failover is warm: the replica answers lookups immediately.
//
// Each replica runs a small state machine:
//
//   STANDBY    warm copy; may answer label-only lookups, but ONLY while its
//              store matches the deployment's current refresh epoch — a
//              standby that missed a feature update refuses to serve stale
//              labels.
//   PROMOTING  the primary died and promotion is in flight: the standby
//              unseals its re-sealed package, the deployment adopts its
//              enclave (rebuilding rectifier + sub-adjacency and re-running
//              the attested handshake with the surviving shards), and the
//              label store is re-materialized from the CURRENT feature
//              snapshot.  Routers fence queries for the shard until this
//              completes (shard/shard_router.hpp).
//   PRIMARY    promotion landed: the former standby IS the shard's enclave
//              now; the replica slot is empty until restaff() provisions a
//              fresh standby, after which a second failover can follow.
//
// Replication runs asynchronously off the serving path; ShardRouter fails
// a query batch over to the replica when the primary shard is dead.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_safety.hpp"
#include "shard/sharded_deployment.hpp"

namespace gv {

/// Role of the standby replica provisioned for one shard.
enum class ReplicaState { kStandby, kPromoting, kPrimary };

const char* replica_state_name(ReplicaState s);

struct ReplicaConfig {
  /// Platform fuse key of the standby machine hosting the replicas.
  Sha256Digest standby_platform_key = standby_platform_default_key();
  /// After a successful promotion, automatically provision a generation-2
  /// standby (on a fresh derived platform key) and replicate into it, so a
  /// second failover needs no manual restaff() call.
  bool auto_restaff = false;

  static Sha256Digest standby_platform_default_key();
  /// Platform key of the `generation`-th auto-restaffed standby machine.
  static Sha256Digest standby_generation_key(std::uint32_t shard,
                                             std::uint32_t generation);
};

class ReplicaManager {
 public:
  ReplicaManager(ShardedVaultDeployment& primary, ReplicaConfig cfg = {});
  /// Joins any in-flight async replication.
  ~ReplicaManager();

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  /// Replicate every shard's package (and label store, if the primary has
  /// refreshed) in a background thread.
  void replicate_async();
  /// Synchronous variant.
  void replicate_all();
  /// Block until the last replicate_async finishes.
  void wait_ready();
  bool ready(std::uint32_t shard) const;

  /// Re-ship every live primary shard's label store (after a feature
  /// refresh); a standby whose package predates the live topology (a
  /// migration or graph update since its replication) gets package and
  /// labels anew.  Dead primaries keep their last replicated labels.
  void sync_labels();

  // --- Promotion to PRIMARY. ---------------------------------------------
  ReplicaState state(std::uint32_t shard) const;
  /// Fence the shard for promotion: STANDBY -> PROMOTING.  Call the moment
  /// the primary is observed dead; from here routers block (or fail fast)
  /// instead of reading the standby's store, and promote() finishes the
  /// takeover.  Throws when the replica is unreplicated, already promoting
  /// or promoted, or the primary is still alive.
  void begin_promotion(std::uint32_t shard);
  /// Full promotion (synchronous; enters PROMOTING itself if
  /// begin_promotion was not called first).  The standby enclave unseals
  /// its re-sealed package and the deployment adopts it — rebuilding the
  /// rectifier and sub-adjacency and re-running the attested-channel
  /// handshake with every surviving shard.  The label store then comes from
  /// one of two places: when the standby's replicated store was synced at
  /// the CURRENT refresh epoch (the common case), it is adopted as-is —
  /// bit-identical to a recompute and already inside the promoted enclave,
  /// so the fencing window pays no forward at all; otherwise
  /// `rematerialize` rebuilds it from the current snapshot.  Prefer
  /// ShardedVaultDeployment::rematerialize_shard for that callback
  /// (shard-local cold forward with halo pulls from the survivors'
  /// retained boundary stores; no epoch bump, no fleet-wide label re-ship)
  /// over a full refresh, which re-runs every shard's forward and
  /// dominates the fencing window.  Only after the store is in place does
  /// the state flip to PRIMARY and fenced queries unblock.  Returns the
  /// promotion latency in wall milliseconds.
  double promote(std::uint32_t shard, const std::function<void()>& rematerialize);
  /// Block until `shard` leaves PROMOTING; false on timeout.
  bool await_promotion(std::uint32_t shard,
                       std::chrono::milliseconds timeout) const;
  /// Provision a fresh standby in an empty replica slot — after a
  /// completed promotion (PRIMARY -> STANDBY, unreplicated) or after a
  /// failed one consumed the standby enclave — under `platform_key`, so
  /// another failover can follow.  Requires the shard's primary alive;
  /// replicate afterwards to warm it.
  void restaff(std::uint32_t shard, const Sha256Digest& platform_key);

  /// Standbys auto-provisioned after promotions (cfg.auto_restaff).
  std::uint64_t restaffs() const { return restaffs_.load(); }

  /// Label-only lookup served by the replica enclave.  Refuses to serve
  /// when the store is stale (the primary refreshed after the last label
  /// sync) or the replica was already promoted.
  std::vector<std::uint32_t> lookup(std::uint32_t shard,
                                    std::span<const std::uint32_t> nodes,
                                    double* modeled_delta = nullptr);

  Enclave& replica_enclave(std::uint32_t shard);
  /// The shard package re-sealed under the STANDBY platform key.
  const SealedBlob& sealed_payload(std::uint32_t shard) const;
  /// Plaintext bytes shipped over the replication channels, by kind.
  std::uint64_t package_bytes() const;
  std::uint64_t label_bytes() const;

 private:
  struct Replica {
    /// Guards the slot's non-atomic state (enclave, channel, payload,
    /// labels, sealed) against a lookup racing the promotion that consumes
    /// them; never held across rematerialize.
    Mutex mu{gv::lockrank::kReplicaSlot};
    std::unique_ptr<Enclave> enclave;
    std::unique_ptr<AttestedChannel> channel;  // primary <-> standby
    std::atomic<bool> ready{false};
    std::atomic<ReplicaState> state{ReplicaState::kStandby};
    /// Refresh epoch of the primary when the label store was last synced.
    std::atomic<std::uint64_t> synced_epoch{0};
    /// Topology version of the primary when the package was replicated: a
    /// package that predates a graph update or migration describes a
    /// retired topology and must never be promoted (re-replicate first).
    std::atomic<std::uint64_t> synced_topology{0};
    /// Auto-restaff generation (0 = the provisioning-time standby).
    std::uint32_t generation = 0;
    Sha256Digest platform_key{};
    // Enclave-held state (only touched inside ecalls):
    ShardPayload payload;
    GV_SECRET std::vector<std::uint32_t> labels;
    SealedBlob sealed;
  };

  /// Replicates one shard; caller holds replicate_mu_ (promotion and the
  /// replication pass must not interleave traffic into the same enclave).
  void replicate_one(std::uint32_t shard) GV_REQUIRES(replicate_mu_);
  /// sync_labels body; caller holds replicate_mu_.
  void sync_labels_locked() GV_REQUIRES(replicate_mu_);
  /// restaff body; caller holds replicate_mu_.
  void restaff_locked(std::uint32_t shard, const Sha256Digest& platform_key)
      GV_REQUIRES(replicate_mu_);

  ShardedVaultDeployment* primary_;
  ReplicaConfig cfg_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::uint64_t> restaffs_{0};
  std::future<void> pending_;
  // Serializes replicate_all / sync_labels / promote.
  Mutex replicate_mu_{gv::lockrank::kReplicate};
  mutable Mutex promote_mu_{gv::lockrank::kReplicaSlot};
  mutable CondVar promote_cv_;
};

}  // namespace gv
