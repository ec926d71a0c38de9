// VaultRegistry: multi-tenant serving with EPC-aware admission control.
//
// Several model vendors can deploy vaults on one fleet of SGX platforms;
// each tenant gets its OWN enclave (own measurement, own sealing identity —
// tenant A's enclave cannot unseal tenant B's rectifier weights), but every
// enclave on a platform shares that platform's 96 MB usable EPC.  Admitting
// a tenant whose resident set does not fit would push every ecall through
// the EWB/ELDU page-swap path (the paper's Sec. III-C overhead, ~40k cycles
// per 4 KiB page), degrading ALL tenants.  The registry therefore estimates
// each tenant's enclave working set up front and places it on a platform
// with room; the rest are queued (admitted as capacity frees) or rejected.
//
// Sharded admission (ShardVault): a tenant whose working set exceeds ONE
// platform's budget — previously an outright rejection — is admitted as K
// shard enclaves spread across the fleet, provided a shard plan exists
// whose largest shard fits a platform budget and the fleet has room for
// all K.  Each platform has its own fuse key, so shard packages seal
// per-platform and halo traffic runs over attested channels.
//
// JobServe admission redesign: admission is now RESERVE -> PROVISION ->
// COMMIT.  The registry lock is held only to check the name, pick a
// placement, and reserve the EPC bytes; the expensive part — provisioning
// the enclave(s), sealing the graph, running the initial sharded refresh —
// happens OUTSIDE the lock, and the reservation is committed (server handle
// published) or rolled back (bytes released, queue re-drained) afterwards.
// A whale tenant's minutes-long provisioning no longer stalls every other
// tenant's server() lookup on mu_.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/vault_server.hpp"
#include "shard/sharded_server.hpp"
#include "common/thread_safety.hpp"

namespace gv {

struct RegistryConfig {
  /// Platform cost model shared by every platform in the fleet.
  SgxCostModel cost_model{};
  /// Fraction of usable EPC handed out per platform before refusing
  /// admission (headroom for ecall transients).
  double epc_budget_fraction = 0.9;
  /// Queue tenants that do not fit right now instead of rejecting them.
  bool queue_when_full = true;
  /// Identical SGX machines in the fleet (each contributes one EPC budget
  /// and has its own platform fuse key).
  std::uint32_t num_platforms = 1;
  /// Admit tenants larger than one platform's budget as K shards.
  bool shard_oversized = true;
  std::uint32_t max_shards = 8;
  /// Warm standby replicas for sharded tenants.
  bool replicate_shards = false;
};

enum class AdmissionDecision { kAdmitted, kAdmittedSharded, kQueued, kRejected };

struct AdmissionResult {
  AdmissionDecision decision = AdmissionDecision::kRejected;
  /// Estimated enclave working set of the tenant (weights + private graph +
  /// channel staging + activations); for sharded admission, the sum of the
  /// per-shard estimates.
  std::size_t estimated_bytes = 0;
  /// 1 for unsharded tenants; K for kAdmittedSharded.
  std::uint32_t num_shards = 1;
  std::string reason;
};

class VaultRegistry {
 public:
  explicit VaultRegistry(RegistryConfig cfg = {});
  ~VaultRegistry() = default;

  VaultRegistry(const VaultRegistry&) = delete;
  VaultRegistry& operator=(const VaultRegistry&) = delete;

  /// Deploy `vault` for `tenant` (unique name). On kAdmitted the server is
  /// live; kAdmittedSharded means the tenant exceeded one platform's budget
  /// and now spans several shard enclaves (query via sharded_server());
  /// kQueued parks the vault until capacity frees; kRejected drops it.
  AdmissionResult admit(const std::string& tenant, const Dataset& ds,
                        TrainedVault vault, ServerConfig server_cfg = {});

  bool has(const std::string& tenant) const;
  bool is_sharded(const std::string& tenant) const;
  /// Live server for an unsharded admitted tenant; throws gv::Error if
  /// absent (or sharded). The shared handle keeps the server alive across a
  /// concurrent remove().
  std::shared_ptr<VaultServer> server(const std::string& tenant);
  /// Live server for a sharded tenant; throws gv::Error if absent.
  std::shared_ptr<ShardedVaultServer> sharded_server(const std::string& tenant);

  /// Tear down a tenant (live, sharded, or queued). Freed capacity admits
  /// queued tenants in arrival order. Returns false if the name is unknown.
  bool remove(const std::string& tenant);

  /// Reservation platform index for shards serving from the standby
  /// platform after a failover promotion.
  static constexpr std::uint32_t kStandbyPlatform =
      static_cast<std::uint32_t>(-1);

  /// Shard `shard` of sharded tenant `tenant` dies: its standby replica is
  /// fenced and promoted to PRIMARY (ShardedVaultServer::kill_shard), the
  /// failed platform's reservation is released — the freed capacity admits
  /// queued tenants immediately — and the promoted shard's bytes move to
  /// the standby-platform account.  Requires the tenant admitted with
  /// `replicate_shards`.
  void fail_shard(const std::string& tenant, std::uint32_t shard);
  /// Bytes serving from the standby platform after failover promotions.
  std::size_t standby_in_use() const;

  std::vector<std::string> tenants() const;
  std::vector<std::string> queued() const;
  /// Sum of reserved bytes across all platforms.
  std::size_t epc_in_use() const;
  /// Fleet-wide budget (per-platform budget x num_platforms).
  std::size_t epc_budget() const;
  std::size_t platform_budget() const { return platform_budget_bytes_; }
  std::vector<std::size_t> platform_in_use() const;

  /// Fuse key of fleet platform `idx` (platform 0 is the default key, so a
  /// single-platform registry behaves exactly like the pre-fleet one).
  static Sha256Digest platform_key(std::uint32_t idx);

  /// Working-set estimate used for admission: rectifier weights, the private
  /// adjacency in COO + CSR form, channel staging for the required embedding
  /// matrices, and per-layer activations at full node count.
  static std::size_t estimate_enclave_bytes(const TrainedVault& vault,
                                            const Dataset& ds);

 private:
  /// A queued tenant.  The shard plan of an oversized tenant is computed
  /// once, outside the lock, when the tenant first arrives — a queue drain
  /// under the lock then only needs the (cheap) placement pass.
  struct Waiting {
    std::string tenant;
    Dataset ds;
    TrainedVault vault;
    ServerConfig server_cfg;
    std::size_t estimated_bytes = 0;
    bool sharded = false;
    ShardPlan plan;  // sharded only
  };

  /// A reservation that has been booked under the lock and now needs its
  /// enclave(s) provisioned outside it.
  struct PendingLaunch {
    std::string tenant;
    Dataset ds;
    TrainedVault vault;
    ServerConfig server_cfg;
    bool sharded = false;
    ShardPlan plan;                        // sharded only
    std::vector<std::uint32_t> placement;  // platform per shard; [0] unsharded
    std::vector<std::size_t> shard_bytes;  // bytes per shard; [0] unsharded
  };

  /// Worst-fit-decreasing placement of the plan's shards onto `free`
  /// per-platform headroom.  Fills `placement` (and debits `free`) on
  /// success; pure — no registry state is touched.
  bool place_shards(const ShardPlan& plan, std::vector<std::size_t> free,
                    std::vector<std::uint32_t>* placement) const;

  /// RESERVE phase (lock held): pick a placement against the current books
  /// and reserve the bytes + the tenant name.  Returns false when the fleet
  /// has no room right now.
  bool reserve_locked(const std::string& tenant, std::size_t estimated_bytes,
                      bool sharded, const ShardPlan& plan,
                      std::vector<std::uint32_t>* placement,
                      std::vector<std::size_t>* shard_bytes) GV_REQUIRES(mu_);
  /// Drop a reserved-but-not-committed tenant's bytes (provisioning failed).
  void release_reservation_locked(const std::string& tenant) GV_REQUIRES(mu_);
  /// Reserve as many queued tenants as now fit (FIFO, no skipping); the
  /// caller provisions the returned launches after releasing the lock.
  std::vector<PendingLaunch> reserve_from_queue_locked() GV_REQUIRES(mu_);

  /// PROVISION + COMMIT phase (lock NOT held): build the server(s), then
  /// publish the handle under the lock.  On a provisioning failure the
  /// reservation is rolled back, the queue re-drained, and the error
  /// rethrown.
  void provision_and_commit(PendingLaunch&& job);
  /// provision_and_commit for every launch, in order.
  void provision_all(std::vector<PendingLaunch>&& jobs);

  std::size_t platform_free(std::uint32_t p) const;
  /// Publish per-platform EPC headroom (budget - in-use) gauges to the
  /// global MetricsRegistry; called wherever the books change.
  void publish_epc_gauges() const;
  /// Push `tenant`'s EPC-resident bytes (the sum of its reservation rows)
  /// into the TenantLedger; called wherever a tenant's booking changes.
  void push_epc_ledger_locked(const std::string& tenant) const
      GV_REQUIRES(mu_);

  RegistryConfig cfg_;
  std::size_t platform_budget_bytes_ = 0;
  mutable Mutex mu_{gv::lockrank::kRegistry};
  std::vector<std::size_t> platform_in_use_;
  std::size_t standby_in_use_ = 0;
  std::map<std::string, std::shared_ptr<VaultServer>> servers_;
  std::map<std::string, std::shared_ptr<ShardedVaultServer>> sharded_;
  /// Tenants reserved and provisioning right now (outside the lock); their
  /// names are taken and their bytes are booked, but server()/has() do not
  /// see them until the commit.
  std::set<std::string> provisioning_;
  /// tenant -> per-(platform, bytes) reservations (one entry per shard).
  std::map<std::string, std::vector<std::pair<std::uint32_t, std::size_t>>>
      reservations_;
  std::deque<Waiting> waiting_;
};

}  // namespace gv
