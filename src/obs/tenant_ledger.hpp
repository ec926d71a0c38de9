// EngineScope TenantLedger: per-tenant resource attribution for the
// multi-tenant vault fleet.
//
// VaultRegistry admits tenants and meters their EPC budget, but the COST a
// tenant imposes — modeled enclave seconds, ecalls, batches, cache work,
// cold-walk rows, attested-channel bytes (padding included) — was only
// visible fleet-wide.  The ledger closes that gap: every serving back end
// registers a usage provider keyed by its owner pointer (the FlightRecorder
// topology-provider idiom), the registry pushes each tenant's EPC-resident
// bytes as its books change, and snapshot() folds the lot into per-tenant
// rows plus an exact fleet total.
//
// Conservation invariant (tested): for every metered dimension,
//   sum over tenants == fleet total == sum over live back ends,
// because rows are produced by the same providers in one pass — the ledger
// never samples two diverging sources.
//
// Lock discipline: the ledger mutex ranks kTelemetry and is RELEASED around
// every provider call (providers read server state at kServerState and
// below, which ranks UNDER kTelemetry).  unregister() blocks until no call
// against that entry is in flight, so a provider's captured server can be
// destroyed right after it returns.  cached_json() touches only the ledger
// mutex — safe from FlightRecorder::trip() under control-plane locks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"

namespace gv {

class MetricsRegistry;

/// One tenant's metered usage.  Providers return the owning back end's
/// lifetime totals; the ledger sums rows that share a tenant name.
struct TenantUsage {
  double modeled_seconds = 0.0;   ///< modeled enclave compute attributed
  std::uint64_t ecalls = 0;       ///< enclave transitions
  std::uint64_t batches = 0;      ///< micro-batches flushed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cold_queries = 0;
  std::uint64_t cold_frontier_rows = 0;  ///< cold-walk row work
  std::uint64_t channel_bytes = 0;        ///< attested-channel payload bytes
  std::uint64_t channel_padded_bytes = 0; ///< padding overhead included above
  std::uint64_t epc_resident_bytes = 0;   ///< pushed by VaultRegistry books

  TenantUsage& operator+=(const TenantUsage& o);
};

class TenantLedger {
 public:
  using Provider = std::function<TenantUsage()>;

  /// Process-wide ledger (parallel to MetricsRegistry::global()).
  static TenantLedger& global();

  TenantLedger() = default;
  TenantLedger(const TenantLedger&) = delete;
  TenantLedger& operator=(const TenantLedger&) = delete;

  /// Register `owner`'s usage provider for `tenant`.  One provider per
  /// owner; re-registering replaces.  Multiple owners may share a tenant
  /// name (their rows sum).
  void register_provider(const void* owner, std::string tenant, Provider fn);
  /// Remove `owner`'s provider, BLOCKING until any in-flight call against
  /// it has returned.  Call first in the owning back end's destructor.
  void unregister(const void* owner);

  /// Push a tenant's EPC-resident bytes (VaultRegistry books).  A tenant
  /// seen only through this push still gets a ledger row.
  void set_epc_bytes(const std::string& tenant, std::uint64_t bytes);
  /// Drop a pushed EPC row (tenant evicted).
  void clear_epc_bytes(const std::string& tenant);

  /// Live per-tenant rows, sorted by tenant name: calls every provider
  /// (outside the ledger lock), merges pushed EPC bytes, refreshes the
  /// cached JSON.  Must not be called while holding locks at or above
  /// kServerState.
  std::vector<std::pair<std::string, TenantUsage>> snapshot();

  /// Exact column-wise sum of snapshot() rows (same pass, same providers —
  /// the conservation test's fleet side).
  TenantUsage fleet_totals();

  /// {"schema":"gnnvault.tenant_ledger.v1","tenants":[...],"fleet":{...}}
  /// from a fresh snapshot().
  std::string to_json();
  /// Last to_json()/snapshot() result without touching any provider — leaf
  /// locks only, safe inside FlightRecorder::trip().  Empty-tenants JSON
  /// when nothing was ever snapshotted.
  std::string cached_json() const;

  /// snapshot() + export per-tenant gauges (tenant.*{tenant=X}) and fleet
  /// totals (fleet.*) into `reg`.
  void publish(MetricsRegistry& reg);

  /// Number of registered providers (tests).
  std::size_t num_providers() const;

 private:
  struct Entry {
    const void* owner = nullptr;
    std::string tenant;
    Provider fn;
    /// Number of snapshot() calls currently mid-provider against this
    /// entry (concurrent snapshots may pin the same entry); unregister()
    /// and re-registration wait for it to drain to zero.
    int pins = 0;
  };

  std::string render_json_locked(
      const std::vector<std::pair<std::string, TenantUsage>>& rows,
      const TenantUsage& fleet) GV_REQUIRES(mu_);

  mutable Mutex mu_{gv::lockrank::kTelemetry};
  CondVar call_done_cv_;
  std::vector<std::unique_ptr<Entry>> entries_ GV_GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> epc_bytes_ GV_GUARDED_BY(mu_);
  std::string cached_ GV_GUARDED_BY(mu_);
};

}  // namespace gv
