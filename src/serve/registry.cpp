#include "serve/registry.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tenant_ledger.hpp"
#include "shard/shard_planner.hpp"

namespace gv {

VaultRegistry::VaultRegistry(RegistryConfig cfg) : cfg_(cfg) {
  GV_CHECK(cfg_.epc_budget_fraction > 0.0 && cfg_.epc_budget_fraction <= 1.0,
           "epc_budget_fraction must be in (0, 1]");
  GV_CHECK(cfg_.num_platforms >= 1, "fleet needs at least one platform");
  platform_budget_bytes_ = static_cast<std::size_t>(
      static_cast<double>(cfg_.cost_model.epc_bytes) * cfg_.epc_budget_fraction);
  platform_in_use_.assign(cfg_.num_platforms, 0);
  publish_epc_gauges();
}

Sha256Digest VaultRegistry::platform_key(std::uint32_t idx) {
  if (idx == 0) return Enclave::default_platform_key();
  Sha256 h;
  h.update(std::string("gnnvault-simulated-fleet-platform-fuse-key-v1:") +
           std::to_string(idx));
  return h.finish();
}

std::size_t VaultRegistry::estimate_enclave_bytes(const TrainedVault& vault,
                                                  const Dataset& ds) {
  GV_CHECK(vault.rectifier != nullptr, "estimate requires a trained rectifier");
  std::size_t bytes = vault.rectifier->parameter_bytes();
  // Private adjacency, in both its sealed-at-rest COO form and the CSR view
  // the rectifier multiplies against. Sized arithmetically (the normalized
  // COO holds both edge directions plus self-loops) — materializing the
  // conversion here would duplicate the O(E) work provisioning does anyway.
  const std::size_t n = ds.num_nodes();
  const std::size_t coo_nnz = ds.graph.num_directed_edges() + n;
  bytes += coo_nnz * 2 * sizeof(std::uint32_t) + n * sizeof(float);  // COO
  bytes += vault.real_adj
               ? vault.real_adj->payload_bytes()
               : (n + 1) * sizeof(std::int64_t) +
                     coo_nnz * (sizeof(std::uint32_t) + sizeof(float));  // CSR
  // Channel staging: the required embedding matrices cross in full (the
  // staged blocks drain into the rectifier inputs of the same size).
  const auto dims = vault.backbone().layer_dims();
  for (const auto idx : vault.rectifier->required_backbone_layers()) {
    GV_CHECK(idx < dims.size(), "required backbone layer out of range");
    bytes += n * dims[idx] * sizeof(float);
  }
  // Worst-case (all-nodes) rectifier activations.
  for (const auto act : vault.rectifier->activation_bytes(n)) bytes += act;
  return bytes;
}

std::size_t VaultRegistry::platform_free(std::uint32_t p) const {
  return platform_budget_bytes_ > platform_in_use_[p]
             ? platform_budget_bytes_ - platform_in_use_[p]
             : 0;
}

void VaultRegistry::publish_epc_gauges() const {
  auto& reg = MetricsRegistry::global();
  for (std::uint32_t p = 0; p < platform_in_use_.size(); ++p) {
    reg.gauge("epc.headroom_bytes",
              MetricLabels::of("platform", std::to_string(p)))
        .set(double(platform_free(p)));
  }
  reg.gauge("epc.standby_in_use_bytes").set(double(standby_in_use_));
}

void VaultRegistry::push_epc_ledger_locked(const std::string& tenant) const {
  // Holding mu_ (kRegistry) while the ledger takes kTelemetry is a legal
  // rank ascent; the ledger never calls back into the registry.
  const auto rit = reservations_.find(tenant);
  if (rit == reservations_.end()) {
    TenantLedger::global().clear_epc_bytes(tenant);
    return;
  }
  std::size_t sum = 0;
  for (const auto& [platform, bytes] : rit->second) sum += bytes;
  TenantLedger::global().set_epc_bytes(tenant, sum);
}

bool VaultRegistry::place_shards(const ShardPlan& plan,
                                 std::vector<std::size_t> free,
                                 std::vector<std::uint32_t>* placement) const {
  // Worst-fit-decreasing placement of shards onto platforms.
  std::vector<std::uint32_t> by_size(plan.num_shards);
  for (std::uint32_t s = 0; s < plan.num_shards; ++s) by_size[s] = s;
  std::stable_sort(by_size.begin(), by_size.end(), [&](std::uint32_t a,
                                                       std::uint32_t b) {
    return plan.shards[a].estimated_bytes > plan.shards[b].estimated_bytes;
  });
  for (const std::uint32_t s : by_size) {
    std::uint32_t best = cfg_.num_platforms;
    for (std::uint32_t p = 0; p < cfg_.num_platforms; ++p) {
      if (free[p] < plan.shards[s].estimated_bytes) continue;
      if (best == cfg_.num_platforms || free[p] > free[best]) best = p;
    }
    if (best == cfg_.num_platforms) return false;
    if (placement != nullptr) (*placement)[s] = best;
    free[best] -= plan.shards[s].estimated_bytes;
  }
  return true;
}

bool VaultRegistry::reserve_locked(const std::string& tenant,
                                   std::size_t estimated_bytes, bool sharded,
                                   const ShardPlan& plan,
                                   std::vector<std::uint32_t>* placement,
                                   std::vector<std::size_t>* shard_bytes) {
  if (!sharded) {
    // Fits one platform: place on the least-loaded platform with room.
    std::uint32_t best = cfg_.num_platforms;
    for (std::uint32_t p = 0; p < cfg_.num_platforms; ++p) {
      if (platform_free(p) < estimated_bytes) continue;
      if (best == cfg_.num_platforms ||
          platform_in_use_[p] < platform_in_use_[best]) {
        best = p;
      }
    }
    if (best == cfg_.num_platforms) return false;
    placement->assign(1, best);
    shard_bytes->assign(1, estimated_bytes);
  } else {
    std::vector<std::size_t> free(cfg_.num_platforms);
    for (std::uint32_t p = 0; p < cfg_.num_platforms; ++p) {
      free[p] = platform_free(p);
    }
    placement->assign(plan.num_shards, cfg_.num_platforms);
    if (!place_shards(plan, std::move(free), placement)) {
      return false;  // no room right now
    }
    shard_bytes->clear();
    shard_bytes->reserve(plan.num_shards);
    for (const auto& s : plan.shards) shard_bytes->push_back(s.estimated_bytes);
  }
  // Book the bytes and take the name NOW, under the lock; the enclaves are
  // provisioned after it is released.
  auto& reservation = reservations_[tenant];
  for (std::size_t s = 0; s < placement->size(); ++s) {
    reservation.push_back({(*placement)[s], (*shard_bytes)[s]});
    platform_in_use_[(*placement)[s]] += (*shard_bytes)[s];
  }
  provisioning_.insert(tenant);
  publish_epc_gauges();
  push_epc_ledger_locked(tenant);
  return true;
}

void VaultRegistry::release_reservation_locked(const std::string& tenant) {
  const auto rit = reservations_.find(tenant);
  if (rit != reservations_.end()) {
    for (const auto& [platform, bytes] : rit->second) {
      if (platform == kStandbyPlatform) {
        standby_in_use_ -= bytes;
      } else {
        platform_in_use_[platform] -= bytes;
      }
    }
    reservations_.erase(rit);
  }
  provisioning_.erase(tenant);
  publish_epc_gauges();
  push_epc_ledger_locked(tenant);  // clears: the reservation is gone
}

std::vector<VaultRegistry::PendingLaunch>
VaultRegistry::reserve_from_queue_locked() {
  // FIFO without skipping: a large tenant at the head is not starved by
  // smaller tenants jumping the queue behind it.
  std::vector<PendingLaunch> jobs;
  while (!waiting_.empty()) {
    Waiting& head = waiting_.front();
    PendingLaunch job;
    if (!reserve_locked(head.tenant, head.estimated_bytes, head.sharded,
                        head.plan, &job.placement, &job.shard_bytes)) {
      break;  // still no room: the head keeps its place
    }
    job.tenant = std::move(head.tenant);
    job.ds = std::move(head.ds);
    job.vault = std::move(head.vault);
    job.server_cfg = head.server_cfg;
    job.sharded = head.sharded;
    job.plan = std::move(head.plan);
    waiting_.pop_front();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void VaultRegistry::provision_and_commit(PendingLaunch&& job) {
  std::shared_ptr<VaultServer> server;
  std::shared_ptr<ShardedVaultServer> sharded;
  try {
    // The expensive part — enclave provisioning, sealing, the initial
    // sharded refresh — runs with NO registry lock held.
    if (job.sharded) {
      ShardedDeploymentOptions dopts;
      dopts.cost_model = cfg_.cost_model;
      dopts.enclave_name = "gnnvault.tenant." + job.tenant;
      dopts.platform_keys.reserve(job.plan.num_shards);
      for (std::uint32_t s = 0; s < job.plan.num_shards; ++s) {
        dopts.platform_keys.push_back(platform_key(job.placement[s]));
      }
      ShardedServerConfig scfg;
      scfg.server = job.server_cfg;
      scfg.replicate = cfg_.replicate_shards;
      sharded = std::make_shared<ShardedVaultServer>(
          job.ds, std::move(job.vault), std::move(job.plan), std::move(dopts),
          scfg);
    } else {
      DeploymentOptions dopts;
      dopts.cost_model = cfg_.cost_model;
      // Distinct enclave identity per tenant, even when tenants share a
      // dataset: the name seeds the measurement, so sealing keys never
      // collide.
      dopts.enclave_name = "gnnvault.tenant." + job.tenant;
      server = std::make_shared<VaultServer>(job.ds, std::move(job.vault),
                                             dopts, job.server_cfg);
    }
  } catch (...) {
    // ROLLBACK: release the reservation; the freed bytes may admit queued
    // tenants, so re-drain the queue before rethrowing.
    std::vector<PendingLaunch> next;
    {
      MutexLock lock(mu_);
      release_reservation_locked(job.tenant);
      next = reserve_from_queue_locked();
    }
    provision_all(std::move(next));
    throw;
  }
  // COMMIT: publish the live server.
  MutexLock lock(mu_);
  provisioning_.erase(job.tenant);
  if (job.sharded) {
    sharded_[job.tenant] = std::move(sharded);
  } else {
    servers_[job.tenant] = std::move(server);
  }
}

void VaultRegistry::provision_all(std::vector<PendingLaunch>&& jobs) {
  for (auto& job : jobs) provision_and_commit(std::move(job));
}

AdmissionResult VaultRegistry::admit(const std::string& tenant, const Dataset& ds,
                                     TrainedVault vault, ServerConfig server_cfg) {
  GV_CHECK(!tenant.empty(), "tenant name must not be empty");
  GV_CHECK(vault.rectifier != nullptr, "admission requires a trained rectifier");
  // EngineScope: the tenant's name becomes the server's engine label and
  // its TenantLedger attribution key.
  server_cfg.tenant = tenant;
  AdmissionResult result;
  result.estimated_bytes = estimate_enclave_bytes(vault, ds);

  // Plan an oversized tenant's shards OUTSIDE the lock: planning walks the
  // whole graph, and it depends only on the tenant's own inputs and the
  // (immutable) per-platform budget.
  const bool sharded = result.estimated_bytes > platform_budget_bytes_;
  ShardPlan plan;
  if (sharded) {
    bool planned = false;
    if (cfg_.shard_oversized) {
      try {
        plan = ShardPlanner::plan_for_budget(ds, vault, platform_budget_bytes_,
                                             cfg_.max_shards);
        planned = true;
      } catch (const Error&) {
        // no plan fits a platform budget even at max_shards
      }
    }
    // Feasibility against an EMPTY fleet decides queue vs reject: a tenant
    // whose shards cannot fit even with everyone else gone must be
    // rejected, not parked at the head of the queue forever.
    if (!planned ||
        !place_shards(plan,
                      std::vector<std::size_t>(cfg_.num_platforms,
                                               platform_budget_bytes_),
                      nullptr)) {
      result.decision = AdmissionDecision::kRejected;
      result.reason = "working set exceeds the platform EPC budget outright";
      return result;
    }
    result.estimated_bytes = plan.total_bytes();
    result.num_shards = plan.num_shards;
  }

  // RESERVE under the lock: name + bytes.
  PendingLaunch job;
  {
    MutexLock lock(mu_);
    const bool name_taken =
        servers_.count(tenant) > 0 || sharded_.count(tenant) > 0 ||
        provisioning_.count(tenant) > 0 ||
        std::any_of(waiting_.begin(), waiting_.end(),
                    [&](const Waiting& w) { return w.tenant == tenant; });
    if (name_taken) {
      result.decision = AdmissionDecision::kRejected;
      result.reason = "tenant name already registered";
      return result;
    }
    if (!reserve_locked(tenant, result.estimated_bytes, sharded, plan,
                        &job.placement, &job.shard_bytes)) {
      if (!cfg_.queue_when_full) {
        result.decision = AdmissionDecision::kRejected;
        result.reason = sharded ? "fleet lacks capacity for the tenant's shards"
                                : "EPC budget exhausted";
        return result;
      }
      waiting_.push_back(Waiting{tenant, ds, std::move(vault), server_cfg,
                                 result.estimated_bytes, sharded,
                                 std::move(plan)});
      result.decision = AdmissionDecision::kQueued;
      result.reason = "EPC budget exhausted; queued until capacity frees";
      return result;
    }
  }

  // PROVISION + COMMIT outside the lock.
  job.tenant = tenant;
  job.ds = ds;
  job.vault = std::move(vault);
  job.server_cfg = server_cfg;
  job.sharded = sharded;
  job.plan = std::move(plan);
  if (sharded) {
    result.decision = AdmissionDecision::kAdmittedSharded;
    result.reason = "exceeds one platform's EPC budget; admitted as " +
                    std::to_string(result.num_shards) + " shards";
  } else {
    result.decision = AdmissionDecision::kAdmitted;
    result.reason =
        "fits the EPC budget of platform " + std::to_string(job.placement[0]);
  }
  provision_and_commit(std::move(job));
  return result;
}

bool VaultRegistry::has(const std::string& tenant) const {
  MutexLock lock(mu_);
  return servers_.count(tenant) > 0 || sharded_.count(tenant) > 0;
}

bool VaultRegistry::is_sharded(const std::string& tenant) const {
  MutexLock lock(mu_);
  return sharded_.count(tenant) > 0;
}

std::shared_ptr<VaultServer> VaultRegistry::server(const std::string& tenant) {
  MutexLock lock(mu_);
  const auto it = servers_.find(tenant);
  GV_CHECK(it != servers_.end(), "unknown or not-yet-admitted tenant: " + tenant);
  return it->second;
}

std::shared_ptr<ShardedVaultServer> VaultRegistry::sharded_server(
    const std::string& tenant) {
  MutexLock lock(mu_);
  const auto it = sharded_.find(tenant);
  GV_CHECK(it != sharded_.end(),
           "unknown or not-sharded tenant: " + tenant);
  return it->second;
}

bool VaultRegistry::remove(const std::string& tenant) {
  // The victim's destructor drains in-flight batches; run it outside the
  // registry lock so one tenant's teardown cannot stall every other
  // tenant's server() lookups.
  std::shared_ptr<VaultServer> victim;
  std::shared_ptr<ShardedVaultServer> sharded_victim;
  std::vector<PendingLaunch> promoted;
  {
    MutexLock lock(mu_);
    const auto it = servers_.find(tenant);
    const auto sit = sharded_.find(tenant);
    if (it != servers_.end() || sit != sharded_.end()) {
      if (it != servers_.end()) {
        victim = std::move(it->second);
        servers_.erase(it);
      } else {
        sharded_victim = std::move(sit->second);
        sharded_.erase(sit);
      }
      for (const auto& [platform, bytes] : reservations_[tenant]) {
        if (platform == kStandbyPlatform) {
          standby_in_use_ -= bytes;
        } else {
          platform_in_use_[platform] -= bytes;
        }
      }
      reservations_.erase(tenant);
      publish_epc_gauges();
      push_epc_ledger_locked(tenant);  // clears: the tenant is gone
      promoted = reserve_from_queue_locked();
    } else {
      const auto wit =
          std::find_if(waiting_.begin(), waiting_.end(),
                       [&](const Waiting& w) { return w.tenant == tenant; });
      if (wit == waiting_.end()) return false;
      waiting_.erase(wit);
      return true;
    }
  }
  // Promoted waiters provision OUTSIDE the lock, like direct admission.
  provision_all(std::move(promoted));
  victim.reset();  // may outlive this call if other threads hold the handle
  sharded_victim.reset();
  return true;
}

void VaultRegistry::fail_shard(const std::string& tenant, std::uint32_t shard) {
  std::shared_ptr<ShardedVaultServer> server;
  {
    MutexLock lock(mu_);
    const auto it = sharded_.find(tenant);
    GV_CHECK(it != sharded_.end(), "unknown or not-sharded tenant: " + tenant);
    server = it->second;
    GV_CHECK(server->replicas() != nullptr,
             "fail_shard requires the tenant admitted with replicate_shards");
    const auto& reservation = reservations_[tenant];
    GV_CHECK(shard < reservation.size(), "shard index out of range");
    GV_CHECK(reservation[shard].first != kStandbyPlatform,
             "shard already failed over to the standby platform");
  }
  // Kill + fence + async promotion outside the registry lock: promotion
  // re-runs a full sharded refresh and must not stall other tenants'
  // server() lookups.  This can throw (e.g. the standby is not promotable);
  // accounting moves only after the kill actually fenced the shard, so a
  // failed kill leaves the registry's books untouched.
  server->kill_shard(shard);
  std::vector<PendingLaunch> promoted;
  {
    MutexLock lock(mu_);
    // The tenant may have been removed (and even re-admitted under the same
    // name), or another fail_shard may have won the race, while the kill
    // ran.  Commit the accounting only against the SAME server we killed —
    // a fresh namesake's healthy reservation must not be touched.
    const auto sit = sharded_.find(tenant);
    if (sit == sharded_.end() || sit->second != server) return;
    const auto rit = reservations_.find(tenant);
    if (rit == reservations_.end() || shard >= rit->second.size()) return;
    auto& [platform, bytes] = rit->second[shard];
    if (platform == kStandbyPlatform) return;
    platform_in_use_[platform] -= bytes;
    standby_in_use_ += bytes;
    platform = kStandbyPlatform;
    publish_epc_gauges();
    // The dead enclave's capacity is free NOW — the promotion runs on the
    // standby platform — so queued tenants need not wait for it to land.
    promoted = reserve_from_queue_locked();
  }
  provision_all(std::move(promoted));
}

std::size_t VaultRegistry::standby_in_use() const {
  MutexLock lock(mu_);
  return standby_in_use_;
}

std::vector<std::string> VaultRegistry::tenants() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(servers_.size() + sharded_.size());
  for (const auto& [name, server] : servers_) names.push_back(name);
  for (const auto& [name, server] : sharded_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> VaultRegistry::queued() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(waiting_.size());
  for (const auto& w : waiting_) names.push_back(w.tenant);
  return names;
}

std::size_t VaultRegistry::epc_in_use() const {
  MutexLock lock(mu_);
  std::size_t sum = 0;
  for (const auto b : platform_in_use_) sum += b;
  return sum;
}

std::size_t VaultRegistry::epc_budget() const {
  return platform_budget_bytes_ * cfg_.num_platforms;
}

std::vector<std::size_t> VaultRegistry::platform_in_use() const {
  MutexLock lock(mu_);
  return platform_in_use_;
}

}  // namespace gv
