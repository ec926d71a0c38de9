#include "shard/sharded_deployment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_helpers.hpp"
#include "tensor/ops.hpp"

namespace gv {

namespace {

constexpr const char* kCodeTagPrefix = "shardvault-rectifier-v1:";

}  // namespace

ShardedVaultDeployment::ShardedVaultDeployment(const Dataset& ds, TrainedVault vault,
                                               ShardPlan plan,
                                               ShardedDeploymentOptions opts)
    : vault_(std::move(vault)), plan_(std::move(plan)), opts_(std::move(opts)) {
  GV_CHECK(vault_.rectifier != nullptr, "deployment requires a trained rectifier");
  GV_CHECK(plan_.num_shards >= 1 && plan_.shards.size() == plan_.num_shards,
           "malformed shard plan");
  GV_CHECK(plan_.owner.size() == ds.num_nodes(), "plan covers a different graph");
  if (opts_.enclave_name.empty()) opts_.enclave_name = "shardvault." + ds.name;
  if (opts_.platform_keys.empty()) {
    opts_.platform_keys.assign(plan_.num_shards, Enclave::default_platform_key());
  }
  GV_CHECK(opts_.platform_keys.size() == plan_.num_shards,
           "need one platform key per shard");
  required_layers_ = vault_.rectifier->required_backbone_layers();
  degrees_ = ds.graph.degrees();
  owner_map_ = std::make_shared<const std::vector<std::uint32_t>>(plan_.owner);

  auto payloads = ShardPlanner::build_payloads(ds, vault_, plan_);
  shards_.reserve(plan_.num_shards);
  for (std::uint32_t s = 0; s < plan_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    provision_shard(*shards_[s], std::move(payloads[s]));
  }

  // Attested channels for shard pairs with halo overlap (in either
  // direction); the handshake runs now, at provisioning time.
  channels_.resize(static_cast<std::size_t>(plan_.num_shards) * plan_.num_shards);
  for (std::uint32_t s = 0; s < plan_.num_shards; ++s) {
    for (std::uint32_t t = s + 1; t < plan_.num_shards; ++t) {
      const bool overlap = !shards_[s]->payload.halo_out[t].empty() ||
                           !shards_[t]->payload.halo_out[s].empty();
      if (!overlap) continue;
      channels_[static_cast<std::size_t>(s) * plan_.num_shards + t] =
          std::make_unique<AttestedChannel>(*shards_[s]->enclave,
                                            *shards_[t]->enclave,
                                            opts_.platform_keys[s],
                                            opts_.platform_keys[t]);
    }
  }
}

void ShardedVaultDeployment::provision_shard(Shard& shard, ShardPayload payload) {
  // IDENTICAL measurement across shards (and replicas): name + code tag +
  // replicated weights.  The per-shard package is NOT measured — it is what
  // gets sealed — so every enclave of this tenant attests as the same code
  // image, which is what the channel handshake requires.
  shard.enclave = std::make_unique<Enclave>(
      opts_.enclave_name, opts_.cost_model, opts_.platform_keys[payload.shard_index]);
  shard.enclave->extend_measurement(
      kCodeTagPrefix + rectifier_kind_name(vault_.rectifier->config().kind));
  shard.enclave->extend_measurement(payload.rectifier_weights);
  shard.enclave->initialize();
  shard.stream = std::make_unique<OneWayChannel>(*shard.enclave);

  const auto bytes = serialize_shard_payload(payload);
  if (opts_.seal_artifacts) {
    shard.sealed = shard.enclave->seal(bytes);
    // Round-trip through sealed storage, as every enclave launch would.
    shard.payload = deserialize_shard_payload(shard.enclave->unseal(shard.sealed));
  } else {
    shard.payload = std::move(payload);
  }

  install_payload(shard);
}

void ShardedVaultDeployment::install_payload(Shard& shard) {
  shard.enclave->ecall([&] {
    const ShardPayload& p = shard.payload;
    GV_CHECK(p.closure_deg.size() == p.closure.size(),
             "shard payload missing closure degrees");
    rebuild_views_locked(shard);

    // GraphDrift mutable topology: per-row (global col, value) lists — the
    // payload triplets are row-major with ascending closure-local columns,
    // and the closure-local -> global remap is monotone, so each rebuilt
    // row is already in ascending GLOBAL column order.
    shard.adj_rows.assign(p.owned.size(), {});
    for (std::size_t i = 0; i < p.adj_row.size(); ++i) {
      shard.adj_rows[p.adj_row[i]].push_back(
          {p.closure[p.adj_col[i]], p.adj_val[i]});
    }
    shard.closure_dinv.clear();
    shard.closure_dinv.reserve(p.closure.size());
    for (const auto d : p.closure_deg) shard.closure_dinv.push_back(deg_inv_sqrt(d));
    shard.closure_refs.assign(p.closure.size(), 0);
    for (const auto& row : shard.adj_rows) {
      for (const auto& [c, v] : row) {
        (void)v;
        ++shard.closure_refs[position_of(p.closure, c, "adj col outside closure")];
      }
    }
    shard.row_digest.clear();
    shard.row_digest.reserve(shard.adj_rows.size());
    for (const auto& row : shard.adj_rows) shard.row_digest.push_back(row_fnv(row));
    shard.label_stale.assign(p.owned.size(), 0);
    Rng rng(0x5eed + p.shard_index);
    shard.rectifier = std::make_unique<Rectifier>(
        vault_.rectifier->config(), vault_.backbone().layer_dims(), shard.sub_adj,
        rng);
    shard.rectifier->deserialize_weights(p.rectifier_weights);
    shard.enclave->memory().set("rectifier.weights",
                                shard.rectifier->parameter_bytes());
  });
  shard.stale_count.store(0);
}

void ShardedVaultDeployment::rebuild_topology_locked(Shard& sh) {
  // Caller is inside an ecall on sh.enclave: regenerate the payload
  // triplets from the (mutated) adj_rows, then every view derived from them.
  ShardPayload& p = sh.payload;
  GV_CHECK(sh.adj_rows.size() == p.owned.size(),
           "adjacency rows out of sync with the owned set");
  p.adj_row.clear();
  p.adj_col.clear();
  p.adj_val.clear();
  for (std::uint32_t i = 0; i < sh.adj_rows.size(); ++i) {
    for (const auto& [c, v] : sh.adj_rows[i]) {
      p.adj_row.push_back(i);
      p.adj_col.push_back(position_of(p.closure, c, "adjacency column outside closure"));
      p.adj_val.push_back(v);
    }
  }
  rebuild_views_locked(sh);
  // Mutations persist: the sealed at-rest blob must match what a relaunch
  // would need, so the payload is re-sealed under the shard's platform key.
  if (opts_.seal_artifacts) {
    sh.sealed = sh.enclave->seal(serialize_shard_payload(p));
  }
}

void ShardedVaultDeployment::rebuild_views_locked(Shard& sh) {
  const ShardPayload& p = sh.payload;
  std::vector<CooEntry> entries;
  entries.reserve(p.adj_row.size());
  for (std::size_t i = 0; i < p.adj_row.size(); ++i) {
    entries.push_back({p.adj_row[i], p.adj_col[i], p.adj_val[i]});
  }
  sh.sub_adj = std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(
      p.owned.size(), p.closure.size(), std::move(entries)));
  if (sh.rectifier != nullptr) sh.rectifier->set_adjacency(sh.sub_adj);

  // Boundary rows (owned-local, sorted): the union of every peer's halo
  // list — the only rows whose activations a cross-shard pull can ever ask
  // this shard for.  The halo lists may have moved, so the retained
  // matrices (rows ~ old boundary_rows) are void.
  sh.boundary_rows.clear();
  for (const auto& out_nodes : p.halo_out) {
    for (const auto v : out_nodes) {
      sh.boundary_rows.push_back(position_of(p.owned, v, "halo node not owned"));
    }
  }
  std::sort(sh.boundary_rows.begin(), sh.boundary_rows.end());
  sh.boundary_rows.erase(
      std::unique(sh.boundary_rows.begin(), sh.boundary_rows.end()),
      sh.boundary_rows.end());
  const std::size_t L = vault_.rectifier->config().channels.size();
  sh.retained.assign(L >= 1 ? L - 1 : 0, Matrix());
  sh.retained_valid.store(false);

  auto& mem = sh.enclave->memory();
  mem.set("shard.adj.coo", p.adj_row.size() * (2 * sizeof(std::uint32_t) +
                                               sizeof(float)));
  mem.set("shard.adj.csr", sh.sub_adj->payload_bytes());
  mem.set("shard.routing", p.owned.size() * sizeof(std::uint32_t) +
                               p.closure.size() * sizeof(std::uint32_t));
  mem.set("halo.retained", 0);
}

void ShardedVaultDeployment::adopt_shard(std::uint32_t shard,
                                         std::unique_ptr<Enclave>& enclave,
                                         ShardPayload& payload, SealedBlob& sealed,
                                         const Sha256Digest& platform_key) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  GV_CHECK(enclave != nullptr && enclave->initialized(),
           "adoption requires a live, initialized enclave");
  GV_CHECK(payload.shard_index == shard, "payload belongs to a different shard");
  MutexLock lock(infer_mu_);  // exclude a concurrent refresh
  Shard& sh = *shards_[shard];
  GV_CHECK(!sh.alive.load(), "only a dead shard can adopt a promoted replica");
  // A package replicated before a graph update or migration describes a
  // topology that no longer exists; adopting it would resurrect retired
  // edges/ownership.  ReplicaManager's topology stamp refuses earlier, but
  // the owned-set check keeps the invariant for direct callers too.
  GV_CHECK(payload.owned == plan_.shards[shard].nodes,
           "promoted package predates the live topology (re-replicate after "
           "graph drift or migration)");
  GV_CHECK(enclave->measurement() == sh.enclave->measurement(),
           "promoted enclave runs different code than the shard it replaces");
  // Every precondition — including neighbor liveness — is checked before
  // anything is mutated or moved from, so a rejected adoption leaves both
  // the deployment and the caller's standby slot untouched.
  for (std::uint32_t t = 0; t < plan_.num_shards; ++t) {
    if (t == shard || channel(shard, t) == nullptr) continue;
    GV_CHECK(shards_[t]->alive.load(),
             "halo neighbor died before the promotion handshake");
  }
  // Rejoin handshake with every surviving halo neighbor BEFORE the dead
  // enclave is torn down: the channel objects stay in place (send/recv sides
  // address them by shard pair), only the dead endpoint and the session key
  // are replaced; blocks queued under the retired key are dropped.
  for (std::uint32_t t = 0; t < plan_.num_shards; ++t) {
    if (t == shard) continue;
    AttestedChannel* ch = channel(shard, t);
    if (ch == nullptr) continue;
    ch->rebind(*sh.enclave, *enclave, platform_key);
  }
  // Drain stragglers: a lookup that raced the kill holds access_mu shared
  // for its whole body, so taking it exclusive here guarantees nobody is
  // still reading the enclave pointer or the stores being swapped below —
  // a hard handoff, not a timing assumption.  The dead enclave object is
  // still retired (never destroyed) out of an abundance of caution.
  MutexLock access(sh.access_mu);
  retired_enclaves_.push_back(std::move(sh.enclave));
  sh.enclave = std::move(enclave);
  sh.stream = std::make_unique<OneWayChannel>(*sh.enclave);
  sh.payload = std::move(payload);
  sh.sealed = std::move(sealed);  // the blob re-sealed under the standby key
  sh.labels.clear();              // empty until re-materialized
  sh.store_ready.store(false);
  sh.retained_valid.store(false);  // the fresh enclave has no activations
  sh.rectifier.reset();
  sh.sub_adj.reset();
  opts_.platform_keys[shard] = platform_key;
  install_payload(sh);
  sh.alive.store(true);
  // Adoption swaps an enclave and rebuilds its ledger — push the new EPC
  // picture immediately rather than waiting for the next stats() pull.
  publish_epc_gauges();
}

AttestedChannel* ShardedVaultDeployment::channel(std::uint32_t s, std::uint32_t t) {
  GV_CHECK(s != t && s < plan_.num_shards && t < plan_.num_shards,
           "bad shard pair");
  if (s > t) std::swap(s, t);
  return channels_[static_cast<std::size_t>(s) * plan_.num_shards + t].get();
}

AttestedChannel& ShardedVaultDeployment::ensure_channel(std::uint32_t s,
                                                        std::uint32_t t,
                                                        std::size_t* created) {
  AttestedChannel* ch = channel(s, t);
  if (ch != nullptr) return *ch;
  // Drift minted a brand-new halo pair: run the mutual-attestation
  // handshake now, exactly as provisioning would have.
  if (s > t) std::swap(s, t);
  auto fresh = std::make_unique<AttestedChannel>(
      *shards_[s]->enclave, *shards_[t]->enclave, opts_.platform_keys[s],
      opts_.platform_keys[t]);
  auto& slot = channels_[static_cast<std::size_t>(s) * plan_.num_shards + t];
  slot = std::move(fresh);
  if (created != nullptr) ++*created;
  return *slot;
}

void ShardedVaultDeployment::mark_cold_fault(std::uint32_t shard) {
  shards_[shard]->alive.store(false);
  shard_faults_.fetch_add(1);
  pending_fault_.store(shard);
}

template <typename F>
auto ShardedVaultDeployment::cold_ecall(std::uint32_t shard, F&& body)
    -> decltype(body()) {
  try {
    return shards_[shard]->enclave->ecall(std::forward<F>(body));
  } catch (const EnclaveFailure&) {
    mark_cold_fault(shard);
    throw;
  }
}

void ShardedVaultDeployment::notify_pending_fault() {
  const std::uint32_t shard = pending_fault_.exchange(0xffffffffu);
  if (shard == 0xffffffffu) return;
  std::function<void(std::uint32_t)> handler;
  {
    MutexLock lock(handler_mu_);
    handler = failure_handler_;
  }
  if (handler) handler(shard);
}

void ShardedVaultDeployment::on_enclave_failure(std::uint32_t shard) {
  // Dead-shard detection: the enclave died under a serving ecall.  Mark it
  // dead exactly as kill_shard would and hand the shard index to the
  // registered handler (the server's fence + promote path).  MUST be
  // called with no shard locks held: the handler may join a promotion
  // whose adopt_shard needs this shard's access_mu exclusively.
  shards_[shard]->alive.store(false);
  shard_faults_.fetch_add(1);
  std::function<void(std::uint32_t)> handler;
  {
    MutexLock lock(handler_mu_);
    handler = failure_handler_;
  }
  if (handler) handler(shard);
}

void ShardedVaultDeployment::set_shard_failure_handler(
    std::function<void(std::uint32_t)> handler) {
  MutexLock lock(handler_mu_);
  failure_handler_ = std::move(handler);
}

std::size_t ShardedVaultDeployment::num_nodes() const {
  MutexLock lock(owner_mu_);
  return owner_map_->size();
}

std::shared_ptr<const std::vector<std::uint32_t>>
ShardedVaultDeployment::owner_snapshot() const {
  MutexLock lock(owner_mu_);
  return owner_map_;
}

void ShardedVaultDeployment::publish_owner_map() {
  auto fresh = std::make_shared<const std::vector<std::uint32_t>>(plan_.owner);
  {
    MutexLock lock(owner_mu_);
    owner_map_ = std::move(fresh);
  }
  ownership_epoch_.fetch_add(1);
}

bool ShardedVaultDeployment::await_moves(
    std::span<const std::uint32_t> nodes,
    std::chrono::milliseconds timeout) const {
  if (moving_count_.load() == 0) return true;  // fast path: nothing in flight
  MutexLock lock(move_mu_);
  return move_cv_.wait_for(move_mu_, timeout, [&] {
    if (update_fence_) return false;
    for (const auto v : nodes) {
      if (std::binary_search(moving_.begin(), moving_.end(), v)) return false;
    }
    return true;
  });
}

std::size_t ShardedVaultDeployment::stale_store_entries(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return shards_[shard]->stale_count.load();
}

std::vector<char> ShardedVaultDeployment::stale_mask(
    std::uint32_t shard, std::span<const std::uint32_t> nodes) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  Shard& sh = *shards_[shard];
  try {
    ReaderLock access(sh.access_mu);
    GV_CHECK(sh.alive, "shard enclave is down");
    return sh.enclave->ecall([&] {
      std::vector<char> mask(nodes.size(), 0);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::uint32_t r =
            position_of(sh.payload.owned, nodes[i], "node not owned by shard");
        mask[i] = sh.label_stale[r];
      }
      return mask;
    });
  } catch (const EnclaveFailure&) {
    on_enclave_failure(shard);
    throw;
  }
}

bool ShardedVaultDeployment::retained_valid(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return shards_[shard]->retained_valid.load();
}

double ShardedVaultDeployment::meter_seconds(const Shard& s) const {
  return s.enclave->meter_snapshot().total_seconds(opts_.cost_model);
}

template <typename F>
void ShardedVaultDeployment::parallel_phase(const char* phase, std::int64_t layer,
                                            F&& body) {
  // Shards are independent enclaves (typically on independent platforms);
  // between the layer barriers they run concurrently, so the modeled time
  // of a phase is the SLOWEST shard's meter delta, not the sum.
  TraceSpan span("fleet", phase);
  if (layer >= 0) span.arg("layer", double(layer));
  std::vector<double> before(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) before[s] = meter_seconds(*shards_[s]);
  for (std::uint32_t s = 0; s < shards_.size(); ++s) body(s);
  double slowest = 0.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    slowest = std::max(slowest, meter_seconds(*shards_[s]) - before[s]);
  }
  span.modeled_seconds(slowest);
  parallel_seconds_.fetch_add(slowest);
}

template <typename F>
void ShardedVaultDeployment::parallel_phase(const char* phase, F&& body) {
  parallel_phase(phase, -1, std::forward<F>(body));
}

template <typename Scatter>
void ShardedVaultDeployment::stream_full_matrix(Shard& sh, const Matrix& full,
                                                Scatter&& scatter) {
  const std::size_t n = full.rows();
  const std::size_t dim = full.cols();
  // The untrusted side pushes the FULL matrix in fixed-size chunks — the
  // same stream regardless of which rows are wanted, so the access pattern
  // carries no information about shard neighbourhoods or query frontiers;
  // the enclave-side `scatter` keeps only the rows it needs.
  for (std::size_t r0 = 0; r0 < n; r0 += ShardPlanner::kStreamChunkRows) {
    const std::size_t rows = std::min(ShardPlanner::kStreamChunkRows, n - r0);
    Matrix chunk(rows, dim);
    std::memcpy(chunk.data(), full.data() + r0 * dim, rows * dim * sizeof(float));
    sh.stream->sender().push(chunk);
    sh.enclave->ecall([&] {
      const Matrix block = sh.stream->receiver().pop();
      scatter(block, r0);
    });
  }
}

void ShardedVaultDeployment::refresh(const CsrMatrix& features) {
  MutexLock lock(infer_mu_);
  for (const auto& sh : shards_) {
    GV_CHECK(sh->alive, "refresh requires every shard enclave alive");
  }
  const std::size_t n = plan_.owner.size();
  GV_CHECK(features.rows() == n, "features cover a different node count");

  // Live compute everywhere: whatever happens below, the previously
  // retained boundary activations no longer match the stores a completed
  // refresh would leave behind, so no halo pull may be served from them.
  for (const auto& sh : shards_) sh->retained_valid.store(false);

  const std::uint64_t fingerprint = features_fingerprint(features);
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  ColdSubsetStats stats;
  frontier_forward("refresh", features, fingerprint, all, &stats,
                   RetainSet{std::vector<char>(plan_.num_shards, 1), true});
  store_fingerprint_ = fingerprint;
  have_store_fingerprint_ = true;
  refreshed_ = true;
  epoch_.fetch_add(1);
}

std::vector<std::uint32_t> ShardedVaultDeployment::infer_labels(
    const CsrMatrix& features) {
  refresh(features);
  std::vector<std::uint32_t> out(plan_.owner.size());
  double slowest = 0.0;
  for (std::uint32_t s = 0; s < plan_.num_shards; ++s) {
    double delta = 0.0;
    const auto labels = lookup(s, shards_[s]->payload.owned, &delta);
    slowest = std::max(slowest, delta);
    const auto& owned = shards_[s]->payload.owned;
    for (std::size_t i = 0; i < owned.size(); ++i) out[owned[i]] = labels[i];
  }
  parallel_seconds_.fetch_add(slowest);
  return out;
}

std::vector<std::uint32_t> ShardedVaultDeployment::lookup(
    std::uint32_t shard, std::span<const std::uint32_t> nodes,
    double* modeled_delta) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  Shard& sh = *shards_[shard];
  try {
  // Shared with other lookups, exclusive against adopt_shard's swap of the
  // enclave + stores this function reads.
  ReaderLock access(sh.access_mu);
  GV_CHECK(sh.alive, "shard enclave is down");
  GV_CHECK(refreshed_, "lookup before the first refresh");
  const double before = meter_seconds(sh);
  auto labels = sh.enclave->ecall([&] {
    // An adopted (promoted) shard has no label store until the next refresh
    // re-materializes it; the router's promotion fence keeps queries away,
    // and this check keeps the invariant even for direct callers.
    GV_CHECK(!sh.labels.empty() || sh.payload.owned.empty(),
             "shard label store not materialized (promotion in progress?)");
    std::vector<std::uint32_t> out;
    out.reserve(nodes.size());
    for (const auto v : nodes) {
      const std::uint32_t r =
          position_of(sh.payload.owned, v, "node not owned by shard");
      // A graph update invalidated this entry; serving it would resurrect a
      // pre-mutation label.  The router splits such nodes onto the cold
      // path (stale_mask); a direct caller must do the same or refresh.
      GV_CHECK(!sh.label_stale[r],
               "label store entry invalidated by a graph update (serve "
               "through the cold path or refresh)");
      out.push_back(sh.labels[r]);
    }
    return out;
  });
  if (modeled_delta != nullptr) *modeled_delta = meter_seconds(sh) - before;
  return labels;
  } catch (const EnclaveFailure&) {
    // The access_mu shared lock is released before the failure handler
    // runs (it may join a promotion that needs the lock exclusively).
    on_enclave_failure(shard);
    throw;
  }
}

std::uint64_t ShardedVaultDeployment::features_fingerprint(
    const CsrMatrix& features) {
  // Word-folded FNV-style content hash: cheap enough to run per cold query
  // (a SHA-256 over the matrix would rival the forward it is meant to
  // spare), collision-safe enough for its job — keying caches over public,
  // non-adversarial inputs.
  auto fold = [](std::uint64_t h, const void* p, std::size_t nbytes) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    std::size_t i = 0;
    for (; i + 8 <= nbytes; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h = (h ^ w) * 0x100000001b3ull;
      h ^= h >> 29;
    }
    if (i < nbytes) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes + i, nbytes - i);
      h = (h ^ w) * 0x100000001b3ull;
      h ^= h >> 29;
    }
    return h;
  };
  const auto& rp = features.row_ptr();
  const auto& ci = features.col_idx();
  const auto& va = features.values();
  std::uint64_t h = 0xcbf29ce484222325ull ^ (features.rows() * 0x9e3779b97f4a7c15ull);
  h = fold(h, rp.data(), rp.size() * sizeof(rp[0]));
  h = fold(h, ci.data(), ci.size() * sizeof(ci[0]));
  h = fold(h, va.data(), va.size() * sizeof(va[0]));
  return h;
}

const std::vector<Matrix>& ShardedVaultDeployment::backbone_for(
    const CsrMatrix& features, std::uint64_t fingerprint, bool* cache_hit) {
  // The backbone runs (and its outputs live) entirely in the untrusted
  // world — they are public embeddings, so caching them across refreshes
  // and cold queries of one snapshot leaks nothing and spares the repeat
  // forward that would otherwise dominate a shard-local re-materialization.
  if (have_bb_cache_ && fingerprint == bb_fingerprint_) {
    if (cache_hit != nullptr) *cache_hit = true;
    return bb_cache_;
  }
  Stopwatch bb_watch;
  bb_cache_ = vault_.backbone_outputs(features);
  untrusted_seconds_.fetch_add(bb_watch.seconds());
  bb_fingerprint_ = fingerprint;
  have_bb_cache_ = true;
  if (cache_hit != nullptr) *cache_hit = false;
  return bb_cache_;
}

bool ShardedVaultDeployment::store_materialized(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  const Shard& sh = *shards_[shard];
  return sh.alive.load() && sh.store_ready.load();
}

void ShardedVaultDeployment::install_labels(std::uint32_t shard,
                                            std::vector<std::uint32_t> labels) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  MutexLock lock(infer_mu_);
  Shard& sh = *shards_[shard];
  GV_CHECK(sh.alive.load(), "cannot install labels into a dead shard");
  sh.enclave->ecall([&] {
    GV_CHECK(labels.size() == sh.payload.owned.size(),
             "label store does not cover the shard's nodes");
    sh.labels = std::move(labels);
    sh.enclave->memory().set("labels.store",
                             sh.labels.size() * sizeof(std::uint32_t));
  });
  sh.store_ready.store(true);
}

void ShardedVaultDeployment::drop_backbone_cache() {
  MutexLock lock(infer_mu_);
  bb_cache_.clear();
  have_bb_cache_ = false;
}

std::vector<std::uint32_t> ShardedVaultDeployment::infer_labels_subset_cold(
    const CsrMatrix& features, std::span<const std::uint32_t> nodes,
    ColdSubsetStats* stats) {
  return infer_labels_subset_cold(features, features_fingerprint(features),
                                  nodes, stats);
}

std::vector<std::uint32_t> ShardedVaultDeployment::infer_labels_subset_cold(
    const CsrMatrix& features, std::uint64_t fingerprint,
    std::span<const std::uint32_t> nodes, ColdSubsetStats* stats) {
  // An enclave that died under an engine ecall — this query's, or an
  // earlier refresh's — was only RECORDED inside the lock; hand it to the
  // failure handler once infer_mu_ is free (the handler may join a
  // promotion whose adopt_shard needs it).
  std::vector<std::uint32_t> labels;
  try {
    MutexLock lock(infer_mu_);
    ColdSubsetStats local;
    labels = frontier_forward("cold_forward", features, fingerprint, nodes,
                              stats != nullptr ? stats : &local, RetainSet{});
  } catch (...) {
    notify_pending_fault();
    throw;
  }
  notify_pending_fault();
  return labels;
}

void ShardedVaultDeployment::rematerialize_shard(std::uint32_t shard,
                                                 const CsrMatrix& features) {
  retain_shard(shard, features, /*labels=*/true);
}

void ShardedVaultDeployment::rebuild_boundary_retained(std::uint32_t shard,
                                                       const CsrMatrix& features) {
  retain_shard(shard, features, /*labels=*/false);
}

void ShardedVaultDeployment::retain_shard(std::uint32_t shard,
                                          const CsrMatrix& features, bool labels) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  MutexLock lock(infer_mu_);
  Shard& sh = *shards_[shard];
  GV_CHECK(sh.alive.load(), "cannot re-materialize a dead shard");
  GV_CHECK(refreshed_.load(),
           "incremental re-materialization requires a completed refresh");
  const std::uint64_t fingerprint = features_fingerprint(features);
  GV_CHECK(have_store_fingerprint_ && fingerprint == store_fingerprint_,
           "incremental re-materialization requires the current refresh "
           "snapshot (a feature change must go through refresh())");
  // The label store needs the whole owned set; boundary activations only
  // the boundary rows (as global ids, read under the enclave's entry mutex).
  std::vector<std::uint32_t> rows;
  if (labels) {
    rows = plan_.shards[shard].nodes;
  } else {
    sh.enclave->ecall([&] {
      rows.reserve(sh.boundary_rows.size());
      for (const auto r : sh.boundary_rows) rows.push_back(sh.payload.owned[r]);
    });
  }
  if (rows.empty()) {  // nothing any peer could pull, no label to store
    sh.retained_valid.store(true);
    if (labels) sh.store_ready.store(true);
    return;
  }
  ColdSubsetStats stats;
  RetainSet retain{std::vector<char>(plan_.num_shards, 0), labels};
  retain.shards[shard] = 1;
  frontier_forward("cold_forward", features, fingerprint, rows, &stats, retain);
}

std::vector<std::uint32_t> ShardedVaultDeployment::frontier_forward(
    const char* span, const CsrMatrix& features, std::uint64_t fingerprint,
    std::span<const std::uint32_t> nodes, ColdSubsetStats* stats,
    const RetainSet& retain) {
  const std::size_t n = plan_.owner.size();
  GV_CHECK(features.rows() == n, "features cover a different node count");
  if (nodes.empty()) return {};
  for (const auto v : nodes) GV_CHECK(v < n, "query node out of range");

  TraceSpan forward_span("fleet", span);
  forward_span.arg("nodes", double(nodes.size()));

  const auto& cfg = vault_.rectifier->config();
  const std::size_t L = cfg.channels.size();
  const auto dims = vault_.backbone().layer_dims();
  const std::uint32_t K = plan_.num_shards;
  GV_CHECK(retain.shards.empty() || retain.shards.size() == K,
           "retain set must name every shard");
  auto retains = [&](std::uint32_t s) {
    return !retain.shards.empty() && retain.shards[s] != 0;
  };

  // Retained boundary stores may serve halo pulls only when they were
  // materialized from THIS feature snapshot.
  const bool stores_fresh = refreshed_.load() && have_store_fingerprint_ &&
                            fingerprint == store_fingerprint_;

  const double parallel_before = parallel_seconds_.load();
  const double untrusted_before = untrusted_seconds_.load();
  std::uint64_t req_bytes_before = 0, emb_bytes_before = 0;
  for (const auto& ch : channels_) {
    if (ch) {
      req_bytes_before += ch->request_bytes();
      emb_bytes_before += ch->embedding_bytes();
    }
  }

  // Query nodes grouped by owner shard (sorted unique — owned[] is sorted,
  // so these align 1:1 with the owned-local out rows of the last layer).
  std::vector<std::vector<std::uint32_t>> qnodes(K);
  for (const auto v : nodes) qnodes[plan_.owner[v]].push_back(v);
  for (auto& q : qnodes) {
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
  }

  // Untrusted-side orchestration state.  The coordinator only ever learns
  // SHARD-level facts (who computes, who serves) — it must, to schedule
  // ecalls and streams — while the node-level frontier stays inside the
  // enclaves and the sealed channel blocks.
  std::vector<char> involved(K, 0);
  std::vector<std::vector<char>> computes(L, std::vector<char>(K, 0));

  auto involve = [&](std::uint32_t s) {
    if (involved[s]) return;
    Shard& sh = *shards_[s];
    GV_CHECK(sh.alive.load(), "shard enclave is down (cold frontier)");
    cold_ecall(s, [&] {
      auto& cq = sh.frontier;
      cq.out_rows.assign(L, {});
      cq.in_cols.assign(L, {});
      cq.serve_live.assign(L, std::vector<std::vector<std::uint32_t>>(K));
      cq.serve_store.assign(L, std::vector<std::vector<std::uint32_t>>(K));
      cq.bb.assign(dims.size(), Matrix());
      cq.bb_need.assign(dims.size(), {});
      cq.h = Matrix();
      cq.query_id = 0;
      auto& mem = sh.enclave->memory();
      mem.set("frontier.bb", 0);
      mem.set("frontier.h", 0);
    });
    involved[s] = 1;
  };

  try {
    // --- Frontier walk, last layer first.  Each shard expands ONE hop over
    // its own rectangular sub-adjacency inside its enclave; columns owned by
    // a peer become halo-pull requests over the attested channel, and the
    // peer either answers from its retained boundary store (no expansion —
    // the walk stops at the boundary) or joins the computation.
    for (std::uint32_t s = 0; s < K; ++s) {
      if (qnodes[s].empty()) continue;
      involve(s);
      Shard& sh = *shards_[s];
      cold_ecall(s, [&] {
        auto& rows = sh.frontier.out_rows[L - 1];
        rows.reserve(qnodes[s].size());
        for (const auto v : qnodes[s]) {
          rows.push_back(position_of(sh.payload.owned, v, "query node not owned"));
        }
      });
      computes[L - 1][s] = 1;
    }

    for (std::size_t k = L; k-- > 0;) {
      std::vector<std::vector<std::uint32_t>> requesters(K);  // t -> [s...]
      for (std::uint32_t s = 0; s < K; ++s) {
        if (!computes[k][s]) continue;
        Shard& sh = *shards_[s];
        std::vector<std::uint32_t> peers;
        std::size_t frontier_rows = 0;
        cold_ecall(s, [&] {
          auto& cq = sh.frontier;
          auto& rows = cq.out_rows[k];
          std::sort(rows.begin(), rows.end());
          rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
          frontier_rows = rows.size();
          cq.in_cols[k] = sh.rectifier->frontier_columns(rows);
          std::vector<std::vector<std::uint32_t>> want(K);
          for (const auto c : cq.in_cols[k]) {
            const std::uint32_t g = sh.payload.closure[c];
            const std::uint32_t t = plan_.owner[g];
            if (t == s) {
              if (k > 0) {
                cq.out_rows[k - 1].push_back(
                    position_of(sh.payload.owned, g, "closure col not owned"));
              }
            } else if (k > 0) {
              // Layer 0's halo columns are fed from the public backbone
              // stream, not from a peer; only k > 0 pulls embeddings.
              want[t].push_back(g);
            }
          }
          if (k > 0) {
            for (std::uint32_t t = 0; t < K; ++t) {
              if (want[t].empty()) continue;
              AttestedChannel* ch = channel(s, t);
              GV_CHECK(ch != nullptr, "halo pull without an attested channel");
              ch->send_request(*sh.enclave, std::move(want[t]),
                               current_query_id());
              peers.push_back(t);
            }
          }
        });
        stats->frontier_rows += frontier_rows;
        if (k > 0) computes[k - 1][s] = 1;
        for (const auto t : peers) requesters[t].push_back(s);
      }
      if (k == 0) break;

      for (std::uint32_t t = 0; t < K; ++t) {
        if (requesters[t].empty()) continue;
        involve(t);
        Shard& sh = *shards_[t];
        const bool from_store = stores_fresh && sh.retained_valid.load();
        bool live = false;
        cold_ecall(t, [&] {
          auto& cq = sh.frontier;
          for (const auto s : requesters[t]) {
            std::uint64_t qid = 0;
            auto want = channel(s, t)->recv_request(*sh.enclave, &qid);
            if (qid != 0) cq.query_id = qid;
            std::vector<std::uint32_t> rows;
            rows.reserve(want.size());
            for (const auto g : want) {
              rows.push_back(
                  position_of(sh.payload.owned, g, "halo pull for unowned node"));
            }
            if (from_store) {
              cq.serve_store[k - 1][s] = std::move(rows);
            } else {
              cq.out_rows[k - 1].insert(cq.out_rows[k - 1].end(), rows.begin(),
                                        rows.end());
              cq.serve_live[k - 1][s] = std::move(rows);
              live = true;
            }
          }
        });
        if (live) computes[k - 1][t] = 1;
      }
    }

    // --- Backbone staging: full-matrix oblivious stream to every COMPUTING
    // shard (the enclave keeps only the rows its frontier needs).  Shards
    // that only serve from retained stores stage nothing.
    bool bb_cache_hit = false;
    const auto& outputs = backbone_for(features, fingerprint, &bb_cache_hit);
    stats->backbone_cache_hit = bb_cache_hit;

    parallel_phase("backbone_stream", [&](std::uint32_t s) {
      if (!involved[s] || !computes[0][s]) return;
      Shard& sh = *shards_[s];
      try {
      sh.enclave->ecall([&] {
        // Each backbone layer is staged at the input frontier of the
        // rectifier layer that reads it.
        auto& cq = sh.frontier;
        for (std::size_t k = 0; k < L; ++k) {
          if (!computes[k][s]) continue;
          for (const std::size_t idx : sh.rectifier->inputs(k).backbone) {
            cq.bb_need[idx] = cq.in_cols[k];
          }
        }
      });
      for (const std::size_t idx : required_layers_) {
        bool needed = false;
        std::size_t need_rows = 0;
        sh.enclave->ecall([&] {
          needed = !sh.frontier.bb_need[idx].empty();
          need_rows = sh.frontier.bb_need[idx].size();
        });
        if (!needed) continue;
        GV_CHECK(idx < outputs.size() && !outputs[idx].empty(),
                 "required backbone output missing");
        const Matrix& full = outputs[idx];
        GV_CHECK(full.rows() == n, "backbone output covers a different node count");
        const std::size_t dim = full.cols();
        sh.enclave->ecall([&] { sh.frontier.bb[idx] = Matrix(need_rows, dim); });
        stream_full_matrix(sh, full, [&](const Matrix& block, std::size_t r0) {
          const auto& closure = sh.payload.closure;
          const auto& need = sh.frontier.bb_need[idx];
          auto it = std::lower_bound(
              need.begin(), need.end(), r0,
              [&](std::uint32_t c, std::size_t v) { return closure[c] < v; });
          for (; it != need.end() && closure[*it] < r0 + block.rows(); ++it) {
            const std::size_t local = static_cast<std::size_t>(it - need.begin());
            std::memcpy(sh.frontier.bb[idx].data() + local * dim,
                        block.data() + (closure[*it] - r0) * dim,
                        dim * sizeof(float));
          }
        });
      }
      sh.enclave->ecall([&] {
        std::size_t bytes = 0;
        for (const auto& m : sh.frontier.bb) bytes += m.payload_bytes();
        sh.enclave->memory().set("frontier.bb", bytes);
      });
      } catch (const EnclaveFailure&) {
        // Covers every staging ecall above, the streaming chunks included.
        mark_cold_fault(s);
        throw;
      }
    });

    // --- Layer-synchronous compute.  Before layer k, every provider
    // ships the layer k-1 rows its peers requested (from the retained store
    // or the freshly computed frontier); then the computing shards assemble
    // their inputs, slice their sub-adjacency to the frontier, and advance.
    for (std::size_t k = 0; k < L; ++k) {
      const bool last = (k + 1 == L);
      if (k >= 1) {
        parallel_phase("halo_send", std::int64_t(k), [&](std::uint32_t t) {
          if (!involved[t]) return;
          Shard& sh = *shards_[t];
          // QueryLens: this shard's serving work belongs to the query whose
          // sealed halo-request trailer delivered the id — channel-carried
          // attribution, not coordinator bookkeeping.
          QueryScope qscope(sh.frontier.query_id);
          TraceSpan serve_span("cold", "halo_serve");
          serve_span.arg("shard", double(t));
          serve_span.arg("layer", double(k));
          const auto halo_start = std::chrono::steady_clock::now();
          bool served = false;
          cold_ecall(t, [&] {
            auto& cq = sh.frontier;
            for (std::uint32_t s2 = 0; s2 < K; ++s2) {
              const auto& store_rows = cq.serve_store[k - 1][s2];
              if (!store_rows.empty()) {
                std::vector<std::uint32_t> globals, pos;
                globals.reserve(store_rows.size());
                pos.reserve(store_rows.size());
                for (const auto r : store_rows) {
                  globals.push_back(sh.payload.owned[r]);
                  const auto it = std::lower_bound(sh.boundary_rows.begin(),
                                                   sh.boundary_rows.end(), r);
                  GV_CHECK(it != sh.boundary_rows.end() && *it == r,
                           "cold pull for a non-boundary row");
                  pos.push_back(
                      static_cast<std::uint32_t>(it - sh.boundary_rows.begin()));
                }
                channel(t, s2)->send_embeddings(
                    *sh.enclave, std::move(globals),
                    sh.retained[k - 1].gather_rows(pos));
                served = true;
              }
              const auto& live_rows = cq.serve_live[k - 1][s2];
              if (!live_rows.empty()) {
                std::vector<std::uint32_t> globals, pos;
                globals.reserve(live_rows.size());
                pos.reserve(live_rows.size());
                const auto& prev_rows = cq.out_rows[k - 1];
                for (const auto r : live_rows) {
                  globals.push_back(sh.payload.owned[r]);
                  const auto it =
                      std::lower_bound(prev_rows.begin(), prev_rows.end(), r);
                  GV_CHECK(it != prev_rows.end() && *it == r,
                           "live halo row missing from the computed frontier");
                  pos.push_back(static_cast<std::uint32_t>(it - prev_rows.begin()));
                }
                channel(t, s2)->send_embeddings(*sh.enclave, std::move(globals),
                                                cq.h.gather_rows(pos));
                served = true;
              }
            }
          });
          if (served) {
            record_query_stage(
                QueryStage::kHalo,
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              halo_start)
                    .count());
          } else {
            // Involved but served nothing this layer (e.g. compute-only):
            // an empty halo_serve span would just be noise.
            serve_span.cancel();
          }
        });
      }

      parallel_phase("layer_compute", std::int64_t(k), [&](std::uint32_t s) {
        if (!computes[k][s]) return;
        Shard& sh = *shards_[s];
        cold_ecall(s, [&] {
          auto& cq = sh.frontier;
          const auto& in_cols = cq.in_cols[k];

          // Previous-layer rows of the input frontier: own rows from the
          // local frontier, halo rows drained from the attested channels.
          auto assemble_prev = [&]() -> Matrix {
            const std::size_t chp = cfg.channels[k - 1];
            Matrix prev(in_cols.size(), chp);
            std::size_t filled = 0;
            const auto& prev_rows = cq.out_rows[k - 1];
            for (std::size_t i = 0; i < in_cols.size(); ++i) {
              const std::uint32_t g = sh.payload.closure[in_cols[i]];
              if (plan_.owner[g] != s) continue;
              const std::uint32_t r =
                  position_of(sh.payload.owned, g, "closure col not owned");
              const auto it =
                  std::lower_bound(prev_rows.begin(), prev_rows.end(), r);
              GV_CHECK(it != prev_rows.end() && *it == r,
                       "own frontier row missing at assembly");
              std::memcpy(prev.data() + i * chp,
                          cq.h.data() +
                              static_cast<std::size_t>(it - prev_rows.begin()) * chp,
                          chp * sizeof(float));
              ++filled;
            }
            for (std::uint32_t t = 0; t < K; ++t) {
              if (t == s) continue;
              AttestedChannel* ch = channel(s, t);
              if (ch == nullptr) continue;
              while (ch->has_embeddings(*sh.enclave)) {
                const auto block = ch->recv_embeddings(*sh.enclave);
                GV_CHECK(block.rows.cols() == chp, "cold halo dim mismatch");
                for (std::size_t i = 0; i < block.nodes.size(); ++i) {
                  const std::uint32_t c = position_of(
                      sh.payload.closure, block.nodes[i], "halo outside closure");
                  const auto it =
                      std::lower_bound(in_cols.begin(), in_cols.end(), c);
                  GV_CHECK(it != in_cols.end() && *it == c,
                           "halo row outside the input frontier");
                  std::memcpy(
                      prev.data() +
                          static_cast<std::size_t>(it - in_cols.begin()) * chp,
                      block.rows.data() + i * chp, chp * sizeof(float));
                  ++filled;
                }
              }
            }
            GV_CHECK(filled == in_cols.size(),
                     "cold halo pulls left input rows unfilled");
            return prev;
          };

          const Matrix input = sh.rectifier->layer_input(
              k, [&](std::size_t idx) -> const Matrix& { return cq.bb[idx]; },
              k > 0 ? assemble_prev() : Matrix());

          const CsrMatrix slice =
              sh.rectifier->frontier_slice(cq.out_rows[k], in_cols);
          Matrix z = sh.rectifier->layer(k).forward_subgraph(slice, input);
          cq.h = last ? std::move(z) : relu(z);
          sh.enclave->memory().set("frontier.h",
                                   input.payload_bytes() + cq.h.payload_bytes());

          if (retains(s)) {
            // Reinstall this shard's durable stores from the freshly
            // computed frontier: the label store from the last layer (its
            // rows are the full owned set) and the boundary rows'
            // activations, which answer later cross-shard halo pulls
            // without recomputing.
            if (last) {
              if (retain.labels) {
                GV_CHECK(cq.out_rows[k].size() == sh.payload.owned.size(),
                         "re-materialization must cover every owned node");
                sh.labels = argmax_rows(cq.h);
                sh.label_stale.assign(sh.labels.size(), 0);
                sh.enclave->memory().set(
                    "labels.store", sh.labels.size() * sizeof(std::uint32_t));
              }
            } else {
              std::vector<std::uint32_t> pos;
              pos.reserve(sh.boundary_rows.size());
              const auto& rows = cq.out_rows[k];
              for (const auto r : sh.boundary_rows) {
                const auto it = std::lower_bound(rows.begin(), rows.end(), r);
                GV_CHECK(it != rows.end() && *it == r,
                         "boundary row missing from re-materialization");
                pos.push_back(static_cast<std::uint32_t>(it - rows.begin()));
              }
              sh.retained[k] = cq.h.gather_rows(pos);
            }
          }
        });
      });
    }

    // --- Label-only exits, merged back into query order. -------------------
    std::vector<std::uint32_t> out(nodes.size(), 0);
    std::vector<std::vector<std::uint32_t>> labels_by_shard(K);
    for (std::uint32_t s = 0; s < K; ++s) {
      if (qnodes[s].empty()) continue;
      Shard& sh = *shards_[s];
      std::size_t healed = 0;
      labels_by_shard[s] = cold_ecall(s, [&] {
        auto& cq = sh.frontier;
        GV_CHECK(cq.h.rows() == cq.out_rows[L - 1].size(),
                 "cold forward produced a malformed frontier");
        std::vector<std::uint32_t> all = argmax_rows(cq.h);
        // out_rows[L-1] ⊇ the query rows (a re-materialization computes the
        // whole owned set); project onto the query positions.
        std::vector<std::uint32_t> res;
        res.reserve(qnodes[s].size());
        const auto& rows = cq.out_rows[L - 1];
        const bool heal = !retains(s) && stores_fresh && sh.store_ready.load() &&
                          !sh.labels.empty();
        for (const auto v : qnodes[s]) {
          const std::uint32_t r =
              position_of(sh.payload.owned, v, "query node not owned");
          const auto it = std::lower_bound(rows.begin(), rows.end(), r);
          GV_CHECK(it != rows.end() && *it == r, "query row missing");
          const std::uint32_t label =
              all[static_cast<std::size_t>(it - rows.begin())];
          // Store healing: this label was just recomputed for the CURRENT
          // snapshot — if a graph update had invalidated the stored entry,
          // write it back so the next lookup is warm again.
          if (heal && sh.label_stale[r]) {
            sh.labels[r] = label;
            sh.label_stale[r] = 0;
            ++healed;
          }
          res.push_back(label);
        }
        return res;
      });
      if (healed > 0) sh.stale_count.fetch_sub(healed);
    }
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const std::uint32_t s = plan_.owner[nodes[j]];
      const auto& q = qnodes[s];
      const auto it = std::lower_bound(q.begin(), q.end(), nodes[j]);
      out[j] = labels_by_shard[s][static_cast<std::size_t>(it - q.begin())];
    }

    // --- Release the transients: steady-state residency is weights +
    // adjacency + label store + retained activations, so lookup ecalls
    // never feel EPC pressure (the forward's peak is what the planner
    // budgeted for).
    parallel_phase("release_transients", [&](std::uint32_t s) {
      if (!involved[s] && !retains(s)) return;
      Shard& sh = *shards_[s];
      cold_ecall(s, [&] {
        auto& mem = sh.enclave->memory();
        if (involved[s]) {
          sh.frontier = Shard::Frontier{};
          mem.free("frontier.bb");
          mem.free("frontier.h");
        }
        if (retains(s)) {
          std::size_t retained_bytes = 0;
          for (const auto& m : sh.retained) retained_bytes += m.payload_bytes();
          mem.set("halo.retained", retained_bytes);
        }
      });
    });
    for (std::uint32_t s = 0; s < K; ++s) {
      if (!retains(s)) continue;
      Shard& sh = *shards_[s];
      sh.retained_valid.store(true);
      if (retain.labels) {
        sh.store_ready.store(true);
        sh.stale_count.store(0);  // the full owned set was just recomputed
      }
    }

    std::size_t touched = 0, computed = 0;
    for (std::uint32_t s = 0; s < K; ++s) {
      if (involved[s]) ++touched;
      if (computes[0][s]) ++computed;
    }
    stats->shards_touched = touched;
    stats->shards_computed = computed;
    std::uint64_t req_after = 0, emb_after = 0;
    for (const auto& ch : channels_) {
      if (ch) {
        req_after += ch->request_bytes();
        emb_after += ch->embedding_bytes();
      }
    }
    stats->halo_request_bytes = req_after - req_bytes_before;
    stats->halo_embedding_bytes = emb_after - emb_bytes_before;
    stats->modeled_seconds = (parallel_seconds_.load() - parallel_before) +
                             (untrusted_seconds_.load() - untrusted_before);
    forward_span.arg("shards_touched", double(touched));
    forward_span.modeled_seconds(stats->modeled_seconds);
    if (!retain.shards.empty()) {
      // Push telemetry at the state change, not only when stats() is
      // pulled: re-materialized stores are when EPC occupancy moves.
      publish_epc_gauges();
      publish_channel_audit();
    }
    return out;
  } catch (...) {
    // A walk aborted mid-exchange (dead frontier shard, malformed query)
    // must not leave sealed blocks queued for a later exchange to pop.
    for (const auto& ch : channels_) {
      if (ch) ch->drop_pending();
    }
    throw;
  }
}

std::uint32_t ShardedVaultDeployment::owner(std::uint32_t node) const {
  const auto snap = owner_snapshot();
  GV_CHECK(node < snap->size(), "node out of range");
  return (*snap)[node];
}

void ShardedVaultDeployment::kill_shard(std::uint32_t shard) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  shards_[shard]->alive = false;
}

bool ShardedVaultDeployment::shard_alive(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return shards_[shard]->alive;
}

Enclave& ShardedVaultDeployment::shard_enclave(std::uint32_t shard) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return *shards_[shard]->enclave;
}

const Enclave& ShardedVaultDeployment::shard_enclave(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return *shards_[shard]->enclave;
}

const Sha256Digest& ShardedVaultDeployment::shard_platform_key(
    std::uint32_t shard) const {
  GV_CHECK(shard < opts_.platform_keys.size(), "shard index out of range");
  return opts_.platform_keys[shard];
}

const SealedBlob& ShardedVaultDeployment::sealed_payload(std::uint32_t shard) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  return shards_[shard]->sealed;
}

std::unique_ptr<Enclave> ShardedVaultDeployment::make_peer_enclave(
    std::uint32_t shard, const Sha256Digest& platform_key) const {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  // Peer enclaves repeat the exact build recipe (same name, same extends):
  // identical measurement is what lets the attested channel handshake and
  // what scopes sealing to {code identity} x {platform key}.
  auto peer = std::make_unique<Enclave>(opts_.enclave_name, opts_.cost_model,
                                        platform_key);
  peer->extend_measurement(
      kCodeTagPrefix + rectifier_kind_name(vault_.rectifier->config().kind));
  peer->extend_measurement(shards_[shard]->payload.rectifier_weights);
  peer->initialize();
  return peer;
}

void ShardedVaultDeployment::send_payload(std::uint32_t shard, AttestedChannel& ch) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  // Under the infer lock: a graph update / migration mutates the payload
  // across several ecalls, and a replication racing it must never serialize
  // a half-updated topology.
  MutexLock lock(infer_mu_);
  Shard& sh = *shards_[shard];
  GV_CHECK(sh.alive, "shard enclave is down");
  sh.enclave->ecall(
      [&] { ch.send_package(*sh.enclave, serialize_shard_payload(sh.payload)); });
}

void ShardedVaultDeployment::send_labels(std::uint32_t shard, AttestedChannel& ch) {
  GV_CHECK(shard < plan_.num_shards, "shard index out of range");
  MutexLock lock(infer_mu_);
  Shard& sh = *shards_[shard];
  GV_CHECK(sh.alive, "shard enclave is down");
  GV_CHECK(refreshed_, "no label store to replicate before the first refresh");
  sh.enclave->ecall(
      [&] { ch.send_labels(*sh.enclave, sh.payload.owned, sh.labels); });
}

std::uint64_t ShardedVaultDeployment::halo_kind_bytes(
    AttestedChannel::PayloadKind kind) const {
  std::uint64_t sum = 0;
  for (const auto& ch : channels_) {
    if (ch) sum += ch->kind_bytes(kind);
  }
  return sum;
}

std::uint64_t ShardedVaultDeployment::halo_embedding_bytes() const {
  return halo_kind_bytes(AttestedChannel::PayloadKind::kEmbeddings);
}

std::uint64_t ShardedVaultDeployment::halo_label_bytes() const {
  return halo_kind_bytes(AttestedChannel::PayloadKind::kLabels);
}

std::uint64_t ShardedVaultDeployment::halo_package_bytes() const {
  return halo_kind_bytes(AttestedChannel::PayloadKind::kPackage);
}

std::uint64_t ShardedVaultDeployment::halo_request_bytes() const {
  return halo_kind_bytes(AttestedChannel::PayloadKind::kRequest);
}

std::uint64_t ShardedVaultDeployment::halo_transfer_bytes() const {
  return halo_kind_bytes(AttestedChannel::PayloadKind::kTransfer);
}

std::uint64_t ShardedVaultDeployment::halo_padded_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& ch : channels_) {
    if (ch) sum += ch->padded_bytes();
  }
  return sum;
}

void ShardedVaultDeployment::publish_channel_audit() const {
  auto& reg = MetricsRegistry::global();
  // One gauge per PayloadKind, driven by the channel's own policy table so
  // a kind added there is automatically audited here (vault_lint enforces
  // the table side).
  for (const auto& kp : AttestedChannel::kKindPolicies) {
    reg.gauge("halo.payload_bytes", MetricLabels::of("channel_kind", kp.name))
        .set(double(halo_kind_bytes(kp.kind)));
  }
  reg.gauge("halo.padded_bytes").set(double(halo_padded_bytes()));
  // Padding invariant: per channel, wire bytes can never undercut logical
  // payload bytes — if they do, some block skipped its bucket and its size
  // is leaking cardinality to the untrusted relay.  Worth a postmortem.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const auto& ch = channels_[i];
    if (!ch) continue;
    if (ch->padded_bytes() < ch->total_payload_bytes()) {
      reg.counter("halo.audit_anomalies").add(1);
      FlightRecorder::instance().trip(
          FaultKind::kChannelAnomaly, -1,
          "channel " + std::to_string(i) + " padded bytes " +
              std::to_string(ch->padded_bytes()) + " < logical payload " +
              std::to_string(ch->total_payload_bytes()));
    }
  }
}

void ShardedVaultDeployment::publish_epc_gauges() const {
  auto& reg = MetricsRegistry::global();
  const double budget = double(opts_.cost_model.epc_bytes);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const double used = double(shards_[s]->enclave->memory().current_bytes());
    reg.gauge("epc.shard_headroom_bytes",
              MetricLabels::of("shard", std::to_string(s)))
        .set(budget - used);
    reg.gauge("epc.shard_used_bytes",
              MetricLabels::of("shard", std::to_string(s)))
        .set(used);
  }
}

double ShardedVaultDeployment::modeled_seconds() const {
  return untrusted_seconds_.load() + parallel_seconds_.load();
}

CostMeter ShardedVaultDeployment::aggregate_meter() const {
  CostMeter total;
  for (const auto& sh : shards_) {
    const CostMeter m = sh->enclave->meter_snapshot();
    total.ecalls += m.ecalls;
    total.ocalls += m.ocalls;
    total.bytes_in += m.bytes_in;
    total.page_swaps += m.page_swaps;
    total.enclave_compute_seconds += m.enclave_compute_seconds;
    total.untrusted_compute_seconds += m.untrusted_compute_seconds;
  }
  total.untrusted_compute_seconds += untrusted_seconds_.load();
  return total;
}

std::size_t ShardedVaultDeployment::max_shard_peak_bytes() const {
  std::size_t mx = 0;
  for (const auto& sh : shards_) {
    mx = std::max(mx, sh->enclave->memory().peak_bytes());
  }
  return mx;
}

}  // namespace gv
