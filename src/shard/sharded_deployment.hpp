// ShardedVaultDeployment: one tenant's rectifier across N shard enclaves.
//
// Each shard is its own Enclave (own sealed shard package, possibly its own
// SGX platform) holding: the replicated rectifier weights, the shard's rows
// of the GLOBAL normalized private adjacency (columns spanning the one-hop
// closure), and the halo routing lists derived from the cut edges.
//
// ONE FORWARD ENGINE (frontier_forward) serves a fleet refresh, a cold
// subset query and a promotion's re-materialization alike:
//
//   walk     last layer first, each shard expands its rows one hop over its
//            own sub-adjacency inside its enclave; columns owned by a peer
//            become halo-pull requests over mutually attested enclave-to-
//            enclave channels (sgxsim/attested_channel.hpp), and the peer
//            answers from boundary activations retained at the last
//            refresh or joins the computation;
//   stream   the full public embedding matrices are pushed to every
//            computing shard in fixed-size chunks; each enclave keeps only
//            the rows its frontier reads (the untrusted access pattern is
//            the full matrix, so it learns nothing about neighbourhoods);
//   compute  layer by layer, providers ship the requested embeddings, then
//            every computing shard multiplies its frontier rows of Â
//            against them — bit-exact against the unsharded forward
//            because values and column order match the global CSR.  ONLY
//            embeddings, halo-pull requests and labels ride the channels;
//            the cut edges and sub-adjacencies never leave any enclave.
//
// A refresh is the engine over every node, each shard retaining its label
// store (the final layer's argmax, inside the enclave) and boundary-row
// activations; serving is then a label-only lookup ecall into the owner
// shard, so the paper's label-only output invariant (Sec. IV-E) holds
// shard-locally and globally.  The stores are a CACHE, not the only source
// of truth: infer_labels_subset_cold runs the engine over a node subset
// (only the frontier's shards work, and warm peers answer from retained
// activations), and rematerialize_shard rebuilds one adopted shard's
// stores with halo pulls from the survivors.
// GRAPHDRIFT (live mutation + rebalancing).  The private graph is NOT
// frozen at provisioning: update_graph applies edge/node deltas inside the
// owning enclaves (sorted-row maintenance of each owned x closure
// sub-adjacency, bit-exact degree renormalization of touched rows,
// digest-based invalidation of the label-store entries and retained
// boundary activations the delta can reach), and move_node migrates one
// node between live shards over the attested channels (new audited
// node-transfer payload kind) behind a per-node router fence, flipping a
// copy-on-write owner map so no query ever observes split ownership.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"
#include "core/pipeline.hpp"
#include "shard/graph_drift.hpp"
#include "shard/shard_planner.hpp"
#include "sgxsim/attested_channel.hpp"
#include "sgxsim/channel.hpp"
#include "sgxsim/enclave.hpp"

namespace gv {

/// Telemetry of one cold cross-shard subset query.
struct ColdSubsetStats {
  /// Shards that ran rectifier layers for this query.
  std::size_t shards_computed = 0;
  /// shards_computed plus shards that only served halo pulls from their
  /// retained boundary stores.
  std::size_t shards_touched = 0;
  /// Total output-frontier rows computed, summed over layers and shards.
  std::size_t frontier_rows = 0;
  /// Plaintext bytes of halo-pull requests / pulled embeddings that crossed
  /// inter-shard attested channels for this query.
  std::uint64_t halo_request_bytes = 0;
  std::uint64_t halo_embedding_bytes = 0;
  /// Modeled seconds added by this query (critical path across shards,
  /// untrusted backbone included unless it was a cache hit).
  double modeled_seconds = 0.0;
  /// The untrusted backbone outputs were reused from the last forward over
  /// an identical feature snapshot.
  bool backbone_cache_hit = false;
};

struct ShardedDeploymentOptions {
  SgxCostModel cost_model{};
  /// Enclave name prefix; empty -> "shardvault.<dataset>".  Shard i becomes
  /// "<prefix>.shard<i>".
  std::string enclave_name;
  /// Platform sealing key per shard (one entry per shard, or empty for the
  /// default platform everywhere).  Distinct keys model shards placed on
  /// distinct SGX machines.
  std::vector<Sha256Digest> platform_keys;
  /// Seal shard packages at rest and unseal on load.
  bool seal_artifacts = true;
};

class ShardedVaultDeployment {
 public:
  ShardedVaultDeployment(const Dataset& ds, TrainedVault vault, ShardPlan plan,
                         ShardedDeploymentOptions opts = {});

  /// Backbone + the frontier engine over every node, with every shard
  /// retaining its label store and boundary activations.  Requires all
  /// shards alive (replicas cover reads, not refreshes).  Serialized
  /// against itself and infer_labels.  An enclave dying under a refresh
  /// marks its shard dead and throws; the failure handler is NOT invoked
  /// here (callers may hold control-plane locks the handler takes) — the
  /// next cold query entry hands the recorded fault over outside the locks.
  void refresh(const CsrMatrix& features);
  bool refreshed() const { return refreshed_; }

  /// Number of completed refreshes.  Label stores (and replica copies) are
  /// stamped with the epoch they were materialized under, which is how a
  /// standby's store is detected as stale after a feature update it missed.
  std::uint64_t refresh_epoch() const { return epoch_.load(); }

  /// refresh() + gather every shard's owned labels (label-only exits).
  std::vector<std::uint32_t> infer_labels(const CsrMatrix& features);

  /// Cold cross-shard subset inference: labels for `nodes` (query order,
  /// duplicates allowed) computed on demand by walking the L-hop frontier
  /// across shard boundaries — no refresh, no label stores required.  Every
  /// frontier shard must be alive; shards outside the frontier are never
  /// touched.  Halo embeddings are pulled over the attested channels
  /// (store-served from boundary activations retained at the last refresh
  /// when the snapshot matches, recomputed shard-locally otherwise); the
  /// public backbone matrices are still streamed in full to each computing
  /// shard, exactly like a refresh, so the untrusted access pattern carries
  /// no frontier information.  Bit-exact against the single-enclave oracle.
  std::vector<std::uint32_t> infer_labels_subset_cold(
      const CsrMatrix& features, std::span<const std::uint32_t> nodes,
      ColdSubsetStats* stats = nullptr);
  /// Overload taking a precomputed features_fingerprint(features): callers
  /// serving many cold queries off one pinned snapshot (the server) hash it
  /// once instead of per query.
  std::vector<std::uint32_t> infer_labels_subset_cold(
      const CsrMatrix& features, std::uint64_t fingerprint,
      std::span<const std::uint32_t> nodes, ColdSubsetStats* stats = nullptr);

  /// Fast 64-bit content fingerprint of a feature snapshot (word-folded,
  /// NOT cryptographic — it keys the untrusted backbone cache and the
  /// stores-fresh check, both correctness caches over public inputs, and
  /// must stay cheap enough to pay per snapshot).
  static std::uint64_t features_fingerprint(const CsrMatrix& features);

  /// Incremental promotion re-materialization: rebuild ONLY `shard`'s label
  /// store (and retained boundary activations) via a shard-local cold
  /// forward with halo pulls from the surviving shards' retained stores,
  /// instead of re-running the whole fleet's refresh.  Requires a completed
  /// refresh and `features` to be the snapshot of that refresh (otherwise
  /// the surviving stores would be inconsistent with the new one — use
  /// refresh() for a snapshot change).  Does not bump the refresh epoch:
  /// the snapshot did not move, so standby label stores stay fresh.
  void rematerialize_shard(std::uint32_t shard, const CsrMatrix& features);

  /// True when `shard` is alive and its enclave label store is materialized
  /// (false for a just-adopted shard until rematerialize_shard/refresh, and
  /// for every shard before the first refresh) — the router sends lookups
  /// for un-materialized stores down the cold path instead of failing.
  bool store_materialized(std::uint32_t shard) const;

  /// Install a label store into an adopted shard without any forward —
  /// used by ReplicaManager::promote when the standby's replicated store is
  /// provably fresh (synced at the current refresh epoch): those labels are
  /// bit-identical to what a re-materialization would compute, and they
  /// already live inside the very enclave that was adopted.  `labels` must
  /// cover the shard's owned nodes in owned order.
  void install_labels(std::uint32_t shard, std::vector<std::uint32_t> labels);

  /// Release the untrusted backbone-output cache (it holds full embedding
  /// matrices in host RAM; the next refresh or cold query recomputes).
  void drop_backbone_cache();

  // --- GraphDrift: live private-graph mutation. --------------------------
  /// Apply one batch of topology deltas inside the owning enclaves.  Each
  /// touched shard's sorted adjacency rows are edited in place, rows whose
  /// endpoints changed degree are renormalized from the integer degrees
  /// (bit-exact vs a from-scratch normalization of the mutated graph), and
  /// label-store entries / retained boundary activations within the
  /// rectifier's receptive field of a changed row are invalidated — the
  /// cold cross-shard path recomputes them on demand (and heals the store
  /// as it does).  Appended nodes go to the least-loaded shard.  Requires
  /// every shard alive.  `features_after`, when non-null, is the feature
  /// snapshot queries will use AFTER this update (old rows unchanged, one
  /// appended row per added node): it lets the unaffected shards' retained
  /// stores keep serving; without it a node add conservatively drops the
  /// store fingerprint.  Bumps the refresh epoch (standby label stores go
  /// stale-refusing) and the topology version (standby packages must
  /// re-replicate before they can promote).
  /// `before_unfence`, when set, runs after the update is fully applied
  /// but while the router fence is STILL UP — the hook a server uses to
  /// swap its feature snapshot atomically with the topology, so no query
  /// ever pairs the new node count with the old snapshot (or vice versa).
  GraphUpdateStats update_graph(
      const GraphDelta& delta, const CsrMatrix* features_after = nullptr,
      const std::function<void()>& before_unfence = {});

  /// Current node count (grows with node adds).
  std::size_t num_nodes() const;

  /// Immutable snapshot of the node -> shard owner map.  Copy-on-write:
  /// migrations and node adds swap the whole vector, so a router groups an
  /// entire batch against one consistent snapshot.
  std::shared_ptr<const std::vector<std::uint32_t>> owner_snapshot() const;
  /// Bumped once per committed ownership change (migration move/node add)
  /// AND per applied graph update: a router batch that raced either
  /// regroups against fresh state and retries instead of surfacing an
  /// internal consistency error.
  std::uint64_t ownership_epoch() const { return ownership_epoch_.load(); }
  /// Monotone version of the private topology (mutations AND migrations).
  /// Replicated packages are stamped with it: a standby whose package
  /// predates the live topology must re-replicate before it may promote.
  std::uint64_t topology_version() const { return topology_version_.load(); }

  /// Move one node between two live shards: extract its adjacency row,
  /// degrees, and current label inside the losing enclave, ship them over
  /// the attested channel as a sealed node-transfer payload, install them
  /// in the gaining enclave, flip the owner map, and only then retire the
  /// old row.  The node is fenced for the duration (await_moves), so no
  /// query observes split ownership; every other node serves throughout.
  /// Returns the fence window in wall milliseconds.  Refuses to empty a
  /// shard.  Typically driven by MigrationExecutor (shard/migration.hpp).
  double move_node(std::uint32_t node, std::uint32_t to);

  /// Block until none of `nodes` is mid-migration and no update_graph is
  /// mid-flight; false on timeout.
  bool await_moves(std::span<const std::uint32_t> nodes,
                   std::chrono::milliseconds timeout) const;

  /// Label-store entries of `shard` invalidated by graph updates and not
  /// yet recomputed (cold write-back, rematerialize, or refresh heal them).
  std::size_t stale_store_entries(std::uint32_t shard) const;
  /// For each of `nodes` (all owned by `shard`): 1 = the stored label was
  /// invalidated by a graph update — route it through the cold path.
  std::vector<char> stale_mask(std::uint32_t shard,
                               std::span<const std::uint32_t> nodes);

  /// True when `shard`'s retained boundary activations match the current
  /// stores (cold halo pulls are store-served without recompute).
  bool retained_valid(std::uint32_t shard) const;

  /// Rebuild ONLY `shard`'s retained boundary-row activations via a
  /// boundary-restricted cold forward (halo pulls from the survivors) —
  /// the missing piece after a warm-adopt promotion, whose installed label
  /// store is bit-fresh but whose enclave holds no activations.  Same
  /// snapshot requirements as rematerialize_shard; the label store is
  /// untouched.
  void rebuild_boundary_retained(std::uint32_t shard, const CsrMatrix& features);

  // --- Dead-shard detection. ---------------------------------------------
  /// A serving-path ecall that dies (EnclaveFailure) marks the shard dead
  /// and invokes this handler with the shard index — the hook the server
  /// uses to trigger the same fence + promote path an explicit kill_shard
  /// takes, without anyone having to notice the crash first.
  void set_shard_failure_handler(std::function<void(std::uint32_t)> handler);
  /// Dead shards detected from a failed ecall (vs explicit kill_shard).
  std::uint64_t shard_faults() const { return shard_faults_.load(); }

  /// Label-only lookup into one shard's enclave label store. `nodes` must
  /// all be owned by `shard`.  `modeled_delta`, when non-null, receives the
  /// modeled seconds this lookup added to the shard's meter (the router
  /// takes a max across shards touched by one batch — distinct shard
  /// enclaves serve in parallel).
  std::vector<std::uint32_t> lookup(std::uint32_t shard,
                                    std::span<const std::uint32_t> nodes,
                                    double* modeled_delta = nullptr);

  std::uint32_t num_shards() const { return plan_.num_shards; }
  std::uint32_t owner(std::uint32_t node) const;
  const ShardPlan& plan() const { return plan_; }
  const TrainedVault& vault() const { return vault_; }

  /// Simulate a shard enclave crash: subsequent lookups throw until a
  /// replica takes over (shard/replica_manager.hpp).
  void kill_shard(std::uint32_t shard);
  bool shard_alive(std::uint32_t shard) const;

  Enclave& shard_enclave(std::uint32_t shard);
  const Enclave& shard_enclave(std::uint32_t shard) const;
  const Sha256Digest& shard_platform_key(std::uint32_t shard) const;
  /// The shard package sealed under the shard's own platform key (empty
  /// unless seal_artifacts).
  const SealedBlob& sealed_payload(std::uint32_t shard) const;

  // --- Replication hooks (used by ReplicaManager). -----------------------
  /// Build an enclave with the SAME measurement as the shards (identical
  /// code identity => attestation succeeds, sealing keys differ by
  /// platform), e.g. a standby replica on another platform.
  std::unique_ptr<Enclave> make_peer_enclave(std::uint32_t shard,
                                             const Sha256Digest& platform_key) const;
  /// From inside shard's enclave, ship its package / label store to the
  /// peer endpoint of `ch` (encrypted under the attested session key).
  void send_payload(std::uint32_t shard, AttestedChannel& ch);
  void send_labels(std::uint32_t shard, AttestedChannel& ch);

  /// Adopt a promoted replica as the new PRIMARY of a dead shard: install
  /// its enclave (same measurement, standby platform key), rebuild the
  /// rectifier and sub-adjacency from `payload` (unsealed from the
  /// re-sealed blob INSIDE the promoted enclave by the caller), and re-run
  /// the attested-channel handshake with every surviving halo neighbor so
  /// the shard rejoins the layer-synchronous exchange.  Arguments are
  /// consumed (moved from) ONLY once every precondition has passed — a
  /// rejected adoption leaves the caller's standby slot fully intact.  The
  /// adopted shard's label store is EMPTY afterwards — callers must
  /// re-materialize via refresh() before routing a lookup to it
  /// (ReplicaManager::promote drives exactly that sequence under the
  /// router's promotion fence).
  void adopt_shard(std::uint32_t shard, std::unique_ptr<Enclave>& enclave,
                   ShardPayload& payload, SealedBlob& sealed,
                   const Sha256Digest& platform_key);

  // --- Audit + cost accounting. ------------------------------------------
  /// Plaintext bytes that crossed INTER-SHARD channels, by payload kind.
  /// Tests assert package_bytes == 0 and label_bytes == 0 on these: halo
  /// traffic is embeddings, halo-pull requests, and (during migration
  /// only) audited node-transfer payloads — the one kind allowed to carry
  /// adjacency rows, which is why it is counted separately.
  std::uint64_t halo_kind_bytes(AttestedChannel::PayloadKind kind) const;
  std::uint64_t halo_embedding_bytes() const;
  std::uint64_t halo_label_bytes() const;
  std::uint64_t halo_package_bytes() const;
  std::uint64_t halo_request_bytes() const;
  std::uint64_t halo_transfer_bytes() const;
  /// Wire bytes incl. the power-of-two bucket padding that hides cut /
  /// frontier / move-set cardinalities from the untrusted relay.
  std::uint64_t halo_padded_bytes() const;
  /// Publish the per-kind channel byte audit (and the padded wire total,
  /// whose delta over the payload sum is what the padding spent) as
  /// `channel_kind`-labeled gauges in the global MetricsRegistry.  Also
  /// audits the padding invariant per channel (padded >= logical payload);
  /// a violation would mean block sizes started leaking cardinalities and
  /// trips the FlightRecorder with a channel_anomaly fault.
  void publish_channel_audit() const;
  /// Publish per-shard EPC headroom (modeled EPC budget minus the shard
  /// enclave's current ledger bytes) as `epc.shard_headroom_bytes{shard=}`
  /// gauges — pushed on every state change (refresh, drift update,
  /// adoption), not only when stats() is pulled.
  void publish_epc_gauges() const;

  /// Modeled seconds so far: untrusted backbone + the critical path of the
  /// sharded forward (per phase, the slowest shard — shards run on separate
  /// enclaves/platforms and proceed in parallel between barriers).
  double modeled_seconds() const;
  /// Sum of every shard's meter (total work, not critical path).
  CostMeter aggregate_meter() const;
  const SgxCostModel& cost_model() const { return opts_.cost_model; }
  std::size_t max_shard_peak_bytes() const;

 private:
  struct Shard {
    std::unique_ptr<Enclave> enclave;
    std::unique_ptr<OneWayChannel> stream;  // untrusted -> enclave staging
    /// Serving-vs-adoption guard: lookups hold it shared for their whole
    /// body; adopt_shard holds it exclusive while it swaps the enclave and
    /// every container a lookup reads.  A straggler that slipped past the
    /// router's promotion fence therefore drains BEFORE the swap — a hard
    /// guarantee where the pre-GraphDrift code had a timing assumption.
    mutable SharedMutex access_mu{gv::lockrank::kShardAccess};
    std::atomic<bool> alive{true};
    /// Label store materialized (refresh or rematerialize_shard) and not
    /// since invalidated by an adoption.
    std::atomic<bool> store_ready{false};
    /// Retained boundary activations correspond to the last refresh
    /// snapshot (cleared by adoption; restored by rematerialize_shard).
    std::atomic<bool> retained_valid{false};
    // Enclave-held state (only touched inside ecalls).  GV_SECRET marks
    // everything adjacency- or label-derived; the staged backbone rows
    // (Frontier::bb) stay unmarked — the backbone embeddings are public by
    // the paper's threat model.
    ShardPayload payload;
    GV_SECRET std::shared_ptr<const CsrMatrix> sub_adj;  // owned x closure
    std::unique_ptr<Rectifier> rectifier;
    GV_SECRET std::vector<std::uint32_t> labels;  // label store
    SealedBlob sealed;
    /// Union of halo_out[*] as owned-local row indices (sorted): the rows
    /// whose activations any peer can ever pull cold.
    std::vector<std::uint32_t> boundary_rows;
    // --- GraphDrift mutable topology (enclave-held). ----------------------
    /// Adjacency rows keyed by owned-local index, columns as GLOBAL node
    /// ids in ascending order with the GLOBAL Â value: the mutable source
    /// of truth that payload.adj_* / sub_adj / the rectifier CSR are
    /// regenerated from after a mutation.  Ascending global columns keep
    /// the FP summation order of the unsharded forward.
    GV_SECRET std::vector<std::vector<std::pair<std::uint32_t, float>>> adj_rows;
    /// 1/sqrt(closure_deg + 1) per closure node, recomputed from the
    /// integer degree whenever it changes (bit-exact renormalization).
    GV_SECRET std::vector<float> closure_dinv;
    /// Owned rows referencing each closure node (self-loops included):
    /// a column whose count drops to zero leaves the closure.
    std::vector<std::uint32_t> closure_refs;
    /// FNV digest of each owned row's (cols, values): rows whose digest
    /// survives a delta keep their labels; changed digests seed the
    /// stale-label BFS.
    GV_SECRET std::vector<std::uint64_t> row_digest;
    /// Label-store entries invalidated by a graph update (1 = stale).
    std::vector<char> label_stale;
    std::atomic<std::size_t> stale_count{0};
    /// Boundary-row activations per rectifier layer 0..L-2, retained at
    /// refresh so cold halo pulls need no recompute (rows ~ boundary_rows).
    GV_SECRET std::vector<Matrix> retained;
    /// Transient frontier_forward state (reset per forward, inside ecalls).
    struct Frontier {
      std::vector<std::vector<std::uint32_t>> out_rows;  // [layer] owned-local
      std::vector<std::vector<std::uint32_t>> in_cols;   // [layer] closure-local
      /// serve_live[k][t]: owned-local rows of layer k's output shard t
      /// asked for, answered from the freshly computed frontier;
      /// serve_store[k][t]: same, answered from the retained store.
      std::vector<std::vector<std::vector<std::uint32_t>>> serve_live;
      std::vector<std::vector<std::vector<std::uint32_t>>> serve_store;
      std::vector<Matrix> bb;                            // staged rows per backbone idx
      std::vector<std::vector<std::uint32_t>> bb_need;   // closure-local per backbone idx
      Matrix h;  // latest computed layer output (rows ~ out_rows[k])
      /// QueryLens id of the query this shard is serving halo pulls for —
      /// set ONLY from a received halo request's sealed trailer (never by
      /// the local coordinator), so peer-side halo-serve spans are
      /// genuinely channel-attributed.  0 = untraced.
      std::uint64_t query_id = 0;
    } frontier;
  };

  void provision_shard(Shard& shard, ShardPayload payload);
  /// Rebuild the enclave-held state (sub-adjacency CSR, rectifier, memory
  /// ledger) from `shard.payload` inside `shard.enclave` — shared by initial
  /// provisioning and replica adoption.
  void install_payload(Shard& shard);
  /// Regenerate payload.adj_* from the (mutated) adj_rows + closure arrays,
  /// then the derived views and the sealed blob.  Must run inside an ecall
  /// on `shard.enclave`.
  void rebuild_topology_locked(Shard& shard);
  /// The views derived from payload.adj_* and the halo lists: sub_adj (and
  /// the rectifier's copy of it), boundary_rows, the now void retained
  /// activations, and their ledger entries.  Must run inside an ecall on
  /// `shard.enclave`.
  void rebuild_views_locked(Shard& shard);
  /// Dead-shard bookkeeping for a serving ecall that threw EnclaveFailure:
  /// marks the shard dead, counts the fault, and invokes the failure
  /// handler.  Callers MUST have released the shard's access_mu first —
  /// the handler may join a promotion that needs it exclusively.
  void on_enclave_failure(std::uint32_t shard);
  /// frontier_forward's variant of the bookkeeping: marks the shard dead
  /// and counts the fault, but only RECORDS it (pending_fault_) — the
  /// caller holds infer_mu_, which the handler's promotion join would need
  /// via adopt_shard.  The cold query entry points invoke
  /// notify_pending_fault() after releasing the lock.
  template <typename F>
  auto cold_ecall(std::uint32_t shard, F&& body) -> decltype(body());
  void mark_cold_fault(std::uint32_t shard);
  void notify_pending_fault();
  /// Swap in a fresh owner-map snapshot (caller mutated plan_.owner under
  /// infer_mu_) and bump the ownership epoch.
  void publish_owner_map();
  AttestedChannel* channel(std::uint32_t s, std::uint32_t t);
  /// channel(s, t), creating (and handshaking) it when the pair had no
  /// halo overlap at provisioning time — drift and migration can mint new
  /// neighbor pairs.  Caller holds infer_mu_.
  AttestedChannel& ensure_channel(std::uint32_t s, std::uint32_t t,
                                  std::size_t* created);
  /// The oblivious streaming protocol of the engine's backbone staging:
  /// push the FULL matrix to `sh` in fixed-size chunks (the untrusted
  /// access pattern carries no row-selection information) and run
  /// `scatter(block, r0)` inside a per-chunk ecall — the enclave-side
  /// selection of which rows to keep stays inside the enclave.
  template <typename Scatter>
  void stream_full_matrix(Shard& sh, const Matrix& full, Scatter&& scatter);
  /// The shards a frontier_forward re-installs durable stores into.  A
  /// retaining shard keeps its boundary activations (the forward's rows
  /// must cover boundary_rows) and, with `labels`, its label store (rows
  /// must cover the whole owned set).  Empty = a plain query, which only
  /// heals stale store entries it recomputes.
  struct RetainSet {
    std::vector<char> shards;  // [K], 1 = retain
    bool labels = false;
  };
  /// The one sharded forward: walk `nodes`' frontier, stage the backbone,
  /// compute layer by layer, install what `retain` asks for and return the
  /// labels of `nodes` in query order.  `span` names the wrapper trace span
  /// ("refresh" / "cold_forward").  Caller holds infer_mu_; `fingerprint`
  /// is features_fingerprint(features), hashed once per entry point.
  std::vector<std::uint32_t> frontier_forward(const char* span,
                                              const CsrMatrix& features,
                                              std::uint64_t fingerprint,
                                              std::span<const std::uint32_t> nodes,
                                              ColdSubsetStats* stats,
                                              const RetainSet& retain);
  /// rematerialize_shard (`labels`) / rebuild_boundary_retained body: the
  /// engine over the shard's owned (or boundary) rows, retaining only it.
  void retain_shard(std::uint32_t shard, const CsrMatrix& features, bool labels);
  /// Backbone outputs for `features`, reusing the cache when the
  /// fingerprint matches the last forward (caller holds infer_mu_).
  const std::vector<Matrix>& backbone_for(const CsrMatrix& features,
                                          std::uint64_t fingerprint,
                                          bool* cache_hit);
  /// Run `body(s)` for every shard; adds the slowest shard's meter delta to
  /// the parallel-time accumulator (one synchronized phase).  `phase` names
  /// the interval in the VaultScope trace ("fleet" category); when `layer`
  /// is >= 0 it is attached as a span arg so per-layer halo exchange is
  /// visible in the exported timeline.  The span's modeled clock is the
  /// same slowest-shard delta the accumulator absorbs.
  template <typename F>
  void parallel_phase(const char* phase, std::int64_t layer, F&& body);
  template <typename F>
  void parallel_phase(const char* phase, F&& body);
  double meter_seconds(const Shard& s) const;

  TrainedVault vault_;
  ShardPlan plan_;
  ShardedDeploymentOptions opts_;
  std::vector<std::size_t> required_layers_;
  /// Untrusted degree ledger (one entry per node): mutation metadata the
  /// coordinator needs to hand each enclave the absolute degrees its
  /// renormalization must use.  Like the plan's owner map, it is
  /// vendor-context serving metadata — the edges themselves never leave
  /// the enclaves.  Guarded by infer_mu_.
  std::vector<std::uint32_t> degrees_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Dead enclaves replaced by promoted replicas, kept alive so stragglers
  /// mid-ecall at adoption time never dangle.
  std::vector<std::unique_ptr<Enclave>> retired_enclaves_;
  /// channels_[s * K + t] for s < t; null when no halo overlap either way.
  std::vector<std::unique_ptr<AttestedChannel>> channels_;
  Mutex infer_mu_{gv::lockrank::kDeployment};
  std::atomic<bool> refreshed_{false};
  /// Store epoch: completed refreshes PLUS applied graph updates and
  /// migrations — anything after which a replica's last-synced label store
  /// may no longer be byte-identical to the primary's.  Replicated stores
  /// stamped with an older epoch fail safe (refuse to serve / warm-adopt).
  std::atomic<std::uint64_t> epoch_{0};
  // --- GraphDrift coordination state. ------------------------------------
  /// Copy-on-write owner map (routers snapshot it per batch); swapped
  /// under owner_mu_ by publish_owner_map.
  std::shared_ptr<const std::vector<std::uint32_t>> owner_map_;
  mutable Mutex owner_mu_{gv::lockrank::kMoveFence};
  std::atomic<std::uint64_t> ownership_epoch_{0};
  std::atomic<std::uint64_t> topology_version_{0};
  std::atomic<std::uint64_t> shard_faults_{0};
  /// Shard whose enclave died under a cold-path ecall, awaiting handler
  /// notification outside infer_mu_ (UINT32_MAX = none).
  std::atomic<std::uint32_t> pending_fault_{0xffffffffu};
  /// Per-node migration fences + the global update_graph fence.
  mutable Mutex move_mu_{gv::lockrank::kMoveFence};
  mutable CondVar move_cv_;
  std::vector<std::uint32_t> moving_;  // sorted; guarded by move_mu_
  bool update_fence_ = false;          // guarded by move_mu_
  std::atomic<std::size_t> moving_count_{0};
  std::function<void(std::uint32_t)> failure_handler_;  // guarded by handler_mu_
  mutable Mutex handler_mu_{gv::lockrank::kMoveFence};
  // Untrusted-world backbone output cache (the embeddings are public; only
  // the fingerprint comparison decides reuse).  Guarded by infer_mu_.
  std::vector<Matrix> bb_cache_;
  std::uint64_t bb_fingerprint_ = 0;
  bool have_bb_cache_ = false;
  /// Snapshot fingerprint the materialized label stores + retained boundary
  /// activations correspond to (set at the end of refresh).
  std::uint64_t store_fingerprint_ = 0;
  bool have_store_fingerprint_ = false;
  // Atomics: stats() readers poll while refresh/infer_labels accumulate.
  std::atomic<double> untrusted_seconds_{0.0};
  std::atomic<double> parallel_seconds_{0.0};
};

}  // namespace gv
