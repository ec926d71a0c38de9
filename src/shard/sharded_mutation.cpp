// ShardedVaultDeployment's GraphDrift half: live private-graph mutation
// (update_graph) and node migration between live shards (move_node).  See
// sharded_deployment.hpp for the contracts.
#include "shard/sharded_deployment.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_helpers.hpp"

namespace gv {

namespace {

/// Position of `v` in sorted `ids`, or -1 when absent.
std::ptrdiff_t find_in(const std::vector<std::uint32_t>& ids, std::uint32_t v) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it == ids.end() || *it != v) return -1;
  return it - ids.begin();
}

/// Insert `v` into sorted `ids` if absent; true when inserted.
bool sorted_insert(std::vector<std::uint32_t>& ids, std::uint32_t v) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it != ids.end() && *it == v) return false;
  ids.insert(it, v);
  return true;
}

/// Erase `v` from sorted `ids` if present; true when erased.
bool sorted_erase(std::vector<std::uint32_t>& ids, std::uint32_t v) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it == ids.end() || *it != v) return false;
  ids.erase(it);
  return true;
}

}  // namespace

GraphUpdateStats ShardedVaultDeployment::update_graph(
    const GraphDelta& delta, const CsrMatrix* features_after,
    const std::function<void()>& before_unfence) {
  MutexLock lock(infer_mu_);
  GraphUpdateStats stats;
  if (delta.empty()) return stats;
  TraceSpan update_span("drift", "graph_update");
  update_span.arg("edge_inserts", double(delta.edge_inserts.size()));
  update_span.arg("edge_deletes", double(delta.edge_deletes.size()));
  update_span.arg("node_adds", double(delta.node_adds.size()));
  for (const auto& sh : shards_) {
    GV_CHECK(sh->alive, "graph update requires every shard enclave alive");
  }
  const std::uint32_t K = plan_.num_shards;
  const std::uint32_t n_old = static_cast<std::uint32_t>(plan_.owner.size());

  // Global fence: between the structural edit below and the stale marking
  // at the end there is a window where an invalidated label-store entry is
  // not yet flagged; routers wait the fence out instead of reading through
  // it (await_moves).
  {
    MutexLock mlock(move_mu_);
    update_fence_ = true;
  }
  moving_count_.fetch_add(1);
  struct FenceGuard {
    ShardedVaultDeployment* d;
    std::chrono::steady_clock::time_point raised;
    ~FenceGuard() {
      {
        MutexLock mlock(d->move_mu_);
        d->update_fence_ = false;
      }
      d->moving_count_.fetch_sub(1);
      d->move_cv_.notify_all();
      TraceRecorder::instance().emit("drift", "update_fence", raised,
                                     std::chrono::steady_clock::now());
    }
  } fence_guard{this, std::chrono::steady_clock::now()};

  // ---- 0. Validate BEFORE mutating any coordinator state: a rejected
  // delta must leave the deployment exactly as it found it.
  {
    const std::uint32_t n_after =
        n_old + static_cast<std::uint32_t>(delta.node_adds.size());
    for (const auto& [a, b] : delta.edge_inserts) {
      GV_CHECK(a < n_after && b < n_after, "edge insert endpoint out of range");
    }
  }
  // Epoch forward BEFORE any marking: a routed batch that slipped past
  // await_moves and trips over a half-applied update must see the epoch
  // already moved, so its retry regroups (and then blocks on the fence
  // until this update completes) instead of surfacing an internal error.
  ownership_epoch_.fetch_add(1);

  // ---- 1. Node adds: appended ids go to the least-loaded shard. ----------
  stats.nodes_added = delta.node_adds.size();
  for (std::size_t i = 0; i < delta.node_adds.size(); ++i) {
    std::uint32_t target = 0;
    for (std::uint32_t s = 1; s < K; ++s) {
      if (plan_.shards[s].nodes.size() < plan_.shards[target].nodes.size()) {
        target = s;
      }
    }
    const std::uint32_t g = n_old + static_cast<std::uint32_t>(i);
    plan_.owner.push_back(target);
    plan_.shards[target].nodes.push_back(g);  // new max id: stays sorted
    degrees_.push_back(0);
    stats.added_nodes.push_back({g, target});
  }
  const std::uint32_t n = n_old + static_cast<std::uint32_t>(stats.nodes_added);

  // ---- 2. Edge semantics: canonicalize, then replay deletes-then-inserts
  // against the start-of-delta edge state, so duplicates and cancels no-op
  // exactly like Graph::remove_edge / Graph::add_edge (what the vendor-side
  // apply_delta does to the oracle's graph).
  auto key_of = [](std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deletes_c, inserts_c;
  for (const auto& [a, b] : delta.edge_deletes) {
    if (a == b || a >= n || b >= n) continue;  // remove_edge semantics: no-op
    deletes_c.push_back({std::min(a, b), std::max(a, b)});
  }
  for (const auto& [a, b] : delta.edge_inserts) {
    if (a == b) continue;  // add_edge semantics: self-loops rejected
    inserts_c.push_back({std::min(a, b), std::max(a, b)});
  }

  // Start-of-delta existence, queried from the owning enclaves (one ecall
  // per shard).  Edges touching an appended node are trivially absent.
  std::unordered_map<std::uint64_t, char> state;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> queries(K);
  for (const auto& list : {deletes_c, inserts_c}) {
    for (const auto& [a, b] : list) {
      const std::uint64_t key = key_of(a, b);
      if (state.count(key)) continue;
      if (a >= n_old || b >= n_old) {
        state[key] = 0;
      } else {
        state[key] = 0;  // filled by the query below
        queries[plan_.owner[a]].push_back({a, b});
      }
    }
  }
  for (std::uint32_t s = 0; s < K; ++s) {
    if (queries[s].empty()) continue;
    Shard& sh = *shards_[s];
    sh.enclave->ecall([&] {
      for (const auto& [a, b] : queries[s]) {
        const std::uint32_t r =
            position_of(sh.payload.owned, a, "edge endpoint not owned");
        const auto& row = sh.adj_rows[r];
        const auto it = std::lower_bound(
            row.begin(), row.end(), b,
            [](const std::pair<std::uint32_t, float>& e, std::uint32_t x) {
              return e.first < x;
            });
        state[key_of(a, b)] = (it != row.end() && it->first == b) ? 1 : 0;
      }
    });
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> applied_deletes,
      applied_inserts;
  for (const auto& [a, b] : deletes_c) {
    char& st = state[key_of(a, b)];
    if (st) {
      st = 0;
      applied_deletes.push_back({a, b});
      if (plan_.owner[a] != plan_.owner[b]) ++stats.cut_edges_deleted;
    }
  }
  for (const auto& [a, b] : inserts_c) {
    char& st = state[key_of(a, b)];
    if (!st) {
      st = 1;
      applied_inserts.push_back({a, b});
      if (plan_.owner[a] != plan_.owner[b]) ++stats.cut_edges_inserted;
    }
  }
  stats.edges_deleted = applied_deletes.size();
  stats.edges_inserted = applied_inserts.size();
  if (applied_deletes.empty() && applied_inserts.empty() &&
      stats.nodes_added == 0) {
    return stats;  // the whole delta was a no-op
  }

  // ---- 3. Degree deltas -> (node, new absolute degree), sorted. ----------
  std::unordered_map<std::uint32_t, int> ddelta;
  for (const auto& [a, b] : applied_deletes) {
    --ddelta[a];
    --ddelta[b];
  }
  for (const auto& [a, b] : applied_inserts) {
    ++ddelta[a];
    ++ddelta[b];
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
  touched.reserve(ddelta.size() + stats.nodes_added);
  for (const auto& [v, d] : ddelta) {
    GV_CHECK(d >= 0 || degrees_[v] >= static_cast<std::uint32_t>(-d),
             "degree ledger underflow");
    degrees_[v] = static_cast<std::uint32_t>(static_cast<int>(degrees_[v]) + d);
    touched.push_back({v, degrees_[v]});
  }
  // Appended nodes are always "touched": their placeholder self-loop value
  // must go through the renormalization pass even when they stay isolated.
  for (const auto& [g, t] : stats.added_nodes) {
    (void)t;
    if (!ddelta.count(g)) touched.push_back({g, degrees_[g]});
  }
  std::sort(touched.begin(), touched.end());

  // ---- 4. Per-shard structural apply + bit-exact renormalization. --------
  struct ApplyReport {
    std::vector<std::uint32_t> changed_rows;     // global ids, ascending owned order
    std::vector<std::uint32_t> closure_added;    // global ids
    std::vector<std::uint32_t> closure_dropped;  // global ids
    std::size_t renormalized = 0;
    bool structural = false;
  };
  std::vector<ApplyReport> reports(K);
  std::vector<char> needs_rebuild(K, 0);
  std::vector<std::uint32_t> touched_ids;
  touched_ids.reserve(touched.size());
  for (const auto& [v, d] : touched) {
    (void)d;
    touched_ids.push_back(v);
  }

  for (std::uint32_t s = 0; s < K; ++s) {
    Shard& sh = *shards_[s];
    ApplyReport& rep = reports[s];
    sh.enclave->ecall([&] {
      ShardPayload& p = sh.payload;
      auto touched_deg = [&](std::uint32_t v) {
        const auto it = std::lower_bound(
            touched.begin(), touched.end(),
            std::make_pair(v, std::uint32_t{0}),
            [](const auto& e, const auto& x) { return e.first < x.first; });
        GV_CHECK(it != touched.end() && it->first == v,
                 "closure entrant missing from the touched set");
        return it->second;
      };
      auto closure_insert = [&](std::uint32_t g, std::uint32_t deg) {
        const auto it = std::lower_bound(p.closure.begin(), p.closure.end(), g);
        const std::size_t idx = static_cast<std::size_t>(it - p.closure.begin());
        p.closure.insert(it, g);
        p.closure_deg.insert(p.closure_deg.begin() + idx, deg);
        sh.closure_dinv.insert(sh.closure_dinv.begin() + idx, deg_inv_sqrt(deg));
        sh.closure_refs.insert(sh.closure_refs.begin() + idx, 0);
        rep.closure_added.push_back(g);
      };

      // Appended nodes owned here: a fresh row holding just the self-loop.
      for (const auto& [g, t] : stats.added_nodes) {
        if (t != s) continue;
        GV_CHECK(p.owned.empty() || g > p.owned.back(),
                 "appended node id must be a new maximum");
        p.owned.push_back(g);
        sh.adj_rows.push_back({{g, 0.0f}});  // value set by the renorm pass
        if (!sh.labels.empty()) sh.labels.push_back(0);
        sh.label_stale.push_back(0);
        sh.row_digest.push_back(0);
        if (find_in(p.closure, g) < 0) closure_insert(g, touched_deg(g));
        ++sh.closure_refs[position_of(p.closure, g, "added node not in closure")];
        rep.structural = true;
      }

      auto edit_dir = [&](std::uint32_t u, std::uint32_t v, bool insert) {
        if (plan_.owner[u] != s) return;
        const std::uint32_t r = position_of(p.owned, u, "endpoint not owned");
        if (insert && find_in(p.closure, v) < 0) {
          closure_insert(v, touched_deg(v));
        }
        auto& row = sh.adj_rows[r];
        const auto it = std::lower_bound(
            row.begin(), row.end(), v,
            [](const std::pair<std::uint32_t, float>& e, std::uint32_t x) {
              return e.first < x;
            });
        const std::uint32_t cp =
            position_of(p.closure, v, "edited column outside closure");
        if (insert) {
          GV_CHECK(it == row.end() || it->first != v,
                   "inserted edge already present in shard row");
          row.insert(it, {v, 0.0f});  // value set by the renorm pass
          ++sh.closure_refs[cp];
        } else {
          GV_CHECK(it != row.end() && it->first == v,
                   "deleted edge missing from shard row");
          row.erase(it);
          GV_CHECK(sh.closure_refs[cp] > 0, "closure refcount underflow");
          --sh.closure_refs[cp];
        }
        rep.structural = true;
      };
      for (const auto& [a, b] : applied_deletes) {
        edit_dir(a, b, false);
        edit_dir(b, a, false);
      }
      for (const auto& [a, b] : applied_inserts) {
        edit_dir(a, b, true);
        edit_dir(b, a, true);
      }

      // New degrees -> new D̃^{-1/2} for every touched closure node.
      bool touched_in_closure = false;
      for (const auto& [v, nd] : touched) {
        const std::ptrdiff_t idx = find_in(p.closure, v);
        if (idx < 0) continue;
        p.closure_deg[idx] = nd;
        sh.closure_dinv[idx] = deg_inv_sqrt(nd);
        touched_in_closure = true;
      }

      // Renormalize every owned row that is touched or references a touched
      // column: each value becomes dinv(row) * dinv(col) — the exact floats
      // a from-scratch normalization of the mutated graph would produce, in
      // the exact (ascending global column) summation order.  The per-row
      // digest decides whether the row REALLY changed (a cancelled delta
      // leaves it byte-identical and its labels alone).
      if (rep.structural || touched_in_closure) {
        for (std::uint32_t i = 0; i < sh.adj_rows.size(); ++i) {
          const std::uint32_t rg = p.owned[i];
          bool touch = std::binary_search(touched_ids.begin(), touched_ids.end(), rg);
          if (!touch) {
            for (const auto& [c, v] : sh.adj_rows[i]) {
              (void)v;
              if (std::binary_search(touched_ids.begin(), touched_ids.end(), c)) {
                touch = true;
                break;
              }
            }
          }
          if (!touch) continue;
          const float dr =
              sh.closure_dinv[position_of(p.closure, rg, "row not in closure")];
          for (auto& [c, val] : sh.adj_rows[i]) {
            val = dr * sh.closure_dinv[position_of(p.closure, c,
                                                   "column outside closure")];
          }
          ++rep.renormalized;
          const std::uint64_t digest = row_fnv(sh.adj_rows[i]);
          if (digest != sh.row_digest[i]) {
            sh.row_digest[i] = digest;
            rep.changed_rows.push_back(rg);
          }
        }
      }

      // Columns nobody references anymore leave the closure (and, via the
      // relay below, the former provider's halo list).
      for (std::size_t idx = p.closure.size(); idx-- > 0;) {
        if (sh.closure_refs[idx] != 0) continue;
        rep.closure_dropped.push_back(p.closure[idx]);
        p.closure.erase(p.closure.begin() + idx);
        p.closure_deg.erase(p.closure_deg.begin() + idx);
        sh.closure_dinv.erase(sh.closure_dinv.begin() + idx);
        sh.closure_refs.erase(sh.closure_refs.begin() + idx);
        rep.structural = true;
      }
    });
    stats.rows_renormalized += rep.renormalized;
    if (rep.structural || !rep.changed_rows.empty()) needs_rebuild[s] = 1;
  }

  // ---- 5. Halo relays: closure membership drives who ships what. ---------
  for (std::uint32_t s = 0; s < K; ++s) {
    for (const auto g : reports[s].closure_added) {
      const std::uint32_t t = plan_.owner[g];
      if (t == s) continue;
      ensure_channel(s, t, &stats.channels_created);
      Shard& sh = *shards_[t];
      sh.enclave->ecall([&] { sorted_insert(sh.payload.halo_out[s], g); });
      needs_rebuild[t] = 1;
    }
    for (const auto g : reports[s].closure_dropped) {
      const std::uint32_t t = plan_.owner[g];
      if (t == s) continue;
      Shard& sh = *shards_[t];
      sh.enclave->ecall([&] { sorted_erase(sh.payload.halo_out[s], g); });
      needs_rebuild[t] = 1;
    }
  }

  // ---- 6. Regenerate derived views + re-seal on every touched shard. -----
  for (std::uint32_t s = 0; s < K; ++s) {
    if (!needs_rebuild[s]) continue;
    Shard& sh = *shards_[s];
    sh.enclave->ecall([&] { rebuild_topology_locked(sh); });
    ++stats.shards_touched;
  }

  // ---- 7. Receptive-field BFS: labels within L-1 hops of a changed row
  // are stale.  Each hop expands inside the owning enclaves — the
  // coordinator sees node ids (delta-derived metadata), never edges beyond
  // what the delta itself named.
  const std::size_t L = vault_.rectifier->config().channels.size();
  std::vector<char> visited(n, 0);
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t s = 0; s < K; ++s) {
    for (const auto g : reports[s].changed_rows) {
      if (!visited[g]) {
        visited[g] = 1;
        frontier.push_back(g);
      }
    }
  }
  stats.changed_rows = frontier;
  std::sort(stats.changed_rows.begin(), stats.changed_rows.end());
  std::vector<std::uint32_t> affected = frontier;
  for (std::size_t hop = 1; hop < L && !frontier.empty(); ++hop) {
    std::vector<std::vector<std::uint32_t>> by_owner(K);
    for (const auto v : frontier) by_owner[plan_.owner[v]].push_back(v);
    std::vector<std::uint32_t> next;
    for (std::uint32_t s = 0; s < K; ++s) {
      if (by_owner[s].empty()) continue;
      Shard& sh = *shards_[s];
      sh.enclave->ecall([&] {
        for (const auto v : by_owner[s]) {
          const std::uint32_t r =
              position_of(sh.payload.owned, v, "BFS node not owned");
          for (const auto& [c, val] : sh.adj_rows[r]) {
            (void)val;
            if (!visited[c]) {
              visited[c] = 1;
              next.push_back(c);
            }
          }
        }
      });
    }
    affected.insert(affected.end(), next.begin(), next.end());
    frontier.swap(next);
  }
  std::sort(affected.begin(), affected.end());
  stats.stale_nodes = std::move(affected);

  // ---- 8. Invalidate the reachable label-store entries. ------------------
  {
    std::vector<std::vector<std::uint32_t>> by_owner(K);
    for (const auto v : stats.stale_nodes) by_owner[plan_.owner[v]].push_back(v);
    for (std::uint32_t s = 0; s < K; ++s) {
      if (by_owner[s].empty()) continue;
      Shard& sh = *shards_[s];
      std::size_t newly = 0;
      sh.enclave->ecall([&] {
        if (sh.labels.empty()) return;  // no store: the cold path is already
                                        // the only source of truth
        for (const auto v : by_owner[s]) {
          const std::uint32_t r =
              position_of(sh.payload.owned, v, "stale node not owned");
          if (!sh.label_stale[r]) {
            sh.label_stale[r] = 1;
            ++newly;
          }
        }
      });
      if (newly > 0) sh.stale_count.fetch_add(newly);
      stats.store_entries_invalidated += newly;
      // Boundary activations of any shard inside the affected set may have
      // moved — even when every reached entry was ALREADY stale from an
      // earlier delta (a boundary rebuild may have run in between); cold
      // halo pulls fall back to live compute until the next refresh /
      // re-materialization.
      sh.retained_valid.store(false);
    }
  }

  // ---- 9. Publish. --------------------------------------------------------
  if (stats.nodes_added > 0) {
    extend_backbone(vault_, n);
    bb_cache_.clear();
    have_bb_cache_ = false;
    publish_owner_map();
    if (features_after != nullptr) {
      GV_CHECK(features_after->rows() == n,
               "post-update features must cover the appended nodes");
      if (have_store_fingerprint_) {
        store_fingerprint_ = features_fingerprint(*features_after);
      }
    } else {
      // Without the post-update snapshot the store fingerprint cannot be
      // re-anchored; retained stores stop serving until the next refresh.
      have_store_fingerprint_ = false;
    }
  }
  // Store epoch forward: replicated label stores synced before this update
  // are no longer byte-identical to the primary's; packages replicated
  // before it describe a retired topology.
  epoch_.fetch_add(1);
  topology_version_.fetch_add(1);
  // Caller-side state that must change atomically with the topology (the
  // server's feature snapshot) swaps while the fence is still up.
  if (before_unfence) before_unfence();
  return stats;
}

double ShardedVaultDeployment::move_node(std::uint32_t node, std::uint32_t to) {
  MutexLock lock(infer_mu_);
  GV_CHECK(node < plan_.owner.size(), "node out of range");
  GV_CHECK(to < plan_.num_shards, "destination shard out of range");
  const std::uint32_t from = plan_.owner[node];
  GV_CHECK(from != to, "node already lives on the destination shard");
  Shard& A = *shards_[from];
  Shard& B = *shards_[to];
  GV_CHECK(A.alive.load() && B.alive.load(),
           "migration requires both shards alive");
  GV_CHECK(plan_.shards[from].nodes.size() > 1,
           "refusing to empty a shard by migration");
  const std::uint32_t K = plan_.num_shards;

  TraceSpan move_span("drift", "move_node");
  move_span.arg("node", double(node));
  move_span.arg("from", double(from));
  move_span.arg("to", double(to));

  // Per-move fence: routers park lookups for THIS node until ownership has
  // flipped and both stores are consistent; every other node serves
  // throughout the move.
  {
    MutexLock mlock(move_mu_);
    GV_CHECK(sorted_insert(moving_, node), "node is already mid-migration");
  }
  moving_count_.fetch_add(1);
  Stopwatch fence_watch;
  const auto fence_raised = std::chrono::steady_clock::now();
  double fence_ms = 0.0;
  bool fenced = true;
  auto unfence = [&] {
    if (!fenced) return;
    fence_ms = fence_watch.seconds() * 1e3;
    {
      MutexLock mlock(move_mu_);
      sorted_erase(moving_, node);
    }
    moving_count_.fetch_sub(1);
    move_cv_.notify_all();
    fenced = false;
    TraceRecorder::instance().emit("drift", "migration_fence", fence_raised,
                                   std::chrono::steady_clock::now(), 0.0,
                                   {{"node", double(node)}});
  };

  try {
    AttestedChannel& ch = ensure_channel(from, to, nullptr);

    // --- Extract + seal inside the losing enclave. ------------------------
    A.enclave->ecall([&] {
      const std::uint32_t r =
          position_of(A.payload.owned, node, "node not owned by its shard");
      const auto& row = A.adj_rows[r];
      std::vector<std::uint8_t> bytes;
      bytes.reserve(24 + row.size() * 12);
      auto put32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
          bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
      };
      put32(node);
      const bool has_label = !A.labels.empty();
      put32(has_label ? 1u : 0u);
      put32(has_label ? A.labels[r] : 0u);
      put32(has_label && A.label_stale[r] ? 1u : 0u);
      put32(static_cast<std::uint32_t>(row.size()));
      for (const auto& [c, v] : row) {
        put32(c);
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put32(bits);
        put32(A.payload.closure_deg[position_of(A.payload.closure, c,
                                                "row column outside closure")]);
      }
      ch.send_transfer(*A.enclave, std::move(bytes));
    });

    // --- Install inside the gaining enclave. ------------------------------
    std::vector<std::uint32_t> b_closure_added;
    bool b_gained_stale = false;
    B.enclave->ecall([&] {
      const auto bytes = ch.recv_transfer(*B.enclave);
      std::size_t off = 0;
      auto get32 = [&] {
        GV_CHECK(off + 4 <= bytes.size(), "truncated node transfer");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t(bytes[off + i]) << (8 * i);
        off += 4;
        return v;
      };
      GV_CHECK(get32() == node, "node transfer names a different node");
      const bool has_label = get32() != 0;
      const std::uint32_t label = get32();
      const bool was_stale = get32() != 0;
      const std::uint32_t nnz = get32();
      std::vector<std::pair<std::uint32_t, float>> row;
      row.reserve(nnz);
      std::vector<std::uint32_t> col_deg;
      col_deg.reserve(nnz);
      for (std::uint32_t i = 0; i < nnz; ++i) {
        const std::uint32_t c = get32();
        const std::uint32_t bits = get32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        row.push_back({c, v});
        col_deg.push_back(get32());
      }

      ShardPayload& p = B.payload;
      const auto it = std::lower_bound(p.owned.begin(), p.owned.end(), node);
      GV_CHECK(it == p.owned.end() || *it != node,
               "destination shard already owns the node");
      const std::size_t pos = static_cast<std::size_t>(it - p.owned.begin());
      p.owned.insert(it, node);
      B.adj_rows.insert(B.adj_rows.begin() + pos, row);
      B.row_digest.insert(B.row_digest.begin() + pos, row_fnv(row));
      char stale_bit = 0;
      if (!B.labels.empty() || (B.store_ready.load() && p.owned.size() == 1)) {
        // The gaining store is materialized: carry the label (and its
        // staleness) across so serving stays warm.
        B.labels.insert(B.labels.begin() + pos, label);
        stale_bit = (has_label ? (was_stale ? 1 : 0) : 1);
      }
      B.label_stale.insert(B.label_stale.begin() + pos, stale_bit);
      b_gained_stale = stale_bit != 0;

      for (std::uint32_t i = 0; i < row.size(); ++i) {
        const std::uint32_t c = row[i].first;
        if (find_in(p.closure, c) < 0) {
          const auto cit = std::lower_bound(p.closure.begin(), p.closure.end(), c);
          const std::size_t idx = static_cast<std::size_t>(cit - p.closure.begin());
          p.closure.insert(cit, c);
          p.closure_deg.insert(p.closure_deg.begin() + idx, col_deg[i]);
          B.closure_dinv.insert(B.closure_dinv.begin() + idx,
                                deg_inv_sqrt(col_deg[i]));
          B.closure_refs.insert(B.closure_refs.begin() + idx, 0);
          b_closure_added.push_back(c);
        }
        ++B.closure_refs[position_of(p.closure, c, "transfer column missing")];
      }
    });
    if (b_gained_stale) B.stale_count.fetch_add(1);

    // --- Flip ownership while BOTH enclaves hold the node: a lookup that
    // grouped against the old snapshot still finds the row on the old
    // owner; one that grouped against the new snapshot finds it on the new
    // one.  Split ownership is never observable.
    plan_.owner[node] = to;
    sorted_erase(plan_.shards[from].nodes, node);
    sorted_insert(plan_.shards[to].nodes, node);
    publish_owner_map();
    topology_version_.fetch_add(1);
    epoch_.fetch_add(1);

    // --- Retire the old row. ----------------------------------------------
    std::vector<std::uint32_t> a_closure_dropped;
    std::vector<std::uint32_t> halo_peers;  // shards that pull `node`
    bool a_lost_stale = false;
    A.enclave->ecall([&] {
      ShardPayload& p = A.payload;
      const std::uint32_t r = position_of(p.owned, node, "node vanished mid-move");
      for (const auto& [c, v] : A.adj_rows[r]) {
        (void)v;
        const std::uint32_t cp =
            position_of(p.closure, c, "row column outside closure");
        GV_CHECK(A.closure_refs[cp] > 0, "closure refcount underflow");
        --A.closure_refs[cp];
      }
      if (!A.labels.empty()) A.labels.erase(A.labels.begin() + r);
      a_lost_stale = A.label_stale[r] != 0;
      A.label_stale.erase(A.label_stale.begin() + r);
      A.adj_rows.erase(A.adj_rows.begin() + r);
      A.row_digest.erase(A.row_digest.begin() + r);
      p.owned.erase(p.owned.begin() + r);
      for (std::uint32_t t = 0; t < K; ++t) {
        if (sorted_erase(p.halo_out[t], node)) halo_peers.push_back(t);
      }
      for (std::size_t idx = p.closure.size(); idx-- > 0;) {
        if (A.closure_refs[idx] != 0) continue;
        a_closure_dropped.push_back(p.closure[idx]);
        p.closure.erase(p.closure.begin() + idx);
        p.closure_deg.erase(p.closure_deg.begin() + idx);
        A.closure_dinv.erase(A.closure_dinv.begin() + idx);
        A.closure_refs.erase(A.closure_refs.begin() + idx);
      }
    });
    if (a_lost_stale) A.stale_count.fetch_sub(1);

    // The label stores on both sides are consistent and ownership has
    // flipped — the fence can lift; halo re-routing below only affects
    // refresh/cold paths, which this thread's infer lock still excludes.
    unfence();

    std::vector<char> needs_rebuild(K, 0);
    needs_rebuild[from] = needs_rebuild[to] = 1;
    // Shards that pulled `node` from the old owner now pull it from the new
    // one; `to` itself owns it now and pulls nothing.
    for (const auto t : halo_peers) {
      if (t == to) continue;
      ensure_channel(to, t, nullptr);
      B.enclave->ecall([&] { sorted_insert(B.payload.halo_out[t], node); });
    }
    // The old owner may still border the node (other owned rows reference
    // it): it becomes a halo consumer of its former node.
    bool a_still_needs = false;
    A.enclave->ecall(
        [&] { a_still_needs = find_in(A.payload.closure, node) >= 0; });
    if (a_still_needs) {
      B.enclave->ecall([&] { sorted_insert(B.payload.halo_out[from], node); });
    }
    // Columns new to the gaining shard's closure: their owners ship them.
    for (const auto g : b_closure_added) {
      const std::uint32_t t = plan_.owner[g];
      if (t == to) continue;
      ensure_channel(to, t, nullptr);
      Shard& sh = *shards_[t];
      sh.enclave->ecall([&] { sorted_insert(sh.payload.halo_out[to], g); });
      needs_rebuild[t] = 1;
    }
    // Columns the losing shard dropped: their owners stop shipping them.
    for (const auto g : a_closure_dropped) {
      const std::uint32_t t = plan_.owner[g];
      if (t == from) continue;
      Shard& sh = *shards_[t];
      sh.enclave->ecall([&] { sorted_erase(sh.payload.halo_out[from], g); });
      needs_rebuild[t] = 1;
    }

    for (std::uint32_t s = 0; s < K; ++s) {
      if (!needs_rebuild[s]) continue;
      Shard& sh = *shards_[s];
      sh.enclave->ecall([&] { rebuild_topology_locked(sh); });
    }
  } catch (...) {
    unfence();
    throw;
  }
  return fence_ms;
}

}  // namespace gv
