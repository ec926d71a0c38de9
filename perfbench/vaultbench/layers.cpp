// Layer replay of a traced run.  After the timed phase, with every server
// torn down, the workload's recorded batches, deltas and snapshots are
// pushed through each layer's public functions, one call per span, and the
// per-layer metrics are read off those calls.  The same replay runs for
// every workload, on that workload's twin and vault, so every metric is
// measured on every workload.
#include <immintrin.h>

#include <map>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "core/deployment.hpp"
#include "core/package.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "serve/label_cache.hpp"
#include "serve/vault_server.hpp"
#include "sgxsim/chacha20poly1305.hpp"
#include "sgxsim/channel.hpp"
#include "sgxsim/enclave.hpp"
#include "sgxsim/sha256.hpp"
#include "shard/migration.hpp"
#include "shard/replica_manager.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_deployment.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"

namespace vb {

using gv::CsrMatrix;
using gv::GraphDelta;
using gv::Matrix;

namespace {

constexpr std::uint32_t kReplayShards = 4;
constexpr int kReps = 3;               // repeats of whole-graph calls
constexpr std::size_t kCallBatches = 16;  // recorded batches per per-call metric
constexpr std::size_t kEcalls = 20000;
constexpr std::size_t kStreamBytes = 16u << 20;  // hashed / sealed per metric
constexpr std::size_t kMaxMoves = 32;            // plan-diff moves executed

// --- FMA roof ---------------------------------------------------------------
//
// Peak single-precision FMA throughput: every hardware thread runs a loop
// of independent vector FMAs at once (AVX-512 or AVX2 when the CPU has it).

constexpr int kChains = 10;  // independent accumulators, enough to cover FMA latency

__attribute__((target("avx512f"))) double fma_avx512(std::size_t iters, float* sink) {
  __m512 acc[kChains];
  const __m512 a = _mm512_set1_ps(1.0000001f);
  const __m512 b = _mm512_set1_ps(1e-7f);
  for (auto& x : acc) x = b;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    for (auto& x : acc) x = _mm512_fmadd_ps(x, a, b);
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  alignas(64) float lanes[16];
  float sum = 0.0f;
  for (auto& x : acc) {
    _mm512_store_ps(lanes, x);
    sum += lanes[0];
  }
  *sink = sum;
  return 2.0 * kChains * 16.0 * static_cast<double>(iters) / s / 1e9;
}

__attribute__((target("avx2,fma"))) double fma_avx2(std::size_t iters, float* sink) {
  __m256 acc[kChains];
  const __m256 a = _mm256_set1_ps(1.0000001f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  for (auto& x : acc) x = b;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    for (auto& x : acc) x = _mm256_fmadd_ps(x, a, b);
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  alignas(32) float lanes[8];
  float sum = 0.0f;
  for (auto& x : acc) {
    _mm256_store_ps(lanes, x);
    sum += lanes[0];
  }
  *sink = sum;
  return 2.0 * kChains * 8.0 * static_cast<double>(iters) / s / 1e9;
}

double fma_roof_gflops() {
  double (*loop)(std::size_t, float*) = nullptr;
  if (__builtin_cpu_supports("avx512f")) {
    loop = fma_avx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    loop = fma_avx2;
  } else {
    return 0.0;  // no vector FMA: no roof to compare against
  }
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> per(threads);
  std::vector<float> sink(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      loop(1u << 18, &sink[t]);  // warm the core's vector unit
      per[t] = loop(1u << 22, &sink[t]);
    });
  }
  for (auto& th : pool) th.join();
  double sum = 0.0;
  for (const double g : per) sum += g;
  return sum;
}

std::vector<double> per_call_us(const char* layer, const char* name,
                                const std::vector<std::vector<std::uint32_t>>& batches,
                                const std::function<void(const std::vector<std::uint32_t>&)>& f) {
  std::vector<double> us;
  for (std::size_t i = 0; i < batches.size() && i < kCallBatches; ++i) {
    us.push_back(1e6 * timed(layer, name, [&] { f(batches[i]); }, i));
  }
  return us;
}

/// Self time per layer over spans[from..): each span's duration minus the
/// time its children cover.
std::map<std::string, double> layer_self_ms(std::size_t from) {
  const auto& spans = Tracer::get().spans();
  std::vector<double> child(spans.size(), 0.0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (spans[i].end_ns == 0) continue;  // still open
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= from) {
      child[static_cast<std::size_t>(p)] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (spans[i].end_ns == 0) continue;
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[spans[i].layer] += (d - child[i]) / 1e6;
  }
  return self;
}

}  // namespace

void replay_layers(const Options& opt, const Recorded& rec, Result& r) {
  const gv::TrainedVault& vault = *rec.vault;
  const gv::Dataset& ds = *rec.ds;
  const CsrMatrix& features = ds.features;
  const std::size_t from = Tracer::get().mark();
  Span replay_span("bench", "replay");
  gv::Rng rng(opt.seed ^ 0x7e1au);

  std::vector<std::vector<std::uint32_t>> batches = rec.batches;
  GV_CHECK(!batches.empty(), "layer replay needs recorded batches");

  // --- core -----------------------------------------------------------------
  std::vector<Matrix> outputs;
  std::vector<double> backbone_ms;
  for (int i = 0; i < kReps; ++i) {
    backbone_ms.push_back(1e3 * timed("core", "backbone_outputs",
                                      [&] { outputs = vault.backbone_outputs(features); }));
  }
  r.layer("core.backbone_ms", "ms", median(backbone_ms));

  std::vector<double> subset_ms;
  double frontier_rows = 0.0;
  for (std::size_t i = 0; i < batches.size() && i < kCallBatches; ++i) {
    std::vector<std::size_t> rows;
    subset_ms.push_back(1e3 * timed("core", "forward_subset", [&] {
      vault.rectifier->forward_subset(outputs, batches[i], &rows);
    }, i));
    for (const auto x : rows) frontier_rows += static_cast<double>(x);
  }
  r.layer("core.rectifier_subset_ms", "ms", median(subset_ms));
  r.layer("core.frontier_rows", "count", frontier_rows / static_cast<double>(subset_ms.size()));

  // --- serve + single-enclave deployment ------------------------------------
  {
    gv::ServerConfig sc;
    sc.worker_threads = 2;
    sc.cache_capacity = 1u << 16;
    gv::VaultServer probe(ds, vault, gv::DeploymentOptions{}, sc);
    for (const auto& b : batches) probe.submit_many(b).get_all();  // warm the cache
    std::vector<double> hit_us;
    for (const auto& b : batches) {
      for (const auto v : b) {
        gv::SubmitToken tok;
        hit_us.push_back(1e6 * timed("serve", "submit_hit", [&] { tok = probe.submit(v); }));
        if (!tok.ready()) r.fail_check("warm cache missed in the layer replay");
      }
    }
    r.layer("serve.hit_submit_us", "us", median(hit_us));

    auto& dep = probe.deployment();
    const auto bb = dep.run_backbone(features);
    const auto infer_us = per_call_us("core", "infer_labels_batched", batches,
                                      [&](const auto& b) { dep.infer_labels_batched(bb, b); });
    r.layer("core.infer_batched_ms", "ms", median(infer_us) / 1e3);
  }

  // --- sgxsim ---------------------------------------------------------------
  {
    std::size_t bytes = 0;
    const double s = timed("sgxsim", "sha256_rows", [&] {
      while (bytes < kStreamBytes) {
        for (const auto& b : batches) {
          for (const auto v : b) {
            (void)gv::feature_row_digest(features, v);
            bytes += features.row_nnz(v) * (sizeof(std::uint32_t) + sizeof(float));
          }
        }
      }
    });
    r.layer("sgxsim.sha256_mb_s", "MB/s", static_cast<double>(bytes) / 1e6 / s);
  }
  gv::Enclave enclave("vaultbench.replay", gv::SgxCostModel{});
  enclave.initialize();
  {
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      const double s = timed("sgxsim", "ecall_empty", [&] {
        for (std::size_t i = 0; i < kEcalls / 5; ++i) enclave.ecall([] {});
      });
      us.push_back(1e6 * s / static_cast<double>(kEcalls / 5));
    }
    r.layer("sgxsim.ecall_us", "us", median(us));
  }
  {
    gv::OneWayChannel channel(enclave);
    auto sender = channel.sender();
    auto receiver = channel.receiver();
    const auto required = vault.rectifier->required_backbone_layers();
    double bytes = 0.0;
    double secs = 0.0;
    for (std::size_t i = 0; i < batches.size() && i < kCallBatches; ++i) {
      secs += timed("sgxsim", "push", [&] {
        for (const auto idx : required) sender.push(outputs[idx]);
      }, i);
      for (const auto idx : required) bytes += static_cast<double>(outputs[idx].payload_bytes());
      enclave.ecall([&] {
        while (!receiver.empty()) receiver.pop();
      });
    }
    r.layer("sgxsim.push_mb_s", "MB/s", bytes / 1e6 / secs);
  }
  {
    // One streamed backbone chunk of the widest backbone layer.
    std::size_t width = 0;
    for (const auto& m : outputs) width = std::max(width, m.cols());
    const std::size_t block = gv::ShardPlanner::kStreamChunkRows * width * sizeof(float);
    std::vector<std::uint8_t> plain(block);
    for (std::size_t i = 0; i < block; ++i) plain[i] = static_cast<std::uint8_t>(rng.next_u64());
    gv::AeadKey key{};
    for (auto& k : key) k = static_cast<std::uint8_t>(rng.next_u64());
    gv::AeadNonce nonce{};
    gv::AeadTag tag{};
    std::vector<std::uint8_t> sealed;
    const std::size_t reps = std::max<std::size_t>(1, kStreamBytes / block);
    const double seal_s = timed("sgxsim", "aead_encrypt", [&] {
      for (std::size_t i = 0; i < reps; ++i) sealed = gv::aead_encrypt(key, nonce, plain, {}, tag);
    });
    const double open_s = timed("sgxsim", "aead_decrypt", [&] {
      for (std::size_t i = 0; i < reps; ++i) {
        if (gv::aead_decrypt(key, nonce, sealed, {}, tag) != plain) {
          r.fail_check("AEAD round trip differs");
        }
      }
    });
    const double mb = static_cast<double>(block * reps) / 1e6;
    r.layer("sgxsim.aead_seal_mb_s", "MB/s", mb / seal_s);
    r.layer("sgxsim.aead_open_mb_s", "MB/s", mb / open_s);
  }

  // --- shard ------------------------------------------------------------------
  gv::ShardPlan plan;
  std::vector<double> plan_ms, payload_ms;
  std::vector<gv::ShardPayload> payloads;
  for (int i = 0; i < kReps; ++i) {
    plan_ms.push_back(1e3 * timed("shard", "plan", [&] {
      plan = gv::ShardPlanner::plan(ds, vault, kReplayShards);
    }));
    payload_ms.push_back(1e3 * timed("shard", "build_payloads", [&] {
      payloads = gv::ShardPlanner::build_payloads(ds, vault, plan);
    }));
  }
  r.layer("shard.plan_ms", "ms", median(plan_ms));
  r.layer("shard.build_payloads_ms", "ms", median(payload_ms));
  {
    std::vector<double> ms;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const auto bytes = gv::serialize_shard_payload(payloads[i]);
      ms.push_back(1e3 * timed("sgxsim", "seal_unseal", [&] {
        const auto blob = enclave.seal(bytes);
        if (enclave.unseal(blob) != bytes) r.fail_check("seal round trip differs");
      }, i));
    }
    r.layer("sgxsim.seal_ms", "ms", median(ms));
  }
  payloads.clear();

  gv::ShardedVaultDeployment dep(ds, vault, plan);
  std::vector<double> refresh_ms;
  std::vector<const CsrMatrix*> snaps;
  for (const auto& s : rec.snapshots) snaps.push_back(&s);
  while (snaps.size() < static_cast<std::size_t>(kReps)) snaps.push_back(&features);
  for (int i = 0; i < kReps; ++i) {
    refresh_ms.push_back(1e3 * timed("shard", "refresh", [&] { dep.refresh(*snaps[i]); }));
  }
  // Leave the stores on the run's final snapshot.
  dep.refresh(features);
  r.layer("shard.refresh_ms", "ms", median(refresh_ms));

  {
    gv::ShardRouter router(dep);
    const auto route_us = per_call_us("shard", "route", batches,
                                      [&](const auto& b) { router.route(b); });
    r.layer("shard.route_us", "us", median(route_us));
    std::vector<double> lookup_us;
    for (std::size_t i = 0; i < batches.size() && i < kCallBatches; ++i) {
      std::vector<std::vector<std::uint32_t>> by_shard(kReplayShards);
      for (const auto v : batches[i]) by_shard[dep.owner(v)].push_back(v);
      for (std::uint32_t s = 0; s < kReplayShards; ++s) {
        if (by_shard[s].empty()) continue;
        lookup_us.push_back(1e6 * timed("shard", "lookup", [&] { dep.lookup(s, by_shard[s]); }, i));
      }
    }
    r.layer("shard.lookup_us", "us", median(lookup_us));
  }
  {
    std::vector<double> ms;
    double frontier = 0.0;
    double touched = 0.0;
    for (std::size_t i = 0; i < batches.size() && i < kCallBatches; ++i) {
      gv::ColdSubsetStats cs;
      ms.push_back(1e3 * timed("shard", "infer_labels_subset_cold", [&] {
        dep.infer_labels_subset_cold(features, batches[i], &cs);
      }, i));
      frontier += static_cast<double>(cs.frontier_rows);
      touched += static_cast<double>(cs.shards_touched);
    }
    r.layer("shard.cold_query_ms", "ms", median(ms));
    r.layer("shard.cold_frontier_rows", "count", frontier / static_cast<double>(ms.size()));
    r.layer("shard.cold_shards_touched", "count", touched / static_cast<double>(ms.size()));
  }
  {
    std::vector<double> ms;
    for (std::uint32_t s = 0; s < kReplayShards; ++s) {
      ms.push_back(1e3 * timed("shard", "rematerialize_shard",
                               [&] { dep.rematerialize_shard(s, features); }, s));
    }
    r.layer("shard.rematerialize_ms", "ms", median(ms));
  }
  {
    gv::ReplicaManager replicas(dep);
    r.layer("shard.replicate_ms", "ms",
            1e3 * timed("shard", "replicate_all", [&] { replicas.replicate_all(); }));
    r.layer("sgxsim.replica_label_kb", "KB", replicas.label_bytes() / 1e3);
    r.layer("sgxsim.replica_package_kb", "KB", replicas.package_bytes() / 1e3);
    dep.kill_shard(0);
    double promote_ms = 0.0;
    timed("shard", "promote", [&] {
      promote_ms = replicas.promote(0, [&] { dep.rematerialize_shard(0, features); });
    });
    r.layer("shard.promote_ms", "ms", promote_ms);
  }

  // Graph deltas (the run's own, or the same generator's) then plan-diff.
  gv::Dataset mds = ds;
  std::vector<GraphDelta> deltas = rec.deltas;
  if (deltas.empty()) {
    for (int i = 0; i < kReps; ++i) {
      deltas.push_back(drift_delta(mds, *dep.owner_snapshot(), kReplayShards, rng));
      gv::apply_delta(mds, deltas.back());
    }
    mds = ds;
  }
  gv::DriftTracker tracker(dep.plan());
  std::vector<double> graph_ms;
  double stale = 0.0;
  double renorm = 0.0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    gv::apply_delta(mds, deltas[i]);
    gv::GraphUpdateStats gs;
    graph_ms.push_back(1e3 * timed("shard", "update_graph", [&] {
      gs = dep.update_graph(deltas[i], &mds.features);
    }, i));
    tracker.record(gs);
    stale += static_cast<double>(gs.stale_nodes.size());
    renorm += static_cast<double>(gs.rows_renormalized);
  }
  r.layer("shard.update_graph_ms", "ms", median(graph_ms));
  r.layer("shard.stale_nodes", "count", stale / static_cast<double>(deltas.size()));
  r.layer("shard.rows_renormalized", "count", renorm / static_cast<double>(deltas.size()));
  {
    gv::PlanDiff pd;
    const double diff_s = timed("shard", "plan_diff", [&] {
      pd = gv::ShardPlanner::plan_diff(mds, vault, dep.plan(), tracker.drift_nodes());
    });
    gv::MigrationStats ms;
    const std::span<const gv::NodeMove> moves(pd.moves.data(),
                                              std::min(pd.moves.size(), kMaxMoves));
    const double move_s = timed("shard", "migrate", [&] {
      ms = gv::MigrationExecutor(dep).execute(moves);
    });
    r.layer("shard.plan_diff_ms", "ms", 1e3 * diff_s);
    r.layer("shard.move_ms", "ms",
            1e3 * move_s / static_cast<double>(std::max<std::size_t>(1, ms.moves_executed)));
    r.layer("shard.moves", "count", static_cast<double>(ms.moves_executed));
    r.layer("shard.migration_wire_kb", "KB", static_cast<double>(ms.wire_bytes) / 1e3);
  }
  // Inter-shard channel bytes of the replay fleet, which has now run the
  // refreshes, the cold batches, the deltas and a migration.
  r.layer("sgxsim.halo_embedding_kb", "KB", dep.halo_embedding_bytes() / 1e3);
  r.layer("sgxsim.halo_request_kb", "KB", dep.halo_request_bytes() / 1e3);
  r.layer("sgxsim.halo_transfer_kb", "KB", dep.halo_transfer_bytes() / 1e3);
  r.layer("sgxsim.halo_padded_kb", "KB", dep.halo_padded_bytes() / 1e3);

  // --- tensor -----------------------------------------------------------------
  {
    const auto dims = vault.backbone().layer_dims();
    const std::size_t n = features.rows();
    const std::size_t h = dims.front();
    const std::size_t c = dims.size() > 1 ? dims[1] : dims.front();
    Matrix x(n, h);
    Matrix w(h, c);
    Matrix g(n, c);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = static_cast<float>(rng.uniform());
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = static_cast<float>(rng.uniform());
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = static_cast<float>(rng.uniform());
    const CsrMatrix& adj = *vault.real_adj;
    struct Kernel {
      const char* name;
      double gflop;
      std::function<void()> run;
    };
    const double mm = 2.0 * static_cast<double>(n) * h * c / 1e9;
    const Kernel kernels[] = {
        {"matmul", mm, [&] { gv::matmul(x, w); }},
        {"matmul_tn", mm, [&] { gv::matmul_tn(x, g); }},
        {"spmm", 2.0 * static_cast<double>(adj.nnz()) * h / 1e9, [&] { gv::spmm(adj, x); }},
    };
    double best = 0.0;
    for (const auto& k : kernels) {
      std::vector<double> s;
      for (int i = 0; i < 5; ++i) s.push_back(timed("tensor", k.name, k.run));
      const double gflops = k.gflop / median(s);
      best = std::max(best, gflops);
      r.layer(std::string("tensor.") + k.name + "_gflop", "GFLOP", k.gflop);
      r.layer(std::string("tensor.") + k.name + "_gflops", "GFLOP/s", gflops);
    }
    double roof = 0.0;
    timed("tensor", "fma_roof", [&] { roof = fma_roof_gflops(); });
    r.layer("tensor.roof_gflops", "GFLOP/s", roof);
    r.layer("tensor.roof_frac", "ratio", roof > 0.0 ? best / roof : 0.0);
  }

  // --- nn + graph -------------------------------------------------------------
  {
    const gv::VaultTrainConfig cfg = train_config(rec.twin);
    gv::Rng mrng(opt.seed);
    constexpr int kEpochs = 3;
    gv::TrainConfig tc;
    tc.epochs = kEpochs;
    gv::GcnConfig gc;
    gc.input_dim = ds.feature_dim();
    gc.channels = cfg.spec.backbone_channels(ds.num_classes);
    gc.dropout = cfg.spec.dropout;
    gv::GcnModel model(gc, vault.substitute_adj, mrng);
    const double bb_s = timed("nn", "backbone_epochs", [&] {
      gv::train_node_classifier(model, features, ds.labels, ds.split.train, tc);
    });
    r.layer("nn.backbone_epoch_ms", "ms", 1e3 * bb_s / kEpochs);

    gv::RectifierConfig rc;
    rc.kind = cfg.rectifier;
    rc.channels = cfg.spec.rectifier_channels(ds.num_classes);
    rc.dropout = cfg.spec.dropout;
    gv::Rectifier rect(rc, vault.backbone().layer_dims(), vault.real_adj, mrng);
    const double rec_s = timed("nn", "rectifier_epochs", [&] {
      gv::train_rectifier(rect, outputs, ds.labels, ds.split.train, tc);
    });
    r.layer("nn.rectifier_epoch_ms", "ms", 1e3 * rec_s / kEpochs);
    r.layer("nn.parameters", "count",
            static_cast<double>(model.parameter_count() + rect.parameter_count()));

    std::vector<double> sub_ms;
    gv::Graph sub;
    for (int i = 0; i < kReps; ++i) {
      sub_ms.push_back(1e3 * timed("graph", "build_substitute_graph", [&] {
        sub = gv::build_substitute_graph(ds, cfg, mrng);
      }));
    }
    r.layer("graph.substitute_ms", "ms", median(sub_ms));
    r.layer("graph.substitute_edges", "count", static_cast<double>(sub.num_edges()));
  }

  // --- self time per layer over the replay ------------------------------------
  const auto self = layer_self_ms(from);
  for (const char* layer : {"serve", "sgxsim", "shard", "core", "tensor", "nn", "graph"}) {
    const auto it = self.find(layer);
    r.layer(std::string(layer) + ".self_ms", "ms", it == self.end() ? 0.0 : it->second);
  }
}

}  // namespace vb
