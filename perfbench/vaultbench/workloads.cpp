// The VaultBench workloads.  Each trains its vault, deploys it
// several times (setup_s is the median), runs its timed phase from this one thread,
// checks every answered label against an oracle computed on the same vault
// instance while the server is quiescent, and records the counters the
// traced run's layer replay reports next to its own timings.
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "serve/vault_server.hpp"
#include "shard/migration.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_server.hpp"

namespace vb {

using gv::CsrMatrix;
using gv::Dataset;
using gv::GraphDelta;
using gv::Rng;
using gv::SubmitToken;
using gv::TrainedVault;

// --- Shared helpers --------------------------------------------------------

TrainedVault train_timed(const Dataset& ds, const Twin& twin, double* train_s) {
  std::vector<double> times;
  TrainedVault vault;
  for (int i = 0; i < kTrainings; ++i) {
    vault = TrainedVault{};
    times.push_back(timed("core", "train_vault",
                          [&] { vault = gv::train_vault(ds, train_config(twin)); }));
  }
  *train_s = median(times);
  return vault;
}

ZipfSampler::ZipfSampler(std::size_t n, double s, Rng& rng)
    : cdf_(n), node_of_rank_(n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
  for (std::size_t k = 0; k < n; ++k) node_of_rank_[k] = static_cast<std::uint32_t>(k);
  std::shuffle(node_of_rank_.begin(), node_of_rank_.end(), rng);
}

std::uint32_t ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto k = std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                       cdf_.size() - 1);
  return node_of_rank_[k];
}

CsrMatrix perturb_features(const CsrMatrix& features, Rng& rng, std::size_t rows) {
  CsrMatrix out = features;
  auto& vals = out.mutable_values();
  const auto& ptr = out.row_ptr();
  for (std::size_t i = 0; i < rows; ++i) {
    const auto r = rng.uniform_index(out.rows());
    const float f = static_cast<float>(0.5 + rng.uniform());
    for (auto j = ptr[r]; j < ptr[r + 1]; ++j) vals[static_cast<std::size_t>(j)] *= f;
  }
  return out;
}

std::uint64_t required_embedding_bytes(const TrainedVault& vault,
                                       const std::vector<gv::Matrix>& outputs) {
  std::uint64_t bytes = 0;
  for (const auto idx : vault.rectifier->required_backbone_layers()) {
    bytes += outputs[idx].payload_bytes();
  }
  return bytes;
}

namespace {

/// A read workload's timed phase is split over several deployments of the
/// same vault, one after the other.  Each deployment serves an open-loop
/// share and then a saturating share, and every figure is the median over
/// deployments.  One server's saturating throughput held within 5% from
/// second to second but differed by up to 1.6x between servers, so a run
/// samples several.  The open-loop rate is not a fixed number: it is
/// `load_share` of the saturating rate the run measures on its first
/// serving deployment, before the timed phase.
struct ReadShape {
  int segments;      // deployments that serve a share of the timed phase
  int setup_only;    // extra deployments timed for setup_s only
  double load_share; // open-loop rate / measured saturating rate
  std::size_t window;
  std::size_t warmup;
};

constexpr std::uint32_t kShards = 4;
// drift-maintain's cold-batch quantiles are medians over this many slices
// of the run.
constexpr std::size_t kSlices = 3;
// The latency tail reported: the highest percentile with at least ten
// samples beyond it in each workload's unit of measurement (a vault-miss
// segment answers about 170 open-loop queries, a drift-maintain slice about
// 180 cold batches).
constexpr double kTail = 0.90;
constexpr std::size_t kMaxBatch = 32;
constexpr auto kMaxWait = std::chrono::microseconds(2000);
constexpr std::uint32_t kFailedLabel = 0xffffffffu;
// Saturating calibration that sets the open-loop rate (see ReadShape).
constexpr double kCalibrateSeconds = 0.5;

// zipf-read and uniform-read
constexpr std::size_t kReadWorkers = 2;  // JobSystem workers
constexpr std::size_t kReadCache = 1024;
// The Zipfian constant of YCSB's request distribution (Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
constexpr double kZipfExponent = 0.99;
// Open loop at a tenth of the measured saturating rate: light enough that
// a miss batch is flushed by max_wait, not by filling up, so the miss
// latency does not follow the run-to-run spread of the measured rate.
constexpr ReadShape kReadShape{/*segments=*/10, /*setup_only=*/5, /*load_share=*/0.1,
                               /*window=*/1024, /*warmup=*/20000};
constexpr int kReadRefreshes = 3;  // per segment; refresh_s is the median of all
// vault-miss
constexpr std::size_t kMissWorkers = 1;
// A single-node batch costs about 3.7 ms, while a full batch costs 9-21 ms
// per 32 nodes, so the open loop runs at 2% of the saturating rate, where
// single-node batches do not queue behind each other.
constexpr ReadShape kMissShape{/*segments=*/5, /*setup_only=*/10, /*load_share=*/0.02,
                               /*window=*/64, /*warmup=*/1000};
constexpr int kMissRefreshes = 6;  // per segment
// rows rescaled in every fresh feature snapshot
constexpr std::size_t kPerturbedRows = 64;
// drift-maintain
constexpr std::size_t kDriftWorkers = 1;
constexpr int kDriftDeployments = 15;
constexpr std::size_t kChurnEdges = 12;  // random deletes and inserts per round
constexpr std::size_t kPullNodes = 3;    // nodes wired into a foreign shard
constexpr std::size_t kPullEdges = 8;
constexpr std::size_t kColdBatches = 24;
constexpr std::size_t kColdBatchSize = 8;
// recorded inputs kept for the layer replay
constexpr std::size_t kRecordBatches = 64;

const char* const kSyncLabelsFault =
    "replicated label store does not cover the shard's nodes";

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Wait for `due_ns`: sleep while it is far off (so the generator leaves
/// its core to the server's OpenMP teams), then spin the last stretch, so a
/// timer's overshoot lands before the due time and never inside a latency.
inline void wait_until(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 300000;
  const std::int64_t ahead = due_ns - now_ns();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (now_ns() < due_ns) cpu_relax();
}

gv::ServerConfig server_config(std::size_t cache, std::size_t workers) {
  gv::ServerConfig sc;
  sc.max_batch = kMaxBatch;
  sc.max_wait = kMaxWait;
  sc.worker_threads = workers;
  sc.cache_capacity = cache;
  return sc;
}

gv::ShardedServerConfig fleet_config(std::size_t cache, std::size_t workers) {
  gv::ShardedServerConfig fc;
  fc.server = server_config(cache, workers);
  fc.replicate = true;
  return fc;
}

/// A query source: the workload's node distribution.
using NodeSource = std::function<std::uint32_t()>;

/// Per-phase load-generator results.
struct OpenLoop {
  std::vector<double> latency_ms;  // completion - due time, per queued request
  std::vector<double> lateness_us; // submit start - due time
  std::size_t answered = 0;
};

/// Open loop: requests are due every 1/rate seconds from t0; each is
/// submitted when due (see wait_until) and its label
/// arrives through the token's completion callback, stamped there.  A
/// request whose token is ready when submit returns was a cache hit; the
/// latencies are those of the other requests, which went through the
/// micro-batch queue.
template <typename Server>
OpenLoop open_loop(Server& srv, const NodeSource& next, double rate, double seconds,
                   const std::vector<std::uint32_t>& truth, Result& r,
                   std::vector<std::uint32_t>* stream) {
  const auto n_req = static_cast<std::size_t>(rate * seconds);
  struct Req {
    std::int64_t due = 0;
    std::int64_t start = 0;
    std::atomic<std::int64_t> done{0};
    std::uint32_t node = 0;
    std::atomic<std::uint32_t> label{kFailedLabel};
    bool hit = false;
  };
  std::vector<Req> reqs(n_req);
  std::vector<SubmitToken> tokens;
  tokens.reserve(n_req);
  const auto period = static_cast<std::int64_t>(1e9 / rate);
  const std::int64_t t0 = now_ns() + 1000000;
  for (std::size_t i = 0; i < n_req; ++i) {
    Req& q = reqs[i];
    q.node = next();
    q.due = t0 + static_cast<std::int64_t>(i) * period;
    wait_until(q.due);
    q.start = now_ns();
    SubmitToken tok;
    {
      Span span("serve", "submit", i);
      tok = srv.submit(q.node);
    }
    q.hit = tok.ready();
    tok.then([&q](std::uint32_t label, std::exception_ptr err) {
      q.label.store(err ? kFailedLabel : label);
      q.done.store(now_ns());
    });
    tokens.push_back(std::move(tok));
    if (stream != nullptr) stream->push_back(q.node);
  }
  for (auto& t : tokens) t.wait();
  OpenLoop out;
  out.latency_ms.reserve(n_req);
  out.lateness_us.reserve(n_req);
  for (auto& q : reqs) {
    // then() may land a hair after wait() returns on another thread.
    while (q.done.load() == 0) cpu_relax();
    if (!q.hit) out.latency_ms.push_back(static_cast<double>(q.done.load() - q.due) / 1e6);
    out.lateness_us.push_back(static_cast<double>(q.start - q.due) / 1e3);
    const std::uint32_t label = q.label.load();
    ++r.attempted;
    if (label == kFailedLabel) {
      ++r.failed;
      r.fail_check("open-loop query failed for node " + std::to_string(q.node));
    } else if (label != truth[q.node]) {
      r.fail_check("open-loop label mismatch at node " + std::to_string(q.node));
    } else {
      ++out.answered;
    }
  }
  return out;
}

/// Saturating: keep at most `window` requests outstanding; block on the
/// oldest when the window is full.  Returns the labels answered per second
/// up to the deadline (the final drain is not counted).
template <typename Server>
double saturate(Server& srv, const NodeSource& next, std::size_t window,
                double seconds, const std::vector<std::uint32_t>& truth, Result& r,
                std::size_t* answered_out, std::size_t max_requests = 0) {
  std::deque<std::pair<SubmitToken, std::uint32_t>> ring;
  std::size_t answered = 0;
  std::size_t issued = 0;
  std::vector<std::int64_t> answered_at;
  auto settle = [&](SubmitToken& tok, std::uint32_t node) {
    ++r.attempted;
    try {
      const std::uint32_t label = tok.get();
      if (label != truth[node]) {
        r.fail_check("saturating label mismatch at node " + std::to_string(node));
      } else {
        ++answered;
        answered_at.push_back(now_ns());
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check(std::string("saturating query failed: ") + e.what());
    }
  };
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  while (max_requests > 0 ? issued < max_requests : Clock::now() < deadline) {
    const std::uint32_t node = next();
    SubmitToken tok;
    {
      Span span("serve", "submit", issued);
      tok = srv.submit(node);
    }
    ++issued;
    if (tok.ready()) {
      settle(tok, node);
      continue;
    }
    ring.emplace_back(std::move(tok), node);
    if (ring.size() >= window) {
      settle(ring.front().first, ring.front().second);
      ring.pop_front();
    }
  }
  for (auto& [tok, node] : ring) settle(tok, node);
  if (answered_out != nullptr) *answered_out = answered;
  if (max_requests > 0) return 0.0;  // warm-up: not timed
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               deadline.time_since_epoch()).count();
  const auto in_time = std::count_if(answered_at.begin(), answered_at.end(),
                                     [end](std::int64_t t) { return t <= end; });
  return static_cast<double>(in_time) / seconds;
}

/// Cut the stream into batches of kMaxBatch; a stream shorter than one
/// batch (a very short run) still gives the replay one partial batch.
void record_stream_batches(const std::vector<std::uint32_t>& stream, Recorded& rec) {
  for (std::size_t i = 0; i < stream.size() && rec.batches.size() < kRecordBatches;
       i += kMaxBatch) {
    const std::size_t end = std::min(i + kMaxBatch, stream.size());
    if (end - i < kMaxBatch && i > 0) break;  // keep full batches once there is one
    rec.batches.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(i),
                             stream.begin() + static_cast<std::ptrdiff_t>(end));
  }
}

/// Serve-layer counters of a workload's own server (per-layer metrics).
void record_serve_counters(const gv::MetricsSnapshot& s, gv::ServeFrontEnd& fe,
                           std::uint64_t digest_bytes, Result& r) {
  std::uint64_t steal_hits = 0;
  std::uint64_t parks = 0;
  for (const auto& w : fe.jobs().worker_snapshots()) {
    steal_hits += w.steal_hits;
    parks += w.parks;
  }
  r.layer("serve.cache_hit_ratio", "ratio", s.cache_hit_rate);
  r.layer("serve.digest_mb", "MB", static_cast<double>(digest_bytes) / 1e6);
  r.layer("serve.mean_batch", "count", s.mean_batch_size);
  r.layer("serve.coalesced", "count", static_cast<double>(s.coalesced));
  r.layer("serve.queue_to_label_p99_ms", "ms", s.p99_latency_ms);
  r.layer("serve.steal_hits", "count", static_cast<double>(steal_hits));
  r.layer("serve.parks", "count", static_cast<double>(parks));
}

void record_meter_counters(const gv::CostMeter& m, Result& r) {
  r.layer("sgxsim.ecalls", "count", static_cast<double>(m.ecalls));
  r.layer("sgxsim.copy_in_mb", "MB", static_cast<double>(m.bytes_in) / 1e6);
  r.layer("sgxsim.page_swaps", "count", static_cast<double>(m.page_swaps));
}

/// Property checks shared by the fleet workloads.
void check_fleet_properties(const gv::ShardedVaultDeployment& dep,
                            std::uint64_t transfer_allowed, Result& r) {
  if (dep.halo_transfer_bytes() > transfer_allowed) {
    r.fail_check("node-transfer (adjacency-bearing) bytes outside migration");
  }
  if (dep.halo_package_bytes() != 0 || dep.halo_label_bytes() != 0) {
    r.fail_check("shard packages or labels crossed an inter-shard channel");
  }
  const std::uint64_t logical = dep.halo_embedding_bytes() + dep.halo_request_bytes() +
                                dep.halo_transfer_bytes();
  if (dep.halo_padded_bytes() < logical) {
    r.fail_check("padded channel bytes below the logical bytes");
  }
  const auto epc = dep.cost_model().epc_bytes;
  if (dep.plan().max_shard_bytes() <= epc && dep.max_shard_peak_bytes() > epc) {
    r.fail_check("a plan that fits the EPC peaked above it");
  }
}

double digest_bytes_of(const CsrMatrix& f, const std::vector<std::uint32_t>& nodes) {
  double bytes = 0.0;
  for (const auto v : nodes) {
    bytes += static_cast<double>(f.row_nnz(v)) * (sizeof(std::uint32_t) + sizeof(float));
  }
  return bytes;
}

/// Refresh epilogue of a read workload's segment: swap in `refreshes` fresh
/// snapshots, each timed until a changed row's label is answered (appended
/// to `times`); checked against the same vault once the server is idle.
template <typename Server>
void refresh_epilogue(Server& srv, const TrainedVault& vault, CsrMatrix& current,
                      int refreshes, Rng& rng, Result& r, Recorded& rec,
                      std::vector<double>& times) {
  for (int k = 0; k < refreshes; ++k) {
    CsrMatrix snap = perturb_features(current, rng, kPerturbedRows);
    // A row whose values moved, so its label cannot come from the cache.
    std::uint32_t probe = 0;
    for (std::uint32_t v = 0; v < snap.rows(); ++v) {
      if (snap.row_nnz(v) > 0 && snap.values()[snap.row_ptr()[v]] !=
                                     current.values()[current.row_ptr()[v]]) {
        probe = v;
        break;
      }
    }
    std::uint32_t label = kFailedLabel;
    ++r.attempted;
    try {
      times.push_back(timed("serve", "update_features", [&] {
        srv.update_features(snap);
        label = srv.query(probe);
      }));
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check(std::string("update_features failed: ") + e.what());
    }
    const std::uint32_t probe_node[] = {probe};
    if (label != vault.predict_rectified_subset(snap, probe_node)[0]) {
      r.fail_check("label after refresh differs from the oracle");
    }
    if (rec.snapshots.size() < 3) rec.snapshots.push_back(snap);
    current = std::move(snap);
  }
}

/// Median over kSlices consecutive runs of requests of each run's q-quantile.
double sliced_quantile(const std::vector<double>& v, double q) {
  std::vector<double> per;
  const std::size_t len = v.size() / kSlices;
  for (std::size_t k = 0; k < kSlices; ++k) {
    per.push_back(quantile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(k * len),
                                               v.begin() + static_cast<std::ptrdiff_t>((k + 1) * len)),
                           q));
  }
  return median(per);
}

template <typename Server>
struct ReadRun {
  std::unique_ptr<Server> srv;  // the last deployment, still serving
  std::vector<double> setups, p50_ms, p90_ms, qps, sgx_us, lateness_us;
  double offered_qps = 0.0;
  std::size_t requests = 0;  // open-loop requests over all segments
  std::size_t samples = 0;   // of which queued (their latencies)
  std::vector<std::uint32_t> stream;  // the first segment's open-loop queries
};

/// `deploy(first, &label)` builds a server and answers `first`, all inside
/// setup_s.  `begin(srv)` / `end(srv, last, stream)` bracket each segment's
/// timed part for the workload's own counters and checks.
template <typename Server, typename Deploy, typename Begin, typename End>
ReadRun<Server> serve_segments(const Options& opt, const ReadShape& shape,
                               const NodeSource& next,
                               const std::vector<std::uint32_t>& truth, Result& r,
                               const Deploy& deploy, const Begin& begin, const End& end) {
  ReadRun<Server> run;
  const double share = opt.seconds * 0.5 / shape.segments;
  for (int d = 0; d < shape.setup_only + shape.segments; ++d) {
    run.srv.reset();
    const std::uint32_t first = next();
    std::uint32_t label = kFailedLabel;
    run.setups.push_back(timed("serve", "deploy", [&] { run.srv = deploy(first, &label); }));
    if (label != truth[first]) r.fail_check("first label after deploy is wrong");
    if (d < shape.setup_only) continue;

    Server& srv = *run.srv;
    // Warm-up and calibration are not part of the run's operations.
    const std::uint64_t attempted = r.attempted;
    const std::uint64_t failed = r.failed;
    saturate(srv, next, shape.window, 0.0, truth, r, nullptr, shape.warmup);
    if (run.offered_qps == 0.0) {
      run.offered_qps = shape.load_share *
                        saturate(srv, next, shape.window, kCalibrateSeconds, truth, r, nullptr);
    }
    r.attempted = attempted;
    r.failed = failed;
    srv.front_end().metrics().reset();
    begin(srv);
    const double modeled0 = srv.stats().modeled_seconds;
    const OpenLoop ol = open_loop(srv, next, run.offered_qps, share, truth, r,
                                  run.stream.empty() ? &run.stream : nullptr);
    std::size_t sat_answered = 0;
    run.qps.push_back(saturate(srv, next, shape.window, share, truth, r, &sat_answered));
    run.sgx_us.push_back((srv.stats().modeled_seconds - modeled0) * 1e6 /
                         static_cast<double>(ol.answered + sat_answered));
    run.p50_ms.push_back(quantile(ol.latency_ms, 0.50));
    run.p90_ms.push_back(quantile(ol.latency_ms, kTail));
    run.requests += ol.lateness_us.size();
    run.samples += ol.latency_ms.size();
    run.lateness_us.insert(run.lateness_us.end(), ol.lateness_us.begin(), ol.lateness_us.end());
    end(srv, d + 1 == shape.setup_only + shape.segments, run.stream);
  }
  return run;
}

template <typename Server>
void report_serving(Result& r, const ReadRun<Server>& run, double train_s,
                    double refresh_s, double epc_bytes) {
  r.e2e("setup_s", "s", median(run.setups));
  r.e2e("train_s", "s", train_s);
  r.e2e("qps", "1/s", median(run.qps));
  r.e2e("p50_ms", "ms", median(run.p50_ms));
  r.e2e("p90_ms", "ms", median(run.p90_ms));
  r.e2e("sgx_us_per_query", "us", median(run.sgx_us));
  r.e2e("refresh_s", "s", refresh_s);
  r.e2e("epc_peak_mb", "MB", epc_bytes / 1e6);
  std::fprintf(stderr,
               "open loop at %.1f q/s: %zu requests over %zu segments, %zu queued "
               "(latency samples), cache-hit share %.4f; generator lateness "
               "p50 %.3f us, p90 %.3f us\n",
               run.offered_qps, run.requests, run.p50_ms.size(), run.samples,
               1.0 - static_cast<double>(run.samples) /
                         static_cast<double>(std::max<std::size_t>(1, run.requests)),
               quantile(run.lateness_us, 0.50), quantile(run.lateness_us, kTail));
  std::fprintf(stderr, "per segment qps:");
  for (const double q : run.qps) std::fprintf(stderr, " %.0f", q);
  std::fprintf(stderr, "; setup_s q1/median/q3 over %zu deployments: %.4f %.4f %.4f\n",
               run.setups.size(), quantile(run.setups, 0.25), median(run.setups),
               quantile(run.setups, 0.75));
}

}  // namespace

// --- zipf-read and uniform-read --------------------------------------------

namespace {

/// The warm fleet under single-node reads drawn from Zipf(`exponent`);
/// exponent 0 is uniform.
void run_fleet_read(const Options& opt, Result& r, double exponent) {
  const Twin twin = kPubmedTwin;
  Dataset ds = gv::load_dataset(twin.id, kTwinSeed, twin.scale);
  double train_s = 0.0;
  TrainedVault vault = train_timed(ds, twin, &train_s);
  const auto truth = vault.predict_rectified(ds.features);

  Rng rng(opt.seed ^ 0x5a1fu);
  const ZipfSampler zipf(ds.num_nodes(), exponent, rng);
  const NodeSource next = [&] { return zipf(rng); };

  // setup_s: plan -> payloads -> K enclaves + handshakes -> initial
  // refresh -> first label -> standbys replicated.
  Recorded rec;
  CsrMatrix current;  // the last segment's final snapshot
  std::vector<double> refresh_times;
  auto run = serve_segments<gv::ShardedVaultServer>(
      opt, kReadShape, next, truth, r,
      [&](std::uint32_t first, std::uint32_t* label) {
        gv::ShardPlan plan = gv::ShardPlanner::plan(ds, vault, kShards);
        auto srv = std::make_unique<gv::ShardedVaultServer>(
            ds, vault, std::move(plan), gv::ShardedDeploymentOptions{},
            fleet_config(kReadCache, kReadWorkers));
        *label = srv->query(first);
        srv->replicas()->wait_ready();
        return srv;
      },
      [](gv::ShardedVaultServer&) {},
      [&](gv::ShardedVaultServer& srv, bool last, const std::vector<std::uint32_t>& stream) {
        check_fleet_properties(srv.deployment(), 0, r);
        current = ds.features;
        refresh_epilogue(srv, vault, current, kReadRefreshes, rng, r, rec, refresh_times);
        if (!last) return;
        // Digest bytes: requests x the mean row bytes of the recorded stream.
        const auto stats = srv.stats();
        const double per_request = digest_bytes_of(ds.features, stream) /
                                   static_cast<double>(std::max<std::size_t>(1, stream.size()));
        record_serve_counters(stats, srv.front_end(),
                              static_cast<std::uint64_t>(
                                  per_request * static_cast<double>(stats.requests)),
                              r);
        record_meter_counters(srv.deployment().aggregate_meter(), r);
      });
  record_stream_batches(run.stream, rec);
  const double epc = static_cast<double>(run.srv->deployment().max_shard_peak_bytes());
  report_serving(r, run, train_s, median(refresh_times), epc);
  run.srv.reset();

  if (opt.trace) {
    ds.features = current;
    rec.vault = &vault;
    rec.ds = &ds;
    rec.twin = twin;
    replay_layers(opt, rec, r);
  }
}

}  // namespace

void run_zipf_read(const Options& opt, Result& r) { run_fleet_read(opt, r, kZipfExponent); }
void run_uniform_read(const Options& opt, Result& r) { run_fleet_read(opt, r, 0.0); }

// --- vault-miss ------------------------------------------------------------

void run_vault_miss(const Options& opt, Result& r) {
  const Twin twin = kPhotoTwin;
  Dataset ds = gv::load_dataset(twin.id, kTwinSeed, twin.scale);
  double train_s = 0.0;
  TrainedVault vault = train_timed(ds, twin, &train_s);
  const auto truth = vault.predict_rectified(ds.features);
  const std::uint64_t required =
      required_embedding_bytes(vault, vault.backbone_outputs(ds.features));

  Rng rng(opt.seed ^ 0x3155u);
  const auto n = ds.num_nodes();
  const NodeSource next = [&] { return static_cast<std::uint32_t>(rng.uniform_index(n)); };

  // setup_s: sealed weights -> enclave provisioning -> lazy backbone on the
  // first batch -> first label.
  Recorded rec;
  CsrMatrix current;  // the last segment's final snapshot
  std::vector<double> refresh_times;
  gv::CostMeter meter0;
  gv::CostMeter window;  // enclave work of every segment's timed part
  std::uint64_t batches0 = 0;
  auto run = serve_segments<gv::VaultServer>(
      opt, kMissShape, next, truth, r,
      [&](std::uint32_t first, std::uint32_t* label) {
        auto srv = std::make_unique<gv::VaultServer>(ds, vault, gv::DeploymentOptions{},
                                                     server_config(0, kMissWorkers));
        *label = srv->query(first);
        return srv;
      },
      [&](gv::VaultServer& srv) {
        meter0 = srv.deployment().enclave().meter_snapshot();
        batches0 = srv.stats().batches;
      },
      [&](gv::VaultServer& srv, bool last, const std::vector<std::uint32_t>& stream) {
        const gv::CostMeter meter1 = srv.deployment().enclave().meter_snapshot();
        const auto stats = srv.stats();
        const std::uint64_t batches = stats.batches - batches0;
        // Every batch copies the whole required embedding matrices, in one ecall.
        if (meter1.bytes_in - meter0.bytes_in != batches * required) {
          r.fail_check("copy-in bytes per batch differ from the required embedding bytes");
        }
        if (meter1.ecalls - meter0.ecalls != batches) {
          r.fail_check("ecalls differ from the number of batches");
        }
        window.ecalls += meter1.ecalls - meter0.ecalls;
        window.bytes_in += meter1.bytes_in - meter0.bytes_in;
        window.page_swaps += meter1.page_swaps - meter0.page_swaps;
        current = ds.features;
        refresh_epilogue(srv, vault, current, kMissRefreshes, rng, r, rec, refresh_times);
        if (last) {
          record_serve_counters(stats, srv.front_end(),
                                static_cast<std::uint64_t>(digest_bytes_of(ds.features, stream)),
                                r);
        }
      });
  record_meter_counters(window, r);
  record_stream_batches(run.stream, rec);
  const double epc = static_cast<double>(run.srv->deployment().enclave_peak_bytes());
  report_serving(r, run, train_s, median(refresh_times), epc);
  run.srv.reset();

  if (opt.trace) {
    ds.features = current;
    rec.vault = &vault;
    rec.ds = &ds;
    rec.twin = twin;
    replay_layers(opt, rec, r);
  }
}

// --- drift-maintain --------------------------------------------------------

GraphDelta drift_delta(const Dataset& ds, const std::vector<std::uint32_t>& owner,
                       std::uint32_t shards, Rng& rng) {
  GraphDelta d;
  const auto& edges = ds.graph.edges();
  const auto n = ds.num_nodes();
  for (std::size_t i = 0; i < kChurnEdges && !edges.empty(); ++i) {
    const gv::Edge& e = edges[rng.uniform_index(edges.size())];
    d.edge_deletes.push_back({e.a, e.b});
  }
  for (std::size_t i = 0; i < kChurnEdges; ++i) {
    d.edge_inserts.push_back({static_cast<std::uint32_t>(rng.uniform_index(n)),
                              static_cast<std::uint32_t>(rng.uniform_index(n))});
  }
  // Pull nodes: wire a few nodes into a foreign shard, so plan_diff has
  // moves to make every round.
  std::vector<std::vector<std::uint32_t>> members(shards);
  for (std::uint32_t v = 0; v < n; ++v) members[owner[v]].push_back(v);
  for (std::size_t p = 0; p < kPullNodes; ++p) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto to = static_cast<std::uint32_t>(
        (owner[v] + 1 + rng.uniform_index(shards - 1)) % shards);
    for (std::size_t k = 0; k < kPullEdges; ++k) {
      d.edge_inserts.push_back(
          {v, members[to][rng.uniform_index(members[to].size())]});
    }
  }
  return d;
}

void run_drift_maintain(const Options& opt, Result& r) {
  const Twin twin = kPubmedTwin;
  Dataset ds = gv::load_dataset(twin.id, kTwinSeed, twin.scale);
  double train_s = 0.0;
  TrainedVault vault = train_timed(ds, twin, &train_s);
  const auto n = ds.num_nodes();
  std::vector<std::uint32_t> truth = vault.predict_rectified(ds.features);

  Rng rng(opt.seed ^ 0xd21fu);

  std::unique_ptr<gv::ShardedVaultServer> srv;
  std::vector<double> setups;
  for (int d = 0; d < kDriftDeployments; ++d) {
    srv.reset();
    const auto first = static_cast<std::uint32_t>(rng.uniform_index(n));
    std::uint32_t label = kFailedLabel;
    setups.push_back(timed("shard", "deploy", [&] {
      gv::ShardPlan plan = gv::ShardPlanner::plan(ds, vault, kShards);
      srv = std::make_unique<gv::ShardedVaultServer>(ds, vault, std::move(plan),
                                                     gv::ShardedDeploymentOptions{},
                                                     fleet_config(kReadCache, kDriftWorkers));
      label = srv->query(first);
      srv->replicas()->wait_ready();
    }));
    if (label != truth[first]) r.fail_check("first label after deploy is wrong");
  }
  srv->front_end().metrics().reset();

  std::vector<std::uint32_t> all(n);
  for (std::uint32_t v = 0; v < n; ++v) all[v] = v;
  // The sweep reads every shard's store through the router, not through
  // the LabelCache: the cache keys a label on the node's own feature row
  // only, and an entry whose neighbours' rows changed can survive a refresh
  // (README "Known faults").
  auto sweep = [&](const std::vector<std::uint32_t>& expect, const char* when) {
    std::vector<std::uint32_t> labels;
    {
      Span span("shard", "route_sweep");
      labels = srv->router().route(all);
    }
    r.attempted += n;
    if (labels != expect) r.fail_check(std::string("full sweep mismatch after ") + when);
  };

  Recorded rec;
  CsrMatrix current = ds.features;
  std::vector<double> graph_ms, cold_ms, migrate_s, refresh_s, promote_ms;
  GraphDelta undo;  // the previous round's fresh burst
  std::vector<double> round_qps, round_sgx_us;  // per round's cold burst
  std::size_t moves_total = 0;
  std::uint64_t transfer_bytes = 0;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(opt.seconds));
  for (std::uint32_t round = 0; Clock::now() < t_end; ++round) {
    Span round_span("bench", "round", round);
    // 1. graph-delta burst.  It also reverts the previous round's burst, so
    // the graph stays within one burst of the twin and every round costs
    // the same however many rounds a run gets through.
    const auto owner = *srv->deployment().owner_snapshot();
    GraphDelta delta = drift_delta(ds, owner, kShards, rng);
    const GraphDelta fresh = delta;
    delta.edge_deletes.insert(delta.edge_deletes.end(), undo.edge_inserts.begin(),
                              undo.edge_inserts.end());
    delta.edge_inserts.insert(delta.edge_inserts.end(), undo.edge_deletes.begin(),
                              undo.edge_deletes.end());
    undo = fresh;
    gv::apply_delta(ds, delta);
    gv::DriftTracker tracker(srv->deployment().plan());
    gv::GraphUpdateStats gstats;
    ++r.attempted;
    graph_ms.push_back(1e3 * timed("shard", "update_graph", [&] {
      gstats = srv->update_graph(delta, current);
    }));
    tracker.record(gstats);
    if (rec.deltas.size() < 4) rec.deltas.push_back(delta);
    // update_graph re-replicates the standbys in the background; let that
    // land first, so the burst does not time a varying overlap with it.
    srv->replicas()->wait_ready();

    // 2. burst of distinct invalidated nodes, served by the cold path.
    std::vector<std::uint32_t> stale = gstats.stale_nodes;
    std::shuffle(stale.begin(), stale.end(), rng);
    if (stale.size() < kColdBatches * kColdBatchSize) {
      r.fail_check("graph delta invalidated too few nodes for the cold burst");
      break;
    }
    std::vector<std::uint32_t> asked;
    std::vector<std::uint32_t> got;
    const double modeled0 = srv->stats().modeled_seconds;
    double burst_seconds = 0.0;
    std::size_t burst_answered = 0;
    for (std::size_t b = 0; b < kColdBatches; ++b) {
      const std::span<const std::uint32_t> nodes(stale.data() + b * kColdBatchSize,
                                                 kColdBatchSize);
      std::vector<std::uint32_t> labels;
      r.attempted += kColdBatchSize;
      try {
        const double s = timed("serve", "cold_batch", [&] {
          auto batch = srv->submit_many(nodes);
          srv->flush();
          labels = batch.get_all();
        });
        cold_ms.push_back(s * 1e3);
        burst_seconds += s;
        burst_answered += kColdBatchSize;
      } catch (const std::exception& e) {
        r.failed += kColdBatchSize;
        r.fail_check(std::string("cold batch failed: ") + e.what());
        labels.assign(kColdBatchSize, kFailedLabel);
      }
      asked.insert(asked.end(), nodes.begin(), nodes.end());
      got.insert(got.end(), labels.begin(), labels.end());
      if (rec.batches.size() < kRecordBatches) rec.batches.emplace_back(nodes.begin(), nodes.end());
    }
    if (burst_answered > 0) {
      round_qps.push_back(static_cast<double>(burst_answered) / burst_seconds);
      round_sgx_us.push_back((srv->stats().modeled_seconds - modeled0) * 1e6 /
                             static_cast<double>(burst_answered));
    }

    const TrainedVault oracle = gv::revault_on(vault, ds);
    if (got != oracle.predict_rectified_subset(current, asked)) {
      r.fail_check("cold burst label differs from the oracle on the mutated graph");
    }

    // 3. plan-diff migration.
    const std::uint64_t transfer0 = srv->deployment().halo_transfer_bytes();
    gv::PlanDiff pd;
    gv::MigrationStats ms;
    ++r.attempted;
    migrate_s.push_back(timed("shard", "migrate", [&] {
      pd = gv::ShardPlanner::plan_diff(ds, vault, srv->deployment().plan(),
                                       tracker.drift_nodes());
      ms = gv::MigrationExecutor(srv->deployment()).execute(pd.moves);
    }));
    moves_total += ms.moves_executed;
    transfer_bytes += srv->deployment().halo_transfer_bytes() - transfer0;
    if (ms.moves_executed == 0) r.fail_check("plan_diff moved no node this round");

    // 4. feature refresh: the first attempt after a migration is known to
    // fail in ReplicaManager::sync_labels; re-replicate, then refresh again.
    const CsrMatrix failed_snap = perturb_features(current, rng, kPerturbedRows);
    ++r.attempted;
    try {
      Span span("serve", "update_features");
      srv->update_features(failed_snap);
      r.fail_check("post-migration update_features unexpectedly succeeded");
    } catch (const gv::Error& e) {
      ++r.failed;
      if (std::string(e.what()).find(kSyncLabelsFault) == std::string::npos) {
        r.fail_check(std::string("post-migration update_features: ") + e.what());
      }
    }
    timed("shard", "replicate_all", [&] { srv->replicas()->replicate_all(); });
    CsrMatrix snap = perturb_features(current, rng, kPerturbedRows);
    ++r.attempted;
    try {
      refresh_s.push_back(timed("serve", "update_features",
                                [&] { srv->update_features(snap); }));
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check(std::string("update_features failed: ") + e.what());
    }
    current = std::move(snap);
    if (rec.snapshots.size() < 3) rec.snapshots.push_back(current);

    // 5. shard kill -> replica promotion -> the shard answers again.
    const std::uint32_t victim = round % kShards;
    const auto owners = srv->deployment().owner_snapshot();
    std::uint32_t probe = static_cast<std::uint32_t>(rng.uniform_index(n));
    while ((*owners)[probe] != victim) probe = static_cast<std::uint32_t>(rng.uniform_index(n));
    const std::uint32_t probe_node[] = {probe};
    std::vector<std::uint32_t> promoted;
    ++r.attempted;
    try {
      promote_ms.push_back(1e3 * timed("shard", "kill_promote", [&] {
        srv->kill_shard(victim);
        srv->join_promotion();
        promoted = srv->router().route(probe_node);
      }));
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check(std::string("promotion failed: ") + e.what());
    }

    truth = oracle.predict_rectified(current);
    if (promoted.size() != 1 || promoted[0] != truth[probe]) {
      r.fail_check("promoted shard answered a wrong label");
    }
    sweep(truth, "refresh and promotion");
  }
  const auto stats = srv->stats();

  r.e2e("setup_s", "s", median(setups));
  r.e2e("train_s", "s", train_s);
  r.e2e("qps", "1/s", median(round_qps));
  r.e2e("p50_ms", "ms", sliced_quantile(cold_ms, 0.50));
  r.e2e("p90_ms", "ms", sliced_quantile(cold_ms, kTail));
  r.e2e("sgx_us_per_query", "us", median(round_sgx_us));
  r.e2e("refresh_s", "s", median(refresh_s));
  r.e2e("epc_peak_mb", "MB",
        static_cast<double>(srv->deployment().max_shard_peak_bytes()) / 1e6);

  std::fprintf(stderr,
               "rounds %zu, %zu cold batches: update_graph %.3f ms, migrate %.3f ms (%zu moves), "
               "kill->promoted %.3f ms (medians)\n",
               graph_ms.size(), cold_ms.size(), median(graph_ms), 1e3 * median(migrate_s), moves_total,
               median(promote_ms));
  std::fprintf(stderr, "per round cold qps / modeled us per query:");
  for (std::size_t i = 0; i < round_qps.size(); ++i) {
    std::fprintf(stderr, " %.0f/%.0f", round_qps[i], round_sgx_us[i]);
  }
  std::fprintf(stderr, "\n");
  record_serve_counters(stats, srv->front_end(),
                        static_cast<std::uint64_t>(
                            digest_bytes_of(current, all) *
                            static_cast<double>(stats.requests) / static_cast<double>(n)),
                        r);
  record_meter_counters(srv->deployment().aggregate_meter(), r);
  check_fleet_properties(srv->deployment(), transfer_bytes, r);
  srv.reset();

  if (opt.trace) {
    ds.features = current;
    rec.vault = &vault;
    rec.ds = &ds;
    rec.twin = twin;
    replay_layers(opt, rec, r);
  }
}

}  // namespace vb
