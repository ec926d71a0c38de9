// VaultBench shared pieces: run options, the span recorder, the twins and
// vaults every workload starts from, seeded input generators, and the
// result record main.cpp prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "data/catalog.hpp"
#include "shard/graph_drift.hpp"

namespace vb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file written when `trace` is on
};

// --- Spans -----------------------------------------------------------------
//
// Every call the benchmark makes into a layer is wrapped in a Span.  With
// tracing off a Span is one branch; with tracing on it appends a record
// (name, layer, start, end, parent, id) to an in-memory vector that is
// written once, after the run.  Spans are opened from the benchmark's own
// thread only.
struct SpanRecord {
  const char* layer;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t id;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool on() const { return on_; }
  void enable(std::size_t reserve) {
    on_ = true;
    spans_.reserve(reserve);
  }
  std::int32_t open(const char* layer, const char* name, std::uint64_t id) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({layer, name, now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), id});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t mark() const { return spans_.size(); }

 private:
  bool on_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t id = 0) {
    if (Tracer::get().on()) idx_ = Tracer::get().open(layer, name, id);
  }
  ~Span() {
    if (idx_ >= 0) Tracer::get().close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t idx_ = -1;
};

/// Run `f` inside a span and return its wall seconds.
template <typename F>
double timed(const char* layer, const char* name, F&& f, std::uint64_t id = 0) {
  Span span(layer, name, id);
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Statistics ------------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;  // first few check failures, for stderr

  void fail_check(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
  void e2e(std::string name, std::string unit, double v) {
    end_to_end.push_back({std::move(name), std::move(unit), v});
  }
  void layer(std::string name, std::string unit, double v) {
    per_layer.push_back({std::move(name), std::move(unit), v});
  }
};

// --- Inputs ----------------------------------------------------------------

/// Input make-up of one workload (README "Inputs").
struct Twin {
  gv::DatasetId id;
  double scale;
  int epochs;
};

inline constexpr Twin kPubmedTwin{gv::DatasetId::kPubmed, 0.25, 30};
inline constexpr Twin kPhotoTwin{gv::DatasetId::kPhoto, 0.3, 30};

/// The twins and their training seed are fixed, so every run serves the
/// same graph; --seed drives what is asked of it (query streams, graph
/// deltas, feature snapshots).
inline constexpr std::uint64_t kTwinSeed = 42;
/// train_vault runs per process; train_s is their median and the last
/// vault serves the run.
inline constexpr int kTrainings = 5;

inline gv::VaultTrainConfig train_config(const Twin& twin, std::uint64_t seed = kTwinSeed) {
  gv::VaultTrainConfig cfg;
  cfg.spec = gv::model_spec_for_dataset(twin.id);
  cfg.backbone_train.epochs = twin.epochs;
  cfg.rectifier_train.epochs = twin.epochs;
  cfg.seed = seed;
  return cfg;
}

/// Train kTrainings vaults (each timed); returns the last and fills the
/// median wall seconds.
gv::TrainedVault train_timed(const gv::Dataset& ds, const Twin& twin, double* train_s);

/// Zipf(s) over `n` items, ranks mapped to node ids by a seeded permutation.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, gv::Rng& rng);
  std::uint32_t operator()(gv::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> node_of_rank_;
};

/// Copy of `features` with `rows` randomly chosen rows rescaled: same
/// sparsity pattern, new values, so those rows' digests change.
gv::CsrMatrix perturb_features(const gv::CsrMatrix& features, gv::Rng& rng,
                               std::size_t rows);

/// Sum of payload bytes of the backbone outputs the rectifier needs: what
/// one single-enclave batch must copy in.
std::uint64_t required_embedding_bytes(const gv::TrainedVault& vault,
                                       const std::vector<gv::Matrix>& outputs);

// --- Workloads and the layer replay ----------------------------------------

/// What a workload hands to the layer replay of a traced run: the vault it
/// served, the dataset as it stands after the run, and the inputs it used.
struct Recorded {
  const gv::TrainedVault* vault = nullptr;
  const gv::Dataset* ds = nullptr;
  Twin twin{};
  std::vector<std::vector<std::uint32_t>> batches;  // query batches
  std::vector<gv::GraphDelta> deltas;               // graph-delta bursts
  std::vector<gv::CsrMatrix> snapshots;             // feature snapshots
};

/// One graph-delta burst: edge churn plus a few nodes wired into a foreign
/// shard, so that plan_diff has moves to make.
gv::GraphDelta drift_delta(const gv::Dataset& ds, const std::vector<std::uint32_t>& owner,
                           std::uint32_t shards, gv::Rng& rng);

void run_zipf_read(const Options& opt, Result& r);
void run_uniform_read(const Options& opt, Result& r);
void run_drift_maintain(const Options& opt, Result& r);
void run_vault_miss(const Options& opt, Result& r);

/// Traced runs only: replay `rec` through every layer's public functions
/// in a quiescent phase and append the per-layer metrics.  `served`
/// carries the workload server's own counters, already measured.
void replay_layers(const Options& opt, const Recorded& rec, Result& r);

}  // namespace vb
