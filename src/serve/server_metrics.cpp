#include "serve/server_metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace gv {

namespace {
// snprintf-append into a growable string: the summary line is no longer at
// the mercy of one fixed stack buffer sized for last month's field count.
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  if (n > 0) {
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    va_start(args, fmt);
    std::vsnprintf(big.data(), big.size(), fmt, args);
    va_end(args);
    out.append(big.c_str());
  }
}
}  // namespace

std::string MetricsSnapshot::summary() const {
  std::string out;
  out.reserve(512);
  appendf(out, "%llu req (%llu batches, mean %.1f/batch) | %.0f req/s modeled | "
               "cache %.0f%% | p50 %.3f ms p95 %.3f ms p99 %.3f ms | "
               "%llu ecalls, %.2f MB in",
          static_cast<unsigned long long>(requests),
          static_cast<unsigned long long>(batches), mean_batch_size,
          requests_per_second, cache_hit_rate * 100.0, p50_latency_ms,
          p95_latency_ms, p99_latency_ms, static_cast<unsigned long long>(ecalls),
          bytes_in / (1024.0 * 1024.0));
  if (failovers || fenced_batches || promotions || restaffs || shard_faults) {
    appendf(out, " | failover %llu (fenced %llu, promoted %llu, restaffed %llu, "
                 "faults %llu)",
            static_cast<unsigned long long>(failovers),
            static_cast<unsigned long long>(fenced_batches),
            static_cast<unsigned long long>(promotions),
            static_cast<unsigned long long>(restaffs),
            static_cast<unsigned long long>(shard_faults));
  }
  if (cold_batches || cold_queries) {
    appendf(out, " | cold %llu batches %llu queries (%llu/%llu shards "
                 "computed/touched, %llu frontier rows, %.2f MB halo)",
            static_cast<unsigned long long>(cold_batches),
            static_cast<unsigned long long>(cold_queries),
            static_cast<unsigned long long>(cold_shards_computed),
            static_cast<unsigned long long>(cold_shards_touched),
            static_cast<unsigned long long>(cold_frontier_rows),
            (cold_halo_request_bytes + cold_halo_embedding_bytes) /
                (1024.0 * 1024.0));
  }
  if (graph_updates) {
    appendf(out, " | drift %llu updates (cut growth %.2f, imbalance %.2f, "
                 "%llu stale evictions)",
            static_cast<unsigned long long>(graph_updates), drift_cut_growth,
            drift_load_imbalance,
            static_cast<unsigned long long>(stale_label_evictions));
  }
  return out;
}

void ServerMetrics::record_request() {
  MutexLock lock(mu_);
  ++requests_;
}

void ServerMetrics::record_cache_hit() {
  MutexLock lock(mu_);
  ++cache_hits_;
}

void ServerMetrics::record_cache_miss() {
  MutexLock lock(mu_);
  ++cache_misses_;
}

void ServerMetrics::record_batch(std::size_t size) {
  MutexLock lock(mu_);
  ++batches_;
  completed_ += size;
}

void ServerMetrics::record_coalesced() {
  MutexLock lock(mu_);
  ++coalesced_;
}

void ServerMetrics::record_feature_update() {
  MutexLock lock(mu_);
  ++feature_updates_;
}

void ServerMetrics::record_graph_update(std::size_t stale) {
  MutexLock lock(mu_);
  ++graph_updates_;
  stale_label_evictions_ += stale;
}

void ServerMetrics::record_promotion_ms(double ms) {
  MutexLock lock(mu_);
  ++promotions_;
  promotion_ms_total_ += ms;
  promotion_ms_max_ = std::max(promotion_ms_max_, ms);
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
  // Percentiles come from the atomic histogram OUTSIDE the counter mutex:
  // a stats() poll no longer blocks request recording while it sorts (it
  // no longer sorts at all).
  const Histogram::Snapshot lat = latency_ms_.snapshot();
  s.p50_latency_ms = lat.percentile(0.50);
  s.p95_latency_ms = lat.percentile(0.95);
  s.p99_latency_ms = lat.percentile(0.99);
  s.max_latency_ms = lat.max;
  MutexLock lock(mu_);
  s.requests = requests_;
  s.completed = completed_;
  s.batches = batches_;
  s.coalesced = coalesced_;
  s.feature_updates = feature_updates_;
  s.graph_updates = graph_updates_;
  s.stale_label_evictions = stale_label_evictions_;
  s.promotions = promotions_;
  s.mean_promotion_ms =
      promotions_ ? promotion_ms_total_ / static_cast<double>(promotions_) : 0.0;
  s.max_promotion_ms = promotion_ms_max_;
  s.cache_hits = cache_hits_;
  s.cache_misses = cache_misses_;
  const auto probes = cache_hits_ + cache_misses_;
  s.cache_hit_rate = probes ? static_cast<double>(cache_hits_) / probes : 0.0;
  s.mean_batch_size = batches_ ? static_cast<double>(completed_) / batches_ : 0.0;
  s.wall_seconds = since_.seconds();
  return s;
}

void ServerMetrics::reset() {
  MutexLock lock(mu_);
  requests_ = completed_ = batches_ = cache_hits_ = cache_misses_ = 0;
  coalesced_ = feature_updates_ = promotions_ = 0;
  graph_updates_ = stale_label_evictions_ = 0;
  promotion_ms_total_ = promotion_ms_max_ = 0.0;
  latency_ms_.reset();
  since_.reset();
}

}  // namespace gv
