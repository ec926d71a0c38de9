#include "obs/timeseries.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {

TimeSeriesRing::TimeSeriesRing(MetricsRegistry& registry, TimeSeriesConfig cfg)
    : registry_(&registry), cfg_(cfg) {
  GV_CHECK(cfg_.interval_seconds > 0.0,
           "time-series window interval must be positive");
  GV_CHECK(cfg_.capacity > 0, "time-series ring needs capacity >= 1");
}

std::string TimeSeriesRing::series_key(const std::string& name,
                                       const MetricLabels& labels) {
  return name + "|" + labels.canonical();
}

double TimeSeriesRing::HistogramWindow::percentile(double p) const {
  if (count_delta == 0 || bucket_deltas.empty()) return 0.0;
  const double rank = p * static_cast<double>(count_delta - 1) + 0.5;
  std::uint64_t seen = 0;
  for (const auto& [upper, c] : bucket_deltas) {
    seen += c;
    if (static_cast<double>(seen) >= rank) {
      return upper <= Histogram::kMinValue ? 0.0 : upper;
    }
  }
  return bucket_deltas.back().first;
}

void TimeSeriesRing::sample(double now_seconds) {
  const RegistrySample cur = registry_->sample();
  MutexLock lock(mu_);
  if (!started_) {
    // Baseline only: counters/histograms diff against this snapshot, and
    // gauge observation starts with the NEXT sample — folding the opening
    // reading here would charge windows with pre-window state (usually a
    // default-constructed 0).
    started_ = true;
    cur_start_ = now_seconds;
    baseline_ = cur;
    return;
  }
  // This observation happened during the currently open window, so fold it
  // BEFORE closing any boundary the clock has crossed: a sample landing
  // exactly on (or past) a boundary describes the window it closes.
  for (const auto& g : cur.gauges) {
    auto& p = gauge_partial_[g.name + "|" + g.labels];
    if (p.samples == 0) {
      p.last = p.min = p.max = g.value;
    } else {
      p.last = g.value;
      p.min = std::min(p.min, g.value);
      p.max = std::max(p.max, g.value);
    }
    ++p.samples;
  }
  // Close every boundary the clock has crossed.  The first closed window
  // absorbs the full delta since the baseline; any further windows the
  // clock skipped over close empty (zero deltas, carried-over gauges) —
  // a quiet period reads as quiet, not as one aliased burst.
  while (now_seconds >= cur_start_ + cfg_.interval_seconds) {
    close_window_locked(cur_start_ + cfg_.interval_seconds, cur);
    baseline_ = cur;
    gauge_partial_.clear();
    cur_start_ += cfg_.interval_seconds;
  }
}

void TimeSeriesRing::close_window_locked(double end_seconds,
                                         const RegistrySample& cur) {
  Window w;
  w.start_seconds = cur_start_;
  w.end_seconds = end_seconds;

  std::map<std::string, std::uint64_t> base_counters;
  for (const auto& c : baseline_.counters) {
    base_counters[c.name + "|" + c.labels] = c.value;
  }
  for (const auto& c : cur.counters) {
    const std::string key = c.name + "|" + c.labels;
    const auto it = base_counters.find(key);
    const std::uint64_t base = it != base_counters.end() ? it->second : 0;
    CounterWindow cw;
    // Reset-aware: a counter below its baseline restarted from zero (e.g.
    // MetricsRegistry::reset() between samples) — its whole current value
    // is this window's delta, never a wrapped negative.
    cw.delta = c.value >= base ? c.value - base : c.value;
    cw.rate = static_cast<double>(cw.delta) / cfg_.interval_seconds;
    cw.last = c.value;
    w.counters.emplace(key, cw);
  }

  for (const auto& g : cur.gauges) {
    const std::string key = g.name + "|" + g.labels;
    GaugeWindow gw;
    const auto it = gauge_partial_.find(key);
    if (it != gauge_partial_.end()) {
      gw.last = it->second.last;
      gw.min = it->second.min;
      gw.max = it->second.max;
      gw.samples = it->second.samples;
    } else {
      gw.last = gw.min = gw.max = g.value;
      gw.samples = 0;
    }
    w.gauges.emplace(key, gw);
  }

  std::map<std::string, const Histogram::Snapshot*> base_hists;
  for (const auto& h : baseline_.histograms) {
    base_hists[h.name + "|" + h.labels] = &h.snap;
  }
  for (const auto& h : cur.histograms) {
    const std::string key = h.name + "|" + h.labels;
    HistogramWindow hw;
    const auto it = base_hists.find(key);
    const Histogram::Snapshot* base = it != base_hists.end() ? it->second : nullptr;
    const bool reset = base != nullptr && h.snap.count < base->count;
    if (base == nullptr || reset) {
      hw.count_delta = h.snap.count;
      hw.sum_delta = h.snap.sum;
      hw.bucket_deltas = h.snap.buckets;
    } else {
      hw.count_delta = h.snap.count - base->count;
      hw.sum_delta = h.snap.sum - base->sum;
      std::map<double, std::uint64_t> base_buckets(base->buckets.begin(),
                                                   base->buckets.end());
      for (const auto& [upper, c] : h.snap.buckets) {
        const auto bit = base_buckets.find(upper);
        const std::uint64_t bc = bit != base_buckets.end() ? bit->second : 0;
        if (c > bc) hw.bucket_deltas.emplace_back(upper, c - bc);
      }
    }
    w.histograms.emplace(key, std::move(hw));
  }

  ring_.push_back(std::move(w));
  while (ring_.size() > cfg_.capacity) ring_.pop_front();
}

std::size_t TimeSeriesRing::windows() const {
  MutexLock lock(mu_);
  return ring_.size();
}

TimeSeriesRing::Window TimeSeriesRing::window(std::size_t age) const {
  MutexLock lock(mu_);
  GV_CHECK(age < ring_.size(), "time-series window age out of range");
  return ring_[ring_.size() - 1 - age];
}

double TimeSeriesRing::rate(const std::string& name, const MetricLabels& labels,
                            std::size_t age) const {
  MutexLock lock(mu_);
  if (age >= ring_.size()) return 0.0;
  const auto& w = ring_[ring_.size() - 1 - age];
  const auto it = w.counters.find(series_key(name, labels));
  return it != w.counters.end() ? it->second.rate : 0.0;
}

std::uint64_t TimeSeriesRing::delta(const std::string& name,
                                    const MetricLabels& labels,
                                    std::size_t age) const {
  MutexLock lock(mu_);
  if (age >= ring_.size()) return 0;
  const auto& w = ring_[ring_.size() - 1 - age];
  const auto it = w.counters.find(series_key(name, labels));
  return it != w.counters.end() ? it->second.delta : 0;
}

std::uint64_t TimeSeriesRing::delta_over(const std::string& name,
                                         const MetricLabels& labels,
                                         std::size_t n) const {
  MutexLock lock(mu_);
  const std::string key = series_key(name, labels);
  std::uint64_t sum = 0;
  const std::size_t take = std::min(n, ring_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const auto& w = ring_[ring_.size() - 1 - i];
    const auto it = w.counters.find(key);
    if (it != w.counters.end()) sum += it->second.delta;
  }
  return sum;
}

std::string TimeSeriesRing::to_json(std::size_t max_windows) const {
  MutexLock lock(mu_);
  std::string out = "{\"interval_seconds\": ";
  append_json_number(out, cfg_.interval_seconds);
  out += ", \"windows\": [";
  const std::size_t take = std::min(max_windows, ring_.size());
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    const auto& w = ring_[i];
    if (i != ring_.size() - take) out += ", ";
    out += "{\"start_s\": ";
    append_json_number(out, w.start_seconds);
    out += ", \"end_s\": ";
    append_json_number(out, w.end_seconds);
    out += ", \"counters\": {";
    bool first = true;
    for (const auto& [key, cw] : w.counters) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, key);
      out += ": {\"delta\": " + std::to_string(cw.delta) + ", \"rate\": ";
      append_json_number(out, cw.rate);
      out += "}";
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto& [key, gw] : w.gauges) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, key);
      out += ": {\"last\": ";
      append_json_number(out, gw.last);
      out += ", \"min\": ";
      append_json_number(out, gw.min);
      out += ", \"max\": ";
      append_json_number(out, gw.max);
      out += "}";
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const auto& [key, hw] : w.histograms) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, key);
      out += ": {\"count\": " + std::to_string(hw.count_delta) +
             ", \"sum\": ";
      append_json_number(out, hw.sum_delta);
      out += ", \"p99\": ";
      append_json_number(out, hw.percentile(0.99));
      out += "}";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace gv
