// QueryLens TimeSeriesRing: fixed-interval windowed aggregation over a
// MetricsRegistry.
//
// VaultScope's registry answers "what is the value NOW"; the control plane
// (the ROADMAP's Autopilot) needs TRENDS — is drift growing, is EPC
// headroom shrinking, what was the cold-query rate over the last minute.
// The ring turns point instruments into windows:
//
//   counters    delta and rate (delta / interval) per window, reset-aware
//               (a registry reset() mid-window reads as a restart from
//               zero, not a huge negative delta);
//   gauges      last / min / max over the samples that landed in the
//               window;
//   histograms  count / sum / per-bucket deltas, with a window-local
//               percentile estimator (what SloMonitor's latency objectives
//               evaluate).
//
// The clock is injected (sample(now_seconds)) so tests and benches drive
// deterministic windows; a wall-clock caller passes its own steady-clock
// seconds.  One sample() call folds gauges into the open window and closes
// every window the clock has passed; closed windows live in a bounded ring
// (oldest evicted), queried by age: window(0) is the newest closed window.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "common/thread_safety.hpp"

namespace gv {

struct TimeSeriesConfig {
  /// Window width in (caller-defined) seconds.
  double interval_seconds = 1.0;
  /// Closed windows retained; older windows are evicted.
  std::size_t capacity = 64;
};

class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(MetricsRegistry& registry, TimeSeriesConfig cfg = {});

  /// Series are keyed "name|canonical-labels" ("cold.queries|",
  /// "halo.payload_bytes|channel_kind=request").
  static std::string series_key(const std::string& name,
                                const MetricLabels& labels = {});

  struct CounterWindow {
    std::uint64_t delta = 0;
    double rate = 0.0;  // delta / interval_seconds
    std::uint64_t last = 0;
  };
  struct GaugeWindow {
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// sample() calls that observed this gauge inside the window; 0 means
    /// last/min/max are the value carried over from the window's close.
    std::uint64_t samples = 0;
  };
  struct HistogramWindow {
    std::uint64_t count_delta = 0;
    double sum_delta = 0.0;
    /// (bucket upper bound, count delta), ascending, only non-zero deltas.
    std::vector<std::pair<double, std::uint64_t>> bucket_deltas;
    /// Window-local percentile: upper bound of the bucket the p-quantile
    /// of this window's recordings falls in (0 when the window is empty).
    double percentile(double p) const;
  };
  struct Window {
    double start_seconds = 0.0;
    double end_seconds = 0.0;
    std::map<std::string, CounterWindow> counters;
    std::map<std::string, GaugeWindow> gauges;
    std::map<std::string, HistogramWindow> histograms;
  };

  /// Observe the registry at `now_seconds`: fold gauge values into the open
  /// window and close every window boundary the clock has crossed.
  void sample(double now_seconds);

  /// Closed windows currently retained.
  std::size_t windows() const;
  /// Copy of the closed window `age` steps back (0 = newest closed).
  /// Throws gv::Error when age >= windows().
  Window window(std::size_t age = 0) const;

  /// Counter rate / delta in the window `age` steps back; 0 when the series
  /// or window does not exist.
  double rate(const std::string& name, const MetricLabels& labels = {},
              std::size_t age = 0) const;
  std::uint64_t delta(const std::string& name, const MetricLabels& labels = {},
                      std::size_t age = 0) const;
  /// Counter delta summed over the newest `n` closed windows (fewer when
  /// the ring holds fewer) — the multi-window input SLO burn rates consume.
  std::uint64_t delta_over(const std::string& name, const MetricLabels& labels,
                           std::size_t n) const;

  double interval_seconds() const { return cfg_.interval_seconds; }

  /// {"interval_seconds": ..., "windows": [...]} with the newest
  /// `max_windows` closed windows, oldest first — the time-series section
  /// of a flight-recorder bundle.
  std::string to_json(std::size_t max_windows = 16) const;

 private:
  struct GaugePartial {
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;
  };

  void close_window_locked(double end_seconds, const RegistrySample& cur)
      GV_REQUIRES(mu_);

  MetricsRegistry* registry_;
  TimeSeriesConfig cfg_;

  mutable Mutex mu_{gv::lockrank::kTelemetry};
  bool started_ GV_GUARDED_BY(mu_) = false;
  double cur_start_ GV_GUARDED_BY(mu_) = 0.0;
  RegistrySample baseline_ GV_GUARDED_BY(mu_);
  std::map<std::string, GaugePartial> gauge_partial_ GV_GUARDED_BY(mu_);
  std::deque<Window> ring_ GV_GUARDED_BY(mu_);  // back = newest closed
};

}  // namespace gv
