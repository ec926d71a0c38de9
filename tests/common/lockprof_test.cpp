// EngineScope lock-contention profiler: disabled-by-default cost shape,
// per-rank attribution of contended waits, and the runtime toggle.
//
// The TSan CI job runs this file too: the enable/record/disable sequence
// races a holder thread against a contending locker, so a data race in the
// instrument-resolution handoff (g_resolved release/acquire) would trip it.
#include "common/thread_safety.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/metrics.hpp"

namespace gv {
namespace {

std::uint64_t contended_count(const char* rank_name) {
  return MetricsRegistry::global()
      .counter("lock.contended", MetricLabels::of("rank", rank_name))
      .value();
}

Histogram::Snapshot wait_hist(const char* rank_name) {
  return MetricsRegistry::global()
      .histogram("lock.wait_seconds", MetricLabels::of("rank", rank_name))
      .snapshot();
}

/// Block `locker` on `mu` for ~`hold` by sleeping while holding it.
void contend_once(Mutex& mu, std::chrono::milliseconds hold) {
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(hold);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    MutexLock lock(mu);  // blocks until the holder's sleep ends
  }
  holder.join();
}

// Must run FIRST (gtest declaration order): it needs instrument resolution
// to not have happened yet.  Regression for the env-var enablement path:
// resolve_instruments() takes the registry's own profiled gv::Mutex, and
// with g_state unseeded that nested lock's enabled() check used to re-enter
// the slow path and recurse until stack overflow.  Re-create the
// first-ever-lock conditions — state unseeded, env var set — and lock.
TEST(LockProf, EnvSeededEnableDoesNotRecurse) {
  ::setenv("GNNVAULT_LOCKPROF", "1", 1);
  lockprof::g_state.store(-1, std::memory_order_relaxed);
  Mutex mu{lockrank::kRegistry};
  {
    MutexLock lock(mu);  // first probe: seeds from the env, resolves
  }
  EXPECT_TRUE(lockprof::enabled());
  lockprof::set_enabled(false);
  ::unsetenv("GNNVAULT_LOCKPROF");
}

TEST(LockProf, DisabledWritesNothing) {
  lockprof::set_enabled(false);
  const auto profiled_before = lockprof::profiled_acquisitions();
  const auto instruments_before = MetricsRegistry::global().size();
  Mutex mu{lockrank::kRegistry};
  for (int i = 0; i < 1000; ++i) {
    MutexLock lock(mu);
  }
  // Disabled lock() is one relaxed load + the plain mutex: the profiled
  // path is never entered and no instrument is created or touched.
  EXPECT_EQ(lockprof::profiled_acquisitions(), profiled_before);
  EXPECT_EQ(MetricsRegistry::global().size(), instruments_before);
}

TEST(LockProf, UncontendedEnabledCountsButRecordsNoWait) {
  lockprof::set_enabled(true);
  const auto profiled_before = lockprof::profiled_acquisitions();
  const auto contended_before = lockprof::contended_acquisitions();
  Mutex mu{lockrank::kQueue};
  for (int i = 0; i < 100; ++i) {
    MutexLock lock(mu);
  }
  lockprof::set_enabled(false);
  EXPECT_GE(lockprof::profiled_acquisitions() - profiled_before, 100u);
  // try_lock won every time: nothing contended, nothing in the histogram.
  EXPECT_EQ(lockprof::contended_acquisitions(), contended_before);
  EXPECT_EQ(wait_hist("kQueue").count, 0u);
}

TEST(LockProf, ContendedWaitLandsInItsRankHistogram) {
  lockprof::set_enabled(true);
  const auto registry_before = contended_count("kRegistry");
  const auto registry_hist_before = wait_hist("kRegistry").count;
  const auto queue_before = wait_hist("kQueue").count;

  Mutex mu{lockrank::kRegistry};
  contend_once(mu, std::chrono::milliseconds(30));
  lockprof::set_enabled(false);

  EXPECT_GE(contended_count("kRegistry"), registry_before + 1);
  const auto snap = wait_hist("kRegistry");
  ASSERT_GE(snap.count, registry_hist_before + 1);
  // The wait spanned the holder's 30 ms sleep; well above bucket noise.
  EXPECT_GT(snap.max, 1e-3);
  // Attribution is per rank: the kQueue histogram saw nothing from this.
  EXPECT_EQ(wait_hist("kQueue").count, queue_before);
}

TEST(LockProf, DisableStopsRecordingImmediately) {
  lockprof::set_enabled(true);
  lockprof::set_enabled(false);
  const auto profiled_before = lockprof::profiled_acquisitions();
  const auto hist_before = wait_hist("kRegistry").count;
  Mutex mu{lockrank::kRegistry};
  contend_once(mu, std::chrono::milliseconds(5));
  EXPECT_EQ(lockprof::profiled_acquisitions(), profiled_before);
  EXPECT_EQ(wait_hist("kRegistry").count, hist_before);
}

}  // namespace
}  // namespace gv
