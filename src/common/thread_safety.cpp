#include "common/thread_safety.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "obs/metrics.hpp"

namespace gv::lockrank {
namespace {

struct NamedRank {
  int rank;
  const char* name;
};
// Every rank in the table: lock_rank_name() and the profiler's per-rank
// slots both index it.
constexpr NamedRank kNamedRanks[] = {
    {kRegistry, "kRegistry"},         {kServerControl, "kServerControl"},
    {kReplicate, "kReplicate"},       {kServerState, "kServerState"},
    {kReplicaSlot, "kReplicaSlot"},   {kDeployment, "kDeployment"},
    {kShardAccess, "kShardAccess"},   {kMoveFence, "kMoveFence"},
    {kServerSnap, "kServerSnap"},     {kEnclaveEntry, "kEnclaveEntry"},
    {kEnclaveMeter, "kEnclaveMeter"}, {kChannel, "kChannel"},
    {kProbe, "kProbe"},               {kQueue, "kQueue"},
    {kJobQueue, "kJobQueue"},         {kTokenState, "kTokenState"},
    {kTelemetry, "kTelemetry"},
};
constexpr int kNumRanks = static_cast<int>(std::size(kNamedRanks));

/// Index of a table rank in kNamedRanks; -1 for a value outside the table.
int rank_index(int rank) {
  for (int i = 0; i < kNumRanks; ++i) {
    if (kNamedRanks[i].rank == rank) return i;
  }
  return -1;
}

void default_handler(int held, int acquiring) {
  std::fprintf(stderr,
               "gv::lockrank: lock-rank inversion: acquiring rank %d (%s) "
               "while holding rank %d (%s)\n",
               acquiring, lock_rank_name(acquiring), held,
               lock_rank_name(held));
  std::abort();
}

std::atomic<ViolationHandler> g_handler{&default_handler};

// One stack per thread, in acquisition order.  Trivially constructed, so
// touching it never allocates.
thread_local int t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

}  // namespace

const char* lock_rank_name(int rank) {
  const int i = rank_index(rank);
  return i < 0 ? "unknown" : kNamedRanks[i].name;
}

ViolationHandler set_violation_handler(ViolationHandler h) {
  return g_handler.exchange(h != nullptr ? h : &default_handler);
}

void note_lock(int rank) {
  const int top = top_rank();
  if (rank < top) g_handler.load()(top, rank);
  if (t_depth == kMaxHeld) {
    std::fprintf(stderr, "gv::lockrank: more than %zu locks held\n",
                 kMaxHeld);
    std::abort();
  }
  t_held[t_depth++] = rank;
}

void note_unlock(int rank) {
  for (std::size_t i = t_depth; i-- > 0;) {
    if (t_held[i] != rank) continue;
    for (std::size_t j = i + 1; j < t_depth; ++j) t_held[j - 1] = t_held[j];
    --t_depth;
    return;
  }
}

std::size_t held_depth() { return t_depth; }

int top_rank() {
  // The maximum, not the last entry: an inversion the handler let through
  // is still recorded, and must not lower the bar for later acquisitions.
  int top = -1;
  for (std::size_t i = 0; i < t_depth; ++i) {
    if (t_held[i] > top) top = t_held[i];
  }
  return top;
}

}  // namespace gv::lockrank

namespace gv {
namespace lockprof {

std::atomic<int> g_state{-1};

namespace {

// One slot per rank in the gv::lockrank table.  Instrument pointers are
// resolved once at enable time (resolution takes the registry's own
// kTelemetry gv::Mutex — which is itself profiled — so record() below must
// never resolve) and published with release semantics; record() null-checks
// under an acquire load, so a contended wait racing the enable sees either
// nothing or a fully-resolved slot.
struct Slot {
  Histogram* wait_seconds = nullptr;
  Counter* contended = nullptr;
};
Slot g_slots[lockrank::kNumRanks];
std::atomic<bool> g_resolved{false};
// 0 = unresolved, 1 = resolution in progress, 2 = done.  Exactly one thread
// wins the 0->1 CAS and resolves; losers (and reentrant callers) return
// immediately — record() drops waits until g_resolved flips, which is the
// documented enable-race behaviour.
std::atomic<int> g_resolve_state{0};

std::atomic<std::uint64_t> g_profiled{0};
std::atomic<std::uint64_t> g_contended{0};

void resolve_instruments() {
  int expected = 0;
  if (!g_resolve_state.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
    return;
  }
  auto& reg = MetricsRegistry::global();
  for (int i = 0; i < lockrank::kNumRanks; ++i) {
    const auto labels =
        MetricLabels::of("rank", lockrank::kNamedRanks[i].name);
    g_slots[i].wait_seconds = &reg.histogram("lock.wait_seconds", labels);
    g_slots[i].contended = &reg.counter("lock.contended", labels);
  }
  g_resolved.store(true, std::memory_order_release);
  g_resolve_state.store(2, std::memory_order_release);
}

/// Shared by every gv mutex: count the acquisition, take the try_lock fast
/// path, and on contention time the blocking wait into `rank`'s slot.
template <typename TryLock, typename Lock>
void timed_acquire(int rank, TryLock try_lock, Lock lock) {
  g_profiled.fetch_add(1, std::memory_order_relaxed);
  if (try_lock()) return;
  const auto t0 = std::chrono::steady_clock::now();
  lock();
  const double wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  g_contended.fetch_add(1, std::memory_order_relaxed);
  if (!g_resolved.load(std::memory_order_acquire)) return;
  const int i = lockrank::rank_index(rank);
  if (i < 0) return;
  g_slots[i].contended->add(1);
  g_slots[i].wait_seconds->record(wait_s);
}

}  // namespace

bool enabled_slow() {
  const char* v = std::getenv("GNNVAULT_LOCKPROF");
  const bool on = v != nullptr && v[0] != '\0' && v[0] != '0';
  // Settle g_state BEFORE resolving: resolution takes the registry's own
  // profiled gv::Mutex, whose nested enabled() must see a settled state or
  // it would re-enter this slow path forever.
  int expected = -1;
  g_state.compare_exchange_strong(expected, on ? 1 : 0,
                                  std::memory_order_relaxed);
  const bool now_on = g_state.load(std::memory_order_relaxed) != 0;
  if (now_on) resolve_instruments();
  return now_on;
}

void set_enabled(bool on) {
  // Same ordering as enabled_slow(): publish the state first so the
  // registry mutex taken during resolution sees it settled.
  g_state.store(on ? 1 : 0, std::memory_order_relaxed);
  if (on) resolve_instruments();
}

std::uint64_t profiled_acquisitions() {
  return g_profiled.load(std::memory_order_relaxed);
}

std::uint64_t contended_acquisitions() {
  return g_contended.load(std::memory_order_relaxed);
}

}  // namespace lockprof

template <typename StdMutex>
void RankedMutex<StdMutex>::profiled_lock() {
  lockprof::timed_acquire(
      rank_, [this] { return mu_.try_lock(); }, [this] { mu_.lock(); });
}

template <typename StdMutex>
void RankedMutex<StdMutex>::profiled_lock_shared() {
  lockprof::timed_acquire(
      rank_, [this] { return mu_.try_lock_shared(); },
      [this] { mu_.lock_shared(); });
}

template void Mutex::profiled_lock();
template void SharedMutex::profiled_lock();
template void SharedMutex::profiled_lock_shared();

}  // namespace gv
