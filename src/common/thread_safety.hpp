// Rank-carrying mutex types with clang Thread Safety Analysis annotations.
//
// libstdc++'s std::mutex carries no capability attribute, so clang's
// -Wthread-safety cannot reason about it directly.  gv::Mutex and
// gv::SharedMutex wrap the std:: types with the capability annotations,
// gv::MutexLock / gv::ReaderLock are the annotated scoped guards, and
// gv::CondVar waits directly on a gv::Mutex.  Every mutex states its
// gv::lockrank rank once, where it is declared (there is no default
// constructor), and tools/vault_lint reads it from there:
//
//   gv::Mutex mu_{gv::lockrank::kQueue};
//   std::vector<T> items_ GV_GUARDED_BY(mu_);
//   void drain_locked() GV_REQUIRES(mu_);
//
// CI builds the tree with clang and -Werror=thread-safety; see
// docs/static_analysis.md.
//
// Runtime lock-rank validator (CMake GV_VALIDATE_LOCK_RANKS, which defines
// GV_LOCK_RANK_VALIDATE): lock() checks the rank against the highest rank
// the thread holds BEFORE blocking, so an inversion is reported instead of
// deadlocking; unlock() forgets the most recent entry with that rank, so
// out-of-LIFO unlocks and CondVar waits stay balanced.  Default builds
// compile it out.
//
// EngineScope contention profiler: when enabled — GNNVAULT_LOCKPROF=1 at
// first use, or lockprof::set_enabled(true) — lock() takes a try_lock fast
// path and, on contention, times the blocking wait and records it into the
// global MetricsRegistry as `lock.wait_seconds{rank}` plus a
// `lock.contended{rank}` counter, keyed by gv::lockrank::lock_rank_name.
// Disabled (the default), the probe is ONE relaxed atomic load per lock()
// and writes nothing anywhere; bench/obs_overhead.cpp pins the enabled
// cost.  Instruments are pre-resolved once at enable time, so recording a
// contended wait never takes the registry's own (profiled) mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && (!defined(SWIG))
#define GV_TSA(x) __attribute__((x))
#else
#define GV_TSA(x)
#endif

#define GV_CAPABILITY(x) GV_TSA(capability(x))
#define GV_SCOPED_CAPABILITY GV_TSA(scoped_lockable)
#define GV_GUARDED_BY(x) GV_TSA(guarded_by(x))
#define GV_PT_GUARDED_BY(x) GV_TSA(pt_guarded_by(x))
#define GV_REQUIRES(...) GV_TSA(requires_capability(__VA_ARGS__))
#define GV_REQUIRES_SHARED(...) GV_TSA(requires_shared_capability(__VA_ARGS__))
#define GV_ACQUIRE(...) GV_TSA(acquire_capability(__VA_ARGS__))
#define GV_ACQUIRE_SHARED(...) GV_TSA(acquire_shared_capability(__VA_ARGS__))
#define GV_RELEASE(...) GV_TSA(release_capability(__VA_ARGS__))
#define GV_RELEASE_SHARED(...) GV_TSA(release_shared_capability(__VA_ARGS__))
#define GV_EXCLUDES(...) GV_TSA(locks_excluded(__VA_ARGS__))
#define GV_NO_THREAD_SAFETY_ANALYSIS GV_TSA(no_thread_safety_analysis)

// --- Lock-rank map ----------------------------------------------------------
//
// Ranks must be acquired in non-decreasing order on any one thread.  Equal
// ranks are allowed to nest (distinct instances of a per-shard / per-replica
// mutex, or sequential ecalls into DIFFERENT enclaves); acquiring a rank
// strictly below the highest rank held is an inversion.  The map, from
// outermost (control plane) to innermost (leaf telemetry):
namespace gv::lockrank {
inline constexpr int kRegistry = 10;       // VaultRegistry::mu_
inline constexpr int kServerControl = 20;  // ShardedVaultServer::promotion_mu_
inline constexpr int kReplicate = 24;      // ReplicaManager::replicate_mu_
inline constexpr int kServerState = 28;    // server drift_mu_ (health tracker)
inline constexpr int kReplicaSlot = 32;    // Replica::mu, promote_mu_ (held
                                           // across deployment sends / adopt,
                                           // so BELOW kDeployment)
inline constexpr int kDeployment = 40;     // VaultDeployment /
                                           // ShardedVaultDeployment infer_mu_
inline constexpr int kShardAccess = 44;    // Shard::access_mu (shared)
inline constexpr int kMoveFence = 52;      // move_mu_ / owner_mu_ / handler_mu_
inline constexpr int kServerSnap = 56;     // server snap_mu_ (feature snapshot;
                                           // a leaf the update_graph
                                           // before-unfence hook takes while
                                           // the deployment holds kDeployment)
inline constexpr int kEnclaveEntry = 60;   // Enclave::entry_mu_ (TCS)
inline constexpr int kEnclaveMeter = 64;   // Enclave::meter_mu_
inline constexpr int kChannel = 70;        // AttestedChannel / OneWayChannel /
                                           // MemoryLedger mutexes
inline constexpr int kProbe = 76;          // EngineProbe live-probe set and
                                           // pull_mu_ (pull() reads the
                                           // kQueue..kTelemetry engine locks
                                           // while holding them)
inline constexpr int kQueue = 80;          // MicroBatchQueue::mu_, LabelCache
                                           // (serving-path leaves)
inline constexpr int kJobQueue = 82;       // JobSystem per-worker deques + idle
                                           // signal; ServeFrontEnd batch pool
                                           // (posted to while kQueue-held code
                                           // has already released, but ABOVE
                                           // kQueue so a post under a serving
                                           // leaf would still be legal)
inline constexpr int kTokenState = 84;     // SubmitToken shared state + pool
                                           // (resolved from job workers after
                                           // every other serving lock is
                                           // dropped)
inline constexpr int kTelemetry = 90;      // metrics / trace / flight recorder /
                                           // log / router + server stats

/// Stable name of a rank constant ("kRegistry", ...), or "unknown" for any
/// value not in the table.  The contention profiler labels its
/// `lock.wait_seconds{rank}` histograms with these, so the dynamic
/// contention picture lines up with the static rank table above.
const char* lock_rank_name(int rank);

// --- Runtime validator hooks ------------------------------------------------

/// Called on an inversion: `held` is the highest rank the thread holds,
/// `acquiring` the offending rank.  The default handler prints both and
/// aborts; tests install a counter.  Returns the previous handler.
using ViolationHandler = void (*)(int held, int acquiring);
ViolationHandler set_violation_handler(ViolationHandler h);

/// Capacity of each thread's held-rank stack: a fixed array, so the
/// validator never allocates.
inline constexpr std::size_t kMaxHeld = 64;

/// Reports `rank` to the handler if it is below the highest rank the
/// calling thread holds, then records it as held.  gv mutexes call this
/// before blocking in validated builds.
void note_lock(int rank);
/// Forgets the calling thread's most recent held entry with `rank`.
void note_unlock(int rank);

/// Number of entries in the calling thread's held-rank stack.
std::size_t held_depth();
/// Highest rank the calling thread holds, or -1 when it holds none.
int top_rank();

#if defined(GV_LOCK_RANK_VALIDATE)
inline void validate_lock(int rank) { note_lock(rank); }
inline void validate_unlock(int rank) { note_unlock(rank); }
#else
inline void validate_lock(int) {}
inline void validate_unlock(int) {}
#endif

}  // namespace gv::lockrank

namespace gv {

namespace lockprof {

/// Tri-state: -1 unseeded (read GNNVAULT_LOCKPROF on first probe), else
/// 0/1.  Inline so the disabled check is one relaxed load, no call.
extern std::atomic<int> g_state;

/// Slow path of enabled(): seed g_state from the environment (and resolve
/// the per-rank instruments if it comes up enabled).
bool enabled_slow();

inline bool enabled() {
  const int s = g_state.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return enabled_slow();
}

/// Runtime toggle (tests / benches).  Enabling resolves the per-rank
/// `lock.wait_seconds{rank}` / `lock.contended{rank}` instruments in the
/// global MetricsRegistry once; recording afterwards is atomics only.
void set_enabled(bool on);

/// Lifetime counts while the profiler was enabled (atomic reads; the
/// overhead-pin bench models its cost per profiled acquisition).
std::uint64_t profiled_acquisitions();
std::uint64_t contended_acquisitions();

}  // namespace lockprof

/// A std:: mutex with its lock rank and clang capability annotations:
/// gv::Mutex over std::mutex, gv::SharedMutex over std::shared_mutex (which
/// adds the shared side).  Both sides share the rank validator and the
/// contention profiler.  Also a BasicLockable, so gv::CondVar::wait works
/// on a gv::Mutex directly.
template <typename StdMutex>
class GV_CAPABILITY("mutex") RankedMutex {
 public:
  /// `rank` is a gv::lockrank constant.  constexpr, so a namespace-scope
  /// mutex is constant-initialized and usable during static initialization.
  constexpr explicit RankedMutex(int rank) : rank_(rank) {}

  void lock() GV_ACQUIRE() {
    lockrank::validate_lock(rank_);
    if (lockprof::enabled()) {
      profiled_lock();
      return;
    }
    mu_.lock();
  }
  void unlock() GV_RELEASE() {
    lockrank::validate_unlock(rank_);
    mu_.unlock();
  }
  void lock_shared() GV_ACQUIRE_SHARED() {
    lockrank::validate_lock(rank_);
    if (lockprof::enabled()) {
      profiled_lock_shared();
      return;
    }
    mu_.lock_shared();
  }
  void unlock_shared() GV_RELEASE_SHARED() {
    lockrank::validate_unlock(rank_);
    mu_.unlock_shared();
  }

 private:
  /// try_lock fast path; on contention, time the blocking wait and record
  /// it under this mutex's rank.  Out of line (thread_safety.cpp): the
  /// disabled hot path stays a load + call-free mu_.lock().
  void profiled_lock();
  void profiled_lock_shared();

  StdMutex mu_;
  const int rank_;
};
using Mutex = RankedMutex<std::mutex>;
using SharedMutex = RankedMutex<std::shared_mutex>;

/// Annotated exclusive scoped guard over a gv::Mutex or the writer side of
/// a gv::SharedMutex (std::lock_guard shape, TSA-visible release).
template <typename M>
class GV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(M& mu) GV_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GV_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  M& mu_;
};

/// Annotated shared scoped guard over a gv::SharedMutex.
class GV_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) GV_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() GV_RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable waiting directly on a gv::Mutex.  Built on
/// condition_variable_any (which takes any BasicLockable), so a wait
/// releases and retakes the mutex through Mutex::unlock()/lock() and the
/// rank validator sees both; the wait methods require the capability,
/// matching how callers already hold the lock.  The bodies carry
/// GV_NO_THREAD_SAFETY_ANALYSIS because the analysis cannot see through
/// condition_variable_any's internal unlock/relock.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(Mutex& mu) GV_REQUIRES(mu) GV_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu,
                            const std::chrono::time_point<Clock, Duration>&
                                deadline) GV_REQUIRES(mu)
      GV_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur,
                Pred pred) GV_REQUIRES(mu) GV_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, dur, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gv
