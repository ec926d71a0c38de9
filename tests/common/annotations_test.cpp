// Runtime lock-rank validator (gv::lockrank hooks, gv::Mutex / CondVar)
// + annotation layer.
//
// The validator hooks (note_lock / note_unlock) are compiled into every
// build, so the stack-discipline cases below drive them directly and hold
// in every build flavor.  The cases that go through gv::Mutex itself only
// mean something where lock() calls the hooks — builds configured with
// -DGV_VALIDATE_LOCK_RANKS=ON, as the sanitizer CI jobs are — and are
// compiled only there.

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include <gtest/gtest.h>

// --- per-thread allocation counter ------------------------------------------
// Replacing ::operator new in this TU makes every heap allocation in the
// test binary observable; counting per thread keeps other threads' work
// out of the zero-allocation assertion.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gv::lockrank {
namespace {

std::atomic<int> g_violations{0};
std::atomic<int> g_last_held{-1};
std::atomic<int> g_last_acquiring{-1};

void count_violation(int held, int acquiring) {
  g_violations.fetch_add(1);
  g_last_held.store(held);
  g_last_acquiring.store(acquiring);
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_violations.store(0);
    prev_ = set_violation_handler(&count_violation);
    ASSERT_EQ(held_depth(), 0u);
  }
  void TearDown() override {
    set_violation_handler(prev_);
    EXPECT_EQ(held_depth(), 0u) << "a case leaked a held rank";
  }
  ViolationHandler prev_ = nullptr;
};

TEST_F(LockRankTest, MonotoneNestingIsClean) {
  note_lock(kServerControl);
  note_lock(kDeployment);
  note_lock(kChannel);
  EXPECT_EQ(held_depth(), 3u);
  EXPECT_EQ(top_rank(), kChannel);
  note_unlock(kChannel);
  note_unlock(kDeployment);
  note_unlock(kServerControl);
  EXPECT_EQ(top_rank(), -1);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, EqualRanksMayNest) {
  // Distinct instances of a per-shard / per-replica mutex share a rank and
  // are allowed to nest (the ordering is non-strict).
  note_lock(kShardAccess);
  note_lock(kShardAccess);
  EXPECT_EQ(held_depth(), 2u);
  note_unlock(kShardAccess);
  note_unlock(kShardAccess);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, InversionHandsBothRanksToHandler) {
  note_lock(kChannel);
  note_lock(kRegistry);
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_EQ(g_last_held.load(), kChannel);
  EXPECT_EQ(g_last_acquiring.load(), kRegistry);
  // The violating entry is recorded (its unlock must find it) but does not
  // lower the bar: the highest held rank stays authoritative.
  EXPECT_EQ(held_depth(), 2u);
  EXPECT_EQ(top_rank(), kChannel);
  note_lock(kDeployment);
  EXPECT_EQ(g_violations.load(), 2);
  note_unlock(kDeployment);
  note_unlock(kRegistry);
  note_unlock(kChannel);
}

TEST_F(LockRankTest, RecoveryAfterUnlock) {
  note_lock(kChannel);
  note_unlock(kChannel);
  // Once the high rank is released, a low rank is fine again.
  note_lock(kRegistry);
  note_unlock(kRegistry);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, UnlockOutOfLifoOrderRemovesThatEntry) {
  note_lock(kDeployment);
  note_lock(kMoveFence);
  note_lock(kChannel);
  // Release the OUTER lock first: the stack drops that entry, not the top.
  note_unlock(kDeployment);
  EXPECT_EQ(held_depth(), 2u);
  EXPECT_EQ(top_rank(), kChannel);
  note_unlock(kChannel);
  EXPECT_EQ(top_rank(), kMoveFence);
  // kServerSnap sits above the still-held kMoveFence: legal.
  note_lock(kServerSnap);
  note_unlock(kServerSnap);
  note_unlock(kMoveFence);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, UnlockRemovesTheMostRecentEqualEntry) {
  note_lock(kShardAccess);
  note_lock(kMoveFence);
  note_lock(kShardAccess);  // an inversion the handler lets through
  EXPECT_EQ(g_violations.load(), 1);
  note_unlock(kShardAccess);
  note_unlock(kMoveFence);
  // The first kShardAccess is still held.
  EXPECT_EQ(held_depth(), 1u);
  EXPECT_EQ(top_rank(), kShardAccess);
  note_unlock(kShardAccess);
}

TEST_F(LockRankTest, HeldStackIsThreadLocal) {
  note_lock(kChannel);
  std::atomic<int> other_thread_depth{-1};
  std::thread t([&] {
    // A fresh thread starts with an empty stack: acquiring a LOW rank here
    // must not be judged against main's held kChannel.
    note_lock(kRegistry);
    other_thread_depth.store(static_cast<int>(held_depth()));
    note_unlock(kRegistry);
  });
  t.join();
  EXPECT_EQ(other_thread_depth.load(), 1);
  EXPECT_EQ(g_violations.load(), 0);
  EXPECT_EQ(held_depth(), 1u);
  note_unlock(kChannel);
}

TEST_F(LockRankTest, ValidatedLockingMakesNoHeapAllocations) {
  Mutex outer{kDeployment};
  Mutex inner{kChannel};
  // Warm up: the first touch of the thread-local stack and the mutexes.
  { MutexLock a(outer); MutexLock b(inner); }
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < 1000; ++i) {
    MutexLock a(outer);
    MutexLock b(inner);
    for (std::size_t d = 0; d < kMaxHeld - 2; ++d) note_lock(kTelemetry);
    for (std::size_t d = 0; d < kMaxHeld - 2; ++d) note_unlock(kTelemetry);
  }
  EXPECT_EQ(t_allocs - before, 0u);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, RankTableIsMonotoneOuterToInner) {
  // The documented outer->inner order must stay strictly increasing; a new
  // subsystem squeezed in at the wrong spot breaks this at compile review
  // time AND here.
  const int order[] = {
      kRegistry,     kServerControl, kReplicate,   kServerState,
      kReplicaSlot,  kDeployment,    kShardAccess, kMoveFence,
      kServerSnap,   kEnclaveEntry,  kEnclaveMeter, kChannel,
      kProbe,        kQueue,         kJobQueue,    kTokenState,
      kTelemetry};
  for (std::size_t i = 1; i < std::size(order); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "rank table out of order at " << i;
  }
  for (const int r : order) EXPECT_STRNE(lock_rank_name(r), "unknown");
}

#if defined(GV_LOCK_RANK_VALIDATE)

TEST_F(LockRankTest, MutexTracksItsOwnRank) {
  Mutex deployment{kDeployment};
  SharedMutex shard{kShardAccess};
  {
    MutexLock a(deployment);
    ReaderLock b(shard);
    EXPECT_EQ(held_depth(), 2u);
    EXPECT_EQ(top_rank(), kShardAccess);
  }
  {
    MutexLock w(shard);
    EXPECT_EQ(top_rank(), kShardAccess);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockRankTest, MutexUnlockOutOfLifoOrder) {
  Mutex outer{kDeployment};
  Mutex inner{kChannel};
  outer.lock();
  inner.lock();
  outer.unlock();
  EXPECT_EQ(held_depth(), 1u);
  EXPECT_EQ(top_rank(), kChannel);
  inner.unlock();
  EXPECT_EQ(g_violations.load(), 0);
}

// Set by the violation handler below; the holder thread waits for it.
std::atomic<bool> g_release_holder{false};

void release_holder_on_violation(int held, int acquiring) {
  count_violation(held, acquiring);
  g_release_holder.store(true);
}

TEST_F(LockRankTest, MutexInversionIsReportedBeforeBlocking) {
  // Another thread holds the low-rank mutex until the handler fires.  Were
  // the rank checked only after the lock is taken, the inverted lock()
  // below would block forever; checked first, the handler runs, frees the
  // holder, and the lock then succeeds.
  set_violation_handler(&release_holder_on_violation);
  g_release_holder.store(false);
  // Static, so no other case's stack mutexes share their addresses: TSan
  // keys mutexes by address and would chain this deliberate inversion with
  // another case's correctly ordered pair into a false deadlock cycle.
  static Mutex registry{kRegistry};
  static Mutex channel{kChannel};
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(registry);
    held.store(true);
    while (!g_release_holder.load()) std::this_thread::yield();
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock high(channel);
    MutexLock low(registry);  // inversion: rank 10 under rank 70
    EXPECT_EQ(g_violations.load(), 1);
    EXPECT_EQ(g_last_held.load(), kChannel);
    EXPECT_EQ(g_last_acquiring.load(), kRegistry);
  }
  holder.join();
}

TEST_F(LockRankTest, CondVarWaitReleasesAndRetakesTheRank) {
  Mutex mu{kQueue};
  CondVar cv;
  int checks = 0;
  std::size_t max_depth = 0;
  {
    MutexLock lock(mu);
    // Every timed-out wait unlocks and relocks through Mutex: the
    // predicate must see exactly one held entry each time, never a stale
    // duplicate from the relock.
    cv.wait_for(mu, std::chrono::milliseconds(5), [&] {
      ++checks;
      max_depth = std::max(max_depth, held_depth());
      EXPECT_EQ(top_rank(), kQueue);
      return false;
    });
    EXPECT_EQ(held_depth(), 1u);
  }
  EXPECT_GE(checks, 2);
  EXPECT_EQ(max_depth, 1u);
  EXPECT_EQ(g_violations.load(), 0);
}

#endif  // GV_LOCK_RANK_VALIDATE

}  // namespace
}  // namespace gv::lockrank

namespace gv {
namespace {

// GV_LINT_ALLOW must compile away cleanly in any scope.
GV_LINT_ALLOW("lock-rank", "fixture: proves the macro is scope-agnostic");

TEST(Annotations, SuppressionMacroCompilesInFunctionScope) {
  GV_LINT_ALLOW("secret-egress", "fixture: function-scope expansion");
  SUCCEED();
}

}  // namespace
}  // namespace gv
