// SubmitToken: the completion-token half of the JobServe serving API.
//
// The old contract threaded one std::promise<uint32_t> per query through
// MicroBatchQueue::submit; every lookup paid a promise/future shared-state
// allocation, and callers got nothing richer than .get().  SubmitToken
// replaces it:
//
//   * Cache hits return an INLINE-READY token carrying the label by value —
//     no shared state, no allocation, nothing to synchronize.
//   * Misses borrow a TokenState from a free-list pool (TokenPool); after
//     warm-up the pool stops touching the heap, which is half of the
//     "zero allocations per warm lookup" ROADMAP claim.
//   * Tokens support .get() (blocking), .wait_for(duration), .ready(), and
//     .then(callback) — the callback runs inline if the token is already
//     resolved, otherwise on the resolving job-system worker.
//   * SubmitBatch bundles the tokens of one submit_many call with
//     wait_all()/get_all() for batch-wide completion.
//
// Ownership: a TokenState starts with two references — the consumer-side
// SubmitToken and the producer (queue slot / flush job).  resolve()/fail()
// consume the producer reference; the token's destructor consumes the
// consumer one; the last release returns the state to its pool.  The pool's
// storage core outlives the TokenPool handle itself while any acquired
// state is still out in the wild, so a token may safely outlive the server
// that issued it (the std::future contract the old API gave callers).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"

namespace gv {

class TokenPool;
namespace detail {
class TokenPoolCore;
}  // namespace detail

/// Shared completion state for one pending (non-cache-hit) query.  Lives in
/// a TokenPool chunk; never heap-allocated per query after warm-up.
class TokenState {
 public:
  using Callback = std::function<void(std::uint32_t, std::exception_ptr)>;

  /// Producer side: publish the label and wake/notify the consumer.
  /// Consumes the producer reference.
  void resolve(std::uint32_t value);
  /// Producer side: publish a failure.  Consumes the producer reference.
  void fail(std::exception_ptr error);

  /// Consumer side (via SubmitToken): block until resolved, return or throw.
  std::uint32_t get();
  /// Consumer side: wait up to `dur`; true when resolved.
  bool wait_for(std::chrono::microseconds dur);
  /// Consumer side: block until resolved, success or failure (no throw).
  void wait();
  bool ready() const;
  /// Consumer side: run `cb(value, error)` on resolution (inline when
  /// already resolved, else on the resolving thread).  One callback per
  /// token.
  void install_callback(Callback cb);

  /// Drop one reference; the last one returns the state to its pool.
  void unref();
  /// Drop BOTH references without resolving (submit failed before the
  /// producer ever owned the state).
  void abandon();

 private:
  friend class TokenPool;
  friend class detail::TokenPoolCore;

  mutable Mutex mu_{gv::lockrank::kTokenState};
  CondVar cv_;
  bool resolved_ GV_GUARDED_BY(mu_) = false;
  std::uint32_t value_ GV_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ GV_GUARDED_BY(mu_);
  Callback callback_ GV_GUARDED_BY(mu_);

  std::atomic<int> refs_{0};
  detail::TokenPoolCore* pool_ = nullptr;
  TokenState* next_free_ = nullptr;
};

namespace detail {

/// The pool's storage: chunk-allocated states plus the free list.  Heap
/// allocated and DETACHABLE — when the owning TokenPool dies with states
/// still acquired (a caller kept a SubmitToken past server shutdown), the
/// core lingers until the last such state recycles, then frees itself.
class TokenPoolCore {
 public:
  static constexpr std::size_t kChunk = 64;

  /// Occupancy observer, invoked on STATE CHANGE (a chunk grow, a detach)
  /// with the post-change figures — the PR-7 push-on-state-change gauge
  /// convention, so pool growth is visible without polling.  Called under
  /// the pool lock (kTokenState): the callback must only touch leaf state
  /// (EngineProbe sets pre-resolved gauges — atomic stores only).
  using Observer = void (*)(void* ctx, std::size_t capacity,
                            std::size_t free_count, std::size_t chunks);
  void set_observer(void* ctx, Observer fn);

  TokenState* acquire();
  void recycle(TokenState* s);
  /// Owner shutdown: returns true when the caller must delete the core now
  /// (no states outstanding); otherwise the last recycle() deletes it.
  bool detach();

  std::size_t free_count() const;
  std::size_t capacity() const;
  /// States acquired and not yet recycled.
  std::size_t in_use() const;
  std::size_t num_chunks() const;

 private:
  mutable Mutex mu_{gv::lockrank::kTokenState};
  TokenState* free_head_ GV_GUARDED_BY(mu_) = nullptr;
  std::size_t free_count_ GV_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<TokenState[]>> chunks_ GV_GUARDED_BY(mu_);
  std::size_t capacity_ GV_GUARDED_BY(mu_) = 0;
  /// States acquired and not yet recycled.
  std::size_t outstanding_ GV_GUARDED_BY(mu_) = 0;
  bool detached_ GV_GUARDED_BY(mu_) = false;
  void* observer_ctx_ GV_GUARDED_BY(mu_) = nullptr;
  Observer observer_ GV_GUARDED_BY(mu_) = nullptr;
};

}  // namespace detail

/// Free-list pool of TokenStates.  acquire() pops a recycled state (heap
/// only during warm-up, in chunks); the last unref() pushes it back.
class TokenPool {
 public:
  TokenPool();
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;
  ~TokenPool();

  /// A cleared state holding 2 refs (consumer + producer).
  TokenState* acquire() { return core_->acquire(); }

  /// States currently in the free list (tests / stats).
  std::size_t free_count() const { return core_->free_count(); }
  /// Total states ever chunk-allocated.
  std::size_t capacity() const { return core_->capacity(); }
  /// States acquired and not yet recycled.
  std::size_t in_use() const { return core_->in_use(); }
  std::size_t num_chunks() const { return core_->num_chunks(); }
  /// Push-on-state-change occupancy observer (see TokenPoolCore::Observer).
  void set_observer(void* ctx, detail::TokenPoolCore::Observer fn) {
    core_->set_observer(ctx, fn);
  }

 private:
  detail::TokenPoolCore* core_;
};

/// Move-only completion token returned by ServeFrontEnd::submit.
class SubmitToken {
 public:
  SubmitToken() = default;
  /// Inline-ready token (cache hit): carries the label, owns no state.
  static SubmitToken ready_value(std::uint32_t value) {
    SubmitToken t;
    t.kind_ = Kind::kReady;
    t.value_ = value;
    return t;
  }
  /// Pending token adopting the consumer reference of `state`.
  explicit SubmitToken(TokenState* state) : kind_(Kind::kShared), state_(state) {}

  SubmitToken(SubmitToken&& o) noexcept { move_from(o); }
  SubmitToken& operator=(SubmitToken&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  SubmitToken(const SubmitToken&) = delete;
  SubmitToken& operator=(const SubmitToken&) = delete;
  ~SubmitToken() { release(); }

  bool valid() const { return kind_ != Kind::kEmpty; }
  bool ready() const {
    return kind_ == Kind::kReady || (kind_ == Kind::kShared && state_->ready());
  }

  /// Block until resolved; return the label or rethrow the failure.
  /// Unlike std::future::get, tokens stay valid after get().
  std::uint32_t get() {
    if (kind_ == Kind::kReady) return value_;
    return state_->get();
  }

  /// Wait up to `dur`; true when resolved (a ready token returns true).
  bool wait_for(std::chrono::microseconds dur) {
    if (kind_ == Kind::kReady) return true;
    return state_->wait_for(dur);
  }

  /// Block until resolved, success or failure; never throws.
  void wait() {
    if (kind_ == Kind::kShared) state_->wait();
  }

  /// Attach a completion callback: cb(value, error) with error == nullptr
  /// on success.  Runs inline when already resolved.
  void then(TokenState::Callback cb) {
    if (kind_ == Kind::kReady) {
      cb(value_, nullptr);
      return;
    }
    state_->install_callback(std::move(cb));
  }

 private:
  enum class Kind : std::uint8_t { kEmpty, kReady, kShared };

  void release() {
    if (kind_ == Kind::kShared && state_ != nullptr) state_->unref();
    kind_ = Kind::kEmpty;
    state_ = nullptr;
  }
  void move_from(SubmitToken& o) {
    kind_ = o.kind_;
    value_ = o.value_;
    state_ = o.state_;
    o.kind_ = Kind::kEmpty;
    o.state_ = nullptr;
  }

  Kind kind_ = Kind::kEmpty;
  std::uint32_t value_ = 0;
  TokenState* state_ = nullptr;
};

/// The tokens of one submit_many call, in submission order.
class SubmitBatch {
 public:
  SubmitBatch() = default;

  void reserve(std::size_t n) { tokens_.reserve(n); }
  void push_back(SubmitToken t) { tokens_.push_back(std::move(t)); }

  std::size_t size() const { return tokens_.size(); }
  bool empty() const { return tokens_.empty(); }
  SubmitToken& operator[](std::size_t i) { return tokens_[i]; }
  const SubmitToken& operator[](std::size_t i) const { return tokens_[i]; }
  auto begin() { return tokens_.begin(); }
  auto end() { return tokens_.end(); }
  auto begin() const { return tokens_.begin(); }
  auto end() const { return tokens_.end(); }

  /// Block until every token is resolved (success or failure).
  void wait_all();
  /// get() every token in order; rethrows the first failure encountered.
  std::vector<std::uint32_t> get_all();

 private:
  std::vector<SubmitToken> tokens_;
};

}  // namespace gv
