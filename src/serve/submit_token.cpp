#include "serve/submit_token.hpp"

#include "common/error.hpp"

namespace gv {

// --- TokenState --------------------------------------------------------------

void TokenState::resolve(std::uint32_t value) {
  Callback cb;
  {
    MutexLock lock(mu_);
    GV_CHECK(!resolved_, "token resolved twice");
    resolved_ = true;
    value_ = value;
    cb = std::move(callback_);
    callback_ = nullptr;
  }
  cv_.notify_all();
  // Run the callback outside every lock: it may submit follow-up queries.
  if (cb) cb(value, nullptr);
  unref();
}

void TokenState::fail(std::exception_ptr error) {
  Callback cb;
  {
    MutexLock lock(mu_);
    GV_CHECK(!resolved_, "token resolved twice");
    resolved_ = true;
    error_ = error;
    cb = std::move(callback_);
    callback_ = nullptr;
  }
  cv_.notify_all();
  if (cb) cb(0, error);
  unref();
}

std::uint32_t TokenState::get() {
  MutexLock lock(mu_);
  while (!resolved_) cv_.wait(mu_);
  if (error_) std::rethrow_exception(error_);
  return value_;
}

bool TokenState::wait_for(std::chrono::microseconds dur) {
  const auto deadline = std::chrono::steady_clock::now() + dur;
  MutexLock lock(mu_);
  while (!resolved_) {
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      return resolved_;
    }
  }
  return true;
}

void TokenState::wait() {
  MutexLock lock(mu_);
  while (!resolved_) cv_.wait(mu_);
}

bool TokenState::ready() const {
  MutexLock lock(mu_);
  return resolved_;
}

void TokenState::install_callback(Callback cb) {
  bool run_now = false;
  std::uint32_t value = 0;
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    GV_CHECK(!callback_, "token already has a callback");
    if (resolved_) {
      run_now = true;
      value = value_;
      error = error_;
    } else {
      callback_ = std::move(cb);
    }
  }
  if (run_now) cb(value, error);
}

void TokenState::unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool_->recycle(this);
  }
}

void TokenState::abandon() {
  // The producer never took ownership; drop both references at once.
  refs_.store(0, std::memory_order_release);
  pool_->recycle(this);
}

// --- TokenPool ---------------------------------------------------------------

TokenPool::TokenPool() : core_(new detail::TokenPoolCore()) {}

TokenPool::~TokenPool() {
  // With tokens still alive out there (a caller kept one past server
  // shutdown), the core lingers until the last of them recycles.
  if (core_->detach()) delete core_;
}

namespace detail {

TokenState* TokenPoolCore::acquire() {
  TokenState* s = nullptr;
  {
    MutexLock lock(mu_);
    if (free_head_ == nullptr) {
      // Warm-up: grow by a chunk; steady state never reaches this.
      auto chunk = std::make_unique<TokenState[]>(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        chunk[i].pool_ = this;
        chunk[i].next_free_ = free_head_;
        free_head_ = &chunk[i];
      }
      chunks_.push_back(std::move(chunk));
      capacity_ += kChunk;
      free_count_ += kChunk;
      // State change (a chunk grow is a warm-up-only event): push the new
      // occupancy to the observer instead of waiting for a pull.
      if (observer_ != nullptr) {
        observer_(observer_ctx_, capacity_, free_count_, chunks_.size());
      }
    }
    s = free_head_;
    free_head_ = s->next_free_;
    --free_count_;
    ++outstanding_;
  }
  s->next_free_ = nullptr;
  s->refs_.store(2, std::memory_order_release);
  return s;
}

void TokenPoolCore::recycle(TokenState* s) {
  // Clear resolution state OUTSIDE the pool lock (destroying a stored
  // exception_ptr may free).
  {
    MutexLock lock(s->mu_);
    s->resolved_ = false;
    s->value_ = 0;
    s->error_ = nullptr;
    s->callback_ = nullptr;
  }
  bool last_out = false;
  {
    MutexLock lock(mu_);
    s->next_free_ = free_head_;
    free_head_ = s;
    ++free_count_;
    --outstanding_;
    last_out = detached_ && outstanding_ == 0;
  }
  if (last_out) delete this;  // the owning TokenPool is long gone
}

bool TokenPoolCore::detach() {
  MutexLock lock(mu_);
  detached_ = true;
  if (observer_ != nullptr) {
    observer_(observer_ctx_, capacity_, free_count_, chunks_.size());
  }
  // The observer's owner (the front end's EngineProbe) dies with the
  // TokenPool; a lingering detached core must never call it again.
  observer_ = nullptr;
  observer_ctx_ = nullptr;
  return outstanding_ == 0;
}

void TokenPoolCore::set_observer(void* ctx, Observer fn) {
  std::size_t capacity = 0, free_count = 0, chunks = 0;
  {
    MutexLock lock(mu_);
    observer_ctx_ = ctx;
    observer_ = fn;
    capacity = capacity_;
    free_count = free_count_;
    chunks = chunks_.size();
  }
  // Seed the gauges with the current occupancy right away.
  if (fn != nullptr) fn(ctx, capacity, free_count, chunks);
}

std::size_t TokenPoolCore::free_count() const {
  MutexLock lock(mu_);
  return free_count_;
}

std::size_t TokenPoolCore::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

std::size_t TokenPoolCore::in_use() const {
  MutexLock lock(mu_);
  return outstanding_;
}

std::size_t TokenPoolCore::num_chunks() const {
  MutexLock lock(mu_);
  return chunks_.size();
}

}  // namespace detail

// --- SubmitBatch -------------------------------------------------------------

void SubmitBatch::wait_all() {
  for (auto& t : tokens_) {
    if (t.valid()) t.wait();
  }
}

std::vector<std::uint32_t> SubmitBatch::get_all() {
  std::vector<std::uint32_t> out;
  out.reserve(tokens_.size());
  for (auto& t : tokens_) out.push_back(t.get());
  return out;
}

}  // namespace gv
