#include "sgxsim/channel.hpp"

namespace gv {

void UntrustedSender::push(const Matrix& block) {
  OneWayChannel& ch = *ch_;
  const std::size_t bytes = block.payload_bytes();
  ch.enclave_->copy_in(bytes);
  MutexLock lock(ch.mu_);
  // Staged blocks occupy enclave memory until the rectifier consumes them.
  ch.queue_.push_back(block);
  ch.pushed_ += 1;
  ch.bytes_ += bytes;
  ch.staged_bytes_ += bytes;
  ch.enclave_->memory().set("channel.staging", ch.staged_bytes_);
}

bool TrustedReceiver::empty() const {
  MutexLock lock(ch_->mu_);
  return ch_->queue_.empty();
}

std::size_t TrustedReceiver::pending() const {
  MutexLock lock(ch_->mu_);
  return ch_->queue_.size();
}

Matrix TrustedReceiver::pop() {
  OneWayChannel& ch = *ch_;
  MutexLock lock(ch.mu_);
  GV_CHECK(!ch.queue_.empty(), "one-way channel is empty");
  Matrix block = std::move(ch.queue_.front());
  ch.queue_.pop_front();
  ch.staged_bytes_ -= block.payload_bytes();
  ch.enclave_->memory().set("channel.staging", ch.staged_bytes_);
  return block;
}

}  // namespace gv
