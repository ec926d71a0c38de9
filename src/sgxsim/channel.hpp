// One-way untrusted -> enclave data channel (paper Sec. IV-B / IV-E).
//
// GNNVault prevents information leakage through intermediate data by
// allowing data to flow only from the normal world into the enclave.  We
// enforce that at the type level: the untrusted side holds a
// `UntrustedSender` which can only push; the enclave side holds a
// `TrustedReceiver` which can only pop.  There is no API that exposes
// enclave-written data back to the sender.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "common/thread_safety.hpp"
#include "common/error.hpp"
#include "sgxsim/enclave.hpp"
#include "tensor/matrix.hpp"

namespace gv {

class OneWayChannel;

/// Untrusted-world endpoint: push-only.
class UntrustedSender {
 public:
  explicit UntrustedSender(OneWayChannel& ch) : ch_(&ch) {}
  /// Copy a dense block into the enclave (charges transfer costs).
  void push(const Matrix& block);

 private:
  OneWayChannel* ch_;
};

/// Enclave-side endpoint: pop-only. Must be used from inside an ecall.
class TrustedReceiver {
 public:
  explicit TrustedReceiver(OneWayChannel& ch) : ch_(&ch) {}
  bool empty() const;
  std::size_t pending() const;
  /// Take the oldest block (FIFO). Throws when empty.
  Matrix pop();

 private:
  OneWayChannel* ch_;
};

/// The channel itself lives with the deployment; both endpoints refer to it.
/// Thread-safe: multiple untrusted senders may push concurrently (the serving
/// subsystem runs several worker threads against one deployment), and a
/// receiver inside an ecall may pop while another thread stages the next
/// batch.
class OneWayChannel {
 public:
  explicit OneWayChannel(Enclave& enclave) : enclave_(&enclave) {}

  UntrustedSender sender() { return UntrustedSender(*this); }
  TrustedReceiver receiver() { return TrustedReceiver(*this); }

  std::uint64_t total_blocks_pushed() const {
    MutexLock lock(mu_);
    return pushed_;
  }
  std::uint64_t total_bytes_pushed() const {
    MutexLock lock(mu_);
    return bytes_;
  }

 private:
  friend class UntrustedSender;
  friend class TrustedReceiver;

  Enclave* enclave_;
  // Guards queue_, staged_bytes_, and the counters.
  mutable Mutex mu_{gv::lockrank::kChannel};
  std::deque<Matrix> queue_;
  std::size_t staged_bytes_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace gv
