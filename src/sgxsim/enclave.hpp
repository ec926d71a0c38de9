// Simulated SGX enclave.
//
// Provides the pieces of the SGX programming model that GNNVault's
// deployment depends on:
//   * identity: an MRENCLAVE-style SHA-256 measurement of everything loaded
//     at build time;
//   * sealed storage: ChaCha20-Poly1305 under a key derived from the
//     platform sealing key and the measurement (unsealing in an enclave
//     with a different measurement fails);
//   * memory accounting: every in-enclave allocation is registered in a
//     ledger; exceeding the EPC budget charges page-swap costs, mirroring
//     the paper's Sec. III-C concern;
//   * ECALL gating: enclave code runs inside `ecall(...)`, which charges
//     the transition cost and scales measured compute time by the MEE
//     slowdown factor.
//
// What is intentionally NOT provided is any API for untrusted code to read
// enclave state: the only way data leaves is the explicit return value of
// an ecall, which GNNVault restricts to label-only outputs (Sec. IV-E).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "sgxsim/chacha20poly1305.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/sha256.hpp"

namespace gv {

/// An ecall that never ran to completion: the enclave crashed, was torn
/// down by the platform, or hit an injected fault.  Distinct from plain
/// gv::Error so callers can tell "the enclave died under me" (trigger
/// failover) from "my arguments were bad" (report to the caller).
struct EnclaveFailure : Error {
  using Error::Error;
};

/// Tracks live in-enclave allocations by name; reports current/peak usage.
/// Thread-safe: untrusted senders account channel staging concurrently with
/// ledger updates made inside ecalls.
class MemoryLedger {
 public:
  void alloc(const std::string& name, std::size_t bytes);
  void free(const std::string& name);
  /// Replace (or create) an allocation with a new size.
  void set(const std::string& name, std::size_t bytes);

  std::size_t current_bytes() const {
    MutexLock lock(*mu_);
    return current_;
  }
  std::size_t peak_bytes() const {
    MutexLock lock(*mu_);
    return peak_;
  }
  /// Bytes of one named allocation (0 when absent).
  std::size_t bytes(const std::string& name) const {
    MutexLock lock(*mu_);
    const auto it = live_.find(name);
    return it == live_.end() ? 0 : it->second;
  }
  std::size_t live_allocations() const {
    MutexLock lock(*mu_);
    return live_.size();
  }

 private:
  // Owned via pointer so the ledger (and the enclave holding it) stays
  // movable.
  mutable std::unique_ptr<Mutex> mu_ =
      std::make_unique<Mutex>(gv::lockrank::kChannel);
  std::unordered_map<std::string, std::size_t> live_;
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

/// A sealed blob: nonce + ciphertext + tag, bound to a measurement via the
/// key derivation (SGX MRENCLAVE sealing policy).
struct SealedBlob {
  AeadNonce nonce{};
  std::vector<std::uint8_t> ciphertext;
  AeadTag tag{};
  std::size_t size_bytes() const { return ciphertext.size() + nonce.size() + tag.size(); }
};

class GV_ENCLAVE Enclave {
 public:
  /// `platform_key` models the CPU's fused sealing key: blobs sealed on one
  /// platform cannot be unsealed on another.
  Enclave(std::string name, SgxCostModel model,
          Sha256Digest platform_key = default_platform_key());

  const std::string& name() const { return name_; }
  const SgxCostModel& cost_model() const { return model_; }

  // --- Build phase: extend the measurement, then finalize. -------------
  /// Absorb a blob (code or initial data) into the measurement.
  void extend_measurement(std::span<const std::uint8_t> blob);
  void extend_measurement(const std::string& tag);
  /// Finalize; after this the enclave can run ecalls and seal/unseal.
  void initialize();
  bool initialized() const { return initialized_; }
  const Sha256Digest& measurement() const;

  // --- Runtime. ---------------------------------------------------------
  /// Run `body` inside the enclave: charges one ECALL transition, measures
  /// wall time, scales it by the MEE slowdown, and charges paging costs for
  /// the portion of the working set that exceeds the EPC budget.
  ///
  /// Concurrent entry from several untrusted threads is serialized (real SGX
  /// enclaves multiplex a fixed TCS pool; this simulated one has a single
  /// logical TCS) so the meter/ledger accounting stays consistent under the
  /// serving subsystem's worker threads.
  template <typename F>
  auto ecall(F&& body) -> decltype(body()) {
    GV_CHECK(initialized_, "ecall into uninitialized enclave");
    // The span starts before TCS entry (so contention on the single logical
    // TCS shows up as span time) and is emitted after the Stopwatch sample,
    // so tracing never inflates the modeled clock.  The enclave name rides
    // as the category — interned at construction, since exports routinely
    // outlive the enclave — so every slice is still named "ecall".
    TraceSpan span(trace_category_, "ecall");
    MutexLock entry(*entry_mu_);
    {
      MutexLock m(*meter_mu_);
      ++meter_.ecalls;
      if (injected_faults_ > 0) {
        --injected_faults_;
        throw EnclaveFailure("ecall into enclave '" + name_ +
                             "' failed: " + injected_fault_message_);
      }
    }
    Stopwatch sw;
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      span.modeled_seconds(finish_ecall(sw.seconds()));
      return;
    } else {
      auto result = body();
      span.modeled_seconds(finish_ecall(sw.seconds()));
      return result;
    }
  }

  /// Test/chaos hook: make the next `count` ecalls throw EnclaveFailure
  /// before running their body — the simulation's stand-in for an enclave
  /// that crashed or was torn down by the platform.  Dead-shard detection
  /// (shard/sharded_deployment.hpp) turns such a failure into the same
  /// fence + promote path an explicit kill takes.
  void inject_ecall_failure(std::string message, std::size_t count = 1) {
    MutexLock m(*meter_mu_);
    injected_fault_message_ = std::move(message);
    injected_faults_ = count;
  }

  /// Charge an OCALL (enclave -> untrusted transition), e.g. for paging.
  void charge_ocall() {
    MutexLock m(*meter_mu_);
    ++meter_.ocalls;
  }

  /// Account a copy of `bytes` from untrusted memory into the enclave.
  void copy_in(std::size_t bytes) {
    MutexLock m(*meter_mu_);
    meter_.bytes_in += bytes;
  }

  /// Account normal-world compute (e.g. a backbone pass) on the meter from
  /// any untrusted thread.
  void add_untrusted_seconds(double seconds) {
    MutexLock m(*meter_mu_);
    meter_.untrusted_compute_seconds += seconds;
  }

  MemoryLedger& memory() { return ledger_; }
  const MemoryLedger& memory() const { return ledger_; }
  CostMeter& meter() { return meter_; }
  const CostMeter& meter() const { return meter_; }
  /// Locked copy of the meter for monitoring threads that poll while other
  /// threads are mid-ecall (the raw meter() references are unsynchronized).
  CostMeter meter_snapshot() const {
    MutexLock m(*meter_mu_);
    return meter_;
  }

  /// True when the current working set fits the usable EPC.
  bool fits_in_epc() const { return ledger_.current_bytes() <= model_.epc_bytes; }

  // --- Sealing. ----------------------------------------------------------
  /// Seal data under key = HMAC(platform_key, measurement). Deterministic
  /// nonce derivation from a per-enclave counter.
  SealedBlob seal(std::span<const std::uint8_t> plaintext) GV_BOUNDARY_OK;
  /// Unseal; throws gv::Error if the blob was sealed by a different
  /// enclave identity or platform, or was tampered with.
  std::vector<std::uint8_t> unseal(const SealedBlob& blob);

  /// A local-attestation style report: MAC over (measurement || user_data).
  /// Crosses the enclave boundary by value — GV_ECALL_ABI keeps it free of
  /// host pointers so a real SGX port could marshal it through an EDL.
  struct GV_ECALL_ABI Report {
    Sha256Digest measurement;
    Sha256Digest user_data_hash;
    Sha256Digest mac;
  };
  Report create_report(std::span<const std::uint8_t> user_data) const;
  /// Verify a report allegedly produced on the same platform.
  static bool verify_report(const Report& report, const Sha256Digest& platform_key);

  static Sha256Digest default_platform_key();

 private:
  /// Charge the ecall's compute + paging costs; returns the modeled SGX
  /// seconds this ecall added (transition + scaled compute + paging) for
  /// the trace span's second clock.
  double finish_ecall(double wall_seconds);
  AeadKey sealing_key() const GV_SECRET;

  std::string name_;
  /// Recorder-interned copy of name_, safe to reference from trace events
  /// after this enclave is destroyed (set once in the constructor).
  const char* trace_category_ = "enclave";
  SgxCostModel model_;
  GV_SECRET Sha256Digest platform_key_;
  Sha256 measurement_hasher_;
  Sha256Digest measurement_{};
  bool initialized_ = false;
  MemoryLedger ledger_;
  CostMeter meter_;
  std::uint64_t seal_counter_ = 0;
  // Injected-fault state (guarded by meter_mu_: it is checked inside ecall
  // entry where that mutex is already taken).
  std::size_t injected_faults_ = 0;
  std::string injected_fault_message_;
  // Owned via pointers so the enclave stays movable. `entry_mu_` serializes
  // ecall entry; `meter_mu_` guards meter mutations that may come from
  // untrusted threads while another thread is inside an ecall.
  std::unique_ptr<Mutex> entry_mu_ =
      std::make_unique<Mutex>(gv::lockrank::kEnclaveEntry);
  std::unique_ptr<Mutex> meter_mu_ =
      std::make_unique<Mutex>(gv::lockrank::kEnclaveMeter);
};

}  // namespace gv
