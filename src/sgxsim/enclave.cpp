#include "sgxsim/enclave.hpp"

#include <cstring>

namespace gv {

void MemoryLedger::alloc(const std::string& name, std::size_t bytes) {
  MutexLock lock(*mu_);
  GV_CHECK(live_.find(name) == live_.end(),
           "enclave allocation already exists: " + name);
  live_[name] = bytes;
  current_ += bytes;
  peak_ = std::max(peak_, current_);
}

void MemoryLedger::free(const std::string& name) {
  MutexLock lock(*mu_);
  const auto it = live_.find(name);
  GV_CHECK(it != live_.end(), "freeing unknown enclave allocation: " + name);
  current_ -= it->second;
  live_.erase(it);
}

void MemoryLedger::set(const std::string& name, std::size_t bytes) {
  MutexLock lock(*mu_);
  const auto it = live_.find(name);
  if (it != live_.end()) {
    current_ -= it->second;
    it->second = bytes;
  } else {
    live_[name] = bytes;
  }
  current_ += bytes;
  peak_ = std::max(peak_, current_);
}

Sha256Digest Enclave::default_platform_key() {
  Sha256 h;
  h.update(std::string("gnnvault-simulated-cpu-fuse-key-v1"));
  return h.finish();
}

Enclave::Enclave(std::string name, SgxCostModel model, Sha256Digest platform_key)
    : name_(std::move(name)),
      trace_category_(TraceRecorder::instance().intern(name_)),
      model_(model),
      platform_key_(platform_key) {
  measurement_hasher_.update(std::string("enclave:") + name_);
}

void Enclave::extend_measurement(std::span<const std::uint8_t> blob) {
  GV_CHECK(!initialized_, "cannot extend measurement after initialization");
  measurement_hasher_.update(blob);
}

void Enclave::extend_measurement(const std::string& tag) {
  GV_CHECK(!initialized_, "cannot extend measurement after initialization");
  measurement_hasher_.update(tag);
}

void Enclave::initialize() {
  GV_CHECK(!initialized_, "enclave already initialized");
  measurement_ = measurement_hasher_.finish();
  initialized_ = true;
}

const Sha256Digest& Enclave::measurement() const {
  GV_CHECK(initialized_, "measurement available only after initialization");
  return measurement_;
}

double Enclave::finish_ecall(double wall_seconds) {
  const std::size_t working_set = ledger_.current_bytes();
  MutexLock m(*meter_mu_);
  meter_.enclave_compute_seconds += wall_seconds * model_.enclave_compute_slowdown;
  // EPC pressure: the portion of the working set beyond the usable EPC is
  // assumed to be swapped in and out once per ecall that touches it.
  std::uint64_t swaps = 0;
  if (working_set > model_.epc_bytes) {
    const std::size_t overflow = working_set - model_.epc_bytes;
    swaps = 2 * ((overflow + model_.page_bytes - 1) / model_.page_bytes);
    meter_.page_swaps += swaps;
  }
  return model_.cycles_to_seconds(
             static_cast<double>(model_.ecall_cycles) +
             static_cast<double>(swaps) *
                 static_cast<double>(model_.page_swap_cycles)) +
         wall_seconds * model_.enclave_compute_slowdown;
}

AeadKey Enclave::sealing_key() const {
  GV_CHECK(initialized_, "sealing requires an initialized enclave");
  const Sha256Digest k = hmac_sha256(
      std::span<const std::uint8_t>(platform_key_.data(), platform_key_.size()),
      std::span<const std::uint8_t>(measurement_.data(), measurement_.size()));
  AeadKey key;
  std::memcpy(key.data(), k.data(), key.size());
  return key;
}

SealedBlob Enclave::seal(std::span<const std::uint8_t> plaintext) {
  SealedBlob blob;
  const std::uint64_t ctr = ++seal_counter_;
  for (int i = 0; i < 8; ++i) {
    blob.nonce[i] = static_cast<std::uint8_t>(ctr >> (8 * i));
  }
  std::memcpy(blob.nonce.data() + 8, measurement_.data(), 4);
  blob.ciphertext = aead_encrypt(sealing_key(), blob.nonce, plaintext,
                                 std::span<const std::uint8_t>(measurement_.data(), 8),
                                 blob.tag);
  return blob;
}

std::vector<std::uint8_t> Enclave::unseal(const SealedBlob& blob) {
  return aead_decrypt(sealing_key(), blob.nonce, blob.ciphertext,
                      std::span<const std::uint8_t>(measurement_.data(), 8),
                      blob.tag);
}

Enclave::Report Enclave::create_report(std::span<const std::uint8_t> user_data) const {
  GV_CHECK(initialized_, "report requires an initialized enclave");
  Report r;
  r.measurement = measurement_;
  r.user_data_hash = Sha256::hash(user_data);
  std::vector<std::uint8_t> msg;
  msg.insert(msg.end(), r.measurement.begin(), r.measurement.end());
  msg.insert(msg.end(), r.user_data_hash.begin(), r.user_data_hash.end());
  r.mac = hmac_sha256(
      std::span<const std::uint8_t>(platform_key_.data(), platform_key_.size()), msg);
  return r;
}

bool Enclave::verify_report(const Report& report, const Sha256Digest& platform_key) {
  std::vector<std::uint8_t> msg;
  msg.insert(msg.end(), report.measurement.begin(), report.measurement.end());
  msg.insert(msg.end(), report.user_data_hash.begin(), report.user_data_hash.end());
  const Sha256Digest expect = hmac_sha256(
      std::span<const std::uint8_t>(platform_key.data(), platform_key.size()), msg);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expect.size(); ++i) diff |= expect[i] ^ report.mac[i];
  return diff == 0;
}

}  // namespace gv
