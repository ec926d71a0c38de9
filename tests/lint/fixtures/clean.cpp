// VaultLint fixture: every annotation used CORRECTLY — the false-positive
// guard.  A run over this file must produce zero unsuppressed findings
// (one justified suppression is exercised on purpose).  NOT compiled.
#include "common/annotations.hpp"
#include "common/thread_safety.hpp"

#include <memory>

namespace gv {

class CleanEnclaveState {
 public:
  enum class PayloadKind : unsigned char { kEmbeddings = 0, kLabels = 1 };

  struct KindPolicy {
    PayloadKind kind;
    const char* name;
  };

  // Every enumerator has its policy row, name case, and byte-audit case.
  static constexpr KindPolicy kKindPolicies[] = {
      {PayloadKind::kEmbeddings, "embeddings"},
      {PayloadKind::kLabels, "labels"},
  };

  const char* kind_name(PayloadKind k) const {
    switch (k) {
      case PayloadKind::kEmbeddings:
        return "embeddings";
      case PayloadKind::kLabels:
        return "labels";
    }
    return "?";
  }

  unsigned long kind_bytes(PayloadKind k) const {
    switch (k) {
      case PayloadKind::kEmbeddings:
        return 1;
      case PayloadKind::kLabels:
        return 2;
    }
    return 0;
  }

  /// Approved boundary: sealing protects the argument before it leaves.
  void seal_out(const unsigned char* bytes, unsigned long n) GV_BOUNDARY_OK;

  void ordered_locking() {
    MutexLock outer(entry_mu_);
    MutexLock inner(*meter_mu_);
    ReaderLock view(view_mu_);
  }

  void report_capacity() {
    // A store's SIZE is capacity metadata; the suppression documents why
    // this particular egress is acceptable.
    GV_LINT_ALLOW("secret-egress", "store size is capacity metadata, not label plaintext");
    GV_LOG_INFO << "labels held: " << sizeof(labels_) / sizeof(labels_[0]);
  }

 private:
  struct GV_ECALL_ABI WireCounter {
    unsigned long long calls = 0;
    double seconds = 0.0;
  };

  GV_SECRET unsigned labels_[4] = {};
  Mutex entry_mu_{gv::lockrank::kEnclaveEntry};
  std::unique_ptr<Mutex> meter_mu_ =
      std::make_unique<Mutex>(gv::lockrank::kEnclaveMeter);
  mutable SharedMutex view_mu_{gv::lockrank::kChannel};
};

}  // namespace gv
