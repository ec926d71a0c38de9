// VaultLint fixture: a lexically nested lock-order inversion against the
// gv::lockrank table, and a guard over a mutex whose rank cannot be
// resolved.  NOT compiled — linted by run_fixture_test.py.
#include "common/thread_safety.hpp"

namespace gv {

class BackwardsLocker {
 public:
  void telemetry_then_control() {
    MutexLock stats(stats_mu_);
    // Control-plane rank 20 acquired under telemetry rank 90: an
    // inversion (one lock-rank finding).
    MutexLock ctl(control_mu_);
  }

  void unranked_guard(Mutex& borrowed) {
    // `borrowed` has no declaration with a rank in view: the static check
    // cannot order it (one lock-rank finding).
    MutexLock lock(borrowed);
  }

 private:
  Mutex control_mu_{gv::lockrank::kServerControl};
  Mutex stats_mu_{gv::lockrank::kTelemetry};
};

}  // namespace gv
