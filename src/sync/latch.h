#ifndef OIR_SYNC_LATCH_H_
#define OIR_SYNC_LATCH_H_

// Page latches for physical consistency (Section 2): shared (S) for reads,
// exclusive (X) for writes. Latches are short-duration — held only across a
// page access, never across I/O waits for locks. Deadlocks are prevented by
// the ordering rules of Section 6.5 (top-down across levels, left-to-right
// within a level), which the B+-tree and rebuild code obey.
//
// Latch deliberately carries NO thread-safety-analysis annotations, unlike
// Mutex/SharedMutex (sync/mutex.h). Latch ownership does not nest in
// scopes: traversal hands latches over hand-over-hand (crabbing), SMO
// helpers "consume" an X-latched page acquired by their caller, and the
// latch lives inside a buffer frame reached through a moved PageRef — all
// patterns the static analysis cannot express (it names capabilities by
// syntactic expression and assumes function-scoped balance). Annotating the
// acquire/release methods would bury the clang -Wthread-safety build in
// unfixable diagnostics; latch discipline is instead enforced by the
// Section 6.5 ordering rules and verified dynamically by the TSan lane.

#include <shared_mutex>

#include "obs/waitstate.h"
#include "util/counters.h"

namespace oir {

enum class LatchMode { kShared, kExclusive };

class Latch {
 public:
  Latch() = default;
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void LockS() {
    auto& c = GlobalCounters::Local();
    c.latch_acquires.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock_shared()) {
      c.latch_waits.fetch_add(1, std::memory_order_relaxed);
      obs::Span wait(obs::Site::kLatchWait);
      mu_.lock_shared();
    }
  }

  void UnlockS() { mu_.unlock_shared(); }

  void LockX() {
    auto& c = GlobalCounters::Local();
    c.latch_acquires.fetch_add(1, std::memory_order_relaxed);
    if (!mu_.try_lock()) {
      c.latch_waits.fetch_add(1, std::memory_order_relaxed);
      obs::Span wait(obs::Site::kLatchWait);
      mu_.lock();
    }
  }

  void UnlockX() { mu_.unlock(); }

  bool TryLockS() {
    GlobalCounters::Local().latch_acquires.fetch_add(1,
                                                   std::memory_order_relaxed);
    return mu_.try_lock_shared();
  }

  bool TryLockX() {
    GlobalCounters::Local().latch_acquires.fetch_add(1,
                                                   std::memory_order_relaxed);
    return mu_.try_lock();
  }

  void Lock(LatchMode mode) {
    if (mode == LatchMode::kShared) {
      LockS();
    } else {
      LockX();
    }
  }

  void Unlock(LatchMode mode) {
    if (mode == LatchMode::kShared) {
      UnlockS();
    } else {
      UnlockX();
    }
  }

 private:
  std::shared_mutex mu_;
};

}  // namespace oir

#endif  // OIR_SYNC_LATCH_H_
