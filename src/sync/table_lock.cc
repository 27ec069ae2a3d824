#include "sync/table_lock.h"

#include "obs/waitstate.h"
#include "util/counters.h"

namespace oir {

namespace {

using Deadline = std::chrono::steady_clock::time_point;

// Waits on `cv` under `mu` until `done()` or `deadline`; false on timeout.
// A wait that blocks is a lock wait.
template <typename Pred>
bool WaitUntilDone(Mutex& mu, CondVar& cv, Deadline deadline, Pred done)
    OIR_REQUIRES(mu) {
  if (done()) return true;
  GlobalCounters::Local().lock_waits.fetch_add(1, std::memory_order_relaxed);
  obs::Span wait(obs::Site::kLockWait);
  while (!done()) {
    if (cv.WaitUntil(mu, deadline) == std::cv_status::timeout) return done();
  }
  return true;
}

}  // namespace

bool TableLock::LockSharedSlow(Slot& slot, std::chrono::milliseconds timeout) {
  const Deadline deadline = std::chrono::steady_clock::now() + timeout;
  slot.holders.fetch_sub(1);
  MutexLock l(mu_);
  cv_.NotifyAll();  // a drainer may have counted this slot
  if (!WaitUntilDone(mu_, cv_, deadline, [this] { return !closed_.load(); })) {
    return false;
  }
  slot.holders.fetch_add(1);  // closed_ cannot flip while mu_ is held
  return true;
}

void TableLock::WakeDrainer() {
  MutexLock l(mu_);
  cv_.NotifyAll();
}

bool TableLock::Drained() const {
  for (const Slot& s : slots_) {
    if (s.holders.load() != 0) return false;
  }
  return true;
}

bool TableLock::Lock(std::chrono::milliseconds timeout) {
  const Deadline deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock l(mu_);
  // Another exclusive holder goes first.
  if (!WaitUntilDone(mu_, cv_, deadline, [this] { return !closed_.load(); })) {
    return false;
  }
  closed_.store(true);
  if (!WaitUntilDone(mu_, cv_, deadline, [this] { return Drained(); })) {
    closed_.store(false);
    cv_.NotifyAll();
    return false;
  }
  return true;
}

void TableLock::Unlock() {
  MutexLock l(mu_);
  closed_.store(false);
  cv_.NotifyAll();
}

}  // namespace oir
