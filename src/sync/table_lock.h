#ifndef OIR_SYNC_TABLE_LOCK_H_
#define OIR_SYNC_TABLE_LOCK_H_

// The table lock: every data operation holds it shared for its duration;
// the offline rebuild (the drop-and-recreate baseline) holds it exclusive.
// The online rebuild never touches it — that is the point of the paper.
//
// It is reader-striped, because every operation takes it: a shared holder
// counts itself in its thread's slot (util/thread_slot.h), one cache line
// per slot, so the shared acquire and release write no line that another
// thread's operation writes. The exclusive side closes the lock (new
// shared requests then wait) and drains it (waits until every slot reads
// zero). The pairing is Dekker's, all seq_cst:
//
//   shared:    slot += 1; if !closed: held. Else slot -= 1, wake, wait.
//   exclusive: closed = true; wait until every slot == 0.
//
// Either the shared side sees `closed` or the exclusive side sees the
// increment. A shared holder that releases while the lock is closed wakes
// the drainer under the mutex, so the drainer cannot miss the last release.
// `closed` changes only under the mutex, so a shared waiter cannot miss the
// reopening either.
//
// Either side gives up after `timeout` and returns false: a blocked data
// operation becomes Aborted("table lock timeout"), the lock manager's wait
// timeout contract. Waits are spans on the lock.wait_ns site. Not
// re-entrant: a thread must not request it while holding it.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "sync/mutex.h"
#include "util/thread_slot.h"

namespace oir {

class TableLock {
 public:
  TableLock() = default;
  TableLock(const TableLock&) = delete;
  TableLock& operator=(const TableLock&) = delete;

  bool LockShared(std::chrono::milliseconds timeout) {
    Slot& slot = slots_[ThreadSlot()];
    slot.holders.fetch_add(1);
    if (!closed_.load()) return true;
    return LockSharedSlow(slot, timeout);
  }

  void UnlockShared() {
    slots_[ThreadSlot()].holders.fetch_sub(1);
    if (closed_.load()) WakeDrainer();
  }

  // Closes the lock, then waits for the shared holders to drain.
  bool Lock(std::chrono::milliseconds timeout);
  void Unlock();

 private:
  struct alignas(kCacheLineSize) Slot {
    std::atomic<uint64_t> holders{0};
  };

  bool LockSharedSlow(Slot& slot, std::chrono::milliseconds timeout);
  void WakeDrainer();
  bool Drained() const;

  Slot slots_[kThreadSlots];
  // True while an exclusive holder holds or drains the lock. Read
  // lock-free; written only under mu_.
  alignas(kCacheLineSize) std::atomic<bool> closed_{false};
  Mutex mu_;
  CondVar cv_;
};

// Holds a TableLock shared for one scope, if it could be had in time.
class SharedTableLockGuard {
 public:
  SharedTableLockGuard(TableLock* lock, std::chrono::milliseconds timeout)
      : lock_(lock), ok_(lock->LockShared(timeout)) {}
  ~SharedTableLockGuard() {
    if (ok_) lock_->UnlockShared();
  }
  SharedTableLockGuard(const SharedTableLockGuard&) = delete;
  SharedTableLockGuard& operator=(const SharedTableLockGuard&) = delete;

  bool ok() const { return ok_; }

 private:
  TableLock* const lock_;
  const bool ok_;
};

}  // namespace oir

#endif  // OIR_SYNC_TABLE_LOCK_H_
