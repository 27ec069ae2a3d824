#ifndef OIR_SYNC_LOCK_MANAGER_H_
#define OIR_SYNC_LOCK_MANAGER_H_

// Lock manager providing the two kinds of locks of Section 2:
//
//  * Address locks — X locks on page numbers acquired by split, shrink and
//    rebuild top actions (Section 2.2). They are distinguished from logical
//    locks and are released when the top action completes. Blocked writers
//    wait by requesting an "unconditional instant duration S lock" on the
//    page: the request waits until it is grantable and is then immediately
//    released.
//
//  * Logical locks — row-level locks acquired by insert, delete and scan
//    operations as dictated by the isolation level. Held to transaction end.
//
// Requests may be conditional (fail immediately with Status::Busy instead
// of waiting) — the rebuild copy phase uses conditional requests on
// P2..Pn so it can truncate the batch instead of waiting (Section 4.1.1).
//
// The index concurrency protocols (Section 6.5) are meant to keep address
// locks and latches from deadlocking, but the code does not yet keep that
// promise: a writer holding a leaf latch can wait unconditionally for an
// address lock whose holder, the online rebuild, waits for that latch
// (ROADMAP item 1). A wait timeout (default 10 s) converts any deadlock
// into Status::Aborted, making the requester the victim. The index's table
// lock is not taken here; see sync/table_lock.h.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>

#include "sync/mutex.h"
#include "util/status.h"
#include "util/types.h"

namespace oir {

enum class LockMode : uint8_t { kS = 0, kX = 1 };

enum class LockSpace : uint8_t {
  kAddress = 0,  // page-number address locks
  kLogical = 1,  // row-level logical locks
};

struct LockKey {
  LockSpace space;
  uint64_t id;

  bool operator==(const LockKey& o) const {
    return space == o.space && id == o.id;
  }
};

struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    return std::hash<uint64_t>()(k.id * 2 + static_cast<uint64_t>(k.space));
  }
};

inline LockKey AddressLockKey(PageId page) {
  return LockKey{LockSpace::kAddress, page};
}
inline LockKey LogicalLockKey(RowId row) {
  return LockKey{LockSpace::kLogical, row};
}

class LockManager {
 public:
  LockManager();
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires (or upgrades to) `mode`. Re-entrant for the same owner.
  // conditional=true: returns Busy instead of waiting.
  // Returns Aborted if the wait exceeds the timeout.
  Status Lock(TxnId owner, LockKey key, LockMode mode, bool conditional);

  // Instant-duration request: waits until the lock would be grantable, then
  // returns without retaining it. Used to block on SPLIT/SHRINK bits.
  Status LockInstant(TxnId owner, LockKey key, LockMode mode,
                     bool conditional);

  // Releases one acquisition of `key` by `owner` (locks are counted; the
  // lock is dropped when the count reaches zero).
  void Unlock(TxnId owner, LockKey key);

  // Crash simulation: drops every lock unconditionally (the locks of a
  // crashed process die with it). No waiters may be blocked when called.
  void Reset();

  // Test / introspection hooks.
  bool IsHeld(TxnId owner, LockKey key, LockMode mode) const;
  size_t NumLockedKeys() const;

  // Diagnostic dump of every locked key and its holders, as a JSON value
  // ({"keys":[{"space":..,"id":..,"holders":[{"txn":..,"mode":..,
  // "count":..}]},...]}). Used by the flight recorder's lock-table
  // provider. Must not be called with any shard mutex held.
  std::string DumpJson() const;

  void set_wait_timeout(std::chrono::milliseconds t) { wait_timeout_ = t; }
  std::chrono::milliseconds wait_timeout() const { return wait_timeout_; }

  // Long-wait watchdog: a waiter blocked longer than this emits a trace
  // event and a stderr diagnostic naming the blocked key, the requester and
  // the current holder (once per wait). 0 disables the watchdog.
  void set_long_wait_threshold(std::chrono::milliseconds t) {
    long_wait_ms_.store(t.count(), std::memory_order_relaxed);
  }

 private:
  struct Holder {
    LockMode mode;
    uint32_t count;
  };

  struct Entry {
    std::map<TxnId, Holder> granted;
  };

  struct Shard {
    mutable Mutex mu;
    CondVar cv;
    std::unordered_map<LockKey, Entry, LockKeyHash> table OIR_GUARDED_BY(mu);
  };

  // True if `owner` may acquire `mode` given current holders.
  static bool Grantable(const Entry& e, TxnId owner, LockMode mode);

  Shard& ShardFor(const LockKey& key) const;

  // Emits the long-wait diagnostic for `key`, naming the current holder.
  // The shard mutex must be held — the holder set is inspected in place —
  // and the body asserts the capability before touching the table.
  static void WatchdogFire(const Shard& shard, const LockKey& key, TxnId owner,
                           LockMode mode, std::chrono::milliseconds waited)
      OIR_REQUIRES(shard.mu);

  static constexpr size_t kNumShards = 16;
  Shard* shards_;
  std::chrono::milliseconds wait_timeout_;
  std::atomic<int64_t> long_wait_ms_{1000};
};

}  // namespace oir

#endif  // OIR_SYNC_LOCK_MANAGER_H_
