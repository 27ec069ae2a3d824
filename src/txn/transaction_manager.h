#ifndef OIR_TXN_TRANSACTION_MANAGER_H_
#define OIR_TXN_TRANSACTION_MANAGER_H_

// Transaction manager: begin / commit / abort with ARIES-style rollback.
// Commit forces the log (the commit record must be durable); abort walks
// the prevLSN chain writing CLRs, skipping completed nested top actions
// via their dummy CLRs (Section 2: split/shrink/rebuild top actions are
// never undone once complete, even if the enclosing transaction rolls
// back).
//
// The active-transaction table is sharded by transaction id, each shard
// with its own mutex on its own cache line, so concurrent Begin/Commit
// calls do not serialize on one lock. SnapshotActive visits the shards one
// at a time; DESIGN.md §6 argues why that is still a valid fuzzy
// checkpoint.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "recovery/log_apply.h"
#include "sync/lock_manager.h"
#include "sync/mutex.h"
#include "txn/transaction.h"
#include "util/status.h"
#include "util/thread_slot.h"

namespace oir {

class TransactionManager {
 public:
  TransactionManager(LogManager* log, LockManager* locks, BufferManager* bm,
                     SpaceManager* space);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // Wired by the database facade once the B+-tree exists: logical undo of
  // leaf inserts/deletes during rollback.
  void SetUndoHook(LogicalUndoHook* hook) { hook_ = hook; }

  std::unique_ptr<Transaction> Begin();

  // Logs the commit record, forces the log, releases transaction-duration
  // locks and logs the end record.
  Status Commit(Transaction* txn);

  // Rolls back all of the transaction's effects (completed top actions
  // excepted) and releases its locks.
  Status Abort(Transaction* txn);

  // Acquires a transaction-duration logical row lock and tracks it for
  // release at commit/abort. Re-acquisitions are tracked once per call and
  // released as many times.
  Status LockLogical(Transaction* txn, RowId row, LockMode mode);

  // Takes over a transaction its owner gives up on while it is still
  // active (an I/O error cut its commit short). It stays in the active
  // table, so checkpoints record it as a loser, and alive until
  // ResetAfterCrash. A finished transaction is simply destroyed.
  void Abandon(std::unique_ptr<Transaction> txn);

  // Crash simulation: forgets in-flight transactions and advances the id
  // counter past every id seen in the recovered log.
  void ResetAfterCrash(TxnId next_id);

  LockManager* lock_manager() { return locks_; }
  size_t NumActive() const;

  // Snapshot of the active transactions (for fuzzy checkpoints): their
  // ids, last LSNs and the oldest begin LSN (the log truncation horizon;
  // kInvalidLsn when no transaction is active). Not one atomic cut: each
  // shard is read under its own mutex. It is complete for what a
  // checkpoint needs because Begin registers a transaction before it can
  // log and a transaction leaves the table only after its end record.
  void SnapshotActive(std::vector<CheckpointTxn>* out,
                      Lsn* oldest_begin) const;

  // Diagnostic dump of the active-transaction table as a JSON value
  // ({"active":[{"txn":..,"last_lsn":..},...]}), for the flight recorder.
  std::string DumpActiveTxnsJson() const;

  TxnId next_txn_id() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }

 private:
  void ReleaseTrackedLocks(Transaction* txn);

  LogManager* const log_;
  LockManager* const locks_;
  BufferManager* const bm_;
  SpaceManager* const space_;
  LogicalUndoHook* hook_ = nullptr;

  // One slice of the active table: the transactions whose id maps here.
  // The Transaction object is owned by the caller and must outlive its
  // activity (guaranteed by Commit/Abort removing it, or by Abandon taking
  // it over).
  struct alignas(kCacheLineSize) ActiveShard {
    mutable Mutex mu;
    std::map<TxnId, Transaction*> txns OIR_GUARDED_BY(mu);
  };
  static constexpr size_t kActiveShards = 16;

  ActiveShard& ShardOf(TxnId id) { return active_[id % kActiveShards]; }
  // Removes a finished transaction from the table.
  void Unregister(TxnId id);

  std::atomic<TxnId> next_txn_id_{1};
  ActiveShard active_[kActiveShards];
  Mutex abandoned_mu_;
  std::vector<std::unique_ptr<Transaction>> abandoned_
      OIR_GUARDED_BY(abandoned_mu_);
};

}  // namespace oir

#endif  // OIR_TXN_TRANSACTION_MANAGER_H_
