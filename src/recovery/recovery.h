#ifndef OIR_RECOVERY_RECOVERY_H_
#define OIR_RECOVERY_RECOVERY_H_

// Restart recovery: analysis + redo + undo over the whole log.
//
// Phases (driven by the database facade):
//   1. AnalyzeAndRedo — single forward scan. Rebuilds the space manager's
//      page-state map from alloc/dealloc/free records, repeats history for
//      page updates (pageLSN test), and collects loser transactions (those
//      with no commit/end record).
//   2. UndoLosers — first clears leftover SPLIT/SHRINK/OLDPGOFSPLIT bits
//      (they are unlogged markers whose backing address locks died with the
//      crash; left in place they would livelock undo-time traversals), then
//      undoes the losers' records in descending pre-crash LSN order across
//      transactions, writing CLRs. The strict ordering is what makes the
//      bit-clearing safe: an in-flight SMO's physical, position-based undo
//      runs before any older logical undo can traverse its pages. Completed
//      nested top actions are skipped via their dummy CLRs (a rebuild/
//      split/shrink top action that finished before the crash survives even
//      if its transaction is a loser). Leaf-level row undo is logical,
//      through the B+-tree hook, which is why this phase runs after the
//      tree is opened on the redone state.
//   3. Finish — frees pages still in the deallocated state (Section 4.1.3:
//      the deallocated→free transition is unlogged, so recovery completes
//      it) and re-sweeps for stray bits.

#include <cstdint>
#include <map>
#include <string>

#include "recovery/log_apply.h"

namespace oir {

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t loser_txns = 0;
  uint64_t records_undone = 0;
  uint64_t pages_freed = 0;
  uint64_t bits_cleared = 0;

  std::string ToString() const;
  // JSON object with every field (stats-export path).
  std::string ToJson() const;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(ApplyContext ctx) : ctx_(ctx) {}

  Status AnalyzeAndRedo(RecoveryStats* stats);
  Status UndoLosers(LogicalUndoHook* hook, RecoveryStats* stats);
  Status Finish(RecoveryStats* stats);

  // Loser transactions and their last LSNs (after AnalyzeAndRedo).
  const std::map<TxnId, Lsn>& losers() const { return losers_; }

  // Largest transaction id seen in the log (after AnalyzeAndRedo).
  TxnId max_txn_id() const { return max_txn_id_; }

  // Resume point of a rebuild that was in flight at the crash (after
  // AnalyzeAndRedo): the checkpoint's embedded progress superseded by every
  // later kRebuildProgress record. Inactive when no rebuild was running or
  // the last durable record says it completed. The database facade hands
  // it to Db::ResumeRebuild so a crashed rebuild restarts from its last
  // durable cursor instead of from zero.
  const RebuildProgressInfo& rebuild_resume() const { return rebuild_resume_; }

 private:
  // Clears SPLIT/SHRINK/OLDPGOFSPLIT bits on every allocated page.
  Status ClearSmoBits(RecoveryStats* stats);

  ApplyContext ctx_;
  std::map<TxnId, Lsn> losers_;
  TxnId max_txn_id_ = 0;
  RebuildProgressInfo rebuild_resume_;
};

}  // namespace oir

#endif  // OIR_RECOVERY_RECOVERY_H_
