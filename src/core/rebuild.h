#ifndef OIR_CORE_REBUILD_H_
#define OIR_CORE_REBUILD_H_

// Online index rebuild — the paper's contribution (Sections 3-5).
//
// The rebuild runs as a sequence of transactions; each transaction performs
// a series of multipage rebuild top actions; each top action rebuilds up to
// `ntasize` contiguous leaf pages:
//
//   copy phase (Section 4.1)
//     - X address locks + SHRINK bits on PP, P1..Pn (left to right;
//       conditional requests on P2..Pn truncate the batch instead of
//       waiting; a busy PP/P1 releases everything and waits);
//     - keys are copied to PP (up to fillfactor) and freshly chunk-
//       allocated pages N1..Nk, logged as ONE keycopy record holding only
//       page numbers, timestamps and positions — no key bytes;
//     - chain linkage is fixed (changeprevlink on NP) and P1..Pn are
//       deallocated.
//
//   propagation phase (Section 5)
//     - propagation entries (DELETE / UPDATE / INSERT) are computed per
//       rebuilt page (Section 5.2) and applied level by level, bottom-up,
//       left to right (Section 5.4);
//     - level-1 pages are reorganized on the way by moving inserts into
//       the left sibling when the first child of the target page is being
//       deleted (Section 5.5) — no separate pass;
//     - non-leaf modifications are covered by X locks with SHRINK bits
//       (deletes performed) or SPLIT bits (insert-only), per Section 5.4.2.
//
// At the end of each transaction the new pages are forced to disk with
// large I/Os and only then are the old pages freed for reallocation — this
// ordering is what makes the position-only keycopy logging recoverable
// (Section 3).

#include <memory>

#include "btree/btree.h"
#include "core/options.h"
#include "core/rebuild_journal.h"
#include "obs/progress.h"
#include "txn/transaction_manager.h"

namespace oir {

class OnlineRebuilder {
 public:
  // The rebuild appends its progress records through `journal`, the one
  // owner of its resume point (see rebuild_journal.h).
  OnlineRebuilder(BTree* tree, TransactionManager* tm, BufferManager* bm,
                  LogManager* log, LockManager* locks, SpaceManager* space,
                  RebuildJournal* journal);

  // Runs a full online rebuild of the index. Concurrent inserts, deletes
  // and scans are allowed throughout; only the pages of the current top
  // action are restricted. An active `from` (a crashed rebuild's durable
  // resume point, Db::ResumeRebuild) starts the copy after its cursor and
  // carries its counters; the default starts at the leftmost leaf.
  Status Run(const RebuildOptions& options, RebuildResult* result,
             const RebuildProgressInfo& from = RebuildProgressInfo());

  // Progress snapshot, pollable from any thread while Run executes (and
  // after: `done` stays set). leaves_total is an allocated-page upper-bound
  // estimate taken at the start of the run.
  obs::RebuildProgress progress() const { return progress_.Load(); }

 private:
  struct Impl;

  obs::RebuildProgressTracker progress_;
  BTree* const tree_;
  TransactionManager* const tm_;
  BufferManager* const bm_;
  LogManager* const log_;
  LockManager* const locks_;
  SpaceManager* const space_;
  RebuildJournal* const journal_;
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_H_
