#ifndef OIR_CORE_INDEX_H_
#define OIR_CORE_INDEX_H_

// Public secondary-index API. Wraps the B+-tree with the logical row
// locking of Section 2 (inserts and deletes X-lock the ROWID; scans are
// read-committed by default) and exposes both rebuild flavors:
//
//  * RebuildOnline  — the paper's algorithm; OLTP continues concurrently.
//  * RebuildOffline — the drop-and-recreate baseline the paper's
//    introduction argues against: it holds an exclusive table lock for the
//    duration, blocking every reader and writer.

#include <memory>

#include "btree/btree.h"
#include "btree/cursor.h"
#include "core/options.h"
#include "core/rebuild.h"
#include "txn/transaction_manager.h"

namespace oir {

// A cursor that additionally acquires a transaction-duration S logical
// lock on every qualifying row it returns — the paper's Section 2.5:
// "depending on the isolation level, the scan may need to acquire logical
// locks on qualifying keys". Writers that want to delete a scanned row
// block until the scanning transaction ends.
class LockingCursor {
 public:
  LockingCursor(std::unique_ptr<Cursor> inner, TransactionManager* tm,
                Transaction* txn)
      : inner_(std::move(inner)), tm_(tm), txn_(txn) {}

  Status SeekToFirst() {
    OIR_RETURN_IF_ERROR(inner_->SeekToFirst());
    return LockCurrent();
  }
  Status Seek(const Slice& user_key) {
    OIR_RETURN_IF_ERROR(inner_->Seek(user_key));
    return LockCurrent();
  }
  Status Next() {
    OIR_RETURN_IF_ERROR(inner_->Next());
    return LockCurrent();
  }
  bool Valid() const { return inner_->Valid(); }
  Slice user_key() const { return inner_->user_key(); }
  RowId rid() const { return inner_->rid(); }

 private:
  Status LockCurrent() {
    if (!inner_->Valid()) return Status::OK();
    return tm_->LockLogical(txn_, inner_->rid(), LockMode::kS);
  }

  std::unique_ptr<Cursor> inner_;
  TransactionManager* tm_;
  Transaction* txn_;
};

class Index {
 public:
  // `journal` is handed to the online rebuilder, which logs its progress
  // through it (see rebuild_journal.h).
  Index(BTree* tree, TransactionManager* tm, BufferManager* bm,
        LogManager* log, LockManager* locks, SpaceManager* space,
        RebuildJournal* journal);

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  // ---- data operations (row-locking, table-IS-locked) ----
  Status Insert(Transaction* txn, const Slice& key, RowId rid);
  Status Delete(Transaction* txn, const Slice& key, RowId rid);
  Status Lookup(Transaction* txn, const Slice& key, RowId rid, bool* found);

  // Read-committed range scan cursor.
  std::unique_ptr<Cursor> NewCursor(Transaction* txn);

  // Scan that S-locks every qualifying row until transaction end
  // (repeatable-read flavor; Section 2.5's isolation-level hook).
  std::unique_ptr<LockingCursor> NewLockingCursor(Transaction* txn);

  // ---- rebuilds ----
  // `from`: see OnlineRebuilder::Run.
  Status RebuildOnline(const RebuildOptions& options, RebuildResult* result,
                       const RebuildProgressInfo& from = RebuildProgressInfo());
  Status RebuildOffline(RebuildResult* result);

  BTree* tree() { return tree_; }

 private:
  // The "table lock": data operations take it shared for their duration;
  // the offline rebuild takes it exclusive. The online rebuild does not
  // touch it — that is the point of the paper.
  static constexpr RowId kTableLockId = ~0ull;

  BTree* const tree_;
  TransactionManager* const tm_;
  BufferManager* const bm_;
  LogManager* const log_;
  LockManager* const locks_;
  SpaceManager* const space_;
  RebuildJournal* const journal_;
};

}  // namespace oir

#endif  // OIR_CORE_INDEX_H_
