#include "core/index.h"

#include "btree/cursor.h"
#include "obs/waitstate.h"
#include "util/logging.h"

namespace oir {

Index::Index(BTree* tree, TransactionManager* tm, BufferManager* bm,
             LogManager* log, LockManager* locks, SpaceManager* space,
             RebuildJournal* journal)
    : tree_(tree), tm_(tm), bm_(bm), log_(log), locks_(locks),
      space_(space), journal_(journal) {}

namespace {

// Holds the table lock in `mode` for the duration of one operation.
class TableLockGuard {
 public:
  TableLockGuard(LockManager* locks, TxnId owner, LockKey key, LockMode mode)
      : locks_(locks), owner_(owner), key_(key), ok_(false) {
    ok_ = locks_->Lock(owner_, key_, mode, /*conditional=*/false).ok();
  }
  ~TableLockGuard() {
    if (ok_) locks_->Unlock(owner_, key_);
  }
  bool ok() const { return ok_; }

 private:
  LockManager* locks_;
  TxnId owner_;
  LockKey key_;
  bool ok_;
};

}  // namespace

Status Index::Insert(Transaction* txn, const Slice& key, RowId rid) {
  obs::OpScope op(obs::OpType::kWrite);
  TableLockGuard table(locks_, txn->id(), LogicalLockKey(kTableLockId),
                       LockMode::kS);
  if (!table.ok()) return Status::Aborted("table lock timeout");
  // Row-level logical lock (Section 2), held to transaction end.
  OIR_RETURN_IF_ERROR(tm_->LockLogical(txn, rid, LockMode::kX));
  return tree_->Insert(OpCtx{txn->id(), txn->ctx()}, key, rid);
}

Status Index::Delete(Transaction* txn, const Slice& key, RowId rid) {
  obs::OpScope op(obs::OpType::kWrite);
  TableLockGuard table(locks_, txn->id(), LogicalLockKey(kTableLockId),
                       LockMode::kS);
  if (!table.ok()) return Status::Aborted("table lock timeout");
  OIR_RETURN_IF_ERROR(tm_->LockLogical(txn, rid, LockMode::kX));
  return tree_->Delete(OpCtx{txn->id(), txn->ctx()}, key, rid);
}

Status Index::Lookup(Transaction* txn, const Slice& key, RowId rid,
                     bool* found) {
  obs::OpScope op(obs::OpType::kRead);
  TableLockGuard table(locks_, txn->id(), LogicalLockKey(kTableLockId),
                       LockMode::kS);
  if (!table.ok()) return Status::Aborted("table lock timeout");
  return tree_->Lookup(OpCtx{txn->id(), txn->ctx()}, key, rid, found);
}

std::unique_ptr<Cursor> Index::NewCursor(Transaction* txn) {
  return std::make_unique<Cursor>(tree_, OpCtx{txn->id(), txn->ctx()});
}

std::unique_ptr<LockingCursor> Index::NewLockingCursor(Transaction* txn) {
  return std::make_unique<LockingCursor>(NewCursor(txn), tm_, txn);
}

Status Index::RebuildOnline(const RebuildOptions& options,
                            RebuildResult* result,
                            const RebuildProgressInfo& from) {
  // No table lock, no logical locks — the whole point of the paper.
  OnlineRebuilder rebuilder(tree_, tm_, bm_, log_, locks_, space_, journal_);
  return rebuilder.Run(options, result, from);
}

Status Index::RebuildOffline(RebuildResult* result) {
  // Drop-and-recreate baseline: exclusive table lock for the duration, the
  // behavior the paper's introduction describes as unacceptable for OLTP.
  *result = RebuildResult();
  std::unique_ptr<Transaction> txn = tm_->Begin();
  OpCtx op{txn->id(), txn->ctx()};

  Status s = locks_->Lock(txn->id(), LogicalLockKey(kTableLockId),
                          LockMode::kX, /*conditional=*/false);
  if (!s.ok()) {
    (void)tm_->Abort(txn.get());  // already propagating the first error
    return s;
  }
  txn->TrackLock(LogicalLockKey(kTableLockId));

  // Collect every row and every page of the old tree.
  std::vector<std::string> rows;
  std::vector<PageId> old_pages;
  {
    // Gather pages level by level from the root.
    std::vector<PageId> frontier = {tree_->root()};
    while (!frontier.empty()) {
      std::vector<PageId> next;
      for (PageId p : frontier) {
        old_pages.push_back(p);
        PageRef ref;
        s = bm_->Fetch(p, &ref);
        if (!s.ok()) break;
        SlottedPage sp(ref.data(), bm_->page_size());
        if (ref.header()->level != kLeafLevel) {
          for (SlotId i = 0; i < sp.nslots(); ++i) {
            next.push_back(node::ChildOf(sp.Get(i)));
          }
        } else {
          for (SlotId i = 0; i < sp.nslots(); ++i) {
            rows.push_back(sp.Get(i).ToString());
          }
        }
      }
      if (!s.ok()) break;
      frontier = std::move(next);
    }
  }
  if (!s.ok()) {
    (void)tm_->Abort(txn.get());  // already propagating the first error
    return s;
  }

  // Bulk-load a fresh tree bottom-up.
  const uint32_t cap = bm_->page_size() - kPageHeaderSize;
  auto build_level = [&](const std::vector<std::string>& level_rows,
                         uint16_t level, bool leaf,
                         std::vector<std::pair<std::string, PageId>>* out)
      -> Status {
    if (level_rows.empty()) return Status::OK();
    // Pack rows into pages; record (first separator, page) pairs.
    std::vector<std::vector<std::string>> pages;
    std::vector<std::string> firsts;
    uint32_t used = 0;
    for (const std::string& r : level_rows) {
      if (pages.empty() || used + r.size() + kSlotSize > cap) {
        pages.emplace_back();
        firsts.push_back(r);
        used = 0;
      }
      pages.back().push_back(r);
      used += static_cast<uint32_t>(r.size()) + kSlotSize;
    }
    std::vector<PageId> ids;
    OIR_RETURN_IF_ERROR(space_->AllocateChunk(
        op.ctx, static_cast<uint32_t>(pages.size()), &ids));
    for (size_t i = 0; i < pages.size(); ++i) {
      PageId prev = leaf && i > 0 ? ids[i - 1] : kInvalidPageId;
      PageId next = leaf && i + 1 < pages.size() ? ids[i + 1]
                                                 : kInvalidPageId;
      PageRef ref;
      OIR_RETURN_IF_ERROR(
          tree_->FormatNewPage(op, ids[i], level, prev, next, &ref));
      tree_->LogBatchInsert(op, &ref, 0, pages[i], level);
      ref.latch().UnlockX();
      out->emplace_back(firsts[i], ids[i]);
    }
    return Status::OK();
  };

  std::vector<std::pair<std::string, PageId>> level_pages;
  s = build_level(rows, kLeafLevel, /*leaf=*/true, &level_pages);
  uint16_t level = 0;
  while (s.ok() && level_pages.size() > 1) {
    ++level;
    std::vector<std::string> parent_rows;
    parent_rows.reserve(level_pages.size());
    for (size_t i = 0; i < level_pages.size(); ++i) {
      // The first child of each page loses its separator during packing —
      // but packing happens per page, so encode all and fix first rows by
      // re-encoding below. For simplicity, keep full separators except the
      // very first entry (empty string sorts first anyway).
      Slice sep = i == 0 ? Slice() : Slice(level_pages[i].first);
      parent_rows.push_back(node::MakeNonLeafRow(level_pages[i].second, sep));
    }
    std::vector<std::pair<std::string, PageId>> next_pages;
    s = build_level(parent_rows, level, /*leaf=*/false, &next_pages);
    // Fix separator bookkeeping: the "first key" of a non-leaf page is the
    // separator of its first row, which should bubble up.
    if (s.ok()) {
      size_t row_idx = 0;
      for (size_t i = 0; i < next_pages.size(); ++i) {
        next_pages[i].first =
            i == 0 ? std::string()
                   : node::SeparatorOf(Slice(next_pages[i].first)).ToString();
        (void)row_idx;
      }
      // Strip the separator of the first row of each page.
      for (auto& [first, pid] : next_pages) {
        PageRef ref;
        OIR_RETURN_IF_ERROR(bm_->Fetch(pid, &ref));
        ref.latch().LockX();
        SlottedPage sp(ref.data(), bm_->page_size());
        if (sp.nslots() > 0) {
          PageId child = node::ChildOf(sp.Get(0));
          if (!node::SeparatorOf(sp.Get(0)).empty()) {
            tree_->LogDelete(op, &ref, 0, level);
            tree_->LogInsert(op, &ref, 0, node::MakeNonLeafRow(child, Slice()),
                             level);
          }
        }
        ref.latch().UnlockX();
      }
      level_pages = std::move(next_pages);
    }
  }
  if (s.ok() && level_pages.empty()) {
    // Empty index: a fresh empty root leaf.
    std::vector<PageId> ids;
    s = space_->AllocateChunk(op.ctx, 1, &ids);
    if (s.ok()) {
      PageRef ref;
      s = tree_->FormatNewPage(op, ids[0], kLeafLevel, kInvalidPageId,
                               kInvalidPageId, &ref);
      if (s.ok()) ref.latch().UnlockX();
      level_pages.emplace_back(std::string(), ids[0]);
    }
  }
  if (s.ok()) s = tree_->SetRoot(op, level_pages[0].second);
  if (s.ok()) {
    for (PageId p : old_pages) {
      s = space_->Deallocate(op.ctx, p);
      if (!s.ok()) break;
    }
  }
  if (!s.ok()) {
    (void)tm_->Abort(txn.get());  // already propagating the first error
    return s;
  }
  s = bm_->FlushAll();
  if (s.ok()) s = tm_->Commit(txn.get());
  if (!s.ok()) {
    tm_->Abandon(std::move(txn));  // I/O error: left to restart recovery
    return s;
  }
  for (PageId p : old_pages) {
    bm_->Discard(p);  // before Free (see OnlineRebuilder: a concurrent
    space_->Free(p);  // allocation must not race with the discard)
  }
  result->old_leaf_pages = old_pages.size();
  result->keys_moved = rows.size();
  result->transactions = 1;
  return Status::OK();
}

}  // namespace oir
