#include "recovery/recovery.h"

#include <cstdio>

#include "storage/slotted_page.h"
#include "util/logging.h"

namespace oir {

std::string RecoveryStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scanned=%llu redone=%llu losers=%llu undone=%llu freed=%llu "
                "bits_cleared=%llu",
                (unsigned long long)records_scanned,
                (unsigned long long)records_redone,
                (unsigned long long)loser_txns,
                (unsigned long long)records_undone,
                (unsigned long long)pages_freed,
                (unsigned long long)bits_cleared);
  return std::string(buf);
}

std::string RecoveryStats::ToJson() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"records_scanned\":%llu,\"records_redone\":%llu,"
                "\"loser_txns\":%llu,\"records_undone\":%llu,"
                "\"pages_freed\":%llu,\"bits_cleared\":%llu}",
                (unsigned long long)records_scanned,
                (unsigned long long)records_redone,
                (unsigned long long)loser_txns,
                (unsigned long long)records_undone,
                (unsigned long long)pages_freed,
                (unsigned long long)bits_cleared);
  return std::string(buf);
}

Status RecoveryManager::AnalyzeAndRedo(RecoveryStats* stats) {
  ctx_.space->ResetForRecovery();
  losers_.clear();
  rebuild_resume_ = RebuildProgressInfo();

  // Start from the last durable checkpoint when one exists: its payload
  // seeds the page-state map and the loser table, and the scan begins at
  // the checkpoint's captured scan-start LSN instead of the log head.
  Lsn scan_from = ctx_.log->head_lsn();
  Lsn master = ctx_.log->master_checkpoint();
  if (master != kInvalidLsn) {
    LogRecord ckpt;
    OIR_RETURN_IF_ERROR(ctx_.log->ReadRecord(master, &ckpt));
    if (ckpt.type != LogType::kCheckpoint) {
      return Status::Corruption("master record is not a checkpoint");
    }
    Disk* disk = ctx_.bm->disk();
    if (ckpt.ckpt_end_page > 0 && ckpt.ckpt_end_page - 1 >= disk->NumPages()) {
      OIR_RETURN_IF_ERROR(disk->Extend(ckpt.ckpt_end_page));
    }
    if (ckpt.ckpt_end_page > kFirstDataPageId) {
      ctx_.space->SetStateForRecovery(ckpt.ckpt_end_page - 1,
                                      PageState::kFree);
    }
    for (PageId p : ckpt.ckpt_allocated) {
      ctx_.space->SetStateForRecovery(p, PageState::kAllocated);
    }
    for (PageId p : ckpt.ckpt_deallocated) {
      ctx_.space->SetStateForRecovery(p, PageState::kDeallocated);
    }
    for (const CheckpointTxn& t : ckpt.ckpt_txns) {
      losers_[t.txn_id] = t.last_lsn;
      if (t.txn_id > max_txn_id_) max_txn_id_ = t.txn_id;
    }
    if (ckpt.ckpt_next_txn_id != kInvalidTxnId &&
        ckpt.ckpt_next_txn_id - 1 > max_txn_id_) {
      max_txn_id_ = ckpt.ckpt_next_txn_id - 1;
    }
    scan_from = ckpt.old_page_lsn;  // the checkpoint's scan-start LSN
    if (scan_from < ctx_.log->head_lsn()) scan_from = ctx_.log->head_lsn();
    // A checkpoint taken mid-rebuild carries the latest durable progress;
    // later kRebuildProgress records in the scan supersede it.
    if (ckpt.rebuild_progress.active) rebuild_resume_ = ckpt.rebuild_progress;
  }

  for (LogManager::Iterator it = ctx_.log->Scan(scan_from);
       it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    ++stats->records_scanned;
    if (rec.txn_id != kInvalidTxnId) {
      if (rec.txn_id > max_txn_id_) max_txn_id_ = rec.txn_id;
      if (rec.type == LogType::kEndTxn) {
        losers_.erase(rec.txn_id);
      } else {
        losers_[rec.txn_id] = rec.lsn;
      }
    }
    if (rec.type == LogType::kRebuildProgress) {
      // A progress record is written only after the work it describes
      // committed, so the newest durable one is always a safe resume
      // point. The done record (inactive) clears it: the rebuild ran to
      // completion before the crash.
      rebuild_resume_ = rec.rebuild_progress.active ? rec.rebuild_progress
                                                    : RebuildProgressInfo();
    }
    if (rec.IsPageUpdate() || rec.type == LogType::kAlloc ||
        rec.type == LogType::kDealloc || rec.type == LogType::kFreePage) {
      OIR_RETURN_IF_ERROR(RedoRecord(&ctx_, rec));
      ++stats->records_redone;
    }
  }
  // Transactions whose last record is a commit are winners even without an
  // end record (the end record may not have been written yet).
  for (auto it = losers_.begin(); it != losers_.end();) {
    LogRecord rec;
    Status s = ctx_.log->ReadRecord(it->second, &rec);
    if (s.ok() && rec.type == LogType::kCommitTxn) {
      it = losers_.erase(it);
    } else {
      ++it;
    }
  }
  stats->loser_txns = losers_.size();
  return Status::OK();
}

Status RecoveryManager::UndoLosers(LogicalUndoHook* hook,
                                   RecoveryStats* stats) {
  // Clear SMO bits left on redone page images before any undo traversal
  // runs. The bits are unlogged in-memory markers backed by address locks;
  // after a crash no owner exists, so nothing would ever clear them during
  // undo, and a logical undo whose traversal honored one would restart
  // forever. Dropping them up front is safe because of the undo order
  // below.
  OIR_RETURN_IF_ERROR(ClearSmoBits(stats));

  // Undo the losers' records in one pass in descending pre-crash LSN order
  // (textbook ARIES interleaving), not one transaction at a time. The order
  // is what replaces the bits' protection: an incomplete nested top action
  // is physically undone by slot position, so its pages must not be
  // reshaped by another loser's logical undo first. Descending order
  // guarantees every record younger than a given LSN — in particular every
  // step of any SMO in flight at the crash — is undone before an older
  // record's logical undo traverses the tree, so each physical undo sees
  // exactly the page state its forward step produced.
  struct Cursor {
    TxnContext txc;
    Lsn next = kInvalidLsn;  // next pre-crash record to examine
  };
  std::vector<Cursor> cursors;
  cursors.reserve(losers_.size());
  for (auto& [txn_id, last_lsn] : losers_) {
    Cursor c;
    c.txc.txn_id = txn_id;
    c.txc.last_lsn = last_lsn;
    c.next = last_lsn;
    cursors.push_back(std::move(c));
  }
  while (!cursors.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < cursors.size(); ++i) {
      if (cursors[i].next > cursors[best].next) best = i;
    }
    Cursor& c = cursors[best];
    bool done = (c.next == kInvalidLsn);
    if (!done) {
      LogRecord rec;
      OIR_RETURN_IF_ERROR(ctx_.log->ReadRecord(c.next, &rec));
      if (rec.is_clr || rec.type == LogType::kNtaEnd) {
        c.next = rec.undo_next;
      } else if (rec.type == LogType::kBeginTxn) {
        done = true;
      } else if (rec.type == LogType::kCommitTxn ||
                 rec.type == LogType::kAbortTxn ||
                 rec.type == LogType::kEndTxn) {
        c.next = rec.prev_lsn;
      } else {
        OIR_RETURN_IF_ERROR(UndoRecord(&ctx_, &c.txc, rec, hook));
        ++stats->records_undone;
        c.next = rec.prev_lsn;
      }
      done = done || (c.next == kInvalidLsn);
    }
    if (done) {
      LogRecord end;
      end.type = LogType::kEndTxn;
      ctx_.log->Append(&end, &c.txc);
      cursors.erase(cursors.begin() + best);
    }
  }
  return Status::OK();
}

Status RecoveryManager::ClearSmoBits(RecoveryStats* stats) {
  for (PageId p : ctx_.space->PagesInState(PageState::kAllocated)) {
    PageRef ref;
    OIR_RETURN_IF_ERROR(ctx_.bm->Fetch(p, &ref));
    ref.latch().LockX();
    PageHeader* h = ref.header();
    if ((h->flags & (kFlagSplit | kFlagShrink | kFlagOldPgOfSplit)) != 0) {
      h->flags = 0;
      ++stats->bits_cleared;
      ref.latch().UnlockX();
      ref.MarkDirty();
    } else {
      ref.latch().UnlockX();
    }
  }
  return Status::OK();
}

Status RecoveryManager::Finish(RecoveryStats* stats) {
  std::vector<PageId> deallocated =
      ctx_.space->PagesInState(PageState::kDeallocated);
  for (PageId p : deallocated) {
    ctx_.bm->Discard(p);
  }
  std::vector<PageId> freed = ctx_.space->FreeAllDeallocated();
  stats->pages_freed += freed.size();

  // Sweep for concurrency-control bits once more (UndoLosers already
  // cleared the crash leftovers): undo-time SMOs complete inline and clear
  // their own bits, so this normally finds nothing, but it is cheap and
  // keeps the invariant local.
  return ClearSmoBits(stats);
}

}  // namespace oir
