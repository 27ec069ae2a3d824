#ifndef OIR_WAL_LOG_RECORD_H_
#define OIR_WAL_LOG_RECORD_H_

// Log record definitions. The record set mirrors the paper:
//
//  * kInsert / kDelete      — single-row physiological records used by the
//                             normal insert/delete path. They carry the row
//                             image plus ~40-55 bytes of framing (txn id,
//                             prevLSN, page id, old page timestamp,
//                             position), matching the paper's point that
//                             per-record overhead is large (Section 4.3).
//  * kBatchInsert / kBatchDelete — contiguous multi-row records emitted by
//                             the propagation phase on non-leaf pages; the
//                             framing is amortized over all rows.
//  * kKeyCopy               — a single record for all key copying of a
//                             multipage rebuild top action (Section 4.1.2):
//                             entries of [source page, target page,
//                             positions]. The key bytes are NOT logged; redo
//                             re-reads the source page, which is safe
//                             because new pages are forced to disk before
//                             old pages are freed for reallocation
//                             (Section 3).
//  * kAlloc / kDealloc      — page state transitions (Section 4.1.3). The
//                             deallocated→free transition is not logged.
//  * kFormatPage            — formatting of a freshly allocated page.
//  * kSetPrevLink / kSetNextLink — leaf-chain maintenance
//                             ("changeprevlink", Section 4.1.2).
//  * kMetaRoot              — root page-id change on the index meta page.
//  * kNtaEnd                — dummy CLR completing a nested top action; its
//                             undo_next points at the LSN preceding the top
//                             action, so rollback skips the whole action.
//  * transaction control    — begin / commit / abort / end.
//
// Any redoable record can additionally be a CLR (is_clr = true,
// undo_next set): CLRs are redo-only compensation records written during
// rollback, per ARIES.

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"
#include "util/types.h"

namespace oir {

enum class LogType : uint8_t {
  kInvalid = 0,
  kBeginTxn = 1,
  kCommitTxn = 2,
  kAbortTxn = 3,
  kEndTxn = 4,
  kInsert = 5,
  kDelete = 6,
  kBatchInsert = 7,
  kBatchDelete = 8,
  kKeyCopy = 9,
  kAlloc = 10,   // page-state records carry a page LIST (see `pages`)
  kDealloc = 11,
  kFormatPage = 12,
  kSetPrevLink = 13,
  kSetNextLink = 14,
  kMetaRoot = 15,
  kNtaEnd = 16,
  // CLR-only types.
  kFreePage = 17,     // compensation of kAlloc: page returns to free state
  kKeyCopyUndo = 18,  // compensation of kKeyCopy: copied rows are removed
                      // from the target pages (one atomic CLR for the whole
                      // multi-page record; redo is per-target-page)
  // A fuzzy checkpoint: snapshot of the space manager's page states and
  // the active-transaction table. Restart recovery begins its scan here
  // instead of at the log head.
  kCheckpoint = 19,
  // Rebuild progress record: the online rebuilder's durable copy cursor
  // (largest composite key whose leaf has been rebuilt by a COMMITTED
  // rebuild transaction), appended outside any transaction chain after
  // each rebuild-transaction commit. Recovery re-arms a crashed rebuild
  // from the last durable one instead of restarting the copy from zero.
  // Pure bookkeeping: never redone against a page, never undone.
  kRebuildProgress = 20,
};

const char* LogTypeName(LogType t);

// One entry of a keycopy record: rows [src_first, src_last] of the source
// page were copied to the target page starting at slot tgt_first. The
// source page's timestamp (pageLSN) at copy time is recorded so recovery
// can verify it is reading the same image the copy read.
// Active-transaction entry inside a checkpoint record.
struct CheckpointTxn {
  TxnId txn_id = kInvalidTxnId;
  Lsn last_lsn = kInvalidLsn;
};

// Payload of a kRebuildProgress record, also embedded in kCheckpoint so a
// checkpoint taken mid-rebuild carries the latest durable cursor even after
// the log prefix holding the progress records is truncated.
struct RebuildProgressInfo {
  bool active = false;  // a rebuild was in flight when this was written
  bool done = false;    // final record: the rebuild ran to completion
  // Copy cursor: largest composite key copied by a committed rebuild
  // transaction. Meaningful only when has_cursor — an active rebuild that
  // has not committed a transaction yet resumes from the beginning.
  bool has_cursor = false;
  std::string cursor;
  // Carried counters so a resumed rebuild's progress tracker continues
  // from where the crashed run left off instead of re-starting at zero.
  uint64_t leaves_rebuilt = 0;
  uint64_t top_actions = 0;
  uint64_t transactions = 0;
};

struct KeyCopyEntry {
  PageId src_page = kInvalidPageId;
  PageId tgt_page = kInvalidPageId;
  SlotId src_first = 0;
  SlotId src_last = 0;  // inclusive
  SlotId tgt_first = 0;
  Lsn src_ts = kInvalidLsn;
};

struct LogRecord {
  // ---- header (serialized for every record) ----
  LogType type = LogType::kInvalid;
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;   // previous record of the same transaction
  PageId page_id = kInvalidPageId;
  Lsn old_page_lsn = kInvalidLsn;  // page timestamp before this update
  bool is_clr = false;
  Lsn undo_next = kInvalidLsn;  // CLR / NtaEnd: next record to undo

  // ---- type-specific payload ----
  SlotId pos = 0;                  // kInsert/kDelete and first slot of batches
  std::string row;                 // kInsert/kDelete row image
  std::vector<std::string> rows;   // kBatchInsert/kBatchDelete row images
  std::vector<KeyCopyEntry> copies;  // kKeyCopy / kKeyCopyUndo
  uint16_t level = 0;              // page level for row records / kFormatPage
  std::vector<PageId> pages;       // kAlloc/kDealloc/kFreePage page list
                                   // (one record covers all pages of an
                                   // allocation-unit update, as ASE's
                                   // allocation-page logging does)
  // kCheckpoint payload: page states (allocated/deallocated lists) and the
  // transactions active at checkpoint time.
  std::vector<PageId> ckpt_allocated;
  std::vector<PageId> ckpt_deallocated;
  std::vector<CheckpointTxn> ckpt_txns;
  PageId ckpt_end_page = kInvalidPageId;  // space high-water mark
  TxnId ckpt_next_txn_id = kInvalidTxnId;
  // kRebuildProgress payload; also embedded in kCheckpoint (active=false
  // there means no rebuild was in flight at checkpoint time).
  RebuildProgressInfo rebuild_progress;
  PageId link_old = kInvalidPageId;  // kSetPrevLink/kSetNextLink/kMetaRoot
  PageId link_new = kInvalidPageId;
  PageId prev_page = kInvalidPageId;  // kFormatPage initial links
  PageId next_page = kInvalidPageId;

  // ---- filled in by LogManager::Append / scan ----
  Lsn lsn = kInvalidLsn;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, LogRecord* rec);

  // True if redoing/undoing this record modifies page_id.
  bool IsPageUpdate() const;
};

}  // namespace oir

#endif  // OIR_WAL_LOG_RECORD_H_
