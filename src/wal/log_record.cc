#include "wal/log_record.h"

#include "util/coding.h"
#include "util/logging.h"

namespace oir {

namespace {

void EncodeRebuildProgress(std::string* dst, const RebuildProgressInfo& rp) {
  uint8_t flags = 0;
  if (rp.active) flags |= 1;
  if (rp.done) flags |= 2;
  if (rp.has_cursor) flags |= 4;
  dst->push_back(static_cast<char>(flags));
  PutLengthPrefixedSlice(dst, rp.cursor);
  PutFixed64(dst, rp.leaves_rebuilt);
  PutFixed64(dst, rp.top_actions);
  PutFixed64(dst, rp.transactions);
}

bool DecodeRebuildProgress(Slice* input, RebuildProgressInfo* rp) {
  if (input->empty()) return false;
  uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  rp->active = (flags & 1) != 0;
  rp->done = (flags & 2) != 0;
  rp->has_cursor = (flags & 4) != 0;
  Slice cursor;
  if (!GetLengthPrefixedSlice(input, &cursor)) return false;
  rp->cursor = cursor.ToString();
  uint64_t v64;
  if (!GetFixed64(input, &v64)) return false;
  rp->leaves_rebuilt = v64;
  if (!GetFixed64(input, &v64)) return false;
  rp->top_actions = v64;
  if (!GetFixed64(input, &v64)) return false;
  rp->transactions = v64;
  return true;
}

}  // namespace

const char* LogTypeName(LogType t) {
  switch (t) {
    case LogType::kInvalid:
      return "Invalid";
    case LogType::kBeginTxn:
      return "BeginTxn";
    case LogType::kCommitTxn:
      return "CommitTxn";
    case LogType::kAbortTxn:
      return "AbortTxn";
    case LogType::kEndTxn:
      return "EndTxn";
    case LogType::kInsert:
      return "Insert";
    case LogType::kDelete:
      return "Delete";
    case LogType::kBatchInsert:
      return "BatchInsert";
    case LogType::kBatchDelete:
      return "BatchDelete";
    case LogType::kKeyCopy:
      return "KeyCopy";
    case LogType::kAlloc:
      return "Alloc";
    case LogType::kDealloc:
      return "Dealloc";
    case LogType::kFormatPage:
      return "FormatPage";
    case LogType::kSetPrevLink:
      return "SetPrevLink";
    case LogType::kSetNextLink:
      return "SetNextLink";
    case LogType::kMetaRoot:
      return "MetaRoot";
    case LogType::kNtaEnd:
      return "NtaEnd";
    case LogType::kFreePage:
      return "FreePage";
    case LogType::kKeyCopyUndo:
      return "KeyCopyUndo";
    case LogType::kCheckpoint:
      return "Checkpoint";
    case LogType::kRebuildProgress:
      return "RebuildProgress";
  }
  return "Unknown";
}

bool LogRecord::IsPageUpdate() const {
  switch (type) {
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kBatchInsert:
    case LogType::kBatchDelete:
    case LogType::kKeyCopy:  // updates target pages (multi-page record)
    case LogType::kKeyCopyUndo:
    case LogType::kFormatPage:
    case LogType::kSetPrevLink:
    case LogType::kSetNextLink:
    case LogType::kMetaRoot:
      return true;
    default:
      return false;
  }
}

void LogRecord::EncodeTo(std::string* dst) const {
  // Fixed header. The sizes here determine the per-record overhead that the
  // paper's batching amortizes; see Section 4.3.
  dst->push_back(static_cast<char>(type));
  dst->push_back(is_clr ? 1 : 0);
  PutFixed64(dst, txn_id);
  PutFixed64(dst, prev_lsn);
  PutFixed32(dst, page_id);
  PutFixed64(dst, old_page_lsn);
  PutFixed64(dst, undo_next);

  switch (type) {
    case LogType::kInsert:
    case LogType::kDelete:
      PutFixed16(dst, level);
      PutFixed16(dst, pos);
      PutLengthPrefixedSlice(dst, row);
      break;
    case LogType::kBatchInsert:
    case LogType::kBatchDelete:
      PutFixed16(dst, level);
      PutFixed16(dst, pos);
      PutVarint32(dst, static_cast<uint32_t>(rows.size()));
      for (const std::string& r : rows) PutLengthPrefixedSlice(dst, r);
      break;
    case LogType::kKeyCopy:
    case LogType::kKeyCopyUndo:
      PutVarint32(dst, static_cast<uint32_t>(copies.size()));
      for (const KeyCopyEntry& e : copies) {
        PutFixed32(dst, e.src_page);
        PutFixed32(dst, e.tgt_page);
        PutFixed16(dst, e.src_first);
        PutFixed16(dst, e.src_last);
        PutFixed16(dst, e.tgt_first);
        PutFixed64(dst, e.src_ts);
      }
      break;
    case LogType::kFormatPage:
      PutFixed16(dst, level);
      PutFixed32(dst, prev_page);
      PutFixed32(dst, next_page);
      break;
    case LogType::kSetPrevLink:
    case LogType::kSetNextLink:
    case LogType::kMetaRoot:
      PutFixed32(dst, link_old);
      PutFixed32(dst, link_new);
      break;
    case LogType::kAlloc:
    case LogType::kDealloc:
    case LogType::kFreePage:
      PutVarint32(dst, static_cast<uint32_t>(pages.size()));
      for (PageId p : pages) PutFixed32(dst, p);
      break;
    case LogType::kCheckpoint:
      PutFixed32(dst, ckpt_end_page);
      PutFixed64(dst, ckpt_next_txn_id);
      PutVarint32(dst, static_cast<uint32_t>(ckpt_allocated.size()));
      for (PageId p : ckpt_allocated) PutFixed32(dst, p);
      PutVarint32(dst, static_cast<uint32_t>(ckpt_deallocated.size()));
      for (PageId p : ckpt_deallocated) PutFixed32(dst, p);
      PutVarint32(dst, static_cast<uint32_t>(ckpt_txns.size()));
      for (const CheckpointTxn& t : ckpt_txns) {
        PutFixed64(dst, t.txn_id);
        PutFixed64(dst, t.last_lsn);
      }
      EncodeRebuildProgress(dst, rebuild_progress);
      break;
    case LogType::kRebuildProgress:
      EncodeRebuildProgress(dst, rebuild_progress);
      break;
    default:
      break;  // control records have no payload
  }
}

Status LogRecord::DecodeFrom(Slice input, LogRecord* rec) {
  *rec = LogRecord();
  if (input.size() < 2) return Status::Corruption("log record too short");
  rec->type = static_cast<LogType>(input[0]);
  rec->is_clr = input[1] != 0;
  input.remove_prefix(2);
  uint64_t v64;
  uint32_t v32;
  uint16_t v16;
  if (!GetFixed64(&input, &v64)) return Status::Corruption("txn_id");
  rec->txn_id = v64;
  if (!GetFixed64(&input, &v64)) return Status::Corruption("prev_lsn");
  rec->prev_lsn = v64;
  if (!GetFixed32(&input, &v32)) return Status::Corruption("page_id");
  rec->page_id = v32;
  if (!GetFixed64(&input, &v64)) return Status::Corruption("old_page_lsn");
  rec->old_page_lsn = v64;
  if (!GetFixed64(&input, &v64)) return Status::Corruption("undo_next");
  rec->undo_next = v64;

  switch (rec->type) {
    case LogType::kInsert:
    case LogType::kDelete: {
      if (!GetFixed16(&input, &v16)) return Status::Corruption("level");
      rec->level = v16;
      if (!GetFixed16(&input, &v16)) return Status::Corruption("pos");
      rec->pos = v16;
      Slice r;
      if (!GetLengthPrefixedSlice(&input, &r)) {
        return Status::Corruption("row");
      }
      rec->row = r.ToString();
      break;
    }
    case LogType::kBatchInsert:
    case LogType::kBatchDelete: {
      if (!GetFixed16(&input, &v16)) return Status::Corruption("level");
      rec->level = v16;
      if (!GetFixed16(&input, &v16)) return Status::Corruption("pos");
      rec->pos = v16;
      uint32_t n;
      if (!GetVarint32(&input, &n)) return Status::Corruption("nrows");
      rec->rows.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Slice r;
        if (!GetLengthPrefixedSlice(&input, &r)) {
          return Status::Corruption("batch row");
        }
        rec->rows.push_back(r.ToString());
      }
      break;
    }
    case LogType::kKeyCopy:
    case LogType::kKeyCopyUndo: {
      uint32_t n;
      if (!GetVarint32(&input, &n)) return Status::Corruption("ncopies");
      rec->copies.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        KeyCopyEntry e;
        if (!GetFixed32(&input, &e.src_page) ||
            !GetFixed32(&input, &e.tgt_page) ||
            !GetFixed16(&input, &e.src_first) ||
            !GetFixed16(&input, &e.src_last) ||
            !GetFixed16(&input, &e.tgt_first) ||
            !GetFixed64(&input, &e.src_ts)) {
          return Status::Corruption("keycopy entry");
        }
        rec->copies.push_back(e);
      }
      break;
    }
    case LogType::kFormatPage:
      if (!GetFixed16(&input, &v16)) return Status::Corruption("level");
      rec->level = v16;
      if (!GetFixed32(&input, &v32)) return Status::Corruption("prev");
      rec->prev_page = v32;
      if (!GetFixed32(&input, &v32)) return Status::Corruption("next");
      rec->next_page = v32;
      break;
    case LogType::kSetPrevLink:
    case LogType::kSetNextLink:
    case LogType::kMetaRoot:
      if (!GetFixed32(&input, &v32)) return Status::Corruption("link_old");
      rec->link_old = v32;
      if (!GetFixed32(&input, &v32)) return Status::Corruption("link_new");
      rec->link_new = v32;
      break;
    case LogType::kAlloc:
    case LogType::kDealloc:
    case LogType::kFreePage: {
      uint32_t n;
      if (!GetVarint32(&input, &n)) return Status::Corruption("npages");
      rec->pages.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!GetFixed32(&input, &v32)) return Status::Corruption("page list");
        rec->pages.push_back(v32);
      }
      break;
    }
    case LogType::kCheckpoint: {
      if (!GetFixed32(&input, &v32)) return Status::Corruption("ckpt end");
      rec->ckpt_end_page = v32;
      if (!GetFixed64(&input, &v64)) return Status::Corruption("ckpt txnid");
      rec->ckpt_next_txn_id = v64;
      uint32_t n;
      if (!GetVarint32(&input, &n)) return Status::Corruption("ckpt nalloc");
      for (uint32_t i = 0; i < n; ++i) {
        if (!GetFixed32(&input, &v32)) return Status::Corruption("ckpt a");
        rec->ckpt_allocated.push_back(v32);
      }
      if (!GetVarint32(&input, &n)) return Status::Corruption("ckpt ndealloc");
      for (uint32_t i = 0; i < n; ++i) {
        if (!GetFixed32(&input, &v32)) return Status::Corruption("ckpt d");
        rec->ckpt_deallocated.push_back(v32);
      }
      if (!GetVarint32(&input, &n)) return Status::Corruption("ckpt ntxn");
      for (uint32_t i = 0; i < n; ++i) {
        CheckpointTxn t;
        if (!GetFixed64(&input, &v64)) return Status::Corruption("ckpt tid");
        t.txn_id = v64;
        if (!GetFixed64(&input, &v64)) return Status::Corruption("ckpt tlsn");
        t.last_lsn = v64;
        rec->ckpt_txns.push_back(t);
      }
      if (!DecodeRebuildProgress(&input, &rec->rebuild_progress)) {
        return Status::Corruption("ckpt rebuild progress");
      }
      break;
    }
    case LogType::kRebuildProgress:
      if (!DecodeRebuildProgress(&input, &rec->rebuild_progress)) {
        return Status::Corruption("rebuild progress");
      }
      break;
    default:
      break;
  }
  return Status::OK();
}

}  // namespace oir
