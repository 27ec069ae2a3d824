#ifndef OIR_CORE_REBUILD_JOURNAL_H_
#define OIR_CORE_REBUILD_JOURNAL_H_

// The one owner of a rebuild's resume point: the latest kRebuildProgress
// record the rebuild logged, or nothing once its done record is logged.
// The entry changes under the same mutex as the append that logs it, and
// Db::Checkpoint reads the log tail and the entry under that mutex too, so
// a checkpoint's redo-scan start and its embedded resume point are one
// consistent cut of the log: every progress record below the scan start is
// reflected in the embedded entry, and every later one is replayed by the
// scan. After restart recovery the recovered resume point is restored
// here, so a checkpoint taken before the rebuild is resumed still carries
// it once the log prefix holding the progress records is truncated.
//
// Lock order: journal mutex -> WAL mutex.

#include "sync/mutex.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace oir {

class RebuildJournal {
 public:
  // Appends `info` as a kRebuildProgress record and makes it the entry; a
  // done record clears the entry instead. Returns the record's LSN (the
  // caller decides whether to flush it).
  Lsn Append(LogManager* log, const RebuildProgressInfo& info) {
    MutexLock l(mu_);
    LogRecord rec;
    rec.type = LogType::kRebuildProgress;
    rec.rebuild_progress = info;
    const Lsn lsn = log->AppendSystem(&rec);
    info_ = info.done ? RebuildProgressInfo() : info;
    return lsn;
  }

  // Reads the log tail (a checkpoint's redo-scan start) and the entry as
  // one cut. *info is inactive when no rebuild is pending.
  void Capture(const LogManager* log, Lsn* scan_start,
               RebuildProgressInfo* info) const {
    MutexLock l(mu_);
    *scan_start = log->tail_lsn();
    *info = info_;
  }

  // Installs the resume point recovery found (inactive: none). Nothing is
  // logged; the point is already durable.
  void Restore(const RebuildProgressInfo& info) {
    MutexLock l(mu_);
    info_ = info;
  }

  // The entry; inactive when no rebuild is pending.
  RebuildProgressInfo Latest() const {
    MutexLock l(mu_);
    return info_;
  }

 private:
  mutable Mutex mu_;
  RebuildProgressInfo info_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir

#endif  // OIR_CORE_REBUILD_JOURNAL_H_
