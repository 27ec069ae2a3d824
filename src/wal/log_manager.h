#ifndef OIR_WAL_LOG_MANAGER_H_
#define OIR_WAL_LOG_MANAGER_H_

// Append-only write-ahead log. LSNs are byte offsets of records within the
// log stream. The log is kept in memory with an explicit durability
// boundary (`durable_lsn`): FlushTo() advances it, and SimulateCrash()
// discards everything beyond it — modeling the durability contract of a
// real log device for crash-recovery testing without an actual reboot.
//
// Record framing: [len:4][masked crc32c:4][payload]. A failed CRC or a
// truncated frame marks the end of the recoverable log (torn tail).
//
// Durable path (segment pipeline, the only one): FlushTo(lsn) returns once
// the record at `lsn` is durable. The log tail is carved into bounded
// segments, and every segment goes through the same three steps: seal
// (copy [submitted_lsn, end) out of the buffer under the mutex), submit,
// and complete. durable_lsn advances only when the *front* of the
// in-flight queue completes, so it is always a contiguous stable prefix.
//
//   * File-backed logs (Open): committers enqueue their target LSN and
//     block on a condition variable. A dedicated sealer thread seals and
//     hands each segment to a PwriteLogWriter (pwrite + fdatasync worker
//     pool, async_io.h) without doing I/O itself, and keeps sealing: up to
//     `inflight_segments` segments overlap their writes and syncs. Waiters
//     are woken on completion, not on submission.
//   * In-memory logs: there is no device, so the committing thread runs the
//     same seal/complete steps inline inside FlushTo. No thread, no I/O,
//     and the same counters and crash points as the file path.

#include <atomic>
#include <deque>
#include <string>
#include <thread>

#include "storage/async_io.h"
#include "storage/buffer_manager.h"  // for LogFlusher
#include "sync/mutex.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace oir {

// Log volume appended on someone's behalf: records and their framed bytes.
struct LogAccount {
  uint64_t records = 0;
  uint64_t bytes = 0;

  LogAccount& operator+=(const LogAccount& o) {
    records += o.records;
    bytes += o.bytes;
    return *this;
  }
};

// Per-transaction logging context: identifies the owner and carries the
// prevLSN chain. Handed out by Transaction; defined here so lower layers
// (space manager, B+-tree) can log without depending on the txn module.
// Only the owning thread writes last_lsn and begin_lsn; Append stores them
// atomically because Transaction's accessors read them from other threads.
struct TxnContext {
  TxnId txn_id = kInvalidTxnId;
  Lsn last_lsn = kInvalidLsn;
  // LSN of the transaction's begin record. Logging is lazy: the begin
  // record is appended immediately before the transaction's first real
  // record, so a read-only transaction writes no log at all (and its
  // commit needs no flush).
  Lsn begin_lsn = kInvalidLsn;
  // Everything Append logged for this transaction, its begin record
  // included. Owner-thread-only: nothing reads it from another thread.
  LogAccount logged = {};
};

// Durable-path tuning. Fixed at construction/Open.
struct WalOptions {
  // Maximum bytes per sealed segment. Smaller segments cut commit-ack
  // latency; larger ones amortize the per-sync cost.
  uint32_t segment_bytes = 256 * 1024;

  // Maximum sealed-but-not-yet-durable segments in flight at the writer.
  uint32_t inflight_segments = 4;

  // Group-commit micro-batch window in microseconds (file-backed logs):
  // once a commit demands a flush, the sealer holds the seal open this
  // long so concurrently arriving commits join the same segment — k
  // device rounds become one at the cost of one window of added ack
  // latency. 0 seals immediately on demand.
  uint32_t group_window_us = 100;
};

class LogManager : public LogFlusher {
 public:
  // In-memory log (tests, benchmarks; crash simulation via SimulateCrash).
  explicit LogManager(const WalOptions& wal = WalOptions());
  ~LogManager() override;

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // File-backed log: records become durable in `path` when flushed, and a
  // sidecar `path.master` holds the master checkpoint pointer. Open reads
  // any existing content (surviving a real process restart); pass
  // truncate=true to start fresh. Fails if the segment writer cannot open
  // the file.
  static Status Open(const std::string& path, bool truncate,
                     std::unique_ptr<LogManager>* out,
                     const WalOptions& wal = WalOptions());

  // Serializes `rec`, chaining it to ctx->last_lsn, and advances
  // ctx->last_lsn to the new record's LSN (also stored in rec->lsn).
  // Charges the record (and a lazy begin record) to ctx->logged.
  Lsn Append(LogRecord* rec, TxnContext* ctx);

  // Appends a record not belonging to any transaction chain, charged to
  // `account` when one is given.
  Lsn AppendSystem(LogRecord* rec, LogAccount* account = nullptr);

  // Durability. FlushTo returns once the record at `lsn` is durable: on a
  // file log the calling thread rides on a segment completion, on an
  // in-memory log it seals and completes the segments itself.
  Status FlushTo(Lsn lsn) override;
  Status FlushAll();
  Lsn durable_lsn() const;

  // Effective durable-path configuration.
  uint32_t segment_bytes() const { return wal_opts_.segment_bytes; }
  uint32_t inflight_segments() const { return wal_opts_.inflight_segments; }
  const char* backend_name() const { return writer_ ? "portable" : "mem"; }
  const char* sync_mode_name() const { return "fdatasync"; }

  // LSN one past the last appended record (exclusive end of log).
  Lsn tail_lsn() const;

  // LSN of the first readable record (advances when the log is trimmed).
  Lsn head_lsn() const { return trim_lsn(); }

  // Random access read of the record at `lsn`. If `next_lsn` is non-null it
  // receives the LSN of the following record.
  Status ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn = nullptr) const;

  // Forward scan. Stops cleanly at the torn tail.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const LogRecord& record() const { return rec_; }
    Lsn lsn() const { return lsn_; }
    void Next();

   private:
    friend class LogManager;
    Iterator(const LogManager* log, Lsn start, Lsn limit);
    void ReadCurrent();

    const LogManager* log_;
    Lsn lsn_;
    Lsn next_lsn_;
    Lsn limit_;
    bool valid_;
    LogRecord rec_;
  };

  // Iterates records in [start, limit). limit = kInvalidLsn means tail.
  Iterator Scan(Lsn start, Lsn limit = kInvalidLsn) const;

  // ---- checkpoints ----
  // Records the location of the most recent complete checkpoint (the
  // "master record"). Survives a crash only if `lsn` is durable by then.
  void SetMasterCheckpoint(Lsn lsn);
  Lsn master_checkpoint() const;

  // Reclaims the log before `lsn` (exclusive): records below it become
  // unreadable and their memory is released. The caller must ensure no
  // checkpoint or active transaction needs them (see Db::Checkpoint).
  // Quiesces the pipeline first: the file offsets of every LSN change.
  void DiscardPrefix(Lsn lsn);

  // First readable LSN (head of the retained log).
  Lsn trim_lsn() const;

  // Crash simulation: discard all records beyond the durability boundary.
  // Drains in-flight segments first (their completions land before the
  // "power-off" line or not at all — see SetFailFlushes), then truncates
  // both the buffer and, for file-backed logs, the file, so a subsequent
  // Open cannot resurrect post-crash bytes.
  void SimulateCrash();

  // Fault injection: while set, every flush that would need to advance the
  // durability boundary fails with IOError (records already durable still
  // report success), and no in-flight segment completion may advance it
  // either. Lock-free — crash-point handlers flip it from inside arbitrary
  // component critical sections to model the log device dying at the
  // instant of the crash. Cleared by the test harness before recovery
  // (after SimulateCrash has drained the pipeline).
  void SetFailFlushes(bool on) {
    fail_flushes_.store(on, std::memory_order_relaxed);
  }
  bool fail_flushes() const {
    return fail_flushes_.load(std::memory_order_relaxed);
  }

  // Total bytes appended (the Table 1 "log space" metric).
  uint64_t TotalBytesAppended() const;

 private:
  static constexpr Lsn kHeaderSize = 16;  // so that the first LSN != 0
  static constexpr size_t kInitialCapacity = size_t{64} << 20;  // bytes
  static constexpr Lsn kFileHeaderSize = 24;

  // Appends a pre-encoded payload: takes mu_ only for the buffer append
  // (serialization and CRC are done by the caller, outside the lock).
  // Appends one framed record and charges it to `account` (may be null).
  Lsn AppendEncoded(LogRecord* rec, const std::string& payload,
                    LogAccount* account);
  // Rewrites the sidecar master record.
  Status PersistMasterLocked() OIR_REQUIRES(mu_);

  // Waiter protocol (file logs). The sealer thread sleeps on flush_cv_
  // until a waiter raises requested_lsn_ past submitted_lsn_, seals, and
  // completions wake every waiter via flushed_cv_. Errors are published
  // through an epoch counter so only the waiters of the failed round (and
  // later) see them.
  void SealerLoop();  // copy under mu_, I/O at the writer
  Status FlushToLocked(Lsn lsn) OIR_REQUIRES(mu_);

  // Pipeline internals.
  struct Segment {
    uint64_t seq = 0;
    Lsn begin = 0;
    Lsn end = 0;       // exclusive; durable_lsn_ advances here on success
    bool done = false;
    Status status;
  };
  // Seals [submitted_lsn_, tail) — at most segment_bytes of it — into one
  // segment and submits it to the writer, or, for an in-memory log,
  // completes it inline. IOError (nothing sealed) while fail_flushes_ is
  // set.
  Status SealLocked() OIR_REQUIRES(mu_);
  // PwriteLogWriter completion callback (writer thread).
  void OnSegmentComplete(uint64_t seq, Status s);
  // Pops completed segments off the front of inflight_, advancing
  // durable_lsn_ (unless fail_flushes_ is set) and publishing errors.
  void CompleteSegmentsLocked() OIR_REQUIRES(mu_);
  // Stops the sealer from submitting and waits until nothing is in flight
  // (the writer drained and every completion was processed). Caller must
  // not hold mu_.
  void QuiescePipeline();
  // Record an acked commit for the exact group-size accounting.
  void AckLocked() OIR_REQUIRES(mu_);
  // Bytes in the file for LSN x (file layout: 24-byte header + body).
  Lsn FileOffsetLocked(Lsn lsn) const OIR_REQUIRES(mu_) {
    return kFileHeaderSize + (lsn - trim_base_);
  }

  int fd_ = -1;                  // file-backed mode when >= 0
  std::string path_;
  WalOptions wal_opts_;          // sanitized
  std::unique_ptr<PwriteLogWriter> writer_;  // file logs only

  std::atomic<bool> fail_flushes_{false};

  mutable Mutex mu_;
  bool stop_sealer_ OIR_GUARDED_BY(mu_) = false;
  // Highest tail any waiter needs.
  Lsn requested_lsn_ OIR_GUARDED_BY(mu_) = 0;
  // Bumped on each failed flush round.
  uint64_t flush_err_seq_ OIR_GUARDED_BY(mu_) = 0;
  Status last_flush_error_ OIR_GUARDED_BY(mu_);
  CondVar flush_cv_;    // wakes the sealer
  CondVar flushed_cv_;  // wakes FlushTo waiters
  // Started by Open for file logs, joined (unlocked) by the destructor
  // after stop_sealer_ is set — never touched concurrently, so unguarded.
  std::thread sealer_;
  // Log bytes from trim_lsn_ on, preceded by header padding; buf_[i] holds
  // the byte at LSN trim_base_ + i.
  std::string buf_ OIR_GUARDED_BY(mu_);
  Lsn trim_base_ OIR_GUARDED_BY(mu_) = 0;  // LSN of buf_[0]
  // Exclusive: bytes [0, durable_lsn_) are durable.
  Lsn durable_lsn_ OIR_GUARDED_BY(mu_);
  Lsn master_ckpt_ OIR_GUARDED_BY(mu_) = kInvalidLsn;
  // Value that survives a crash.
  Lsn durable_master_ckpt_ OIR_GUARDED_BY(mu_) = kInvalidLsn;

  // ---- pipeline state ----
  // Boundary up to which segments have been sealed (>= durable_lsn_).
  Lsn submitted_lsn_ OIR_GUARDED_BY(mu_) = 0;
  std::deque<Segment> inflight_ OIR_GUARDED_BY(mu_);
  uint64_t next_seg_seq_ OIR_GUARDED_BY(mu_) = 1;
  // Sealing suppressed while a quiesce (crash sim, trim, shutdown) runs.
  bool quiescing_ OIR_GUARDED_BY(mu_) = false;
  // Exact group-size accounting: durable_adv_seq_ bumps on every durable
  // advance; commits acked under the same seq form one group.
  uint64_t durable_adv_seq_ OIR_GUARDED_BY(mu_) = 0;
  uint64_t last_group_seq_ OIR_GUARDED_BY(mu_) = 0;
};

}  // namespace oir

#endif  // OIR_WAL_LOG_MANAGER_H_
