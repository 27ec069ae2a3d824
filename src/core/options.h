#ifndef OIR_CORE_OPTIONS_H_
#define OIR_CORE_OPTIONS_H_

// User-facing option structs.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/progress.h"
#include "storage/page.h"

namespace oir {

class Disk;

struct DbOptions {
  // Page size in bytes. The paper's experiments use 2 KB (Section 6.4).
  uint32_t page_size = kDefaultPageSize;

  // Buffer pool capacity in pages.
  size_t buffer_pool_pages = 4096;

  // Buffer pool partitions (power of two). 0 picks automatically from the
  // pool size (one shard per 16 frames, at most 8). 1 restores the single
  // global-mutex pool for ablation.
  size_t buffer_pool_shards = 0;

  // The WAL's durable path is one segment pipeline (wal/log_manager.h): the
  // log tail is carved into segments that are sealed, written with pwrite +
  // fdatasync (storage/async_io.h) and completed in order, and committers
  // are acked on completion. For a file-backed log a sealer thread seals
  // and up to wal_inflight_segments write+sync operations overlap; an
  // in-memory log seals and completes inline on the committing thread. The
  // three values below tune it.

  // Maximum bytes per sealed log segment. Smaller segments reduce
  // commit-ack latency; larger ones amortize the per-sync cost.
  uint32_t wal_segment_bytes = 256 * 1024;

  // Maximum sealed-but-not-yet-durable segments in flight.
  uint32_t wal_inflight_segments = 4;

  // Group-commit micro-batch window (microseconds): after a commit
  // demands a flush the sealer keeps the segment open this long so
  // concurrent commits share one device round. 0 seals immediately.
  uint32_t wal_group_window_us = 100;

  // Back the database with a POSIX file instead of memory.
  bool use_file_disk = false;
  std::string file_path;

  // Persist the write-ahead log to this file (plus a `.master` sidecar for
  // the checkpoint pointer). Required for Db::OpenExisting. Empty = the
  // log lives in memory (crash testing via Db::CrashAndRecover).
  std::string log_path;

  // Initial device size in pages.
  uint32_t initial_disk_pages = 64;

  // Test hook: wraps the freshly created disk before any component sees it.
  // Fault-injection tests install a FaultInjectingDisk decorator here; the
  // returned disk is what the buffer pool and space manager talk to.
  std::function<std::unique_ptr<Disk>(std::unique_ptr<Disk>)> wrap_disk;

  // Live-stats publisher: when non-empty, a background thread writes
  // DumpStatsJson() to this path (atomic temp+rename) every
  // stats_publish_interval_ms, and feeds the flight recorder's
  // recent-stats ring. `oir_top` polls the file. The OIR_STATS_PUBLISH
  // and OIR_STATS_INTERVAL_MS environment variables override the path
  // and cadence, so any existing binary can publish without a flag
  // change.
  std::string stats_publish_path;
  uint32_t stats_publish_interval_ms = 500;
};

// Options of the online index rebuild (Section 3). Resumability has no
// option: every rebuild logs a kRebuildProgress record (copy cursor plus
// carried counters) at start, ahead of each transaction's commit record and
// at completion, and Db::ResumeRebuild continues a crashed rebuild from the
// last durable one (DESIGN.md §12).
struct RebuildOptions {
  // Leaf pages rebuilt per multipage rebuild top action. The paper chose 32
  // based on its performance study (Sections 3, 6.4).
  uint32_t ntasize = 32;

  // Leaf pages rebuilt per transaction. At the end of each transaction the
  // new pages are forced to disk and the old pages become reusable; the
  // paper recommends "a few hundred pages" (Section 3).
  uint32_t xactsize = 256;

  // Percentage fill of new leaf pages, leaving head room for future
  // inserts (Section 4.1). 100 packs pages completely.
  uint32_t fillfactor = 100;

  // Pages per forced-write I/O — emulates configuring large buffers for
  // the rebuild (Section 6.3: 16 KB buffers over 2 KB pages => 8). Must
  // not exceed the buffer pool size (the run buffer is io_pages pages).
  uint32_t io_pages = 8;

  // Read-ahead twin of the forced write (Section 6.3 symmetry): the copy
  // phase prefetches each top action's physically contiguous source-page
  // runs with multi-page transfers of up to io_pages pages. Exposed for
  // ablation.
  bool prefetch = true;

  // Section 5.5 enhancement: fill level-1 pages by moving inserts into the
  // left sibling during propagation, avoiding a separate level-1 pass.
  // Exposed for ablation.
  bool reorganize_level1 = true;

  // Ablation of the minimal-logging design: when true, key contents are
  // logged (batch inserts) instead of the position-only keycopy record,
  // removing the need for the flush-before-free ordering (Section 3).
  bool log_full_keys = false;

  // Section 6.2 enhancement: set SPLIT bits (writers blocked, readers
  // allowed) on the pages being rebuilt during the copy phase, and flip
  // them to SHRINK bits only once the copying is done and the old pages
  // are about to be unlinked. PP always gets a SHRINK bit (it receives
  // rows). Default on; exposed for ablation.
  bool readers_during_copy = true;

  // Invoked on the rebuild thread after every top action and transaction
  // commit with a snapshot of the rebuild's progress. Must not call back
  // into the database. Leave empty for no callbacks; other threads can also
  // poll OnlineRebuilder::progress() directly.
  std::function<void(const obs::RebuildProgress&)> on_progress;

  // ---- admission control ----
  // Pace the rebuild so foreground operations degrade no more than this
  // percentage versus their latency baseline. Between top actions the
  // throttle samples live signals — foreground mean latency and lock-wait
  // share from the wait profiler (when enabled), lock-watchdog fires and
  // buffer-pool eviction pressure from the global counters — and inserts
  // an attributed (WaitState::kThrottled) pause that grows
  // multiplicatively while foreground is over budget and decays
  // additively once it recovers. 0 disables pacing.
  uint32_t max_foreground_degradation_pct = 0;

  // Foreground mean-latency baseline in nanoseconds for the degradation
  // target. 0 captures it automatically from the wait profiler's read/
  // write aggregates at rebuild start (requires WaitProfiler enabled and
  // prior foreground traffic; otherwise only the counter-based signals
  // pace the rebuild).
  uint64_t throttle_baseline_ns = 0;
};

struct RebuildResult {
  uint64_t old_leaf_pages = 0;   // leaf pages consumed (deallocated)
  uint64_t new_leaf_pages = 0;   // leaf pages produced
  uint64_t keys_moved = 0;
  uint64_t top_actions = 0;
  uint64_t transactions = 0;
  uint64_t log_bytes = 0;        // log volume attributable to the rebuild
  uint64_t log_records = 0;
  uint64_t cpu_ns = 0;           // thread CPU time of the rebuild
  uint64_t wall_ns = 0;
  uint64_t level1_visits = 0;
  uint64_t io_ops = 0;

  // Resumability + admission control (this run only; a resumed run's
  // counters above do not include the crashed run's work).
  bool resumed = false;              // run started from a resume cursor
  std::string resume_cursor;         // the cursor it started from
  uint64_t progress_records = 0;     // kRebuildProgress records appended
  uint64_t throttle_pauses = 0;      // admission-control pauses taken
  uint64_t throttle_pause_us = 0;    // total attributed pause time

  // JSON object with every field above (stats-export path).
  std::string ToJson() const;
};

}  // namespace oir

#endif  // OIR_CORE_OPTIONS_H_
