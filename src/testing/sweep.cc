#include "testing/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "obs/flight_recorder.h"
#include "testing/crash_point.h"
#include "testing/fault_disk.h"
#include "testing/oracle.h"
#include "util/random.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace oir::fault {
namespace {

// Fixed-width decimal key, sortable; rid == the numeric id.
std::string SweepKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

// One workload execution: the database, the fault disk wrapped around its
// media, the committed-operations model, and the transactions abandoned at
// the crash. Zombies stay alive until after CrashAndRecover — the
// transaction manager's active table holds raw pointers to them until
// ResetAfterCrash.
struct WorkloadRun {
  std::unique_ptr<Db> db;
  FaultInjectingDisk* fdisk = nullptr;
  std::set<uint64_t> committed;  // exact committed key set (rid == id)
  // Last disposition of every key the writer ever touched ("committed-
  // insert", "zombie-delete", ...), for the oracle's failure diagnostics:
  // an extra key whose history says "committed-delete" is a lost redo,
  // while "zombie-insert" is a missed undo. Writer-thread only.
  std::map<uint64_t, const char*> history;
  std::vector<std::unique_ptr<Transaction>> zombies;
  // Outcome of the concurrent online rebuild: an error status is expected
  // whenever the power cut hits it; `rebuild_result` is filled in
  // incrementally, so its transaction count is valid even on failure.
  Status rebuild_status;
  RebuildResult rebuild_result;
};

Status OpenDb(WorkloadRun* run) {
  DbOptions dopts;
  dopts.page_size = 2048;
  // Generous pool: the whole working set stays cached, so no eviction
  // write-back races the power cut (evictions post-cut would surface as
  // spurious errors on reader paths instead of the writer/rebuild paths
  // the sweep is probing).
  dopts.buffer_pool_pages = 4096;
  dopts.initial_disk_pages = 64;
  dopts.wrap_disk = [run](std::unique_ptr<Disk> base) {
    auto wrapped = std::make_unique<FaultInjectingDisk>(std::move(base));
    run->fdisk = wrapped.get();
    return wrapped;
  };
  OIR_RETURN_IF_ERROR(Db::Open(dopts, &run->db));
  // Post-cut a thread can strand logical locks (its transaction is
  // abandoned, never rolled back until recovery); a short wait timeout
  // turns any thread blocked behind one into a prompt Aborted instead of
  // the 10 s default.
  run->db->lock_manager()->set_wait_timeout(std::chrono::milliseconds(500));
  return Status::OK();
}

// Runs preload + (writer ∥ rebuild ∥ reader) to completion or crash. Never
// fails hard: operation errors either abort the transaction (no fault
// fired yet — e.g. a logical-lock timeout victim) or abandon it as a
// zombie (the crash has happened; rollback must be recovery's job).
void RunThreads(const SweepWorkloadOptions& opts, WorkloadRun* run) {
  Db* db = run->db.get();
  Index* index = db->index();
  auto& reg = CrashPointRegistry::Get();

  // --- preload (one transaction; in the model only if commit succeeds,
  // since an armed early crash point can fire right here) ---
  {
    auto txn = db->BeginTxn();
    bool failed = false;
    for (uint64_t i = 0; i < opts.preload_keys; ++i) {
      if (!index->Insert(txn.get(), SweepKey(i), i).ok()) {
        failed = true;
        break;
      }
    }
    if (!failed && db->Commit(txn.get()).ok()) {
      for (uint64_t i = 0; i < opts.preload_keys; ++i) {
        run->committed.insert(i);
        run->history[i] = "committed-insert(preload)";
      }
    } else {
      run->zombies.push_back(std::move(txn));
      for (uint64_t i = 0; i < opts.preload_keys; ++i) {
        run->history[i] = "zombie-insert(preload)";
      }
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Transaction>> writer_zombies, reader_zombies;

  std::thread writer([&]() {
    Random rng(opts.seed);
    uint64_t next_key = opts.preload_keys;
    for (uint32_t op = 0; op < opts.writer_ops; ++op) {
      if (reg.triggered()) break;
      if (opts.checkpoint_midway && op == opts.writer_ops / 2) {
        (void)db->Checkpoint();  // errors fine: fault may already have fired
      }

      auto txn = db->BeginTxn();
      // Staged effects, applied to the model only on successful commit.
      std::vector<uint64_t> ins, del;
      std::set<uint64_t> del_set;
      Status st;

      if (!run->committed.empty() && rng.OneIn(25)) {
        // Contiguous range delete (~30 keys): empties adjacent leaves to
        // provoke shrink top actions alongside the rebuild.
        auto it = run->committed.lower_bound(rng.Uniform(next_key));
        if (it == run->committed.end()) it = run->committed.begin();
        for (int i = 0; i < 30 && it != run->committed.end(); ++i, ++it) {
          del.push_back(*it);
        }
        for (uint64_t id : del) {
          st = index->Delete(txn.get(), SweepKey(id), id);
          if (!st.ok()) break;
        }
      } else {
        // Small mixed transaction: 1–4 inserts/deletes.
        uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(4));
        for (uint32_t i = 0; i < n && st.ok(); ++i) {
          bool do_delete = !run->committed.empty() && rng.OneIn(3);
          if (do_delete) {
            auto it = run->committed.lower_bound(rng.Uniform(next_key));
            while (it != run->committed.end() && del_set.count(*it)) ++it;
            if (it == run->committed.end()) do_delete = false;
            if (do_delete) {
              del_set.insert(*it);
              del.push_back(*it);
              st = index->Delete(txn.get(), SweepKey(*it), *it);
              continue;
            }
          }
          uint64_t id = next_key++;
          ins.push_back(id);
          st = index->Insert(txn.get(), SweepKey(id), id);
        }
      }

      auto note = [&](const char* ins_disp, const char* del_disp) {
        for (uint64_t id : ins) run->history[id] = ins_disp;
        for (uint64_t id : del) run->history[id] = del_disp;
      };
      if (!st.ok()) {
        if (reg.triggered()) {
          note("zombie-insert(op-failed)", "zombie-delete(op-failed)");
          writer_zombies.push_back(std::move(txn));
          break;
        }
        // Lock-timeout victim (or similar): roll back and move on.
        if (!db->Abort(txn.get()).ok()) {
          note("zombie-insert(abort-failed)", "zombie-delete(abort-failed)");
          writer_zombies.push_back(std::move(txn));
        } else {
          note("aborted-insert", "aborted-delete");
        }
        continue;
      }

      if (rng.OneIn(8)) {
        // Deliberate abort: exercises rollback racing the rebuild.
        if (!db->Abort(txn.get()).ok()) {
          note("zombie-insert(abort-failed)", "zombie-delete(abort-failed)");
          writer_zombies.push_back(std::move(txn));
        } else {
          note("aborted-insert", "aborted-delete");
        }
        continue;
      }

      if (db->Commit(txn.get()).ok()) {
        for (uint64_t id : ins) {
          run->committed.insert(id);
          run->history[id] = "committed-insert";
        }
        for (uint64_t id : del) {
          run->committed.erase(id);
          run->history[id] = "committed-delete";
        }
      } else {
        // A failed commit is ambiguous (record appended, flush failed):
        // only recovery may decide it. Abandon.
        note("zombie-insert(commit-failed)", "zombie-delete(commit-failed)");
        writer_zombies.push_back(std::move(txn));
        if (reg.triggered()) break;
      }
    }
  });

  std::thread rebuilder([&]() {
    RebuildOptions r;
    r.ntasize = opts.rebuild_ntasize;
    r.xactsize = opts.rebuild_xactsize;
    r.io_pages = 2;
    r.max_foreground_degradation_pct = opts.rebuild_throttle_pct;
    // Error status expected whenever the fault fires mid-rebuild; the
    // rebuild transaction becomes a loser for recovery to clean up, and
    // oracle 4 checks the durable resume point it left behind.
    run->rebuild_status = index->RebuildOnline(r, &run->rebuild_result);
  });

  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      auto txn = db->BeginTxn();
      auto cur = index->NewCursor(txn.get());
      Status s = cur->SeekToFirst();
      while (s.ok() && cur->Valid()) s = cur->Next();
      cur.reset();
      if (!db->Commit(txn.get()).ok()) {
        reader_zombies.push_back(std::move(txn));
      }
    }
  });

  writer.join();
  rebuilder.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  for (auto& z : writer_zombies) run->zombies.push_back(std::move(z));
  for (auto& z : reader_zombies) run->zombies.push_back(std::move(z));
}

std::string ReproLine(const SweepWorkloadOptions& opts,
                      const std::string& point, uint64_t hit) {
  // Every knob that shapes the workload appears here; the sweep tests read
  // them all back from the environment, so the printed command replays the
  // failing iteration exactly.
  std::ostringstream os;
  os << "repro: OIR_TEST_SEED=" << opts.seed
     << " OIR_SWEEP_THROTTLE=" << opts.rebuild_throttle_pct
     << " OIR_CRASH_POINT=" << point << "#" << hit << " ./crash_sweep_test";
  return os.str();
}

// True when the log holds the rebuild's done record. It rides ahead of the
// commit of the rebuild's last transaction, so a concurrent commit's flush
// can make it durable while that commit itself dies in the crash. The
// rebuild is then complete: every top action is a nested top action that
// survives the rollback, and recovery correctly arms no resume point.
bool RebuildDoneIsDurable(const LogManager* log) {
  for (auto it = log->Scan(log->head_lsn()); it.Valid(); it.Next()) {
    if (it.record().type == LogType::kRebuildProgress &&
        it.record().rebuild_progress.done) {
      return true;
    }
  }
  return false;
}

Status Fail(const SweepWorkloadOptions& opts, const std::string& point,
            uint64_t hit, const std::string& why) {
  std::ostringstream os;
  os << "crash sweep failed at " << point << "#" << hit << " (seed "
     << opts.seed << "): " << why << "; " << ReproLine(opts, point, hit);
  // Pair the repro string with a diagnostic bundle: stats, trace ring,
  // wait profile and crash-point counts as they looked at the failure.
  std::string bundle;
  if (obs::FlightRecorder::Get().DumpNow("sweep_failure:" + point, &bundle)) {
    os << "; flight record: " << bundle;
  }
  return Status::Corruption(os.str());
}

// Exact-state oracle: a full scan of `run.db` equals the committed model.
// On mismatch the symmetric difference is reported, each key annotated
// with its workload disposition — an extra key last seen as
// "committed-delete" is a lost redo; one last seen as "zombie-insert" is a
// missed undo.
Status ExactStateOracle(const SweepWorkloadOptions& opts,
                        const std::string& point, uint64_t hit,
                        const WorkloadRun& run, const char* when) {
  Db* db = run.db.get();
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  std::set<uint64_t> scanned;
  bool malformed = false;
  Status s = cur->SeekToFirst();
  while (s.ok() && cur->Valid()) {
    uint64_t rid = cur->rid();
    if (cur->user_key().ToString() != SweepKey(rid)) malformed = true;
    scanned.insert(rid);
    s = cur->Next();
  }
  if (!s.ok()) {
    return Fail(opts, point, hit, std::string(when) + " scan: " + s.ToString());
  }
  if (malformed || scanned != run.committed) {
    auto disposition = [&run](uint64_t id) -> std::string {
      auto it = run.history.find(id);
      return it == run.history.end() ? "never-touched" : it->second;
    };
    std::ostringstream why;
    why << when << " tree != committed model (" << scanned.size()
        << " scanned vs " << run.committed.size() << " committed)";
    if (malformed) why << "; key/rid mismatch seen";
    int listed = 0;
    for (uint64_t id : scanned) {
      if (run.committed.count(id)) continue;
      why << "; extra " << id << " [" << disposition(id) << "]";
      if (++listed >= 8) break;
    }
    for (uint64_t id : run.committed) {
      if (scanned.count(id)) continue;
      why << "; missing " << id << " [" << disposition(id) << "]";
      if (++listed >= 16) break;
    }
    return Fail(opts, point, hit, why.str());
  }
  cur.reset();
  s = db->Commit(txn.get());
  if (!s.ok()) {
    return Fail(opts, point, hit,
                std::string(when) + " scan txn commit: " + s.ToString());
  }
  return Status::OK();
}

}  // namespace

Status EnumerateCrashPoints(
    const SweepWorkloadOptions& opts,
    std::vector<std::pair<std::string, uint64_t>>* points) {
  WorkloadRun run;
  OIR_RETURN_IF_ERROR(OpenDb(&run));
  auto& reg = CrashPointRegistry::Get();
  reg.Disarm();
  reg.ResetCounts();
  CrashPointRegistry::SetEnabled(true);
  RunThreads(opts, &run);
  CrashPointRegistry::SetEnabled(false);
  *points = reg.Snapshot();
  return Status::OK();
}

Status RunCrashIteration(const SweepWorkloadOptions& opts,
                         const std::string& point, uint64_t hit,
                         CrashIterationResult* result) {
  *result = CrashIterationResult();
  WorkloadRun run;
  OIR_RETURN_IF_ERROR(OpenDb(&run));

  LogManager* log = run.db->log_manager();
  FaultInjectingDisk* fdisk = run.fdisk;
  auto& reg = CrashPointRegistry::Get();
  reg.ResetCounts();
  // Power-cut handler: may run under component mutexes, so it only flips
  // lock-free flags. From this instant every log flush and disk write
  // fails; in-memory state keeps mutating but none of it becomes durable.
  reg.Arm(point, hit, [log, fdisk]() {
    log->SetFailFlushes(true);
    fdisk->CutPower();
  });
  CrashPointRegistry::SetEnabled(true);
  RunThreads(opts, &run);
  CrashPointRegistry::SetEnabled(false);
  result->triggered = reg.triggered();
  reg.Disarm();

  // Power back on; reboot. The crash line is drawn BEFORE the fail-flush
  // flag clears: SimulateCrash drains the async log pipeline while the
  // flag is still set, so a physically in-flight segment completing in
  // this window cannot advance durability past the power cut (its commits
  // were never acked and must not be resurrected by recovery).
  log->SimulateCrash();
  fdisk->Restore();
  log->SetFailFlushes(false);
  Status s = run.db->CrashAndRecover(&result->recovery);
  run.zombies.clear();  // active-txn table was reset; safe to free
  if (!s.ok()) {
    return Fail(opts, point, hit, "recovery: " + s.ToString());
  }

  Db* db = run.db.get();
  result->committed_keys = run.committed.size();

  // Oracle 1: structural invariants.
  s = CheckInvariants(db->tree(), db->space_manager(), db->buffer_manager());
  if (!s.ok()) {
    return Fail(opts, point, hit, "invariants: " + s.ToString());
  }

  // Oracle 2: the recovered tree holds exactly the committed operations
  // (re-checked by oracle 4 after a resumed rebuild, hence the helper).
  OIR_RETURN_IF_ERROR(
      ExactStateOracle(opts, point, hit, run, "post-recovery"));

  // Oracle 3: the database is live — it accepts new committed work.
  {
    auto txn = db->BeginTxn();
    const uint64_t probe = 999999999999ull;  // outside the workload keyspace
    s = db->index()->Insert(txn.get(), SweepKey(probe), probe);
    if (s.ok()) s = db->index()->Delete(txn.get(), SweepKey(probe), probe);
    if (s.ok()) s = db->Commit(txn.get());
    if (!s.ok()) {
      return Fail(opts, point, hit, "probe transaction: " + s.ToString());
    }
  }

  // Oracle 4: resume correctness. A completed rebuild's done record is
  // flushed before RebuildOnline returns OK, so it must leave nothing
  // pending; a crashed one with committed work must be re-armed from a
  // durable cursor — never from zero — and resuming it must converge to
  // the same committed state.
  result->rebuild_crashed = !run.rebuild_status.ok();
  result->rebuild_committed_txns = run.rebuild_result.transactions;
  if (!result->rebuild_crashed && db->has_pending_rebuild()) {
    return Fail(opts, point, hit,
                "completed rebuild left a pending resume state");
  }
  if (result->rebuild_crashed && result->triggered &&
      run.rebuild_result.transactions > 0 && !db->has_pending_rebuild() &&
      !RebuildDoneIsDurable(db->log_manager())) {
    std::ostringstream why;
    why << "crashed rebuild had " << run.rebuild_result.transactions
        << " committed transactions but recovery armed no resume point — "
           "a restart would redo everything from zero";
    return Fail(opts, point, hit, why.str());
  }
  if (db->has_pending_rebuild()) {
    const RebuildProgressInfo before = db->pending_rebuild();
    // Each progress record rides ahead of its transaction's commit record
    // in the WAL, so the flush that committed transaction N also made
    // record N durable: the durable resume point can never trail the
    // committed count. (It may lead it — a record whose own commit died
    // can still reach disk via a concurrent commit's prefix flush, and its
    // NTA-protected copy work survives with it.)
    if (result->triggered &&
        before.transactions < run.rebuild_result.transactions) {
      std::ostringstream why;
      why << "durable resume point lost work: progress record holds "
          << before.transactions << " transactions but the rebuild committed "
          << run.rebuild_result.transactions;
      return Fail(opts, point, hit, why.str());
    }
    if (before.transactions > 0 &&
        (!before.has_cursor || before.cursor.empty())) {
      return Fail(opts, point, hit,
                  "resume point with committed transactions carries no "
                  "cursor — a resume would restart the copy from zero");
    }
    RebuildOptions r;
    r.ntasize = opts.rebuild_ntasize;
    r.xactsize = opts.rebuild_xactsize;
    r.io_pages = 2;
    r.max_foreground_degradation_pct = opts.rebuild_throttle_pct;
    RebuildResult res;
    s = db->ResumeRebuild(r, &res);
    if (!s.ok()) {
      return Fail(opts, point, hit, "resume rebuild: " + s.ToString());
    }
    if (!res.resumed) {
      return Fail(opts, point, hit,
                  "resumed rebuild did not report itself as resumed");
    }
    result->rebuild_resumed = true;
    result->resumed_from_cursor = before.has_cursor && !before.cursor.empty();
    s = CheckInvariants(db->tree(), db->space_manager(),
                        db->buffer_manager());
    if (!s.ok()) {
      return Fail(opts, point, hit, "post-resume invariants: " + s.ToString());
    }
    OIR_RETURN_IF_ERROR(
        ExactStateOracle(opts, point, hit, run, "post-resume"));
  }

  return Status::OK();
}

}  // namespace oir::fault
