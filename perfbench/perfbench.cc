// Benchmark of record: foreground OLTP with and without an online rebuild,
// durable commit and restart. Drives the engine through its public API only
// (Db, Index, Cursor, RebuildOptions::on_progress, GlobalCounters,
// Db::GetStats) and checks the index after setup, after every rebuild,
// after every restart and at the end.
//
//   oir_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --dir DIR [--trace-out FILE] [--git-sha SHA]
//
// Workloads:
//   oltp_steady         1M live 12-byte keys, half-full 2 KB leaves, in-memory
//                       disk and WAL, 3 closed-loop clients, no rebuild.
//   rebuild_under_oltp  the same, plus online rebuilds back to back.
//   durable_restart     file-backed disk and WAL, 400k live keys in a
//                       4096-page pool; 3 clients run a fixed number of
//                       Zipfian single-key writes on keys each alone owns;
//                       then crash -> recovery -> first commit cycles; then
//                       one client-free online rebuild on a cold pool.
//
// Each run sets the database up several times (setup_s is the median);
// oltp_steady and durable_restart time a round after each set-up (see
// Shape::rounds), rebuild_under_oltp one round after the last.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced 250 ms slices, times every call into an
// engine module in the traced ones, and reports the per-module metrics.
//
// Output, one item per line: "metric <name> <value> <unit> [note]",
// "stamp <json>", "check <point> ok|FAIL [reason]", and last
// "result {"correct":..,"attempted":..,"failed":..}".

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "harness.h"
#include "obs/waitstate.h"
#include "testing/oracle.h"
#include "util/counters.h"
#include "util/random.h"

#ifndef OIR_PERFBENCH_BUILD_TYPE
#define OIR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace oir::perfbench {

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kLookup: return "Index::Lookup";
    case SpanKind::kInsert: return "Index::Insert";
    case SpanKind::kDelete: return "Index::Delete";
    case SpanKind::kScan: return "scan";
    case SpanKind::kSeek: return "Cursor::Seek";
    case SpanKind::kNext: return "Cursor::Next";
    case SpanKind::kCommit: return "Db::Commit";
    case SpanKind::kAbort: return "Db::Abort";
    case SpanKind::kCheckpoint: return "Db::Checkpoint";
    case SpanKind::kCrashAndRecover: return "Db::CrashAndRecover";
    case SpanKind::kRebuild: return "Index::RebuildOnline";
    case SpanKind::kTopAction: return "rebuild.top_action";
    case SpanKind::kRebuildTxnEnd: return "rebuild.txn_end";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace {

constexpr int kKeyBytes = 12;
constexpr int kClients = 3;
constexpr int kScanNexts = 50;
constexpr uint64_t kRowBytes = kKeyBytes + sizeof(RowId);
constexpr double kSliceSeconds = 0.25;  // traced/untraced alternation
constexpr size_t kSpansPerThread = 1 << 16;

// Status codes a client transaction can fail with, in Status::Code order.
constexpr int kNumCodes = 9;
const char* const kCodeNames[kNumCodes] = {
    "ok",      "not_found", "corruption", "invalid_argument", "io_error",
    "busy",    "aborted",   "no_space",   "not_supported"};

std::string KeyOf(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(id));
  return std::string(buf, kKeyBytes);
}

bool IdOf(const Slice& key, uint64_t* id) {
  if (key.size() != static_cast<size_t>(kKeyBytes)) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double MaxRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Pins the calling client thread to its own CPU, counting from the last
// one the process may use, so that clients do not migrate or share a CPU
// with each other; the first CPU is left to the controller and the
// engine's background threads. Migrations otherwise moved whole runs by
// more than 10%.
void PinClient(int client) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() <= 1) return;
  const int n = static_cast<int>(cpus.size());
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[((n - kClients + client) % n + n) % n], &one);
  // Best effort: an unpinned client still measures correctly.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// "median of N round(s): v1 v2 ..."
std::string RoundNote(const std::vector<double>& v) {
  std::string out = "median of " + std::to_string(v.size()) + " round(s):";
  for (double x : v) out += Fmt(" %.6g", x);
  return out;
}

// YCSB-style Zipfian ranks over [0, n), theta 0.99: rank 0 is hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0.0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }
  uint64_t Next(Random* rnd) const {
    const double u = static_cast<double>(rnd->Next() >> 11) * 0x1.0p-53;
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// ---- configuration ----

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        // scratch directory for database files
  std::string trace_out;  // where the traced run writes its spans
  std::string git_sha = "unknown";
};

struct Shape {
  bool durable = false;
  bool rebuild_under_load = false;
  uint64_t live_keys = 0;
  size_t pool_pages = 0;
  // Set-ups per run, each from scratch; setup_s is their median.
  int setups = 0;
  // Timed rounds, each on one of the last `rounds` set-ups, splitting the
  // run's seconds (or transaction count) evenly. Throughput and latency
  // percentiles are medians over rounds, so a burst of disk or CPU
  // contention from outside the process moves a minority of rounds, not
  // the result; durable_restart takes five because fdatasync on a shared
  // disk slows tenfold for ~20 s at a time. rebuild_under_oltp runs one
  // round: its lock-timeout stalls must show in whole-phase figures, never
  // be outvoted by a median.
  int rounds = 0;
};

Shape ShapeOf(const std::string& w) {
  Shape s;
  if (w == "oltp_steady" || w == "rebuild_under_oltp") {
    s.live_keys = 1000000;
    s.pool_pages = 1 << 15;  // holds the whole index
    s.rebuild_under_load = w == "rebuild_under_oltp";
    s.setups = 3;
    s.rounds = s.rebuild_under_load ? 1 : s.setups;
  } else if (w == "durable_restart") {
    s.durable = true;
    s.live_keys = 400000;
    s.pool_pages = DbOptions().buffer_pool_pages;  // the 4096-page default
    s.setups = 5;
    s.rounds = s.setups;
  }
  return s;
}

// ---- shared run state ----

// Expected content of the index: state[id] for every id in [0, 2*live).
enum : uint8_t { kAbsent = 0, kPresent = 1, kEither = 2 };

struct ClientStats {
  LatencyHistogram latency;  // untraced measured transactions, ns
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t failed_by_code[kNumCodes] = {};
  uint64_t committed_traced = 0;
  uint64_t committed_untraced = 0;
  uint64_t wrong_results = 0;  // live key missed by a lookup or a scan
  std::string first_wrong;

  void Merge(const ClientStats& o) {
    latency.Merge(o.latency);
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    for (int i = 0; i < kNumCodes; ++i) failed_by_code[i] += o.failed_by_code[i];
    committed_traced += o.committed_traced;
    committed_untraced += o.committed_untraced;
    wrong_results += o.wrong_results;
    if (first_wrong.empty()) first_wrong = o.first_wrong;
  }
  void Wrong(std::string what) {
    ++wrong_results;
    if (first_wrong.empty()) first_wrong = std::move(what);
  }
};

struct Shared {
  std::atomic<bool> stop{false};
  // Outcomes count from the start of the timed phase until the clients
  // stop; throughput and latency only inside the timed phase.
  std::atomic<bool> counting{false};
  std::atomic<bool> measuring{false};
  std::atomic<bool> trace_on{false};
  Gate gate;
};

struct RebuildRecord {
  Status status;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  RebuildResult result;
  obs::RebuildProgress last;  // final on_progress snapshot
};

struct RestartRecord {
  double restart_s = 0.0;        // CrashAndRecover start to first commit
  double crash_recover_s = 0.0;  // CrashAndRecover call alone
  double first_commit_ms = 0.0;  // first transaction after recovery
  RecoveryStats stats;
};

// Everything a workload measured, turned into metrics by Report().
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> checkpoint_s;
  ClientStats clients;            // all rounds
  std::vector<double> round_ops_per_s;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  double active_s = 0.0;          // timed phases, check pauses excluded
  double traced_s = 0.0;          // traced share of it (trace mode)
  CounterSnapshot phase;          // counters over the timed client phases
  CounterSnapshot after_setup;    // counters over the rounds, set-ups excluded
  std::vector<RebuildRecord> rebuilds;
  const RebuildRecord* client_free_rebuild = nullptr;
  std::vector<RestartRecord> restarts;
  uint64_t restart_failures = 0;
  TreeStats tree;
  StatsReport stats;
  std::vector<obs::WaitProfiler::OpBreakdown> waits;
};

// ---- correctness ----

// Structural invariants plus an exact comparison of the index's rows with
// `state` (null: every even id present, every odd id absent).
Status CheckIndex(Db* db, uint64_t id_space, const std::vector<uint8_t>* state,
                  TreeStats* stats) {
  OIR_RETURN_IF_ERROR(fault::CheckInvariants(
      db->tree(), db->space_manager(), db->buffer_manager(), stats));
  std::unique_ptr<Transaction> txn = db->BeginTxn();
  std::unique_ptr<Cursor> cur = db->index()->NewCursor(txn.get());
  Status s = cur->SeekToFirst();
  char msg[160] = "";
  for (uint64_t id = 0; s.ok() && id < id_space && msg[0] == '\0'; ++id) {
    const uint8_t want = state != nullptr ? (*state)[id]
                         : id % 2 == 0    ? uint8_t{kPresent}
                                          : uint8_t{kAbsent};
    uint64_t row = 0;
    const bool valid = cur->Valid();
    if (valid && (!IdOf(cur->user_key(), &row) || cur->rid() != row ||
                  row < id)) {
      std::snprintf(msg, sizeof(msg), "unexpected row rid %llu before id %llu",
                    static_cast<unsigned long long>(cur->rid()),
                    static_cast<unsigned long long>(id));
      break;
    }
    const bool have = valid && row == id;
    if (want == kPresent && !have) {
      std::snprintf(msg, sizeof(msg), "committed key %llu missing",
                    static_cast<unsigned long long>(id));
    } else if (want == kAbsent && have) {
      std::snprintf(msg, sizeof(msg), "uncommitted or deleted key %llu present",
                    static_cast<unsigned long long>(id));
    } else if (have) {
      s = cur->Next();
    }
  }
  if (s.ok() && msg[0] == '\0' && cur->Valid()) {
    std::snprintf(msg, sizeof(msg), "row beyond the key space (rid %llu)",
                  static_cast<unsigned long long>(cur->rid()));
  }
  cur.reset();
  Status c = db->Commit(txn.get());
  if (!s.ok()) return s;
  if (msg[0] != '\0') return Status::Corruption(msg);
  return c;
}

// ---- setup ----

DbOptions OptionsFor(const Config& cfg, const Shape& shape) {
  DbOptions o;
  o.buffer_pool_pages = shape.pool_pages;
  if (shape.durable) {
    o.use_file_disk = true;
    o.file_path = cfg.dir + "/index.db";
    o.log_path = cfg.dir + "/wal.log";
  }
  return o;
}

// Db::Open, then the paper's Table 1 index at ~50% leaf utilisation:
// sequential load of 2*live keys, then deletion of every odd one. Ends with
// a checkpoint.
Status OpenAndLoad(const DbOptions& opts, uint64_t live,
                   std::unique_ptr<Db>* out, double* checkpoint_s) {
  OIR_RETURN_IF_ERROR(Db::Open(opts, out));
  Db* db = out->get();
  const uint64_t total = 2 * live;
  std::unique_ptr<Transaction> txn = db->BeginTxn();
  for (uint64_t i = 0; i < total; ++i) {
    OIR_RETURN_IF_ERROR(db->index()->Insert(txn.get(), KeyOf(i), i));
    if (i % 4096 == 4095) {
      OIR_RETURN_IF_ERROR(db->Commit(txn.get()));
      txn = db->BeginTxn();
    }
  }
  for (uint64_t i = 1; i < total; i += 2) {
    OIR_RETURN_IF_ERROR(db->index()->Delete(txn.get(), KeyOf(i), i));
    if (i % 8192 == 8191) {
      OIR_RETURN_IF_ERROR(db->Commit(txn.get()));
      txn = db->BeginTxn();
    }
  }
  OIR_RETURN_IF_ERROR(db->Commit(txn.get()));
  const uint64_t t0 = NowNanos();
  OIR_RETURN_IF_ERROR(db->Checkpoint());
  *checkpoint_s = (NowNanos() - t0) / 1e9;
  return Status::OK();
}

// fsyncs every file in `dir`. The engine leaves data-file writes to the
// kernel's write-back, which would otherwise flush the set-up's dirty pages
// in the middle of the next set-up or of the timed phase, competing with
// the WAL's fdatasync on the same device.
Status SyncFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError("open " + e.path().string());
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) return Status::IOError("fsync " + e.path().string());
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  return Status::OK();
}

// Replaces *db with a freshly set-up database.
Status Setup(const Config& cfg, const Shape& shape, std::unique_ptr<Db>* db,
             Measured* m) {
  db->reset();
  // Hand the previous database's freed heap back to the OS, so max_rss_mb
  // reflects one database and not the set-up repetitions together.
  malloc_trim(0);
  double ckpt = 0.0;
  const uint64_t t0 = NowNanos();
  OIR_RETURN_IF_ERROR(
      OpenAndLoad(OptionsFor(cfg, shape), shape.live_keys, db, &ckpt));
  m->setup_s.push_back((NowNanos() - t0) / 1e9);
  m->checkpoint_s.push_back(ckpt);
  return shape.durable ? SyncFiles(cfg.dir) : Status::OK();
}

CounterSnapshot Sum(const CounterSnapshot& a, const CounterSnapshot& b) {
  CounterSnapshot r;
#define OIR_PERFBENCH_ADD(name) r.name = a.name + b.name;
  OIR_COUNTER_FIELDS(OIR_PERFBENCH_ADD)
#undef OIR_PERFBENCH_ADD
  return r;
}

// ---- client transactions ----

// Runs one transaction body, then commits it (or aborts it on the first
// non-OK status) and books the outcome. Returns the final status.
template <typename Body>
Status RunTxn(Db* db, Shared* sh, ClientStats* st, ThreadTrace* trace,
              Body&& body) {
  const bool traced = sh->trace_on.load(std::memory_order_relaxed);
  ThreadTrace* t = traced ? trace : nullptr;
  const uint64_t t0 = NowNanos();
  std::unique_ptr<Transaction> txn = db->BeginTxn();
  Status s;
  {
    SpanScope span(t, SpanKind::kTxn, txn->id());
    s = body(txn.get(), t);
    if (s.ok()) {
      SpanScope c(t, SpanKind::kCommit, txn->id());
      s = db->Commit(txn.get());
    }
    if (!s.ok()) {
      SpanScope a(t, SpanKind::kAbort, txn->id());
      // The failure being booked is the transaction's; a failing abort
      // leaves nothing more for this client to do with it.
      (void)db->Abort(txn.get());
    }
  }
  const uint64_t t1 = NowNanos();
  if (sh->counting.load(std::memory_order_relaxed)) {
    ++st->attempted;
    if (!s.ok()) {
      ++st->failed;
      ++st->failed_by_code[static_cast<int>(s.code())];
    }
  }
  if (s.ok() && sh->measuring.load(std::memory_order_relaxed)) {
    ++st->committed;
    if (traced) {
      ++st->committed_traced;
    } else {
      ++st->committed_untraced;
      st->latency.Add(t1 - t0);
    }
  }
  return s;
}

Status PointLookup(Db* db, Transaction* txn, ThreadTrace* t, uint64_t id,
                   ClientStats* st) {
  const std::string key = KeyOf(id);
  bool found = false;
  Status s;
  {
    SpanScope span(t, SpanKind::kLookup, txn->id());
    s = db->index()->Lookup(txn, key, id, &found);
  }
  if (s.ok() && !found) st->Wrong("lookup missed live key " + key);
  return s;
}

// Seek + 50 x Next from live key `id`. Every live (even) key in the range
// must come back, in order; odd keys are other clients' transient inserts.
Status RangeScan(Db* db, Transaction* txn, ThreadTrace* t, uint64_t id,
                 uint64_t id_space, ClientStats* st) {
  const std::string key = KeyOf(id);
  SpanScope span(t, SpanKind::kScan, txn->id());
  std::unique_ptr<Cursor> cur = db->index()->NewCursor(txn);
  Status s;
  {
    SpanScope seek(t, SpanKind::kSeek, txn->id());
    s = cur->Seek(key);
  }
  uint64_t expect = id;
  for (int i = 0; s.ok() && cur->Valid(); ++i) {
    uint64_t row = 0;
    if (!IdOf(cur->user_key(), &row) || cur->rid() != row) {
      st->Wrong("scan returned a malformed row");
      break;
    }
    if (row % 2 == 0) {
      if (row != expect) {
        st->Wrong("scan from " + key + " skipped live key " + KeyOf(expect));
        break;
      }
      expect += 2;
    }
    if (i == kScanNexts) break;
    SpanScope next(t, SpanKind::kNext, txn->id());
    s = cur->Next();
  }
  if (s.ok() && !cur->Valid() && expect < id_space) {
    st->Wrong("scan from " + key + " ended before live key " + KeyOf(expect));
  }
  return s;
}

// Insert an absent odd key, then delete it again.
Status InsertDelete(Db* db, Transaction* txn, ThreadTrace* t, uint64_t id) {
  const std::string key = KeyOf(id);
  Status s;
  {
    SpanScope span(t, SpanKind::kInsert, txn->id());
    s = db->index()->Insert(txn, key, id);
  }
  if (s.IsInvalidArgument()) return Status::OK();  // duplicate: expected
  if (!s.ok()) return s;
  SpanScope span(t, SpanKind::kDelete, txn->id());
  return db->index()->Delete(txn, key, id);
}

// Closed-loop OLTP client: 70% point lookup, 10% 50-row scan, 20%
// insert-then-delete of an absent odd key; uniform keys.
void OltpClient(Db* db, uint64_t live, int client, uint64_t seed, Shared* sh,
                ClientStats* st, ThreadTrace* trace) {
  PinClient(client);
  Random rnd(seed);
  while (!sh->stop.load(std::memory_order_relaxed)) {
    sh->gate.Park();
    const uint64_t pick = rnd.Uniform(100);
    const uint64_t slot = rnd.Uniform(live);
    (void)RunTxn(db, sh, st, trace, [&](Transaction* txn, ThreadTrace* t) {
      if (pick < 70) return PointLookup(db, txn, t, 2 * slot, st);
      if (pick < 80) return RangeScan(db, txn, t, 2 * slot, 2 * live, st);
      return InsertDelete(db, txn, t, 2 * slot + 1);
    });
  }
}

// Toggles `id` in a single-key write transaction; on commit, flips the
// expected state (an unknown commit outcome makes the key kEither).
Status ToggleKey(Db* db, Shared* sh, ClientStats* st, ThreadTrace* trace,
                 std::vector<uint8_t>* state, uint64_t id) {
  const bool present = (*state)[id] == kPresent;
  bool reached_commit = false;
  Status s = RunTxn(db, sh, st, trace, [&](Transaction* txn, ThreadTrace* t) {
    const std::string key = KeyOf(id);
    Status r;
    {
      SpanScope span(t, present ? SpanKind::kDelete : SpanKind::kInsert,
                     txn->id());
      r = present ? db->index()->Delete(txn, key, id)
                  : db->index()->Insert(txn, key, id);
    }
    reached_commit = r.ok();
    return r;
  });
  if (s.ok()) {
    (*state)[id] = present ? kAbsent : kPresent;
  } else if (reached_commit) {
    (*state)[id] = kEither;
  }
  return s;
}

// ---- rebuild ----

// One Index::RebuildOnline call with default options. With a trace, the
// gaps between on_progress callbacks become top-action spans.
RebuildRecord RunRebuild(Db* db, ThreadTrace* trace, uint64_t ordinal) {
  RebuildRecord rec;
  RebuildOptions ro;
  uint64_t last_ns = 0;
  uint64_t prev_top = 0;
  uint64_t prev_txns = 0;
  ro.on_progress = [&](const obs::RebuildProgress& p) {
    const uint64_t now = NowNanos();
    if (trace != nullptr) {
      const uint64_t id = (ordinal << 32) | (p.transactions + 1);
      if (p.top_actions > prev_top) {
        trace->Record(SpanKind::kTopAction, id, last_ns, now);
      } else if (p.transactions > prev_txns) {
        trace->Record(SpanKind::kRebuildTxnEnd, id, last_ns, now);
      }
    }
    prev_top = p.top_actions;
    prev_txns = p.transactions;
    last_ns = now;
    rec.last = p;
  };
  const uint64_t cpu0 = ThreadCpuNanos();
  const uint64_t t0 = NowNanos();
  last_ns = t0;
  {
    SpanScope span(trace, SpanKind::kRebuild, ordinal << 32);
    rec.status = db->index()->RebuildOnline(ro, &rec.result);
  }
  rec.wall_s = (NowNanos() - t0) / 1e9;
  rec.cpu_s = (ThreadCpuNanos() - cpu0) / 1e9;
  return rec;
}

// ---- timed phase ----

// Runs the timed phase for `limit_s` of active (unpaused) time, or until
// `done` returns true, and returns its active seconds. In trace mode it
// alternates untraced and traced slices, with the engine's wait profiler on
// in the traced ones.
double TimedPhase(const Config& cfg, Shared* sh, Measured* m, double limit_s,
                  const std::function<bool()>& done) {
  const uint64_t t0 = NowNanos();
  const uint64_t paused0 = sh->gate.paused_ns();
  auto active_s = [&] {
    return (NowNanos() - t0 - (sh->gate.paused_ns() - paused0)) / 1e9;
  };
  double slice_start = 0.0;
  bool traced = false;
  while (!done() && active_s() < limit_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!cfg.trace) continue;
    const double now = active_s();
    if (now - slice_start >= kSliceSeconds) {
      if (traced) m->traced_s += now - slice_start;
      traced = !traced;
      slice_start = now;
      obs::WaitProfiler::SetEnabled(traced);
      sh->trace_on.store(traced, std::memory_order_relaxed);
    }
  }
  sh->measuring.store(false, std::memory_order_relaxed);
  const double total = active_s();
  if (traced) m->traced_s += total - slice_start;
  sh->trace_on.store(false, std::memory_order_relaxed);
  obs::WaitProfiler::SetEnabled(false);
  return total;
}

// Books one round's client outcomes: its throughput and percentiles, and
// the run's totals.
void FinishRound(Measured* m, const std::vector<ClientStats>& clients,
                 double active_s, const CounterSnapshot& phase) {
  ClientStats round;
  for (const ClientStats& c : clients) round.Merge(c);
  m->round_ops_per_s.push_back(Ratio(round.committed, active_s));
  m->round_p50_us.push_back(round.latency.Percentile(50) / 1e3);
  m->round_p99_us.push_back(round.latency.Percentile(99) / 1e3);
  m->clients.Merge(round);
  m->active_s += active_s;
  m->phase = Sum(m->phase, phase);
}

// ---- workloads ----

struct Run {
  Config cfg;
  Shape shape;
  std::unique_ptr<Db> db;
  Measured m;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  std::string failure;  // first failed correctness check
  uint64_t id_space = 0;

  ThreadTrace* NewTrace() {
    if (!cfg.trace) return nullptr;
    traces.push_back(std::make_unique<ThreadTrace>(
        static_cast<int>(traces.size()), kSpansPerThread));
    return traces.back().get();
  }

  bool Check(const char* point, const std::vector<uint8_t>* state) {
    Status s = CheckIndex(db.get(), id_space, state, &m.tree);
    std::printf("check %s %s%s%s\n", point, s.ok() ? "ok" : "FAIL",
                s.ok() ? "" : " ", s.ok() ? "" : s.ToString().c_str());
    std::fflush(stdout);
    if (!s.ok() && failure.empty()) failure = point + (": " + s.ToString());
    return s.ok();
  }
};

// One round of oltp_steady or rebuild_under_oltp.
void RunInMemory(Run* run) {
  Shared sh;
  std::vector<ClientStats> stats(kClients);
  std::vector<ThreadTrace*> client_traces;
  for (int c = 0; c < kClients; ++c) client_traces.push_back(run->NewTrace());
  ThreadTrace* rebuild_trace = run->NewTrace();
  const uint64_t live = run->shape.live_keys;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(OltpClient, run->db.get(), live, c,
                         run->cfg.seed * 1000003 + c + 1, &sh, &stats[c],
                         client_traces[c]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm-up

  const CounterSnapshot c0 = GlobalCounters::Get().Snapshot();
  sh.counting.store(true, std::memory_order_relaxed);
  sh.measuring.store(true, std::memory_order_relaxed);
  std::atomic<bool> stop_rebuilds{false};
  std::thread rebuilder;
  if (run->shape.rebuild_under_load) {
    rebuilder = std::thread([&] {
      for (uint64_t n = 1; !stop_rebuilds.load(); ++n) {
        run->m.rebuilds.push_back(
            RunRebuild(run->db.get(), rebuild_trace, n));
        sh.gate.PauseAll(kClients);
        const bool ok = run->Check("after_rebuild", nullptr);
        sh.gate.ResumeAll();
        if (!ok) break;
      }
    });
  }
  const double active_s = TimedPhase(run->cfg, &sh, &run->m,
                                     run->cfg.seconds / run->shape.rounds,
                                     [] { return false; });
  const CounterSnapshot phase = GlobalCounters::Get().Snapshot() - c0;
  stop_rebuilds.store(true);
  if (rebuilder.joinable()) rebuilder.join();
  sh.stop.store(true);
  for (std::thread& t : clients) t.join();
  FinishRound(&run->m, stats, active_s, phase);
  if (run->failure.empty()) run->Check("end", nullptr);
}

// One round of durable_restart; the last round goes on to the restart
// cycles and the client-free rebuild.
void RunDurable(Run* run, bool last_round) {
  Shared sh;
  std::vector<uint8_t> state(run->id_space);
  for (uint64_t id = 0; id < run->id_space; id += 2) state[id] = kPresent;

  // Fixed transaction count, scaled with the run length: the log volume
  // that recovery replays depends on it and on nothing measured.
  const uint64_t per_client = static_cast<uint64_t>(
      3000 * run->cfg.seconds / run->shape.rounds);
  std::vector<ClientStats> stats(kClients);
  std::vector<ThreadTrace*> client_traces;
  for (int c = 0; c < kClients; ++c) client_traces.push_back(run->NewTrace());
  ThreadTrace* main_trace = run->NewTrace();

  const CounterSnapshot c0 = GlobalCounters::Get().Snapshot();
  sh.counting.store(true, std::memory_order_relaxed);
  sh.measuring.store(true, std::memory_order_relaxed);
  std::atomic<int> finished{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PinClient(c);
      // Client c owns ids 3j + c; Zipfian ranks are scattered over them.
      const uint64_t owned = (run->id_space - c + 2) / 3;
      const Zipf zipf(owned, 0.99);
      constexpr uint64_t kScatter = 2654435761ull;  // prime: a bijection
      Random rnd(run->cfg.seed * 1000003 + c + 1);
      for (uint64_t i = 0; i < per_client; ++i) {
        const uint64_t j = (zipf.Next(&rnd) * kScatter) % owned;
        (void)ToggleKey(run->db.get(), &sh, &stats[c], client_traces[c],
                        &state, 3 * j + c);
      }
      finished.fetch_add(1);
    });
  }
  const double active_s =
      TimedPhase(run->cfg, &sh, &run->m, HUGE_VAL,
                 [&] { return finished.load() == kClients; });
  for (std::thread& t : clients) t.join();
  FinishRound(&run->m, stats, active_s,
              GlobalCounters::Get().Snapshot() - c0);
  if (!last_round) {
    run->Check("end", &state);
    return;
  }

  // Crash -> recovery -> first commit. Each cycle leaves a loser with
  // durable records (a later commit forces them out) that recovery must
  // undo, and times the first acknowledged commit after restart.
  constexpr int kRestarts = 5;
  constexpr int kLoserKeys = 8;
  Random rnd(run->cfg.seed * 7919 + 17);
  ClientStats restart_stats;
  sh.counting.store(false);
  sh.trace_on.store(run->cfg.trace);
  auto any_key = [&] { return rnd.Uniform(run->id_space); };
  auto absent_key = [&] {
    for (;;) {
      const uint64_t id = any_key();
      if (state[id] == kAbsent) return id;
    }
  };
  for (int cycle = 0; cycle < kRestarts && run->failure.empty(); ++cycle) {
    const uint64_t forcing_key = any_key();
    std::unique_ptr<Transaction> loser = run->db->BeginTxn();
    Status s;
    for (int k = 0; s.ok() && k < kLoserKeys; ++k) {
      uint64_t id = absent_key();
      while (id == forcing_key) id = absent_key();
      s = run->db->index()->Insert(loser.get(), KeyOf(id), id);
    }
    if (s.ok()) {
      s = ToggleKey(run->db.get(), &sh, &restart_stats, main_trace, &state,
                    forcing_key);
    }
    RestartRecord r;
    const uint64_t t0 = NowNanos();
    bool crashed = false;
    if (s.ok()) {
      SpanScope span(main_trace, SpanKind::kCrashAndRecover, 0);
      s = run->db->CrashAndRecover(&r.stats);
      crashed = true;
    }
    const uint64_t t1 = NowNanos();
    // The loser died with the crash and recovery rolled it back; without a
    // crash (a failure above, reported below) it is aborted here.
    if (!crashed) (void)run->db->Abort(loser.get());
    loser.reset();
    if (s.ok()) {
      s = ToggleKey(run->db.get(), &sh, &restart_stats, main_trace, &state,
                    any_key());
    }
    const uint64_t t2 = NowNanos();
    if (!s.ok()) {
      ++run->m.restart_failures;
      if (run->failure.empty()) {
        run->failure = "restart cycle: " + s.ToString();
      }
      break;
    }
    r.crash_recover_s = (t1 - t0) / 1e9;
    r.first_commit_ms = (t2 - t1) / 1e6;
    r.restart_s = (t2 - t0) / 1e9;
    run->m.restarts.push_back(r);
    run->Check("after_restart", &state);
  }
  sh.trace_on.store(false);

  // One client-free online rebuild on a cold pool: the only place the
  // rebuild's own log volume is exact.
  if (run->failure.empty()) {
    Status s = run->db->buffer_manager()->FlushAll();
    run->db->buffer_manager()->DropAll();
    if (!s.ok()) run->failure = "cold pool flush: " + s.ToString();
  }
  if (run->failure.empty()) {
    run->m.rebuilds.push_back(RunRebuild(run->db.get(), main_trace, 1));
    run->m.client_free_rebuild = &run->m.rebuilds.back();
    run->Check("after_rebuild", &state);
  }
  if (run->failure.empty()) run->Check("end", &state);
}

// ---- reporting ----

LatencyHistogram MergedSpans(const Run& run, SpanKind k, bool self) {
  LatencyHistogram h;
  for (const auto& t : run.traces) h.Merge(self ? t->self(k) : t->duration(k));
  return h;
}

// <name>.p50 and <name>.p99 of span kind `k`, in microseconds.
void AddSpanLatency(Results* r, const Run& run, const std::string& name,
                    SpanKind k) {
  const LatencyHistogram h = MergedSpans(run, k, false);
  const std::string n = "n=" + std::to_string(h.count());
  r->Add(name + ".p50", h.Percentile(50) / 1e3, "us", n);
  r->Add(name + ".p99", h.Percentile(99) / 1e3, "us", n);
}

void ReportEndToEnd(const Run& run, Results* r) {
  const Measured& m = run.m;
  const ClientStats& c = m.clients;
  r->Add("setup_s", Median(m.setup_s), "s",
         Fmt("median of %.0f setups, max %.4f", m.setup_s.size(),
             Max(m.setup_s)));
  r->Add("ops_per_s", Median(m.round_ops_per_s), "ops/s",
         RoundNote(m.round_ops_per_s) +
             Fmt("; whole phase %.0f committed in %.3f s", c.committed,
                 m.active_s));
  const std::string n = "n=" + std::to_string(c.latency.count()) +
                        Fmt(" max=%.3f ms; ", c.latency.max() / 1e6);
  r->Add("op_p50_us", Median(m.round_p50_us), "us",
         n + RoundNote(m.round_p50_us));
  r->Add("op_p99_us", Median(m.round_p99_us), "us",
         n + RoundNote(m.round_p99_us));
  r->Add("failed_op_ratio", Ratio(c.failed, c.attempted), "fraction",
         Fmt("%.0f of %.0f", c.failed, c.attempted));

  std::vector<double> wall, cpu;
  for (const RebuildRecord& rb : m.rebuilds) {
    wall.push_back(rb.wall_s);
    cpu.push_back(rb.cpu_s);
  }
  const char* per = "median of %.0f rebuilds, max %.4f";
  r->Add("rebuild_s", Median(wall), "s", Fmt(per, wall.size(), Max(wall)));
  r->Add("rebuild_cpu_s", Median(cpu), "s", Fmt(per, cpu.size(), Max(cpu)));
  const RebuildRecord* cf = m.client_free_rebuild;
  r->Add("rebuild_log_bytes_per_leaf",
         cf == nullptr ? 0.0
                       : Ratio(cf->result.log_bytes, cf->result.old_leaf_pages),
         "B",
         cf == nullptr ? "no client-free rebuild"
                       : Fmt("%.0f B over %.0f old leaves",
                             cf->result.log_bytes, cf->result.old_leaf_pages));
  std::vector<double> restart;
  for (const RestartRecord& rr : m.restarts) restart.push_back(rr.restart_s);
  r->Add("restart_s", Median(restart), "s",
         Fmt("median of %.0f cycles, max %.4f", restart.size(), Max(restart)));
  const double live_bytes = static_cast<double>(m.tree.num_keys) * kRowBytes;
  r->Add("space_amp",
         Ratio(static_cast<double>(m.stats.pages_allocated) *
                   run.db->options().page_size,
               live_bytes),
         "ratio",
         Fmt("%.0f pages for %.0f keys", m.stats.pages_allocated,
             m.tree.num_keys));
  r->Add("max_rss_mb", MaxRssMb(), "MB");
}

void ReportPerModule(const Run& run, Results* r) {
  const Measured& m = run.m;
  const ClientStats& c = m.clients;
  const CounterSnapshot& d = m.phase;
  const double ops = static_cast<double>(c.committed);

  // core: index calls, rebuild top actions, checkpoint.
  AddSpanLatency(r, run, "core.lookup_us", SpanKind::kLookup);
  AddSpanLatency(r, run, "core.scan_us", SpanKind::kScan);
  AddSpanLatency(r, run, "core.insert_us", SpanKind::kInsert);
  AddSpanLatency(r, run, "core.delete_us", SpanKind::kDelete);
  AddSpanLatency(r, run, "core.rebuild.top_action_us", SpanKind::kTopAction);
  std::vector<double> copy, prop, flush, lps;
  double truncated = 0, top_actions = 0, retries = 0, level1 = 0;
  for (const RebuildRecord& rb : m.rebuilds) {
    copy.push_back(rb.last.copy_us / 1e6);
    prop.push_back(rb.last.propagate_us / 1e6);
    flush.push_back(rb.last.flush_us / 1e6);
    lps.push_back(Ratio(rb.last.leaves_rebuilt, rb.wall_s));
    truncated += rb.last.batches_truncated;
    top_actions += rb.last.top_actions;
    retries += rb.last.retries;
    level1 += rb.result.level1_visits;
  }
  const double nreb = static_cast<double>(m.rebuilds.size());
  const std::string per = Fmt("median of %.0f rebuilds", nreb);
  r->Add("core.rebuild.copy_s", Median(copy), "s", per);
  r->Add("core.rebuild.propagate_s", Median(prop), "s", per);
  r->Add("core.rebuild.flush_s", Median(flush), "s", per);
  r->Add("core.rebuild.leaves_per_s", Median(lps), "leaves/s", per);
  r->Add("core.rebuild.truncated_batch_ratio", Ratio(truncated, top_actions),
         "fraction", Fmt("%.0f of %.0f top actions", truncated, top_actions));
  r->Add("core.rebuild.retries", Ratio(retries, nreb), "count",
         "per rebuild");
  r->Add("core.checkpoint_s", Median(m.checkpoint_s), "s",
         Fmt("median of %.0f setups", m.checkpoint_s.size()));

  // txn: commit latency, failures by status code.
  AddSpanLatency(r, run, "txn.commit_us", SpanKind::kCommit);
  for (int code = 1; code < kNumCodes; ++code) {
    r->Add(std::string("txn.failed.") + kCodeNames[code],
           static_cast<double>(c.failed_by_code[code]), "count");
  }

  // wal: counter deltas over the timed client phase.
  r->Add("wal.bytes_per_op", Ratio(d.log_bytes, ops), "B");
  r->Add("wal.records_per_op", Ratio(d.log_records, ops), "count");
  r->Add("wal.fsyncs_per_commit", Ratio(d.log_fsyncs, ops), "count");
  r->Add("wal.mean_group_size", Ratio(d.log_commits_acked, d.log_groups_acked),
         "commits");

  // sync
  r->Add("sync.lock_requests_per_op", Ratio(d.lock_requests, ops), "count");
  r->Add("sync.lock_wait_ratio", Ratio(d.lock_waits, d.lock_requests),
         "fraction");
  r->Add("sync.latch_wait_ratio", Ratio(d.latch_waits, d.latch_acquires),
         "fraction");
  r->Add("sync.cond_lock_failures", static_cast<double>(d.cond_lock_failures),
         "count");
  r->Add("sync.watchdog_fires", static_cast<double>(d.lock_watchdog_fires),
         "count");

  // btree
  r->Add("btree.restarts_per_op", Ratio(d.traversal_restarts, ops), "count");
  r->Add("btree.blocked_traversals_per_op", Ratio(d.blocked_traversals, ops),
         "count");
  r->Add("btree.level1_visits", Ratio(level1, nreb), "count", "per rebuild");
  r->Add("btree.leaf_pages", static_cast<double>(m.tree.num_leaf_pages),
         "pages");
  r->Add("btree.height", static_cast<double>(m.tree.height), "levels");
  r->Add("btree.leaf_fill", m.tree.LeafUtilization(), "fraction");

  // storage: per-op figures over the client phase, I/O sizes over the
  // whole run after setup (client phase, restarts and rebuilds).
  const CounterSnapshot& a = m.after_setup;
  r->Add("storage.pool_hit_ratio",
         Ratio(d.pool_hits, d.pool_hits + d.pool_misses), "fraction");
  r->Add("storage.evictions_per_op", Ratio(d.pool_evictions, ops), "count");
  r->Add("storage.writebacks_per_op", Ratio(d.pool_writebacks, ops), "count");
  r->Add("storage.prefetched_pages", static_cast<double>(a.pool_prefetched),
         "pages");
  r->Add("storage.pages_per_read_io", Ratio(a.pages_read, a.io_read_ops),
         "pages");
  r->Add("storage.pages_per_write_io", Ratio(a.pages_written, a.io_write_ops),
         "pages");

  // space
  r->Add("space.pages_allocated",
         static_cast<double>(m.stats.pages_allocated), "pages");
  r->Add("space.pages_deallocated",
         static_cast<double>(m.stats.pages_deallocated), "pages");

  // recovery
  std::vector<double> cr, fc, scanned, redone, undone, losers;
  for (const RestartRecord& rr : m.restarts) {
    cr.push_back(rr.crash_recover_s);
    fc.push_back(rr.first_commit_ms);
    scanned.push_back(rr.stats.records_scanned);
    redone.push_back(rr.stats.records_redone);
    undone.push_back(rr.stats.records_undone);
    losers.push_back(rr.stats.loser_txns);
  }
  const std::string cyc = Fmt("median of %.0f cycles", m.restarts.size());
  r->Add("recovery.crash_recover_s", Median(cr), "s", cyc);
  r->Add("recovery.first_commit_ms", Median(fc), "ms", cyc);
  r->Add("recovery.records_scanned", Median(scanned), "count", cyc);
  r->Add("recovery.records_redone", Median(redone), "count", cyc);
  r->Add("recovery.records_undone", Median(undone), "count", cyc);
  r->Add("recovery.loser_txns", Median(losers), "count", cyc);

  // obs: wait-state shares of foreground reads and writes (traced slices),
  // and the cost of tracing itself.
  static const char* const kStates[] = {"running", "latch", "lock", "wal",
                                        "io"};
  for (obs::OpType type : {obs::OpType::kRead, obs::OpType::kWrite}) {
    const obs::WaitProfiler::OpBreakdown* b = nullptr;
    for (const auto& w : m.waits) {
      if (w.type == type) b = &w;
    }
    for (int s = 0; s < 5; ++s) {
      r->Add(std::string("obs.wait_share.") + obs::OpTypeName(type) + "." +
                 kStates[s],
             b == nullptr ? 0.0 : Ratio(b->state_ns[s], b->wall_ns),
             "fraction");
    }
  }
  const double untraced_s = m.active_s - m.traced_s;
  const double untraced_rate = Ratio(c.committed_untraced, untraced_s);
  const double traced_rate = Ratio(c.committed_traced, m.traced_s);
  r->Add("obs.tracing_overhead_pct",
         traced_rate == 0.0 ? 0.0 : (untraced_rate / traced_rate - 1.0) * 100,
         "%",
         Fmt("untraced %.0f ops/s vs traced %.0f ops/s", untraced_rate,
             traced_rate));
}

// Every span kind's duration and self time, for the human reader.
void PrintSpanSummary(const Run& run) {
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const LatencyHistogram d = MergedSpans(run, kind, false);
    if (d.count() == 0) continue;
    const LatencyHistogram s = MergedSpans(run, kind, true);
    std::printf("span %-22s n=%-9llu p50 %10.2f us  p99 %10.2f us  "
                "self p50 %10.2f us  self total %9.4f s\n",
                SpanName(kind), static_cast<unsigned long long>(d.count()),
                d.Percentile(50) / 1e3, d.Percentile(99) / 1e3,
                s.Percentile(50) / 1e3, s.sum() / 1e9);
  }
}

// Chrome trace-event file of the kept spans (chrome://tracing, Perfetto).
Status WriteTrace(const Run& run, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  uint64_t base = UINT64_MAX;
  for (const auto& t : run.traces) {
    for (const Span& s : t->kept()) base = std::min(base, s.start_ns);
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  uint64_t dropped = 0;
  for (const auto& t : run.traces) {
    dropped += t->dropped();
    const std::vector<Span>& spans = t->kept();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // still open at the end
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
          "\"txn\":%llu}}",
          first ? "" : ",\n", SpanName(s.kind), t->thread_id(),
          (s.start_ns - base) / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
          s.parent, static_cast<unsigned long long>(s.txn));
      out << buf;
      first = false;
    }
  }
  out << "\n],\"otherData\":{\"spans_dropped\":" << dropped << "}}\n";
  return out.good() ? Status::OK() : Status::IOError("short write " + path);
}

void PrintStamp(const Run& run) {
  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%ld,\"build_type\":\"%s\",\"wal_backend\":\"%s\","
      "\"wal_sync_mode\":\"%s\",\"durable\":%s,\"git_sha\":\"%s\"}\n",
      run.cfg.workload.c_str(), static_cast<unsigned long long>(run.cfg.seed),
      run.cfg.seconds, run.cfg.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      OIR_PERFBENCH_BUILD_TYPE, run.m.stats.wal_backend.c_str(),
      run.m.stats.wal_sync_mode.c_str(), run.shape.durable ? "true" : "false",
      run.cfg.git_sha.c_str());
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") cfg.workload = val;
    else if (flag == "--seed") cfg.seed = std::stoull(val);
    else if (flag == "--seconds") cfg.seconds = std::stod(val);
    else if (flag == "--trace") cfg.trace = val == "1";
    else if (flag == "--dir") cfg.dir = val;
    else if (flag == "--trace-out") cfg.trace_out = val;
    else if (flag == "--git-sha") cfg.git_sha = val;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Run run;
  run.cfg = cfg;
  run.shape = ShapeOf(cfg.workload);
  if (run.shape.live_keys == 0 || cfg.dir.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: oir_perfbench --workload oltp_steady|"
                 "rebuild_under_oltp|durable_restart --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--trace-out FILE] [--git-sha SHA]\n");
    return 2;
  }
  run.id_space = 2 * run.shape.live_keys;

  Status s;
  const int setups = run.shape.setups;
  for (int r = 0; r < setups && run.failure.empty(); ++r) {
    s = Setup(cfg, run.shape, &run.db, &run.m);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (r < setups - run.shape.rounds) continue;  // set-up timing only
    const CounterSnapshot c0 = GlobalCounters::Get().Snapshot();
    if (!run.Check("after_setup", nullptr)) break;
    if (run.shape.durable) {
      RunDurable(&run, r == setups - 1);
    } else {
      RunInMemory(&run);
    }
    run.m.after_setup =
        Sum(run.m.after_setup, GlobalCounters::Get().Snapshot() - c0);
  }
  run.m.waits = obs::WaitProfiler::TakeSnapshot();
  s = run.db->GetStats(&run.m.stats);
  if (!s.ok() && run.failure.empty()) run.failure = "GetStats: " + s.ToString();
  if (run.failure.empty() && run.m.clients.wrong_results > 0) {
    run.failure = std::to_string(run.m.clients.wrong_results) +
                  " wrong client results; first: " + run.m.clients.first_wrong;
  }

  uint64_t attempted = run.m.clients.attempted + run.m.rebuilds.size() +
                       run.m.restarts.size() + run.m.restart_failures;
  uint64_t failed = run.m.clients.failed + run.m.restart_failures;
  for (const RebuildRecord& rb : run.m.rebuilds) {
    if (!rb.status.ok()) {
      ++failed;
      std::printf("rebuild_failed %s\n", rb.status.ToString().c_str());
    }
  }
  PrintStamp(run);
  if (run.failure.empty()) {
    Results results;
    if (cfg.trace) {
      ReportPerModule(run, &results);
      PrintSpanSummary(run);
      if (!cfg.trace_out.empty()) {
        s = WriteTrace(run, cfg.trace_out);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }
    } else {
      ReportEndToEnd(run, &results);
    }
    for (const Metric& mt : results.metrics()) {
      std::printf("metric %s %.17g %s %s\n", mt.name.c_str(), mt.value,
                  mt.unit.c_str(), mt.note.c_str());
    }
  } else {
    std::printf("failure %s\n", run.failure.c_str());
  }
  std::printf("result {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu}\n",
              run.failure.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::fflush(stdout);
  run.db.reset();
  return run.failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace oir::perfbench

int main(int argc, char** argv) { return oir::perfbench::Main(argc, argv); }
