// Tests for the observability subsystem: JSON writer/validator, span
// histograms under concurrent writers, the span's record-once and
// every-sink behaviour behind the one switch, trace ring wraparound and
// disabled-path behaviour, rebuild progress monotonicity racing online
// writers, the lock watchdog, and the Db stats export surface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rebuild.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/waitstate.h"
#include "sync/lock_manager.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using obs::JsonIsValid;
using obs::JsonWriter;
using obs::MetricRegistry;
using obs::Site;
using obs::Span;
using obs::TraceBuffer;
using obs::TraceEventType;
using obs::WaitProfiler;
using test::MakeDb;
using test::NumKey;

// Turns the instrumentation switch off and clears what it recorded on
// scope exit, so a failing test can't leak an enabled hot path into the
// rest of the suite.
struct ObsFlagGuard {
  ~ObsFlagGuard() {
    WaitProfiler::SetEnabled(false);
    WaitProfiler::Reset();
    TraceBuffer::Get().Clear();
  }
};

uint64_t SpanCount(Site site) { return WaitProfiler::SpanStats(site).count; }

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("n").Value(uint64_t{42});
  w.Key("s").Value("a\"b\\c\n\t");
  w.Key("neg").Value(int64_t{-7});
  w.Key("f").Value(1.5);
  w.Key("b").Value(true);
  w.Key("arr").BeginArray();
  w.Value(uint64_t{1});
  w.Value(uint64_t{2});
  w.EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  const std::string doc = w.str();
  EXPECT_TRUE(JsonIsValid(doc)) << doc;
  EXPECT_NE(doc.find("\"s\":\"a\\\"b\\\\c\\n\\t\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"arr\":[1,2]"), std::string::npos) << doc;
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeZero) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Value(0.0 / 0.0);
  w.Key("inf").Value(1.0 / 0.0);
  w.EndObject();
  EXPECT_TRUE(JsonIsValid(w.str())) << w.str();
}

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonIsValid("{}"));
  EXPECT_TRUE(JsonIsValid("[1,2.5,-3e2,\"x\",true,false,null]"));
  EXPECT_TRUE(JsonIsValid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(JsonIsValid(""));
  EXPECT_FALSE(JsonIsValid("{"));
  EXPECT_FALSE(JsonIsValid("{\"a\":}"));
  EXPECT_FALSE(JsonIsValid("{\"a\":1,}"));
  EXPECT_FALSE(JsonIsValid("[1 2]"));
  EXPECT_FALSE(JsonIsValid("{\"a\":01}"));
  EXPECT_FALSE(JsonIsValid("\"unterminated"));
  EXPECT_FALSE(JsonIsValid("{} trailing"));
}

TEST(MetricRegistryTest, SnapshotAndResetUnderConcurrentWriters) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  auto& reg = MetricRegistry::Get();
  const Site site = Site::kWalSegmentIo;  // nothing else records it here

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([site] {
      // Caller-clocked spans record exactly 1..kPerThread ns.
      for (int j = 1; j <= kPerThread; ++j) {
        Span span(site, 0, 0, /*start_ns=*/1);
        span.End(1 + static_cast<uint64_t>(j));
      }
    });
  }
  // Snapshot concurrently with the writers: counts must be coherent
  // (non-decreasing, never above the final total).
  uint64_t last = 0;
  for (int spins = 0; last < kTotal && spins < 1000000; ++spins) {
    for (const auto& ts : reg.TakeSnapshot().timers) {
      if (std::string(ts.name) == obs::SiteName(site)) {
        EXPECT_GE(ts.count, last);
        EXPECT_LE(ts.count, kTotal);
        last = ts.count;
      }
    }
    std::this_thread::yield();
  }
  for (auto& th : writers) th.join();

  const obs::SpanSummary sum = WaitProfiler::SpanStats(site);
  EXPECT_EQ(sum.count, kTotal);
  EXPECT_EQ(sum.min, 1u);
  EXPECT_EQ(sum.max, uint64_t{kPerThread});

  EXPECT_TRUE(JsonIsValid(reg.ToJson())) << reg.ToJson();

  WaitProfiler::Reset();
  EXPECT_EQ(SpanCount(site), 0u);
}

TEST(MetricRegistryTest, GlobalCountersAreRegistered) {
  // The registry reads GlobalCounters itself, so a flight-record bundle
  // built without a Db still carries every counter.
  const std::string doc = MetricRegistry::Get().ToJson();
  size_t fields = 0;
  GlobalCounters::Get().Snapshot().ForEach(
      [&](const char* name, uint64_t) {
        ++fields;
        EXPECT_NE(doc.find("\"" + std::string(name) + "\":"),
                  std::string::npos)
            << name;
      });
  EXPECT_GT(fields, 0u);
  EXPECT_NE(doc.find("\"lock_watchdog_fires\":"), std::string::npos);
}

TEST(MetricRegistryTest, DisabledTimersRecordNothing) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(false);
  WaitProfiler::Reset();
  for (int i = 0; i < 1000; ++i) {
    Span span(Site::kPoolFetch);
  }
  EXPECT_EQ(SpanCount(Site::kPoolFetch), 0u);
}

TEST(SpanTest, HotPathSitesTimeOneSectionInSixteen) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  constexpr uint64_t kSpans = 16000;
  for (uint64_t i = 0; i < kSpans; ++i) {
    Span span(Site::kPoolFetch);
  }
  const uint64_t timed = SpanCount(Site::kPoolFetch);
  EXPECT_GT(timed, kSpans / 32);
  EXPECT_LT(timed, kSpans / 8);
}

TEST(SpanTest, RecordsOnceAcrossExitPaths) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  const Site site = Site::kWalSegmentIo;

  // Exception unwind: the destructor must record exactly once.
  try {
    Span span(site);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(SpanCount(site), 1u);

  // Explicit End() is idempotent and the destructor must not double-record
  // after it.
  {
    Span span(site);
    span.End();
    span.End();
  }
  EXPECT_EQ(SpanCount(site), 2u);

  // A caller-clocked span records exactly the caller's interval.
  {
    Span span(site, /*arg0=*/0, /*arg1=*/0, /*start_ns=*/1000);
    span.End(1000 + 1000000000);
  }
  EXPECT_EQ(SpanCount(site), 3u);
  EXPECT_EQ(WaitProfiler::SpanStats(site).max, 1000000000u);

  // An exception through a wait span closes its wait state: the time
  // after it is RUNNING again.
  {
    obs::OpScope op(obs::OpType::kOther);
    try {
      Span span(Site::kPoolWait);
      throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  for (const auto& b : WaitProfiler::TakeSnapshot()) {
    EXPECT_GT(b.state_ns[0], b.wall_ns / 2);  // kRunning
  }
}

// Owner 2 requests owner 1's X lock inside one read op. With `timeout` the
// request gives up (Aborted); otherwise owner 1 lets go once owner 2 is
// waiting and the request is granted.
Status ContendedLockWait(LockManager* lm, LockKey key, bool timeout) {
  EXPECT_OK(lm->Lock(1, key, LockMode::kX, /*conditional=*/false));
  auto waits = [] { return GlobalCounters::Get().Snapshot().lock_waits; };
  const uint64_t waits0 = waits();
  Status s;
  std::thread waiter([&] {
    obs::OpScope op(obs::OpType::kRead);
    s = lm->Lock(2, key, LockMode::kX, /*conditional=*/false);
  });
  if (!timeout) {
    while (waits() == waits0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    lm->Unlock(1, key);
  }
  waiter.join();
  if (s.ok()) {
    lm->Unlock(2, key);
  } else {
    lm->Unlock(1, key);
  }
  return s;
}

TEST(SpanTest, ContendedLockWaitFeedsEverySinkOnlyWhenEnabled) {
  ObsFlagGuard guard;
  LockManager lm;
  lm.set_wait_timeout(std::chrono::milliseconds(50));
  const LockKey key = AddressLockKey(4242);
  auto trace_records = [&key](TraceEventType type) {
    int n = 0;
    for (const auto& r : TraceBuffer::Get().Snapshot()) {
      // The span carries the lock key and the requester txn (2).
      if (r.type == type && r.site == Site::kLockWait && r.arg0 == key.id &&
          r.arg1 == 2) {
        ++n;
      }
    }
    return n;
  };

  // Off: neither the granted nor the timed-out wait leaves a trace.
  WaitProfiler::SetEnabled(false);
  WaitProfiler::Reset();
  TraceBuffer::Get().Clear();
  EXPECT_OK(ContendedLockWait(&lm, key, /*timeout=*/false));
  EXPECT_TRUE(ContendedLockWait(&lm, key, /*timeout=*/true).IsAborted());
  EXPECT_TRUE(WaitProfiler::TakeSnapshot().empty());
  for (const auto& t : WaitProfiler::SpanSnapshot()) {
    EXPECT_EQ(t.count, 0u) << t.name;
  }
  EXPECT_TRUE(TraceBuffer::Get().Snapshot().empty());

  // On: each wait lands in the wait-state clock, the site histogram and
  // the trace ring as one begin/end pair, whichever way it exits.
  WaitProfiler::SetEnabled(true);
  int round = 0;
  for (bool timeout : {false, true}) {
    ++round;
    SCOPED_TRACE(timeout ? "timeout exit" : "granted exit");
    Status s = ContendedLockWait(&lm, key, timeout);
    EXPECT_EQ(s.IsAborted(), timeout) << s.ToString();
    EXPECT_EQ(SpanCount(Site::kLockWait), static_cast<uint64_t>(round));
    EXPECT_EQ(trace_records(TraceEventType::kSpanBegin), round);
    EXPECT_EQ(trace_records(TraceEventType::kSpanEnd), round);
    uint64_t lock_ns = 0;
    for (const auto& b : WaitProfiler::TakeSnapshot()) {
      lock_ns += b.state_ns[static_cast<size_t>(obs::WaitState::kLockWait)];
    }
    EXPECT_GE(lock_ns, uint64_t{5000000} * round);  // >= 5 ms per wait
  }
}

TEST(MetricRegistryTest, GaugesSampledAtSnapshot) {
  auto& reg = MetricRegistry::Get();
  std::atomic<uint64_t> v{7};
  reg.RegisterGauge("test.obs.gauge", [&v] { return v.load(); });
  auto snap = reg.TakeSnapshot();
  bool found = false;
  for (const auto& [name, val] : snap.gauges) {
    if (name == "test.obs.gauge") {
      found = true;
      EXPECT_EQ(val, 7u);
    }
  }
  EXPECT_TRUE(found);
  reg.UnregisterGauge("test.obs.gauge");
  auto snap2 = reg.TakeSnapshot();
  for (const auto& [name, _] : snap2.gauges) {
    EXPECT_NE(name, "test.obs.gauge");
  }
}

TEST(TraceTest, DisabledRecordsNothing) {
  ObsFlagGuard guard;
  auto& tb = TraceBuffer::Get();
  WaitProfiler::SetEnabled(false);
  tb.Clear();
  OIR_TRACE(TraceEventType::kCheckpoint, 1, 2);
  {
    Span span(Site::kRebuildCopy, 1);  // a traced site
  }
  EXPECT_TRUE(tb.Snapshot().empty());
}

TEST(TraceTest, RecordsAndWrapsAround) {
  ObsFlagGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();

  // One thread writes into one ring; overfill it so it wraps.
  const size_t total = TraceBuffer::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    tb.Record(TraceEventType::kSmoSplit, i, i + 1);
  }
  std::vector<obs::TraceRecord> snap = tb.Snapshot();
  ASSERT_EQ(snap.size(), TraceBuffer::kRingCapacity);
  // Only the most recent kRingCapacity survive; sorted by timestamp.
  uint64_t min_arg = ~0ull, max_arg = 0;
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].type, TraceEventType::kSmoSplit);
    if (i > 0) {
      EXPECT_GE(snap[i].ts_ns, snap[i - 1].ts_ns);
    }
    min_arg = std::min(min_arg, snap[i].arg0);
    max_arg = std::max(max_arg, snap[i].arg0);
  }
  EXPECT_EQ(max_arg, total - 1);
  EXPECT_EQ(min_arg, total - TraceBuffer::kRingCapacity);

  EXPECT_TRUE(JsonIsValid(tb.DumpJson()));
  EXPECT_TRUE(JsonIsValid(tb.DumpChromeTracing()));
}

TEST(TraceTest, ConcurrentWritersAndDumper) {
  ObsFlagGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&tb, &stop, i] {
      uint64_t n = 0;
      // At least one record even if the dumper finishes before this thread
      // is first scheduled.
      do {
        tb.Record(TraceEventType::kCondLockFail, i, n++);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::string doc = tb.DumpJson();
    EXPECT_TRUE(JsonIsValid(doc));
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_FALSE(tb.Snapshot().empty());
}

TEST(TraceTest, WrapAroundWhileReaderRacesEightWriters) {
  ObsFlagGuard guard;
  auto& tb = TraceBuffer::Get();
  tb.Clear();
  // Each writer overfills rings while a reader dumps: wrap-around
  // overwrites must never tear a record or corrupt the JSON.
  constexpr int kWriters = 8;
  const size_t per_writer = TraceBuffer::kRingCapacity + 512;
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&tb, per_writer, i] {
      for (size_t n = 0; n < per_writer; ++n) {
        tb.Record(TraceEventType::kWalSegSeal, i, n);
      }
    });
  }
  for (int i = 0; i < 30; ++i) {
    std::string doc = tb.DumpJson();
    EXPECT_TRUE(JsonIsValid(doc));
  }
  for (auto& th : writers) th.join();
  std::vector<obs::TraceRecord> snap = tb.Snapshot();
  EXPECT_FALSE(snap.empty());
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].ts_ns, snap[i - 1].ts_ns);
  }
  EXPECT_TRUE(JsonIsValid(tb.DumpJson()));
}

TEST(TraceTest, ChromeTracingHasSlicesForRebuildPhases) {
  ObsFlagGuard guard;
  auto& tb = TraceBuffer::Get();
  WaitProfiler::SetEnabled(true);
  tb.Clear();

  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));
  EXPECT_GT(res.top_actions, 0u);

  std::string doc = tb.DumpChromeTracing();
  EXPECT_TRUE(JsonIsValid(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"rebuild.top_action\""), std::string::npos);
  EXPECT_NE(doc.find("\"rebuild.copy_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"rebuild.propagate_ns\""), std::string::npos);
  // Duration events come in begin/end pairs.
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
}

// Polls OnlineRebuilder::progress() from another thread while OLTP writers
// race the rebuild: every published field must be monotone, and the final
// snapshot must agree with the RebuildResult.
TEST(RebuildProgressTest, MonotonicWhilePolledUnderConcurrentWriters) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 4000; ++i) ids.push_back(i * 2);
  test::InsertMany(db.get(), ids);

  RebuildJournal journal;
  OnlineRebuilder rebuilder(db->tree(), db->txn_manager(),
                            db->buffer_manager(), db->log_manager(),
                            db->lock_manager(), db->space_manager(), &journal);

  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    uint64_t n = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->BeginTxn();
      Status s = db->index()->Insert(txn.get(), NumKey(n * 2 + 1), n * 2 + 1);
      if (s.ok()) {
        EXPECT_OK(db->Commit(txn.get()));
      } else {
        EXPECT_OK(db->Abort(txn.get()));
      }
      n++;
    }
  });

  std::atomic<bool> rebuild_done{false};
  std::thread poller([&rebuilder, &rebuild_done] {
    obs::RebuildProgress last;
    while (!rebuild_done.load(std::memory_order_relaxed)) {
      obs::RebuildProgress p = rebuilder.progress();
      EXPECT_GE(p.leaves_rebuilt, last.leaves_rebuilt);
      EXPECT_GE(p.top_actions, last.top_actions);
      EXPECT_GE(p.transactions, last.transactions);
      EXPECT_GE(p.copy_us, last.copy_us);
      EXPECT_GE(p.propagate_us, last.propagate_us);
      EXPECT_GE(p.flush_us, last.flush_us);
      EXPECT_GE(p.retries, last.retries);
      EXPECT_GE(p.batches_truncated, last.batches_truncated);
      last = p;
      std::this_thread::yield();
    }
  });

  uint64_t callbacks = 0;
  RebuildOptions opts;
  opts.on_progress = [&callbacks](const obs::RebuildProgress& p) {
    ++callbacks;
    // Mid-rebuild callbacks see running; the final one (after Finish) done.
    EXPECT_TRUE(p.running || p.done);
  };
  RebuildResult res;
  ASSERT_OK(rebuilder.Run(opts, &res));
  rebuild_done.store(true);
  poller.join();
  stop.store(true);
  writer.join();

  obs::RebuildProgress final = rebuilder.progress();
  EXPECT_FALSE(final.running);
  EXPECT_TRUE(final.done);
  EXPECT_EQ(final.top_actions, res.top_actions);
  EXPECT_EQ(final.transactions, res.transactions);
  EXPECT_EQ(final.leaves_rebuilt, res.old_leaf_pages);
  EXPECT_GT(final.leaves_total, 0u);
  EXPECT_GT(final.copy_us + final.propagate_us + final.flush_us, 0u);
  EXPECT_GE(callbacks, res.top_actions);

  TreeStats tstats;
  ASSERT_OK(db->tree()->Validate(&tstats));
}

TEST(WatchdogTest, FiresAndNamesPageWaiterAndHolder) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(true);
  TraceBuffer::Get().Clear();

  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(50));
  const LockKey key = AddressLockKey(777);
  ASSERT_OK(lm.Lock(/*owner=*/1, key, LockMode::kX, /*conditional=*/false));

  const uint64_t fires_before =
      GlobalCounters::Get().Snapshot().lock_watchdog_fires;
  testing::internal::CaptureStderr();

  std::thread waiter([&lm, key] {
    // Blocks behind txn 1 until it unlocks; the watchdog fires at ~50 ms.
    EXPECT_OK(lm.Lock(/*owner=*/2, key, LockMode::kX, /*conditional=*/false));
    lm.Unlock(2, key);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  lm.Unlock(1, key);
  waiter.join();

  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("lock watchdog"), std::string::npos) << err;
  EXPECT_NE(err.find("txn 2"), std::string::npos) << err;     // requester
  EXPECT_NE(err.find("page 777"), std::string::npos) << err;  // blocked page
  EXPECT_NE(err.find("holder: txn 1"), std::string::npos) << err;

  EXPECT_GE(GlobalCounters::Get().Snapshot().lock_watchdog_fires,
            fires_before + 1);

  bool traced = false;
  for (const auto& r : TraceBuffer::Get().Snapshot()) {
    if (r.type == TraceEventType::kLockWatchdog && r.arg0 == 777 &&
        r.arg1 == 1) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(WatchdogTest, ZeroThresholdDisables) {
  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(0));
  const LockKey key = AddressLockKey(888);
  ASSERT_OK(lm.Lock(1, key, LockMode::kX, false));
  const uint64_t before = GlobalCounters::Get().Snapshot().lock_watchdog_fires;
  std::thread waiter([&lm, key] {
    EXPECT_OK(lm.Lock(2, key, LockMode::kX, false));
    lm.Unlock(2, key);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  lm.Unlock(1, key);
  waiter.join();
  EXPECT_EQ(GlobalCounters::Get().Snapshot().lock_watchdog_fires, before);
}

TEST(DbStatsTest, DumpStatsJsonIsValidWithAllSections) {
  ObsFlagGuard guard;
  WaitProfiler::SetEnabled(true);
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 1500; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RebuildResult res;
  ASSERT_OK(db->index()->RebuildOnline(RebuildOptions(), &res));

  std::string doc = db->DumpStatsJson();
  EXPECT_TRUE(JsonIsValid(doc)) << doc.substr(0, 400);
  for (const char* section :
       {"\"counters\"", "\"pool\"", "\"wal\"", "\"lock\"", "\"btree\"",
        "\"space\"", "\"rebuild\"", "\"recovery\"", "\"timers\""}) {
    EXPECT_NE(doc.find(section), std::string::npos) << section;
  }
  // The rebuild report made it through the JSON path with real content.
  EXPECT_NE(doc.find("\"keys_moved\""), std::string::npos);
  // Every span site is listed, recorded or not.
  for (const char* timer :
       {"pool.fetch_ns", "wal.append_ns", "wal.segment_io_ns",
        "wal.commit_ack_ns", "lock.acquire_ns", "btree.traverse_ns",
        "rebuild.copy_ns", "rebuild.propagate_ns", "rebuild.flush_ns"}) {
    EXPECT_NE(doc.find("\"" + std::string(timer) + "\":{"),
              std::string::npos)
        << timer;
  }
  // The switch was on during the rebuild, so its spans recorded.
  EXPECT_GT(SpanCount(Site::kRebuildCopy), 0u);
  EXPECT_GT(SpanCount(Site::kBtreeTraverse), 0u);

  StatsReport report;
  ASSERT_OK(db->GetStats(&report));
  EXPECT_GT(report.pool_frames, 0u);
  EXPECT_GT(report.pages_allocated, 0u);
  EXPECT_FALSE(report.last_rebuild_json.empty());
  EXPECT_TRUE(JsonIsValid(report.last_rebuild_json));

  EXPECT_FALSE(db->DumpStatsText().empty());
}

TEST(DbStatsTest, DumpStatsTextNamesEachCounterOnce) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {1, 2, 3});
  const std::string text = db->DumpStatsText();
  GlobalCounters::Get().Snapshot().ForEach(
      [&text](const char* name, uint64_t) {
        std::istringstream words(text);
        int seen = 0;
        for (std::string w; words >> w;) seen += w == name;
        EXPECT_EQ(seen, 1) << name;
      });
}

TEST(DbStatsTest, RecoveryStatsExportedThroughJsonPath) {
  auto db = MakeDb();
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 200; ++i) ids.push_back(i);
  test::InsertMany(db.get(), ids);
  RecoveryStats rstats;
  ASSERT_OK(db->CrashAndRecover(&rstats));
  EXPECT_TRUE(JsonIsValid(rstats.ToJson())) << rstats.ToJson();

  std::string doc = db->DumpStatsJson();
  EXPECT_TRUE(JsonIsValid(doc));
  EXPECT_NE(doc.find("\"records_scanned\""), std::string::npos) << doc;
}

TEST(RebuildResultTest, ToJsonRoundTrips) {
  RebuildResult r;
  r.old_leaf_pages = 10;
  r.keys_moved = 1234;
  std::string j = r.ToJson();
  EXPECT_TRUE(JsonIsValid(j)) << j;
  EXPECT_NE(j.find("\"old_leaf_pages\":10"), std::string::npos);
  EXPECT_NE(j.find("\"keys_moved\":1234"), std::string::npos);
}

}  // namespace
}  // namespace oir
