// Concurrency tests: the Section 2 protocols under real threads — mixed
// insert/delete/scan workloads, concurrent structure modifications, and
// OLTP running against a live online rebuild (the paper's headline
// property).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/db.h"
#include "core/index.h"
#include "testing/oracle.h"
#include "tests/test_util.h"
#include "util/counters.h"
#include "util/random.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

// End-state oracle: full structural invariants (tree shape + space map
// agreement + no leftover SMO bits), beyond what Validate() alone checks.
void ExpectInvariants(Db* db) {
  Status s = fault::CheckInvariants(db->tree(), db->space_manager(),
                                    db->buffer_manager());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ConcurrencyTest, ParallelInsertsDistinctRanges) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db->BeginTxn();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t id = t * 1000000ull + i;
        Status s = db->index()->Insert(txn.get(), NumKey(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    });
  }
  for (auto& t : threads) t.join();
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, kThreads * kPerThread);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ParallelInsertsInterleavedKeys) {
  auto db = MakeDb();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db->BeginTxn();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t id = i * kThreads + t;  // adjacent keys from all threads
        Status s = db->index()->Insert(txn.get(), NumKey(id), id);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    });
  }
  for (auto& t : threads) t.join();
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, kThreads * kPerThread);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, MixedInsertDeleteScan) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 4000; ++i) base.push_back(i * 4);
  test::InsertMany(db.get(), base);

  std::atomic<bool> stop{false};
  std::atomic<int> scan_errors{0};

  // Writers churn disjoint id spaces (insert then delete their own keys).
  auto writer = [&](int t) {
    Random rnd(seed + t + 1);
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 100000ull * (t + 1) + rnd.Uniform(5000);
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        s = db->index()->Delete(txn.get(), NumKey(id), id);
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  // Scanners continuously verify the base keys remain visible in order.
  auto scanner = [&] {
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      auto cur = db->index()->NewCursor(txn.get());
      Status s = cur->SeekToFirst();
      uint64_t prev = 0;
      bool first = true;
      uint64_t base_seen = 0;
      while (s.ok() && cur->Valid()) {
        uint64_t rid = cur->rid();
        if (!first && rid <= prev) {
          ++scan_errors;
          break;
        }
        if (rid < 100000 && rid % 4 == 0) ++base_seen;
        prev = rid;
        first = false;
        s = cur->Next();
      }
      if (!s.ok() || base_seen != 4000) ++scan_errors;
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 2; ++t) threads.emplace_back(scanner);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(scan_errors.load(), 0);
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, 4000u);
  ExpectInvariants(db.get());
}

// The paper's headline property: OLTP keeps running during the rebuild,
// and the rebuild neither loses keys nor breaks the tree.
TEST(ConcurrencyTest, OltpDuringOnlineRebuild) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  // Half-full declustered index worth rebuilding.
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 8000; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  std::atomic<bool> rebuild_done{false};
  std::atomic<uint64_t> ops{0};
  std::set<uint64_t> stable(base.begin(), base.end());

  // Writers insert odd keys (never touched by the checker) and delete them.
  auto writer = [&](int t) {
    Random rnd(seed + 1000 + t);
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 1 + 2 * rnd.Uniform(8000);
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        ++ops;
        bool found = false;
        EXPECT_TRUE(
            db->index()->Lookup(txn.get(), NumKey(id), id, &found).ok());
        EXPECT_TRUE(found);
        EXPECT_TRUE(db->index()->Delete(txn.get(), NumKey(id), id).ok());
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  auto reader = [&] {
    Random rnd(seed + 7);
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 2 * rnd.Uniform(8000);
      bool found = false;
      Status s = db->index()->Lookup(txn.get(), NumKey(id), id, &found);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(found) << "stable key " << id << " missing during rebuild";
      ++ops;
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 3; ++t) threads.emplace_back(reader);

  RebuildOptions opts;
  opts.ntasize = 16;
  opts.xactsize = 128;
  // The rebuild's first progress report waits until the foreground has
  // made progress, so a rebuild that outruns thread start-up cannot end
  // the window first. The deadline only turns a stall into a failure.
  bool gated = false;
  opts.on_progress = [&](const obs::RebuildProgress&) {
    if (gated) return;
    gated = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (ops.load() <= 100) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "foreground stalled at " << ops.load() << " ops";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  RebuildResult res;
  Status s = db->index()->RebuildOnline(opts, &res);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(ops.load(), 100u);  // OLTP made progress during the rebuild

  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, stable.size());
  test::ExpectTreeContains(db.get(), stable);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ScansDuringRebuildStayConsistent) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 6000; ++i) base.push_back(i);
  test::InsertMany(db.get(), base);

  std::atomic<bool> rebuild_done{false};
  std::atomic<int> errors{0};
  auto scanner = [&] {
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      auto cur = db->index()->NewCursor(txn.get());
      Status s = cur->SeekToFirst();
      uint64_t count = 0;
      uint64_t prev = 0;
      bool first = true;
      while (s.ok() && cur->Valid()) {
        if (!first && cur->rid() <= prev) {
          ++errors;
          break;
        }
        prev = cur->rid();
        first = false;
        ++count;
        s = cur->Next();
      }
      if (!s.ok() || count != base.size()) ++errors;
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(scanner);

  RebuildResult res;
  Status s = db->index()->RebuildOnline(RebuildOptions(), &res);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(errors.load(), 0);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, OfflineRebuildBlocksWriters) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 2000; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  // A writer that records when it managed to run.
  std::atomic<bool> start_writer{false};
  std::atomic<bool> writer_finished{false};
  std::thread writer([&] {
    while (!start_writer.load()) std::this_thread::yield();
    auto txn = db->BeginTxn();
    EXPECT_TRUE(db->index()->Insert(txn.get(), NumKey(999999), 999999).ok());
    EXPECT_TRUE(db->Commit(txn.get()).ok());
    writer_finished.store(true);
  });

  RebuildResult res;
  start_writer.store(true);
  ASSERT_OK(db->index()->RebuildOffline(&res));
  writer.join();
  EXPECT_TRUE(writer_finished.load());
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, base.size() + 1);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, ConcurrentRebuildAndHeavyInsertLoadIntoSameRange) {
  // Inserts target the same key space the rebuild is walking through —
  // maximal interaction between the copy phase locks and writer traversals.
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 4000; ++i) base.push_back(i * 10);
  test::InsertMany(db.get(), base);

  std::atomic<bool> rebuild_done{false};
  std::atomic<uint64_t> inserted{0};
  std::vector<std::vector<uint64_t>> added(4);
  auto writer = [&](int t) {
    Random rnd(seed + t * 31 + 5);
    while (!rebuild_done.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = rnd.Uniform(40000);
      if (id % 10 == 0) id += 1;  // avoid colliding with base ids
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        added[t].push_back(id);
        ++inserted;
      } else {
        EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();  // duplicate
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(writer, t);

  RebuildOptions opts;
  opts.ntasize = 8;
  opts.xactsize = 64;
  RebuildResult res;
  Status s = db->index()->RebuildOnline(opts, &res);
  rebuild_done.store(true);
  for (auto& t : threads) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::set<uint64_t> expect(base.begin(), base.end());
  for (auto& v : added) expect.insert(v.begin(), v.end());
  TreeStats stats;
  ASSERT_OK(db->tree()->Validate(&stats));
  EXPECT_EQ(stats.num_keys, expect.size());
  test::ExpectTreeContains(db.get(), expect);
  ExpectInvariants(db.get());
}

TEST(ConcurrencyTest, BackToBackRebuildsUnderLoad) {
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 3000; ++i) base.push_back(i * 4);
  test::InsertMany(db.get(), base);

  std::atomic<bool> stop{false};
  auto writer = [&](int t) {
    Random rnd(seed + t);
    while (!stop.load()) {
      auto txn = db->BeginTxn();
      uint64_t id = 2 + 4 * rnd.Uniform(3000);  // ids ≡ 2 mod 4
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      if (s.ok()) {
        EXPECT_TRUE(db->index()->Delete(txn.get(), NumKey(id), id).ok());
      }
      EXPECT_TRUE(db->Commit(txn.get()).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) threads.emplace_back(writer, t);
  for (int round = 0; round < 3; ++round) {
    RebuildOptions opts;
    opts.ntasize = 4 << round;
    RebuildResult res;
    Status s = db->index()->RebuildOnline(opts, &res);
    ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(base.begin(), base.end()));
  ExpectInvariants(db.get());
}

// RebuildResult::log_bytes counts the rebuild's own records only. A writer
// running through the whole rebuild logs into the same WAL; its records
// are exactly what the global counters saw beyond the rebuild's.
TEST(ConcurrencyTest, RebuildLogVolumeExcludesConcurrentWriter) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 3000; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  const CounterSnapshot before = GlobalCounters::Get().Snapshot();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  LogAccount writer_log;  // the writer's own; read after the join
  std::thread writer([&] {
    for (uint64_t id = 1; !stop.load(); id += 2) {
      auto txn = db->BeginTxn();
      Status s = db->index()->Insert(txn.get(), NumKey(id), id);
      s = s.ok() ? db->Commit(txn.get()) : db->Abort(txn.get());
      EXPECT_OK(s);
      writer_log += txn->ctx()->logged;
      commits.fetch_add(1);
    }
  });
  while (commits.load() == 0) std::this_thread::yield();
  RebuildResult res;
  Status rs = db->index()->RebuildOnline(RebuildOptions(), &res);
  const uint64_t commits_during = commits.load();
  stop.store(true);
  writer.join();
  ASSERT_OK(rs);
  const CounterSnapshot delta = GlobalCounters::Get().Snapshot() - before;

  EXPECT_GT(commits_during, 1u);
  EXPECT_GT(res.log_bytes, 0u);
  EXPECT_GT(writer_log.bytes, 0u);
  EXPECT_EQ(res.log_bytes + writer_log.bytes, delta.log_bytes);
  EXPECT_EQ(res.log_records + writer_log.records, delta.log_records);
  ExpectInvariants(db.get());
}

}  // namespace
}  // namespace oir
