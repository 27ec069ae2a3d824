// The per-operation paths that write no process-wide cache line or mutex,
// under real threads: the buffer-pool hit path (pin without the shard
// mutex, the claim rule, the waiter/waker protocol), the thread-striped
// counters, the reader-striped table lock and the sharded
// active-transaction table behind fuzzy checkpoints. Labeled
// `concurrency`, so the sanitizer lanes run every case.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "sync/table_lock.h"
#include "testing/crash_point.h"
#include "tests/test_util.h"
#include "util/counters.h"
#include "util/random.h"

namespace oir {
namespace {

using test::MakeDb;
using test::NumKey;

constexpr uint32_t kPageSize = 512;
constexpr uint32_t kStampOffset = kPageHeaderSize;

PageId StampOf(PageRef* ref) {
  ref->latch().LockS();
  PageId v;
  std::memcpy(&v, ref->data() + kStampOffset, sizeof(v));
  ref->latch().UnlockS();
  return v;
}

// A disk whose every page carries its own id as a stamp.
std::unique_ptr<MemDisk> StampedDisk(uint32_t pages) {
  auto disk = std::make_unique<MemDisk>(kPageSize, pages);
  std::string buf(kPageSize, 0);
  for (PageId p = 1; p < pages; ++p) {
    std::memcpy(buf.data() + kStampOffset, &p, sizeof(p));
    EXPECT_OK(disk->WritePage(p, buf.data()));
  }
  return disk;
}

// Readers pin pages of a working set four times the pool (every other
// fetch evicts) and check, before and after yielding with the pin held,
// that the frame still holds the page they pinned. Meanwhile one thread
// discards and re-creates a subset of the pages and another flushes at
// random. A frame claimed while pinned would show another page's stamp.
TEST(BufferPoolRaceTest, PinnedFrameIsNeverReused) {
  constexpr uint32_t kPages = 65;     // ids 1..64
  constexpr uint32_t kRecreated = 8;  // ids 1..8 are discarded/created
  auto disk = StampedDisk(kPages);
  BufferManager bm(disk.get(), /*pool_frames=*/16, /*shards=*/2);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> fetches{0};

  auto reader = [&](uint64_t seed) {
    Random rnd(seed);
    while (!stop.load()) {
      const PageId p = 1 + static_cast<PageId>(rnd.Uniform(kPages - 1));
      PageRef ref;
      Status s = bm.Fetch(p, &ref);
      if (s.IsNoSpace()) continue;  // every frame pinned at this instant
      ASSERT_OK(s);
      fetches.fetch_add(1);
      for (int check = 0; check < 2; ++check) {
        const PageId got = StampOf(&ref);
        // A re-created page reads zero until its creator stamps it.
        const bool ok = ref.id() == p &&
                        (got == p || (p <= kRecreated && got == 0));
        if (!ok) mismatches.fetch_add(1);
        std::this_thread::yield();
      }
    }
  };
  auto recreator = [&] {
    Random rnd(99);
    while (!stop.load()) {
      const PageId p = 1 + static_cast<PageId>(rnd.Uniform(kRecreated));
      bm.Discard(p);  // waits out the readers' pins
      PageRef ref;
      Status s = bm.Create(p, &ref);
      if (s.IsNoSpace()) continue;
      ASSERT_OK(s);
      ref.latch().LockX();
      std::memcpy(ref.data() + kStampOffset, &p, sizeof(p));
      ref.latch().UnlockX();
      ref.MarkDirty();
    }
  };
  auto flusher = [&] {
    Random rnd(7);
    while (!stop.load()) {
      ASSERT_OK(bm.FlushPage(1 + static_cast<PageId>(rnd.Uniform(kPages - 1))));
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 3; ++t) threads.emplace_back(reader, t + 1);
  threads.emplace_back(recreator);
  threads.emplace_back(flusher);
  while (fetches.load() < 4000) std::this_thread::yield();
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(GlobalCounters::Get().Snapshot().pool_evictions, 0u);
}

// A Discard blocked on a pin has no timer to fall back on: only the last
// Unpin's wake-up gets it going again. Race the unpin against the discard's
// registration many times; a lost wake-up leaves the discard stuck past
// the deadline.
TEST(BufferPoolRaceTest, LastUnpinWakesBlockedDiscard) {
  auto disk = StampedDisk(9);
  BufferManager bm(disk.get(), /*pool_frames=*/8);
  constexpr PageId kPage = 3;
  constexpr int kRounds = 300;
  std::atomic<int> go{0};    // round the discarder should run
  std::atomic<int> done{0};  // last round the discarder finished
  std::thread discarder([&] {
    for (int round = 1; round <= kRounds; ++round) {
      while (go.load() < round) std::this_thread::yield();
      bm.Discard(kPage);
      done.store(round);
    }
  });
  Random rnd(5);
  for (int round = 1; round <= kRounds; ++round) {
    PageRef ref;
    ASSERT_OK(bm.Fetch(kPage, &ref));
    go.store(round);
    // Vary how far the discard gets before the pin goes away.
    const uint32_t spins = rnd.Uniform(2000);
    for (uint32_t i = 0; i < spins; ++i) std::this_thread::yield();
    ref.Release();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (done.load() < round && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(done.load(), round) << "discard not woken in round " << round;
  }
  discarder.join();
  EXPECT_EQ(bm.CachedPages(), 0u);
}

// Every increment lands in some thread's stripe and stays there after the
// thread exits; more threads than stripes share stripes without losing any.
TEST(StripedCountersTest, ExactTotalsAcrossExitedThreads) {
  constexpr int kThreads = 8;
  constexpr int kBatches = 10;  // 80 threads in all: more than kThreadSlots
  constexpr uint64_t kIncrements = 5000;
  const CounterSnapshot before = GlobalCounters::Get().Snapshot();
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (uint64_t i = 0; i < kIncrements; ++i) {
          GlobalCounters::Local().pool_hits.fetch_add(
              1, std::memory_order_relaxed);
          GlobalCounters::Local().wal_inflight_bytes.fetch_add(
              3, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  // A gauge raised on the exited threads and lowered here sums to zero.
  GlobalCounters::Local().wal_inflight_bytes.fetch_sub(
      3 * kThreads * kBatches * kIncrements, std::memory_order_relaxed);
  const CounterSnapshot delta = GlobalCounters::Get().Snapshot() - before;
  EXPECT_EQ(delta.pool_hits, kThreads * kBatches * kIncrements);
  EXPECT_EQ(delta.wal_inflight_bytes, 0u);
}

// The exclusive side closes the lock, waits for the shared holder in
// flight and keeps new shared requests out until it unlocks.
TEST(TableLockTest, ExclusiveDrainsHoldersAndBlocksNewOnes) {
  TableLock lock;
  const auto kLong = std::chrono::seconds(30);
  ASSERT_TRUE(lock.LockShared(kLong));  // the in-flight operation
  std::atomic<int> seq{0};
  std::atomic<int> exclusive_at{0};
  std::atomic<int> late_reader_at{0};
  std::thread exclusive([&] {
    EXPECT_TRUE(lock.Lock(kLong));
    exclusive_at.store(++seq);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lock.Unlock();
  });
  // Let the exclusive side close the lock, then start a new request.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread late_reader([&] {
    EXPECT_TRUE(lock.LockShared(kLong));
    late_reader_at.store(++seq);
    lock.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(exclusive_at.load(), 0);  // still draining
  EXPECT_EQ(late_reader_at.load(), 0);
  const int released_at = ++seq;
  lock.UnlockShared();
  exclusive.join();
  late_reader.join();
  EXPECT_GT(exclusive_at.load(), released_at);
  EXPECT_GT(late_reader_at.load(), exclusive_at.load());
}

TEST(TableLockTest, BothSidesTimeOut) {
  TableLock lock;
  const auto kShort = std::chrono::milliseconds(30);
  ASSERT_TRUE(lock.LockShared(kShort));
  std::thread exclusive([&] { EXPECT_FALSE(lock.Lock(kShort)); });
  exclusive.join();
  lock.UnlockShared();
  // The timed-out exclusive side reopened the lock.
  ASSERT_TRUE(lock.LockShared(kShort));
  lock.UnlockShared();

  ASSERT_TRUE(lock.Lock(kShort));
  std::thread reader([&] { EXPECT_FALSE(lock.LockShared(kShort)); });
  reader.join();
  lock.Unlock();
}

// Enables the crash-point registry and parks the first thread that
// reaches `point`; disarms on scope exit.
struct ParkAt : test::Parking {
  explicit ParkAt(const char* point) {
    fault::CrashPointRegistry::SetEnabled(true);
    fault::CrashPointRegistry::Get().ResetCounts();
    Arm(point, 0);
  }
  ~ParkAt() {
    Release();
    fault::CrashPointRegistry::Get().Disarm();
    fault::CrashPointRegistry::SetEnabled(false);
  }
};

// RebuildOffline takes the table lock exclusive: it waits for an insert
// that is in flight, and an operation arriving meanwhile waits for the
// rebuild.
TEST(TableLockTest, OfflineRebuildWaitsOutInFlightOperation) {
  auto db = MakeDb();
  std::vector<uint64_t> base;
  for (uint64_t i = 0; i < 500; ++i) base.push_back(i * 2);
  test::InsertMany(db.get(), base);

  ParkAt in_flight("wal.append.post");  // inside the insert, lock held
  std::atomic<int> seq{0};
  std::atomic<int> insert_at{0};
  std::atomic<int> rebuild_at{0};
  std::atomic<int> lookup_at{0};
  std::thread inserter([&] {
    auto txn = db->BeginTxn();
    EXPECT_OK(db->index()->Insert(txn.get(), NumKey(1), 1));
    insert_at.store(++seq);
    EXPECT_OK(db->Commit(txn.get()));
  });
  ASSERT_TRUE(in_flight.WaitParked());
  std::thread rebuilder([&] {
    RebuildResult res;
    EXPECT_OK(db->index()->RebuildOffline(&res));
    rebuild_at.store(++seq);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread reader([&] {
    auto txn = db->BeginTxn();
    bool found = false;
    EXPECT_OK(db->index()->Lookup(txn.get(), NumKey(2), 2, &found));
    EXPECT_TRUE(found);
    lookup_at.store(++seq);
    EXPECT_OK(db->Commit(txn.get()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rebuild_at.load(), 0);
  EXPECT_EQ(lookup_at.load(), 0);
  in_flight.Release();
  inserter.join();
  rebuilder.join();
  reader.join();
  EXPECT_LT(insert_at.load(), rebuild_at.load());
  EXPECT_LT(rebuild_at.load(), lookup_at.load());
  base.push_back(1);
  test::ExpectTreeContains(db.get(),
                           std::set<uint64_t>(base.begin(), base.end()));
}

// An operation blocked behind RebuildOffline gives up after the lock
// manager's wait timeout, as a lock-manager request would.
TEST(TableLockTest, BlockedOperationTimesOutAborted) {
  auto db = MakeDb();
  test::InsertMany(db.get(), {2, 4, 6});
  db->lock_manager()->set_wait_timeout(std::chrono::milliseconds(50));

  ParkAt rebuilding("space.alloc.logged");  // inside RebuildOffline
  std::thread rebuilder([&] {
    RebuildResult res;
    EXPECT_OK(db->index()->RebuildOffline(&res));
  });
  ASSERT_TRUE(rebuilding.WaitParked());
  auto txn = db->BeginTxn();
  Status s = db->index()->Insert(txn.get(), NumKey(8), 8);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_NE(s.ToString().find("table lock timeout"), std::string::npos);
  EXPECT_OK(db->Abort(txn.get()));
  rebuilding.Release();
  rebuilder.join();
  test::ExpectTreeContains(db.get(), {2, 4, 6});
}

// SnapshotActive reads the sharded active table one shard at a time, yet
// it must list every transaction that logged before the capture and had
// not begun to commit by its end. Writers publish a transaction's id once
// it has logged and retract it before committing; an id published both
// before and after a capture was active throughout it.
TEST(ActiveTableTest, SnapshotListsEveryTransactionThatLogged) {
  auto db = MakeDb();
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::atomic<TxnId> published[kWriters];
  for (auto& p : published) p.store(kInvalidTxnId);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        auto txn = db->BeginTxn();
        const uint64_t id = (i * kWriters + w) * 2 + 1;
        ASSERT_OK(db->index()->Insert(txn.get(), NumKey(id), id));
        published[w].store(txn->id());
        for (int k = 0; k < 20; ++k) std::this_thread::yield();
        published[w].store(kInvalidTxnId);
        ASSERT_OK(db->Commit(txn.get()));
      }
    });
  }
  uint64_t checked = 0;
  for (int round = 0; round < 3000 || checked < 100; ++round) {
    TxnId before[kWriters];
    for (int w = 0; w < kWriters; ++w) before[w] = published[w].load();
    std::vector<CheckpointTxn> snap;
    Lsn oldest = kInvalidLsn;
    db->txn_manager()->SnapshotActive(&snap, &oldest);
    for (int w = 0; w < kWriters; ++w) {
      if (before[w] == kInvalidTxnId || published[w].load() != before[w]) {
        continue;
      }
      bool listed = false;
      for (const CheckpointTxn& t : snap) listed |= t.txn_id == before[w];
      EXPECT_TRUE(listed) << "txn " << before[w];
      EXPECT_NE(oldest, kInvalidLsn);
      ++checked;
    }
    if (round > 100000) break;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace oir
