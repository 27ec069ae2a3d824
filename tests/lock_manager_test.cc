// Lock manager tests: S/X compatibility, re-entrancy, conditional and
// instant-duration requests, waiting, timeouts, and the address/logical
// lock namespaces.

#include "sync/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sync/mutex.h"
#include "tests/test_util.h"
#include "util/counters.h"

namespace oir {
namespace {

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm;
  LockKey k = AddressLockKey(1);
  ASSERT_OK(lm.Lock(1, k, LockMode::kS, false));
  ASSERT_OK(lm.Lock(2, k, LockMode::kS, false));
  EXPECT_TRUE(lm.IsHeld(1, k, LockMode::kS));
  EXPECT_TRUE(lm.IsHeld(2, k, LockMode::kS));
  lm.Unlock(1, k);
  lm.Unlock(2, k);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, ExclusiveConflictsConditional) {
  LockManager lm;
  LockKey k = AddressLockKey(1);
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  EXPECT_TRUE(lm.Lock(2, k, LockMode::kX, true).IsBusy());
  EXPECT_TRUE(lm.Lock(2, k, LockMode::kS, true).IsBusy());
  lm.Unlock(1, k);
  ASSERT_OK(lm.Lock(2, k, LockMode::kX, true));
  lm.Unlock(2, k);
}

TEST(LockManagerTest, ReentrantCounting) {
  LockManager lm;
  LockKey k = AddressLockKey(5);
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  lm.Unlock(1, k);
  EXPECT_TRUE(lm.IsHeld(1, k, LockMode::kX));  // still held once
  lm.Unlock(1, k);
  EXPECT_FALSE(lm.IsHeld(1, k, LockMode::kX));
}

TEST(LockManagerTest, UpgradeSToX) {
  LockManager lm;
  LockKey k = AddressLockKey(5);
  ASSERT_OK(lm.Lock(1, k, LockMode::kS, false));
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));  // sole holder: upgrade
  EXPECT_TRUE(lm.IsHeld(1, k, LockMode::kX));
  EXPECT_TRUE(lm.Lock(2, k, LockMode::kS, true).IsBusy());
  lm.Unlock(1, k);
  lm.Unlock(1, k);
}

TEST(LockManagerTest, UnconditionalWaitsForRelease) {
  LockManager lm;
  LockKey k = AddressLockKey(9);
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, k, LockMode::kX, false);
    EXPECT_TRUE(s.ok()) << s.ToString();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, k);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  lm.Unlock(2, k);
}

TEST(LockManagerTest, InstantDurationDoesNotRetain) {
  LockManager lm;
  LockKey k = AddressLockKey(3);
  // Instant on a free key returns immediately and holds nothing.
  ASSERT_OK(lm.LockInstant(1, k, LockMode::kS, false));
  EXPECT_EQ(lm.NumLockedKeys(), 0u);

  // Instant on a held key waits for release (the paper's SPLIT/SHRINK-bit
  // wait: "unconditional instant duration S lock").
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  EXPECT_TRUE(lm.LockInstant(2, k, LockMode::kS, true).IsBusy());
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    Status s = lm.LockInstant(2, k, LockMode::kS, false);
    EXPECT_TRUE(s.ok()) << s.ToString();
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  lm.Unlock(1, k);
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, TimeoutAborts) {
  LockManager lm;
  lm.set_wait_timeout(std::chrono::milliseconds(50));
  LockKey k = AddressLockKey(4);
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));
  EXPECT_TRUE(lm.Lock(2, k, LockMode::kX, false).IsAborted());
  EXPECT_TRUE(lm.LockInstant(2, k, LockMode::kS, false).IsAborted());
  lm.Unlock(1, k);
}

TEST(LockManagerTest, AddressAndLogicalNamespacesDisjoint) {
  LockManager lm;
  ASSERT_OK(lm.Lock(1, AddressLockKey(7), LockMode::kX, false));
  // Same numeric id in the logical namespace does not conflict.
  ASSERT_OK(lm.Lock(2, LogicalLockKey(7), LockMode::kX, false));
  EXPECT_EQ(lm.NumLockedKeys(), 2u);
  lm.Unlock(1, AddressLockKey(7));
  lm.Unlock(2, LogicalLockKey(7));
}

TEST(LockManagerTest, UnlockUnknownKeyIsNoop) {
  LockManager lm;
  lm.Unlock(1, AddressLockKey(1234));  // must not crash
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

TEST(LockManagerTest, ResetDropsEverything) {
  LockManager lm;
  ASSERT_OK(lm.Lock(1, AddressLockKey(1), LockMode::kX, false));
  ASSERT_OK(lm.Lock(2, LogicalLockKey(2), LockMode::kS, false));
  lm.Reset();
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
  ASSERT_OK(lm.Lock(3, AddressLockKey(1), LockMode::kX, true));
  lm.Unlock(3, AddressLockKey(1));
}

TEST(LockManagerTest, StressManyThreadsManyKeys) {
  LockManager lm;
  const uint64_t seed = test::TestSeed(1);
  OIR_SCOPED_SEED_TRACE(seed);
  constexpr int kThreads = 8;
  std::atomic<uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      for (int i = 0; i < 2000; ++i) {
        LockKey k = AddressLockKey(static_cast<PageId>(rnd.Uniform(37) + 1));
        LockMode m = rnd.OneIn(3) ? LockMode::kX : LockMode::kS;
        Status s = lm.Lock(t + 1, k, m, /*conditional=*/true);
        if (s.ok()) {
          ++acquisitions;
          lm.Unlock(t + 1, k);
        } else {
          EXPECT_TRUE(s.IsBusy()) << s.ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(acquisitions.load(), 1000u);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

// The long-wait watchdog inspects the holder table from inside the wait
// loop; WatchdogFire asserts the shard-mutex capability before touching it.
// A fire with the diagnostic emitted (counter bumped) proves the assert
// holds on that path.
TEST(LockManagerTest, WatchdogFiresOnLongWaitAndHoldsShardMutex) {
  LockManager lm;
  lm.set_long_wait_threshold(std::chrono::milliseconds(50));
  lm.set_wait_timeout(std::chrono::milliseconds(5000));
  LockKey k = AddressLockKey(7);
  ASSERT_OK(lm.Lock(1, k, LockMode::kX, false));

  const uint64_t fires_before =
      GlobalCounters::Get().Snapshot().lock_watchdog_fires;
  std::thread waiter([&] {
    Status s = lm.Lock(2, k, LockMode::kX, false);
    EXPECT_TRUE(s.ok()) << s.ToString();
    lm.Unlock(2, k);
  });
  // Hold well past the watchdog threshold so the waiter's wake fires it.
  while (GlobalCounters::Get().Snapshot().lock_watchdog_fires == fires_before) {
    std::this_thread::yield();
  }
  lm.Unlock(1, k);
  waiter.join();
  EXPECT_GT(GlobalCounters::Get().Snapshot().lock_watchdog_fires, fires_before);
  EXPECT_EQ(lm.NumLockedKeys(), 0u);
}

// Holder tracking makes AssertHeld a real runtime check in every build
// type, not just a hint to the static analysis.
TEST(MutexAssertHeldDeathTest, AssertHeldAbortsWhenNotHeld) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "OIR_CHECK failed");
  mu.Lock();
  mu.AssertHeld();  // held: must not abort
  mu.Unlock();
  EXPECT_DEATH(mu.AssertHeld(), "OIR_CHECK failed");
}

TEST(MutexAssertHeldDeathTest, AssertHeldAbortsFromOtherThread) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    // Held by the main thread, not by us.
    EXPECT_DEATH(mu.AssertHeld(), "OIR_CHECK failed");
  });
  other.join();
  mu.Unlock();
}

}  // namespace
}  // namespace oir
