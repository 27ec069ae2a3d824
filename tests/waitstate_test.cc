// Tests for the wait-state profiler (obs/waitstate.h): disabled-path
// no-ops, exact single-thread accounting, nested-span folding, and the
// headline invariant — per-state components of an operation sum to (at
// least 95% of) its wall-clock, including under concurrent recorders. Each
// wait is a Span on a site that classifies that wait state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/waitstate.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using obs::OpScope;
using obs::OpType;
using obs::Site;
using obs::Span;
using obs::WaitProfiler;
using obs::WaitState;

// Restores the global enable flag and drains the aggregates on scope exit,
// so a failing test can't leak profiler state into the rest of the suite.
struct WaitProfilerGuard {
  ~WaitProfilerGuard() {
    WaitProfiler::SetEnabled(false);
    WaitProfiler::Reset();
  }
};

void SpinFor(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

const WaitProfiler::OpBreakdown* Find(
    const std::vector<WaitProfiler::OpBreakdown>& snap, OpType t) {
  for (const auto& b : snap) {
    if (b.type == t) return &b;
  }
  return nullptr;
}

uint64_t StateNs(const WaitProfiler::OpBreakdown& b, WaitState s) {
  return b.state_ns[static_cast<size_t>(s)];
}

uint64_t SumStates(const WaitProfiler::OpBreakdown& b) {
  uint64_t sum = 0;
  for (size_t i = 0; i < obs::kNumWaitStates; ++i) sum += b.state_ns[i];
  return sum;
}

TEST(WaitStateTest, DisabledScopesRecordNothing) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(false);
  WaitProfiler::Reset();
  for (int i = 0; i < 1000; ++i) {
    OpScope op(OpType::kRead);
    Span ws(Site::kLatchWait);
  }
  EXPECT_TRUE(WaitProfiler::TakeSnapshot().empty());
  EXPECT_EQ(WaitProfiler::SpanStats(Site::kLatchWait).count, 0u);
}

TEST(WaitStateTest, SingleOpComponentsSumToWallClock) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();

  constexpr auto kRun = std::chrono::milliseconds(4);
  constexpr auto kWait = std::chrono::milliseconds(10);
  {
    OpScope op(OpType::kRead);
    SpinFor(kRun);
    Span ws(Site::kPoolWait);
    std::this_thread::sleep_for(kWait);
  }

  auto snap = WaitProfiler::TakeSnapshot();
  const auto* read = Find(snap, OpType::kRead);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->count, 1u);
  EXPECT_EQ(read->hist_count, 1u);

  const uint64_t run_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kRun).count();
  const uint64_t wait_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kWait).count();
  EXPECT_GE(read->wall_ns, run_ns + wait_ns);
  EXPECT_GE(StateNs(*read, WaitState::kRunning), run_ns);
  EXPECT_GE(StateNs(*read, WaitState::kIoWait), wait_ns);
  EXPECT_EQ(StateNs(*read, WaitState::kLatchWait), 0u);

  // The transitions close every segment into an accumulator, so the
  // components account for the whole operation (>= 95% leaves room only
  // for clock-read granularity).
  EXPECT_LE(SumStates(*read), read->wall_ns);
  EXPECT_GE(SumStates(*read), read->wall_ns * 95 / 100);
}

TEST(WaitStateTest, NestedWaitFoldsIntoOutermost) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();

  constexpr auto kWait = std::chrono::milliseconds(8);
  {
    OpScope op(OpType::kWrite);
    Span outer(Site::kLatchWait);
    // A WAL flush performed while blocked on a latch is still latch wait
    // from the operation's point of view.
    Span inner(Site::kWalFlushWait);
    std::this_thread::sleep_for(kWait);
  }

  auto snap = WaitProfiler::TakeSnapshot();
  const auto* write = Find(snap, OpType::kWrite);
  ASSERT_NE(write, nullptr);
  const uint64_t wait_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kWait).count();
  EXPECT_GE(StateNs(*write, WaitState::kLatchWait), wait_ns);
  EXPECT_EQ(StateNs(*write, WaitState::kWalCommitWait), 0u);
}

TEST(WaitStateTest, NestedOpScopeIsInert) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  {
    OpScope outer(OpType::kCommit);
    OpScope inner(OpType::kRead);  // e.g. a commit doing an internal read
    SpinFor(std::chrono::milliseconds(1));
  }
  auto snap = WaitProfiler::TakeSnapshot();
  EXPECT_NE(Find(snap, OpType::kCommit), nullptr);
  EXPECT_EQ(Find(snap, OpType::kRead), nullptr);
}

TEST(WaitStateTest, WaitOutsideAnyOpIsDropped) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  {
    // A background thread blocking with no operation open must not
    // surface in any per-op breakdown.
    Span ws(Site::kPoolWait);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(WaitProfiler::TakeSnapshot().empty());
}

TEST(WaitStateTest, ResetClearsAggregates) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  {
    OpScope op(OpType::kOther);
  }
  EXPECT_FALSE(WaitProfiler::TakeSnapshot().empty());
  WaitProfiler::Reset();
  EXPECT_TRUE(WaitProfiler::TakeSnapshot().empty());
}

TEST(WaitStateTest, ToJsonIsValidAndNamesStates) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();
  {
    OpScope op(OpType::kRebuild);
    Span ws(Site::kRebuildThrottle);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string doc = WaitProfiler::ToJson();
  EXPECT_TRUE(obs::JsonIsValid(doc)) << doc;
  EXPECT_NE(doc.find("\"rebuild\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"throttled\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wall_hist\""), std::string::npos) << doc;
}

TEST(WaitStateTest, ConcurrentRecordersCoverWallClock) {
  WaitProfilerGuard guard;
  WaitProfiler::SetEnabled(true);
  WaitProfiler::Reset();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        OpScope op((t + i) % 2 == 0 ? OpType::kRead : OpType::kWrite);
        SpinFor(std::chrono::microseconds(50));
        Span ws(Site::kLockWait);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Snapshot while recorders are live: must stay internally consistent.
  for (int i = 0; i < 10; ++i) {
    std::string doc = WaitProfiler::ToJson();
    EXPECT_TRUE(obs::JsonIsValid(doc));
  }
  for (auto& th : threads) th.join();

  auto snap = WaitProfiler::TakeSnapshot();
  uint64_t total_ops = 0;
  for (const auto& b : snap) {
    total_ops += b.count;
    EXPECT_EQ(b.hist_count, b.count);
    EXPECT_GE(SumStates(b), b.wall_ns * 95 / 100)
        << obs::OpTypeName(b.type);
    EXPECT_LE(SumStates(b), b.wall_ns) << obs::OpTypeName(b.type);
    EXPECT_GT(StateNs(b, WaitState::kLockWait), 0u);
  }
  EXPECT_EQ(total_ops,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
}  // namespace oir
