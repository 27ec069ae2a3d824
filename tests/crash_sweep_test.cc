// Crash-point sweep: crash the database at every enumerated crash point of
// a seeded workload (writer transactions racing an online rebuild, with a
// fuzzy checkpoint midway), recover, and check the recovery oracle —
// structural invariants plus exact equality with the committed-operations
// model. A failing iteration prints its (seed, point#hit) pair; re-run
// with OIR_TEST_SEED=<seed> OIR_CRASH_POINT=<name>#<hit> to reproduce just
// that iteration.

#include "testing/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "testing/crash_point.h"
#include "tests/test_util.h"

namespace oir {
namespace {

using fault::CrashIterationResult;
using fault::CrashPointRegistry;
using fault::SweepWorkloadOptions;

// Reads a non-negative integer knob from the environment; `fallback` when
// unset or malformed.
uint32_t EnvKnob(const char* name, uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  unsigned long parsed = std::strtoul(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<uint32_t>(parsed);
}

SweepWorkloadOptions SweepOptions() {
  SweepWorkloadOptions opts;
  opts.seed = test::TestSeed(1);
  // The knob appears in every repro line the sweep prints, so a failing
  // iteration replays with the exact same throttle shape.
  opts.rebuild_throttle_pct =
      EnvKnob("OIR_SWEEP_THROTTLE", opts.rebuild_throttle_pct);
  return opts;
}

std::string Subsystem(const std::string& point) {
  return point.substr(0, point.find('.'));
}

TEST(CrashSweepTest, EnumerationCoversEverySubsystem) {
  SweepWorkloadOptions opts = SweepOptions();
  OIR_SCOPED_SEED_TRACE(opts.seed);
  std::vector<std::pair<std::string, uint64_t>> points;
  ASSERT_OK(fault::EnumerateCrashPoints(opts, &points));

  std::set<std::string> subsystems;
  for (const auto& [name, hits] : points) {
    EXPECT_GT(hits, 0u) << name;
    subsystems.insert(Subsystem(name));
  }
  // The issue's floor: >= 40 distinct crash points spanning the WAL, the
  // buffer pool, the space manager, the B-tree SMOs and the rebuild.
  EXPECT_GE(points.size(), 40u);
  for (const char* want :
       {"wal", "pool", "space", "btree", "txn", "rebuild", "ckpt"}) {
    EXPECT_TRUE(subsystems.count(want)) << "no crash point hit under '"
                                        << want << ".*'";
  }
}

// One iteration per armed (point, hit): this is the torture sweep. Each
// name is armed at its first hit and, when it hits often, once more in the
// middle of its range — different phases of the same code path crash in
// different page/log states.
TEST(CrashSweepTest, RecoveryOracleHoldsAtEveryCrashPoint) {
  SweepWorkloadOptions opts = SweepOptions();
  OIR_SCOPED_SEED_TRACE(opts.seed);
  std::vector<std::pair<std::string, uint64_t>> points;
  ASSERT_OK(fault::EnumerateCrashPoints(opts, &points));
  ASSERT_GE(points.size(), 40u);

  std::set<std::string> triggered_names;
  int iterations = 0;
  int triggered = 0;
  for (const auto& [name, hits] : points) {
    std::set<uint64_t> arm = {0};
    if (hits > 4) arm.insert(hits / 2);
    for (uint64_t hit : arm) {
      CrashIterationResult result;
      Status s = fault::RunCrashIteration(opts, name, hit, &result);
      EXPECT_OK(s);
      ++iterations;
      if (result.triggered) {
        ++triggered;
        triggered_names.insert(name);
      }
    }
  }
  // Thread scheduling may keep an occasional (point, mid-range hit) from
  // being reached on the replay — those iterations still recover and pass
  // the oracle — but the sweep must genuinely crash at 40+ distinct points.
  EXPECT_GE(triggered_names.size(), 40u)
      << "only " << triggered << "/" << iterations
      << " iterations triggered their armed crash point";
}

// Resume-correctness sweep (the tentpole's oracle 4, focused): crash at
// every rebuild-phase crash point — every hit ordinal, not just first and
// midpoint — and require that recovery re-arms the rebuild from its last
// durable progress record. RunCrashIteration itself fails any iteration
// where a rebuild that committed work would restart from zero; this test
// additionally checks the aggregate: the sweep genuinely exercised crashed
// rebuilds, resumes, and cursor-carrying resume points.
TEST(CrashSweepTest, RebuildCrashesAlwaysResumeFromDurableProgress) {
  SweepWorkloadOptions opts = SweepOptions();
  // The default workload's tree is small enough that the rebuild is a
  // single transaction — there is no mid-rebuild progress to preserve.
  // Give the rebuild a real middle: a deeper preload and smaller rebuild
  // transactions yield ~5 committed rebuild transactions, so most crash
  // ordinals land between progress records.
  opts.preload_keys = 1400;
  opts.writer_ops = 120;
  opts.rebuild_xactsize = 4;
  OIR_SCOPED_SEED_TRACE(opts.seed);
  std::vector<std::pair<std::string, uint64_t>> points;
  ASSERT_OK(fault::EnumerateCrashPoints(opts, &points));

  int crashed_rebuilds = 0;
  int resumed = 0;
  int resumed_from_cursor = 0;
  int restarted_from_zero = 0;
  for (const auto& [name, hits] : points) {
    if (name.rfind("rebuild.", 0) != 0) continue;
    for (uint64_t hit = 0; hit < hits; ++hit) {
      CrashIterationResult result;
      EXPECT_OK(fault::RunCrashIteration(opts, name, hit, &result));
      if (!result.triggered) continue;
      if (result.rebuild_crashed) ++crashed_rebuilds;
      if (result.rebuild_resumed) {
        ++resumed;
        if (result.resumed_from_cursor) {
          ++resumed_from_cursor;
        } else if (result.rebuild_committed_txns > 0) {
          // A cursor-less resume is legitimate only before the first
          // committed transaction (nothing to preserve yet).
          ++restarted_from_zero;
        }
      }
    }
  }
  EXPECT_EQ(restarted_from_zero, 0);
  EXPECT_GT(crashed_rebuilds, 0);
  EXPECT_GT(resumed, 0);
  EXPECT_GT(resumed_from_cursor, 0)
      << "no iteration resumed from a non-empty durable cursor — the sweep "
         "never exercised the interesting case";
}

// The one-command reproduction path the sweep prints on failure: when
// OIR_CRASH_POINT=<name>#<hit> is set, run exactly that iteration.
// Without it, spot-check a handful of high-value points deterministically.
TEST(CrashSweepTest, ReproducesSingleIterationFromEnvironment) {
  SweepWorkloadOptions opts = SweepOptions();
  OIR_SCOPED_SEED_TRACE(opts.seed);

  const char* spec = std::getenv("OIR_CRASH_POINT");
  if (spec != nullptr && *spec != '\0') {
    std::string name;
    uint64_t hit = 0;
    ASSERT_TRUE(CrashPointRegistry::ParseSpec(spec, &name, &hit))
        << "malformed OIR_CRASH_POINT: " << spec;
    CrashIterationResult result;
    ASSERT_OK(fault::RunCrashIteration(opts, name, hit, &result));
    return;
  }

  for (const char* name :
       {"txn.commit.pre_flush", "rebuild.copy.applied",
        "btree.split.moved", "ckpt.pages_flushed"}) {
    CrashIterationResult result;
    EXPECT_OK(fault::RunCrashIteration(opts, name, 0, &result));
  }
  // The in-memory log seals inline on the committing thread, so the first
  // hit of every pipeline step is always reached: a point that never fires
  // would pass the oracle without testing anything.
  for (const char* name :
       {"wal.pipeline.seal", "wal.pipeline.submit", "wal.pipeline.complete"}) {
    CrashIterationResult result;
    EXPECT_OK(fault::RunCrashIteration(opts, name, 0, &result));
    EXPECT_TRUE(result.triggered) << name << " was never reached";
  }
}

}  // namespace
}  // namespace oir
