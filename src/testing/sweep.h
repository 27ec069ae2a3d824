#ifndef OIR_TESTING_SWEEP_H_
#define OIR_TESTING_SWEEP_H_

// Crash-sweep driver: runs a seeded workload (writer transactions racing an
// online rebuild, with a fuzzy checkpoint midway) against an in-memory
// database wrapped in a FaultInjectingDisk, crashes it at one enumerated
// crash point, recovers, and checks the recovery oracle.
//
// The oracle is exact, not just structural: because a power cut fails every
// flush, a transaction whose Commit() returned OK has a durable commit
// record and must survive recovery, while any transaction whose commit
// failed or never ran is a loser and must be rolled back. The harness keeps
// the set of keys committed by the workload and compares it against a full
// scan of the recovered tree, in addition to CheckInvariants() (oracle.h).
//
// Every failure message embeds a one-command reproduction:
//   OIR_TEST_SEED=<seed> OIR_SWEEP_THROTTLE=<p> OIR_CRASH_POINT=<name>#<hit>
//   ./crash_sweep_test

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "recovery/recovery.h"
#include "util/status.h"

namespace oir::fault {

struct SweepWorkloadOptions {
  // Workload seed (satellite: overridable via OIR_TEST_SEED in tests).
  uint64_t seed = 1;

  // Keys inserted (one committed transaction) before the threads start, so
  // the rebuild has a multi-page tree to move.
  uint32_t preload_keys = 360;

  // Writer-thread transactions raced against the rebuild.
  uint32_t writer_ops = 240;

  // Small rebuild batches => many top-action / transaction boundaries, so
  // the rebuild.* crash points all get hit several times.
  uint32_t rebuild_ntasize = 4;
  uint32_t rebuild_xactsize = 8;

  // Take one fuzzy checkpoint midway through the writer's run (covers the
  // ckpt.* points and recovery-from-checkpoint).
  bool checkpoint_midway = true;

  // Admission-control knob for the concurrent rebuild (RebuildOptions::
  // max_foreground_degradation_pct; 0 = unthrottled). Emitted in every
  // repro line and read back from OIR_SWEEP_THROTTLE by the sweep tests.
  uint32_t rebuild_throttle_pct = 0;
};

// Runs the workload to completion with crash-point counting enabled and no
// point armed; returns every (name, hits) pair observed, sorted by name.
// This is the sweep's coverage census: the driver arms hit ordinals drawn
// from these counts.
Status EnumerateCrashPoints(const SweepWorkloadOptions& opts,
                            std::vector<std::pair<std::string, uint64_t>>* points);

// One sweep iteration result. `triggered` is false when the armed (point,
// hit) was never reached — thread scheduling made the workload end first —
// which the driver counts separately but does not fail on.
struct CrashIterationResult {
  bool triggered = false;
  uint64_t committed_keys = 0;  // model size the oracle verified against
  // Resume oracle: disposition of the concurrent online rebuild.
  bool rebuild_crashed = false;         // the rebuild died mid-flight
  uint64_t rebuild_committed_txns = 0;  // its committed transactions
  bool rebuild_resumed = false;         // post-recovery ResumeRebuild ran OK
  bool resumed_from_cursor = false;     // ...from a durable non-empty cursor
  RecoveryStats recovery;
};

// Runs the workload with `point`#`hit` armed as a power cut (log flushes
// fail + disk writes fail), waits for the threads to drain, restores the
// devices, runs crash recovery, and checks the oracle:
//   1. CheckInvariants() — structural: tree valid, no leftover SMO bits, no
//      deallocated limbo pages, space map and tree agree.
//   2. Exact state: a full scan equals the committed-operations model.
//   3. Liveness: the recovered database accepts a probe transaction.
//   4. Resume correctness: a rebuild that died with >= 1 committed
//      transaction must be re-armed from a durable cursor at most one
//      transaction behind its commit count (never from zero); resuming it
//      must succeed and re-establish oracles 1 and 2. A rebuild that
//      completed must leave nothing pending.
// Returns non-OK on any oracle failure, with the repro command embedded in
// the message. Also recovers (and checks) the no-crash case when the armed
// point never fires.
Status RunCrashIteration(const SweepWorkloadOptions& opts,
                         const std::string& point, uint64_t hit,
                         CrashIterationResult* result);

}  // namespace oir::fault

#endif  // OIR_TESTING_SWEEP_H_
