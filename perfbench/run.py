#!/usr/bin/env python3
"""Builds and runs the benchmark of record (perfbench/oir_perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp_steady --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call configures and builds the engine and oir_perfbench in
$CARGO_TARGET_DIR (default .bench_build) with CMake; later calls only
rebuild what changed. Each run sets its database up from scratch, runs the
workload, checks the index after every set-up, rebuild and restart and at
the end, and prints every metric by name and unit. The last line of
standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
the end-to-end metrics that BENCHMARK.json lists (--trace 0) or its
per-layer metrics (--trace 1). `--workload all` runs every workload
untraced and traced and ends with one combined verdict.

Exits non-zero, without a result line, when the engine sources are missing,
the build fails, or a run exceeds its time limit; exits non-zero with
"correct": false when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp_steady", "rebuild_under_oltp", "durable_restart"]
RUN_LIMIT_S = 170  # one run after an up-to-date build check: under 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds oir_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return None
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("perfbench: cmake configure failed")
            return None
    cmd = ["cmake", "--build", bdir, "-j", "4", "--target", "oir_perfbench"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(bdir, "oir_perfbench")


def source_stamp():
    """git sha of the checkout, or a digest of src/ when it is not a repo."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "nogit-src-" + h.hexdigest()[:12]


def declared_metrics():
    """(end_to_end names, per_layer names) from BENCHMARK.json, or Nones."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None, None
    with open(path) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_once(exe, bdir, workload, seed, seconds, trace, sha, deadline):
    """Runs one workload; returns (result dict, metrics dict) or None."""
    data = os.path.join(bdir, "data-%d" % os.getpid())
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", data,
           "--git-sha", sha]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(data, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(data, ignore_errors=True)
        log("perfbench: %s run exceeded its time limit" % workload)
        return None
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
    shutil.rmtree(data, ignore_errors=True)
    if err:
        sys.stderr.write(err)
    result = None
    metrics = {}
    for line in out.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
            continue
        print("  " + line)
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 4)[:4]
            metrics[name] = {"value": float(value), "unit": unit}
    for line in err.splitlines():
        if "lock watchdog" in line:
            print("  watchdog " + line.strip())
            break
    if result is None:
        log("perfbench: %s exited %d without a result" %
            (workload, proc.returncode))
        return None
    return result, metrics


def select(metrics, names):
    """The metrics BENCHMARK.json declares, in its order; None if missing."""
    if names is None:
        return metrics
    missing = [n for n in names if n not in metrics]
    if missing:
        log("perfbench: run did not produce %s" % ", ".join(missing))
        return None
    return {n: metrics[n] for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2
    sha = source_stamp()
    end_to_end, per_layer = declared_metrics()

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct, attempted, failed, chosen = True, 0, 0, {}
    for workload, trace in runs:
        print("== %s seed %d trace %d" % (workload, args.seed, trace),
              flush=True)
        got = run_once(exe, bdir, workload, args.seed, args.seconds, trace,
                       sha, time.time() + RUN_LIMIT_S)
        if got is None:
            return 1
        result, metrics = got
        correct = correct and bool(result["correct"])
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        if result["correct"]:
            picked = select(metrics, per_layer if trace else end_to_end)
            if picked is None:
                return 1
            chosen = picked
    if args.workload == "all":
        chosen = {}  # each run's metrics were printed above
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": chosen if correct else {}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
