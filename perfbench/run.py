#!/usr/bin/env python3
"""End-to-end benchmark of the DEBAR library: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus the debar_perf program) into
.bench_build/; later calls rebuild incrementally. A run prints a report
(every metric with its unit and sample count) and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

--selftest runs every workload twice at a small size and once traced,
and checks that every count and modeled metric repeats exactly and that
no run had more runnable threads than the machine has CPUs.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "debar_perf")
WORKLOADS = ("hust-cluster", "tenant-files", "aged-chain")
# Each run must end well inside 180 s; debar_perf stops its own rounds
# at 150 s, this is the backstop.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "debar_perf", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


class ThreadWatch:
    """Samples the process's thread count and how many are runnable."""

    def __init__(self, pid):
        self.pid = pid
        self.max_threads = 0
        self.max_runnable = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        task_dir = "/proc/%d/task" % self.pid
        while not self._stop.wait(0.25):
            try:
                tids = os.listdir(task_dir)
            except OSError:
                return
            runnable = 0
            for tid in tids:
                try:
                    with open(os.path.join(task_dir, tid, "stat")) as f:
                        state = f.read().rsplit(")", 1)[1].split()[0]
                except (OSError, IndexError):
                    continue
                runnable += state == "R"
            self.max_threads = max(self.max_threads, len(tids))
            self.max_runnable = max(self.max_runnable, runnable)

    def stop(self):
        self._stop.set()
        self._thread.join()


def run_program(workload, seed, seconds, trace, small=False):
    """Run debar_perf once; returns (parsed JSON, ThreadWatch) or None."""
    workdir = os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if trace:
        traces = os.path.join(WORK_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    if small:
        cmd.append("--small")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watch = ThreadWatch(proc.pid)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("debar_perf timed out after %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        watch.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log("debar_perf exited with %d" % proc.returncode)
        return None
    lines = out.strip().splitlines()
    if not lines:
        log("debar_perf printed nothing")
        return None
    try:
        return json.loads(lines[-1]), watch
    except json.JSONDecodeError as e:
        log("debar_perf output is not JSON: %s" % e)
        return None


def report(result, watch, trace):
    print("workload %s  seed %d  rounds %d (traced %d)  %.1f s measured"
          % (result["workload"], result["seed"], result["rounds"],
             result["traced_rounds"], result["seconds"]))
    print("operations: %d attempted, %d failed; correct: %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print("threads: at most %d, at most %d runnable (%d CPUs)"
          % (watch.max_threads, watch.max_runnable, os.cpu_count() or 0))
    print("job_ms_tail is p%g over %d job operations"
          % (result["tail_percentile"], result["job_ops"]))
    for err in result["errors"]:
        print("error: %s" % err)
    section = "per_layer" if trace else "end_to_end"
    for name, m in result[section].items():
        n = "  n=%d" % m["n"] if m["n"] else ""
        print("  %-32s %16.6g %-6s%s" % (name, m["value"], m["unit"], n))


def same(a, b):
    """Counts match exactly; modeled times may differ in their last bits
    (their per-node clock sums follow container placement)."""
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def selftest():
    ok = True
    cpus = os.cpu_count() or 1
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 0, 1):
            got = run_program(workload, seed=7, seconds=0, trace=trace,
                             small=True)
            if got is None:
                print("%s: run failed" % workload)
                ok = False
                break
            runs.append(got)
        if len(runs) < 3:
            continue
        problems = []
        for result, watch in runs:
            if not result["correct"]:
                problems.append("incorrect: %s" % result["errors"][:3])
            if watch.max_runnable > cpus:
                problems.append("%d runnable threads on %d CPUs"
                                % (watch.max_runnable, cpus))
        base = runs[0][0]["counts"]
        for i, (result, _) in enumerate(runs[1:], start=1):
            diff = sorted(k for k in set(base) | set(result["counts"])
                          if not same(base.get(k), result["counts"].get(k)))
            if diff:
                problems.append("run %d counts differ: %s" % (i, diff))
        print("%s: %s (%d counts compared)"
              % (workload, "PASS" if not problems else "FAIL", len(base)))
        for p in problems:
            print("  " + p)
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log("build ready after %.1f s" % (time.monotonic() - started))
    if args.selftest:
        return selftest()

    got = run_program(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    result, watch = got
    report(result, watch, args.trace)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result[section].items()}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
