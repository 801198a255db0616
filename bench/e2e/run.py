#!/usr/bin/env python3
"""Runner of the end-to-end benchmark (bench/e2e/README.md).

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --workload all [--trace 0|1]
  python3 bench/e2e/run.py --repeat N [--workload W] [--vary-seed]
  python3 bench/e2e/run.py --smoke --check

Run from the root of a checkout. The runner builds salient_bench from source
into $CARGO_TARGET_DIR (default .bench_build), runs each workload in a fresh
child process, one at a time, and passes through its `workload metric value
unit` lines. A single-workload run ends with one JSON line holding the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1): {"correct", "attempted", "failed", "metrics"}.

--repeat runs each workload N times (one seed, or N seeds with --vary-seed),
prints every metric's median, quartiles, min and max, whether
train.loss_digest repeated, and exits 1 when an end-to-end metric's spread
(inter-quartile range over median) exceeds its BENCHMARK.json bound.

--smoke --check runs all four workloads at tiny sizes, untraced and traced,
and exits 1 unless every metric is printed with its unit, no operation
failed, every in-program check passed and each trace passes trace_check.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
WORKLOADS = ["train", "infer", "serve", "cluster"]
BUILD_TIMEOUT_S = 780
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.5


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configure (once) and build salient_bench; returns its directory."""
    build_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(build_dir))  # compiler scratch stays here
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j4"])
        for cmd in steps:
            # Its own process group, so a timeout stops make and every
            # compiler it started, not just cmake.
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, env=env,
                                    start_new_session=True)
            try:
                output, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise SystemExit(f"run.py: build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                log(output.decode(errors="replace")[-4000:])
                raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    return build_dir


def run_child(bin_dir, trace_check, workload, seed, seconds, trace, smoke):
    """Run one workload in a fresh process; returns its JSON report, or None
    when the process produced none."""
    out = bin_dir / "runs" / f"{workload}-s{seed}-t{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    report = out / "report.json"
    if report.exists():
        report.unlink()
    cmd = [str(bin_dir / "salient_bench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--json={report}"]
    if trace:
        cmd.append(f"--trace-dir={out}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, cwd=out)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {CHILD_TIMEOUT_S} s")
        return None
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if not report.exists():
        log(f"run.py: {workload} exited {proc.returncode} without a report")
        return None
    with open(report) as f:
        result = json.load(f)
    if trace:
        trace_file = out / f"{workload}.trace.json"
        check = subprocess.run([str(trace_check), str(trace_file),
                                "--min-tracks", "3"],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        ok = check.returncode == 0
        result["checks"].append({"what": "trace passes trace_check", "ok": ok})
        if not ok:
            log(check.stdout.decode(errors="replace"))
            result["correct"] = False
    return result


def contract_metrics(result, spec, trace):
    """The BENCHMARK.json metrics of one run, or None when one is missing.
    A per-layer metric of a layer the workload does not run reads 0."""
    have = {m["name"]: m for m in result["metrics"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None and not trace:
            log(f"run.py: {result['workload']} did not report {m['name']}")
            return None
        if got is not None and got["unit"] != m["unit"]:
            log(f"run.py: {m['name']} unit {got['unit']} != {m['unit']}")
            return None
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    return metrics


def spread(values):
    """Inter-quartile range over median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def repeat(args, bin_dir, trace_check, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in selected(args.workload):
        runs = []
        for i in range(args.repeat):
            seed = args.seed + (i if args.vary_seed else 0)
            result = run_child(bin_dir, trace_check, workload, seed,
                               args.seconds, False, args.smoke)
            if result is None or not result["correct"]:
                log(f"run.py: {workload} seed {seed} failed")
                failed = True
                continue
            runs.append(result)
        if not runs:
            continue
        print(f"== {workload}: {len(runs)} runs, seeds "
              f"{'varied' if args.vary_seed else 'fixed'}")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s} bound")
        names = [m["name"] for m in runs[0]["metrics"]]
        for name in names:
            values = [m["value"] for r in runs for m in r["metrics"]
                      if m["name"] == name]
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"{bound:.2f} {'ok' if s <= bound else 'EXCEEDED'}"
                failed |= s > bound
            print(f"{name:28s} {q[1]:12.6g} {q[0]:12.6g} {q[2]:12.6g} "
                  f"{min(values):12.6g} {max(values):12.6g} {s:7.4f} "
                  f"{verdict}")
        for name in runs[0].get("digests", {}):
            digests = [r["digests"][name] for r in runs]
            same = len(set(digests)) == 1
            print(f"{name}: {'repeated' if same else 'did NOT repeat'} "
                  f"({', '.join(digests)})")
    return 1 if failed else 0


def smoke_check(bin_dir, trace_check, spec):
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_child(bin_dir, trace_check, workload, 1,
                               SMOKE_SECONDS, trace, True)
            tag = f"{workload} ({'traced' if trace else 'untraced'})"
            if result is None:
                problems.append(f"{tag}: no report")
                continue
            problems += [f"{tag}: check failed: {c['what']}"
                         for c in result["checks"] if not c["ok"]]
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            problems += [f"{tag}: {m['name']} has no unit"
                         for m in result["metrics"] if not m["unit"]]
            if contract_metrics(result, spec, trace) is None:
                problems.append(f"{tag}: a BENCHMARK.json metric is missing")
    for p in problems:
        log("SMOKE FAILED:", p)
    print(f"smoke: {'FAILED' if problems else 'OK'} "
          f"({len(WORKLOADS)} workloads, untraced and traced)")
    return 1 if problems else 0


def selected(workload):
    return WORKLOADS if workload == "all" else [workload]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--bin-dir", type=Path,
                   help="use an existing build instead of building")
    p.add_argument("--trace-check", type=Path)
    args = p.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.bin_dir is None:
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        args.bin_dir = build(target if target.is_absolute() else ROOT / target)
    bin_dir = args.bin_dir.resolve()
    trace_check = (args.trace_check or
                   bin_dir / "salient" / "tools" / "trace_check").resolve()

    if args.smoke and args.check:
        return smoke_check(bin_dir, trace_check, spec)
    if args.repeat > 0:
        return repeat(args, bin_dir, trace_check, spec)

    for workload in selected(args.workload):
        result = run_child(bin_dir, trace_check, workload, args.seed,
                           args.seconds, args.trace == 1, args.smoke)
        metrics = result and contract_metrics(result, spec, args.trace == 1)
        if metrics is None:
            return 1
        line = {"correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
