#!/usr/bin/env python3
"""Run the hpcci benchmark.

One workload, one seed, one measured run (how ``BENCHMARK.json``'s command
is run):

    python3 perfbench/run.py --workload peak_day --seed 1 --seconds 38 --trace 0

Every workload with its default seed, each in its own process, printing every
end-to-end metric by name and unit (add ``--trace 1`` for the per-layer
metrics, ``null`` ones with their reason):

    python3 perfbench/run.py --all

Run from the repository root. The script builds ``perfbench`` (a Cargo
package of its own that depends on the repository's crates by path) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs the plain binary for
untraced runs and the counting-allocator binary for traced ones, and prints
two lines: a detailed report (every metric, ``null`` with a reason where not
measured, the output check's failures, the digest and the host facts), then
the result line with exactly the metrics ``BENCHMARK.json`` declares. It
exits non-zero when the build fails, when an output check fails, or when a
declared metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["peak_day", "hpc_day", "ci_fleet"]
DEFAULT_SEEDS = {"peak_day": 1, "hpc_day": 2, "ci_fleet": 42}
# A run must end within 180 s; the measurement itself is --seconds long.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Build both binaries; build output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def host_facts():
    def out(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        text = done.stdout.strip()
        return text if done.returncode == 0 and text else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "--version"]),
        "commit": os.environ.get("BENCH_COMMIT") or out(["git", "rev-parse", "HEAD"]),
    }


def run_binary(workload, seed, seconds, trace):
    name = "perfbench-counted" if trace else "perfbench"
    exe = os.path.join(target_dir(), "release", name)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload}: timed out after {RUN_TIMEOUT_S} s\n")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(f"{workload}: no output (exit {done.returncode})\n")
        return None
    return json.loads(lines[-1])


def result_line(report, declared):
    """The result line: exactly the declared metrics, all numbers."""
    metrics = {}
    missing = []
    for m in declared:
        got = report["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    line = {
        "correct": bool(report["correct"]) and not missing,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    return line, missing


def one(workload, seed, seconds, trace, spec):
    report = run_binary(workload, seed, seconds, trace)
    if report is None:
        return None
    report["host"] = host_facts()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    line, missing = result_line(report, declared)
    print(json.dumps(report))
    if missing:
        sys.stderr.write(f"{workload}: declared metrics not reported: {', '.join(missing)}\n")
    for f in report["failures"]:
        sys.stderr.write(f"{workload}: check failed: {f}\n")
    print(json.dumps(line))
    return line


def run_all(seconds, trace):
    """Each workload in its own process, so RSS and set-up never carry over."""
    ok = True
    for w in WORKLOADS:
        report = run_binary(w, DEFAULT_SEEDS[w], seconds, trace)
        if report is None:
            ok = False
            continue
        ok = ok and bool(report["correct"])
        print(f"== {w} (seed {DEFAULT_SEEDS[w]}, {'traced' if trace else 'untraced'}): "
              f"correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']} digest={report['digest']}")
        for name, m in report["metrics"].items():
            value = m["value"]
            shown = f"{value:.6g}" if value is not None else f"null ({m.get('reason', '')})"
            print(f"  {name:34} {shown:>14} {m['unit']}")
        for f in report["failures"]:
            print(f"  FAILED: {f}")
    print(f"host: {json.dumps(host_facts())}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="every workload with its default seed")
    args = p.parse_args()
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"cannot read {SPEC}: {e}\n")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not args.all and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required without --all")
    if not build():
        sys.stderr.write("build failed\n")
        return 1
    if args.all:
        return 0 if run_all(seconds, args.trace) else 1
    line = one(args.workload, args.seed, seconds, args.trace, spec)
    return 0 if line is not None and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
