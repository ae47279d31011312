"""Benchmark runner for the quadlattice proof engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload {pde-sweep,forms,ttrr} --seed N \
        --seconds S --trace {0,1}

Every sample runs in a fresh single-threaded Python process, so each job
starts with empty family caches, as a CLI invocation does.  The runner
first takes several set-up-only samples, then repeats the workload's job
while the time budget allows and reports medians.  With ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

WORKLOADS = ("pde-sweep", "forms", "ttrr")
SETUP_SAMPLES = 10
MIN_JOBS = 3
CHILD_TIMEOUT_S = 150


class SampleError(RuntimeError):
    """A worker process failed to produce a result."""


def sample(workload, seed, mode, spans_path=None):
    """Run one worker; returns (its result, wall seconds of the process)."""
    argv = [sys.executable, str(WORKER), workload, str(seed), mode]
    if spans_path is not None:
        argv.append(str(spans_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    took = time.perf_counter() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(
            f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["t_ready"] - spawned
    return result, took


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def collect(workload, seed, seconds, trace):
    """All samples of one run, within the time budget."""
    deadline = time.perf_counter() + seconds
    setups, jobs, traced = [], [], []
    for _ in range(SETUP_SAMPLES):
        result, _ = sample(workload, seed, "setup")
        setups.append(result)
    longest = {"job": 0.0, "traced": 0.0}
    spans_path = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    min_jobs = 1 if trace else MIN_JOBS
    while True:
        mode = "traced" if trace and len(traced) < len(jobs) else "job"
        satisfied = len(jobs) >= min_jobs and len(traced) >= trace
        if satisfied and time.perf_counter() + longest[mode] > deadline:
            break
        result, took = sample(workload, seed, mode, spans_path if mode == "traced" else None)
        longest[mode] = max(longest[mode], took)
        (traced if mode == "traced" else jobs).append(result)
    return setups, jobs, traced


def environment(workload, seed, setups, jobs, traced):
    first = jobs[0]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python-flint": importlib.util.find_spec("flint") is not None,
        "workload": workload,
        "seed": seed,
        "cli_seed": first["cli_seed"],
        "params": first["draws"],
        "scope": first["scope"],
        "checks_per_job": first["checks"],
        "ref_s_median": statistics.median(t for r in jobs for t in r["ref_s"]),
        "samples": {"setup": len(setups) + len(jobs), "job": len(jobs), "traced": len(traced)},
    }


def end_to_end(setups, jobs):
    setup_wall_s = [r["setup_wall_s"] for r in setups + jobs]
    # median wall time times the median speed scale: a single 25 ms loop per
    # sample is too short to rescale that sample on its own
    setup_s = statistics.median(setup_wall_s) * statistics.median(r["setup_scale"] for r in setups + jobs)
    proof_s = [r["proof_s"] for r in jobs]
    return {
        "proof_s": (statistics.median(proof_s), "s"),
        "setup_s": (setup_s, "s"),
        "checks_per_s": (statistics.median(r["checks"] / r["proof_s"] for r in jobs), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in jobs), "MB"),
    }, {
        "proof_s": proof_s,
        "proof_wall_s": [r["proof_wall_s"] for r in jobs],
        "setup_wall_s": setup_wall_s,
    }


def per_layer(jobs, traced):
    untraced = statistics.median(r["proof_s"] for r in jobs)
    traced_s = statistics.median(r["proof_s"] for r in traced)
    metrics = {
        name: (statistics.median(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    metrics["cli.report_bytes"] = (traced[0]["report_bytes"], "bytes")
    metrics["trace.proof_s"] = (traced_s, "s")
    metrics["trace.proof_wall_s"] = (statistics.median(r["proof_wall_s"] for r in traced), "s")
    metrics["trace.untraced_proof_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadlattice" / "__init__.py").is_file():
        print(f"no quadlattice sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once so that no timed cold start pays the compilation
    compileall.compile_dir(str(SRC / "quadlattice"), quiet=1)

    try:
        setups, jobs, traced = collect(args.workload, args.seed, args.seconds, args.trace)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["checks"] for r in jobs + traced)
    failed = sum(r["failed"] for r in jobs + traced)
    print("env " + json.dumps(environment(args.workload, args.seed, setups, jobs, traced), sort_keys=True))
    for r in jobs + traced:
        for item in r["items"]:
            if item["failed"]:
                print("FAILED " + json.dumps(item), file=sys.stderr)
    metrics, series = end_to_end(setups, jobs)
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(values)} samples")
    print(f"failed_share: {failed}/{attempted} = {failed / attempted:.6f}")
    if args.trace:
        metrics = per_layer(jobs, traced)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
