"""Alternating parent/change pairs of the perfbench runner (standard library
only).

Usage (from anywhere):

    python3 bench/perfbench_pairs.py --parent REV_OR_PATH \
        [--workload W ...] [--seed N] [--seconds S] [--pairs K]

Runs ``perfbench/run.py`` of two source trees, each in its own checkout:
the change (the tree this script sits in) and the parent, which is either
a directory or a git revision of the change's repository,
extracted with ``git archive REV | tar -x`` into a temporary directory
that is removed at the end.  Both trees' ``src`` and ``perfbench`` are
byte-compiled first, and one warm-up run per tree and workload is made and
discarded: the first run in a fresh tree reads ``peak_rss_mb`` higher than
the later ones.  Within each pair the tree that runs first alternates,
parent first in the first pair.  Every run uses the same ``--seed`` and
``--seconds``, untraced (``--trace 0``).  The workloads and each metric's
direction are read from the change's ``BENCHMARK.json``.

For each workload and metric it prints both sides' median and quartiles
over the pairs, the change/parent ratio of the medians, and the pairs the
change won (by the metric's direction in ``BENCHMARK.json``; ties count for
neither side), with the parent's interquartile spread beside the median
difference: the protocol by which a gain is claimed (wins in at least nine
tenths of the pairs, and medians further apart than the parent's
quartiles).  The last line of standard output is the same as JSON.  The
exit status is 1 when any run fails or reports ``"correct": false``.

This script runs perfbench as a program and never imports or edits it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunError(RuntimeError):
    """A perfbench run failed or its correctness gate did not pass."""


def extract(repo, rev, into):
    """``git archive rev | tar -x`` of ``repo`` into the directory ``into``."""
    archive = subprocess.Popen(
        ["git", "-C", str(repo), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RunError(f"could not extract revision {rev!r} of {repo}")


def prepare(tree):
    """Byte-compile the tree's sources and benchmark before any timed run."""
    for sub in ("src", "perfbench"):
        if not compileall.compile_dir(str(tree / sub), quiet=1):
            raise RunError(f"byte-compiling {tree / sub} failed")


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{tree}: run.py exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RunError(f"{tree}: correctness gate failed on {workload}: {result}")
    return result


def benchmark(tree):
    """The workload names and {metric: 'lower' | 'higher'} of the tree's
    BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    return workloads, {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """Per metric: each side's quartiles, the ratio of medians and the wins,
    over ``pairs``, a list of (parent result, change result)."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        row = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": [p1, p2, p3],
            "change": [c1, c2, c3],
            "ratio": c2 / p2 if p2 else None,
            "parent_iqr": p3 - p1,
            "wins": None,
        }
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            row["wins"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        out[name] = row
    return out


def report(workload, rows, npairs):
    print(f"== {workload}: {npairs} pairs")
    for name, r in rows.items():
        p1, p2, p3 = r["parent"]
        c1, c2, c3 = r["change"]
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        wins = "n/a" if r["wins"] is None else f"{r['wins']}/{npairs}"
        print(
            f"{name} [{r['unit']}]: parent {p2:.6g} ({p1:.6g}-{p3:.6g})"
            f" change {c2:.6g} ({c1:.6g}-{c3:.6g}) ratio {ratio} wins {wins}"
            f" |diff| {abs(c2 - p2):.3g} parent IQR {r['parent_iqr']:.3g}"
        )


def main(argv=None):
    known, better = benchmark(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a source tree, or a git revision")
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; every workload of BENCHMARK.json by default")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or known

    with tempfile.TemporaryDirectory(prefix="perfbench-parent-") as tmp:
        try:
            if Path(args.parent).is_dir():
                parent = Path(args.parent).resolve()
            else:
                parent = Path(tmp)
                extract(ROOT, args.parent, parent)
            trees = (parent, ROOT)
            for tree in trees:
                prepare(tree)
            summary = {}
            for workload in workloads:
                run = lambda tree: run_once(tree, workload, args.seed, args.seconds)
                for tree in trees:
                    run(tree)  # warm-up, discarded
                pairs = []
                for k in range(args.pairs):
                    first = k % 2  # 0: parent first
                    done = {first: run(trees[first])}
                    done[1 - first] = run(trees[1 - first])
                    pairs.append((done[0], done[1]))
                rows = summarize(pairs, better)
                report(workload, rows, args.pairs)
                summary[workload] = {"pairs": args.pairs, "metrics": rows}
        except RunError as exc:
            print(f"perfbench pairs aborted: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({
        "parent": args.parent, "change": str(ROOT), "seed": args.seed,
        "seconds": args.seconds, "workloads": summary,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
