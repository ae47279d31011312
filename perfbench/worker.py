"""One cold-start sample of a workload, run by ``run.py`` in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (set up, then stop), ``job`` (set up and run the job) or
``traced`` (the job with every layer wrapped in spans, written to
SPANS_PATH).  The last line of standard output is one JSON object;
``t_ready`` is the perf_counter reading at the end of set-up, which the
parent compares with its spawn time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import quadlattice  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Machine-speed calibration.  A fixed loop of stdlib Fraction arithmetic, the
# same kind of work as the proof, is timed between items; each stretch of
# items is rescaled by REF_NOMINAL_S over the mean of the loop times around
# it.  On a shared 2-core machine the speed of identical work swings by up to
# 2x over tens of seconds; the rescaled time follows the program, not the swing.
# REF_NOMINAL_S is the loop's time on such a machine when it runs at full
# speed, so rescaled seconds read as seconds at full speed.
REF_NOMINAL_S = 0.025
REF_EVERY_S = 0.5


def reference_load():
    """Time one pass of the calibration loop; independent of quadlattice."""
    start = time.perf_counter()
    acc = Fraction(0)
    x = Fraction(1, 7)
    for k in range(1, 1200):
        acc += Fraction(k, k + 3) * x
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k)
        if k % 50 == 0:
            x = Fraction(1, 7) + Fraction(k % 13, 11)
    return time.perf_counter() - start


def run_job(items, wrap=None):
    """Run every item once; returns (wall seconds, rescaled seconds, failed
    checks, per-item records, calibration loop times).  An escaped exception
    fails the whole item."""
    context = {}
    records = []
    wall = rescaled = 0.0
    stretch = 0.0
    refs = [reference_load()]
    for index, item in enumerate(items):
        run = wrap(item) if wrap else item.run
        start = time.perf_counter()
        try:
            failed = int(run(context))
            error = None
        except Exception:  # a crash is a failed item, never a crashed run
            failed = item.checks
            error = traceback.format_exc(limit=-3)
        took = time.perf_counter() - start
        wall += took
        stretch += took
        if stretch >= REF_EVERY_S or index == len(items) - 1:
            refs.append(reference_load())
            rescaled += stretch * REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            stretch = 0.0
        record = {"item": item.id, "checks": item.checks, "failed": failed, "s": took}
        if error:
            record["error"] = error
        records.append(record)
    return wall, rescaled, sum(r["failed"] for r in records), records, refs


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if Path(quadlattice.__file__).resolve().parent != SRC / "quadlattice":
        raise ImportError(f"quadlattice imported from {quadlattice.__file__}, not {SRC}")
    items, _tables, draws = workloads.build(workload, seed)
    workloads.assert_cold()
    t_ready = time.perf_counter()
    # the speed scale of set-up comes from the calibration loop right after it
    out = {"t_ready": t_ready, "setup_scale": REF_NOMINAL_S / reference_load()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    wrap = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        wrap = lambda item: tracer.wrap(tracing.ITEM_LAYER, item.run, lambda _a, i=item.id: i)
    wall, rescaled, failed, records, refs = run_job(items, wrap)
    out.update(
        proof_wall_s=wall,
        proof_s=rescaled,
        ref_s=refs,
        checks=sum(item.checks for item in items),
        failed=failed,
        items=records,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        report_bytes=sum(getattr(item, "report_bytes", 0) for item in items),
        draws={f: {k: str(v) for k, v in p.items()} for f, p in draws.items()},
        cli_seed=workloads.cli_seed(seed),
        scope=workloads.scope(workload),
    )
    if tracer is not None:
        tracer.restore()
        out["layers"] = layer_metrics(tracer, wall)
        tracer.write(argv[3])
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, traced_wall):
    """{name: (value, unit)} of one traced job."""
    metrics = {}
    attributed = 0.0
    for layer, (calls, self_s) in tracing.layer_summary(tracer.spans).items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        attributed += self_s
    infos = workloads.cache_infos()
    evals = infos["_eval_cached"]
    lookups = evals.hits + evals.misses
    uni_misses = sum(info.misses for name, info in infos.items() if name != "_eval_cached")
    metrics.update({
        "pdeverify.stencil_weights.terms": (tracer.counts["stencil_terms"], "count"),
        "families.eval.misses": (evals.misses, "count"),
        "families.eval.hit_ratio": (evals.hits / lookups if lookups else 0.0, "ratio"),
        "families.uni.misses": (uni_misses, "count"),
        "families.cache.entries": (sum(info.currsize for info in infos.values()), "count"),
        "exactfield.gauss_ops.calls": (tracer.counts["gauss_ops"], "count"),
        "exactfield.value_bits.max": (tracer.value_bits, "bits"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.unattributed_s": (traced_wall - attributed, "s"),
    })
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
