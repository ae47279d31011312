"""Seeded inputs, job scopes and the correctness gate of the benchmark.

A workload is a list of items.  An item is either one ``cli.run`` call whose
JSON report the gate checks label by label, or one step of the recurrence
pipeline that the gate compares against the interpolation oracle.  Every
item knows how many exact identity checks it stands for, so a failure is
counted in checks, never retried and never redrawn.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from quadlattice import cli, pdeverify, ttrr
from quadlattice import families as fam
from quadlattice.matrix import ExactMatrix

# Scopes, scaled so that one cold-start job of each workload takes a few
# seconds on a 2-core machine in pure-Python Fraction arithmetic.
PDE_MAX_DEGREE = 1
TRIVARIATE_MAX_DEGREE = 0
TRIVARIATE_GRID = 2
FORMS_MAX_DEGREE = 1
TTRR_UPTO = 4

WORKLOADS = ("pde-sweep", "forms", "ttrr")

# The parameter sets of DEFAULT_PARAMS; the bar families share them.
PARAM_OWNER = {
    fam.RACAH: fam.RACAH,
    fam.RACAH_BAR: fam.RACAH,
    fam.WILSON: fam.WILSON,
    fam.WILSON_BAR: fam.WILSON,
    fam.CDH: fam.CDH,
    fam.CH: fam.CH,
    fam.CH_BAR: fam.CH,
    fam.CH_TRI: fam.CH_TRI,
}

# One prime per parameter position.  Every DEFAULT_PARAMS denominator is at
# most 11 (b4 = 5/11), so p >= 13 is coprime to all of them: the drawn value
# d + k/p with 0 < k < p has p in its denominator, and an integer combination
# of distinct parameters can never be an integer.  Hence no Pochhammer or
# operator denominator that is generic at the defaults can vanish.  Fixed
# primes keep every seed in the same height class.
PRIMES = (13, 17, 19, 23, 29, 31)

LADDER_POINTS = 3  # verify-ladder spot-checks three diagonal points per label
RECOVER_CHECKS = 9  # eight recovered coefficients plus the eigenvalue

SECOND_ORDER_FAMILIES = (fam.RACAH, fam.WILSON, fam.WILSON_BAR, fam.CDH)
DIFFERENCE_FORM_FAMILIES = (fam.RACAH, fam.WILSON, fam.CH)
CONNECTION_PAIRS = ((fam.RACAH, fam.RACAH_BAR), (fam.WILSON, fam.WILSON_BAR), (fam.CH, fam.CH_BAR))


def draw_params(seed):
    """{owner family: {name: Fraction}}: each DEFAULT_PARAMS value plus k/p."""
    rng = random.Random(seed)
    draws = {}
    for owner in sorted(set(PARAM_OWNER.values())):
        names = fam.PARAM_NAMES[owner]
        draws[owner] = {
            name: fam.DEFAULT_PARAMS[owner][name] + Fraction(rng.randint(1, p - 1), p)
            for name, p in zip(names, PRIMES)
        }
    return draws


def cli_seed(seed):
    """The CLI grid seed: its offset is 1/7 + (seed mod 23)/101, and residue 0
    gives a lower-height grid, so draw from residues 1..22 only."""
    return 1 + seed % 22


def labels_up_to(nvars, bound):
    """All labels of total degree <= bound, restated here for the gate."""
    if nvars == 2:
        return [(n, m) for n in range(bound + 1) for m in range(bound + 1 - n)]
    return [
        (n, m, r)
        for n in range(bound + 1)
        for m in range(bound + 1 - n)
        for r in range(bound + 1 - n - m)
    ]


def sweep_points(label, nvars, grid_size=None):
    """Points a sweep must check for one label: (d + 3) per axis, with d the
    residual's degree bound sum(label) + 2, unless a grid size is stated."""
    size = grid_size if grid_size is not None else sum(label) + 5
    return size ** nvars


class CliItem:
    """One ``cli.run`` call and the checks its report must show.

    ``expected`` maps each label to its check count; ``counted`` says the
    report states each label's point count, which must then equal it.
    ``expected`` is None for recover-coeffs, whose report carries a diff.
    """

    def __init__(self, argv, expected, counted):
        self.argv = argv
        self.expected = expected
        self.counted = counted
        self.id = " ".join(argv[:3])
        self.checks = RECOVER_CHECKS if expected is None else sum(expected.values())
        self.report_bytes = 0

    def run(self, context):
        status, report = cli.run(self.argv)
        self.report_bytes = len(json.dumps(report, indent=2, sort_keys=True)) + 1
        return gate_report(status, report, self.expected, self.counted)


def gate_report(status, report, expected, counted):
    """Failed checks of one CLI report; every label must be present and pass
    with the expected point count, and the exit status must be 0."""
    total = RECOVER_CHECKS if expected is None else sum(expected.values())
    if status != cli.EXIT_OK:
        return total
    if expected is None:
        ok = report.get("match") is True and not report.get("diffs")
        return 0 if ok else total
    results = {tuple(r["label"]): r for r in report.get("results", [])}
    if set(results) != set(expected):
        return total
    failed = 0
    for label, checks in expected.items():
        record = results[label]
        if record.get("pass") is not True or (counted and record.get("points") != checks):
            failed += checks
    return failed


class TtrrFamilyItem:
    """Family-leading and monic ``generate`` up to ``upto``, compared entry
    by entry with the oracle: P_n equals the oracle, and G_n times the monic
    P_n equals it too, G_n being the family's leading matrix."""

    def __init__(self, spec, upto):
        self.spec = spec
        self.upto = upto
        self.id = f"ttrr {spec.family} U={upto}"
        self.checks = 2 * sum(n + 1 for n in range(upto + 1))

    def run(self, context):
        spec = self.spec
        family_vectors = ttrr.generate(spec, self.upto, leading="family")
        monic_vectors = ttrr.generate(spec, self.upto, leading="monic")
        failed = 0
        for n in range(self.upto + 1):
            oracle = ttrr.family_poly_vector(spec, n)
            context[(spec.family, n)] = oracle
            g = ttrr.leading_matrix(spec.family, spec.params, n)
            scaled = g.apply_rows(monic_vectors[n].entries)
            for k in range(n + 1):
                failed += not (family_vectors[n][k] - oracle[k]).is_zero()
                failed += not (scaled[k] - oracle[k]).is_zero()
        return failed


class ConnectionItem:
    """C = connection(G, Gbar) per degree: the round trip C Cbar = I, and
    C times the bar family's oracle vector equals the family's."""

    def __init__(self, base, bar, params, upto):
        self.base, self.bar, self.params, self.upto = base, bar, params, upto
        self.id = f"connect {base}/{bar} U={upto}"
        self.checks = sum(n + 2 for n in range(upto + 1))

    def run(self, context):
        failed = 0
        for n in range(self.upto + 1):
            g = ttrr.leading_matrix(self.base, self.params, n)
            gbar = ttrr.leading_matrix(self.bar, self.params, n)
            c = ttrr.connection(g, gbar)
            c_back = ttrr.connection(gbar, g)
            failed += (c * c_back) != ExactMatrix.identity(n + 1)
            mapped = c.apply_rows(context[(self.bar, n)].entries)
            for k, poly in enumerate(context[(self.base, n)].entries):
                failed += not (mapped[k] - poly).is_zero()
        return failed


def _param_args(draws, family):
    args = []
    for name, value in draws[PARAM_OWNER[family]].items():
        args += ["--param", f"{name}={value}"]
    return args


def _sweep_item(command, family, degree, draws, seed, counted, grid_size=None, per_label=None):
    nvars = 3 if family == fam.CH_TRI else 2
    argv = [command]
    if family != fam.CH_TRI:
        argv += ["--family", family]
    argv += ["--max-total-degree", str(degree), "--seed", str(seed)]
    if grid_size is not None:
        argv += ["--grid-size", str(grid_size)]
    argv += _param_args(draws, family)
    expected = {
        label: per_label or sweep_points(label, nvars, grid_size)
        for label in labels_up_to(nvars, degree)
    }
    return CliItem(argv, expected, counted)


def build(workload, seed):
    """(items, tables, draws) of one workload at one seed.

    Building the items constructs every FamilySpec; ``tables`` holds the
    printed coefficient tables the workload's families solve.  Both belong
    to set-up, so a degenerate draw fails before the first check.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    draws = draw_params(seed)
    grid_seed = cli_seed(seed)
    items = []
    if workload == "pde-sweep":
        # verify-pde and verify-trivariate ignore --seed; only parameters vary
        for family in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH):
            items.append(_sweep_item("verify-pde", family, PDE_MAX_DEGREE, draws, grid_seed, True))
        items.append(
            _sweep_item(
                "verify-trivariate", fam.CH_TRI, TRIVARIATE_MAX_DEGREE, draws, grid_seed, True,
                grid_size=TRIVARIATE_GRID,
            )
        )
        table_families = (fam.RACAH, fam.WILSON, fam.CDH, fam.CH, fam.CH_TRI)
    elif workload == "forms":
        for family in fam.LADDER_DIRECTION:
            items.append(
                _sweep_item(
                    "verify-ladder", family, FORMS_MAX_DEGREE, draws, grid_seed, False,
                    per_label=LADDER_POINTS,
                )
            )
        for family in SECOND_ORDER_FAMILIES:
            items.append(_sweep_item("verify-second-order", family, FORMS_MAX_DEGREE, draws, grid_seed, False))
        for family in DIFFERENCE_FORM_FAMILIES:
            items.append(_sweep_item("verify-difference-form", family, FORMS_MAX_DEGREE, draws, grid_seed, False))
        argv = ["recover-coeffs", "--family", fam.RACAH, "--seed", str(grid_seed)]
        items.append(CliItem(argv + _param_args(draws, fam.RACAH), None, False))
        table_families = (fam.RACAH,)
    else:
        for family in ttrr.TTRR_FAMILIES:
            spec = fam.FamilySpec(family, draws[PARAM_OWNER[family]])
            items.append(TtrrFamilyItem(spec, TTRR_UPTO))
        for base, bar in CONNECTION_PAIRS:
            items.append(ConnectionItem(base, bar, draws[PARAM_OWNER[base]], TTRR_UPTO))
        table_families = (fam.RACAH, fam.WILSON, fam.CDH, fam.CH)
    tables = [
        pdeverify.coefficients(fam.FamilySpec(family, draws[PARAM_OWNER[family]]))
        for family in table_families
    ]
    return items, tables, draws


COLD_CACHES = ("_eval_cached", "racah_uni", "wilson_uni", "cdh_uni", "ch_uni")


def cache_infos():
    return {name: getattr(fam, name).cache_info() for name in COLD_CACHES}


def assert_cold():
    """Raise unless every family cache is empty and untouched: a job must pay
    the cache fill, as every CLI invocation does."""
    warm = {
        name: info
        for name, info in cache_infos().items()
        if info.currsize or info.hits or info.misses
    }
    if warm:
        raise RuntimeError(f"family caches are not cold at job start: {warm}")


def scope(workload):
    """One-line description of a workload's job, for the environment record."""
    if workload == "pde-sweep":
        return (
            f"verify-pde racah/wilson/cdh/ch degree<={PDE_MAX_DEGREE}; "
            f"verify-trivariate degree<={TRIVARIATE_MAX_DEGREE} grid {TRIVARIATE_GRID}"
        )
    if workload == "forms":
        return (
            f"verify-ladder x7, verify-second-order x4, verify-difference-form x3 "
            f"degree<={FORMS_MAX_DEGREE}; recover-coeffs racah"
        )
    return f"generate family+monic x7 vs oracle, connection x3 pairs, degree<={TTRR_UPTO}"
