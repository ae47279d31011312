"""Layer timings for the quadlattice proof engine (standard library only).

Usage (from the repository root):

    python3 bench/run_bench.py [--quick] [--out PATH] [--baseline PATH]

Layers timed:

  L0  scalar field operations: Fraction and GaussianRational add, mul, div
      and hash, plus GaussianRational x Fraction in both operand orders.
      ``L0.gauss.hash`` hashes the same values on every repeat, so it times
      a read of the hash each value stores on first use;
      ``L0.gauss.hash_first`` times the first hash of values built in the
      same repeat (a conjugate, then its hash);
  L1  the four univariate primaries (racah_uni, wilson_uni, cdh_uni,
      ch_uni) at n = 0..4, with their caches cleared before every repeat,
      each call building one ``_Factor`` and reading its upper vector,
      lower vector and dot;
      and ``pochhammer`` at n = 0..4 on Fraction (``L1.pochhammer.fraction``)
      and Gaussian (``L1.pochhammer.gauss``) arguments, each a default-sized
      value plus k/p for the primes p of perfbench's parameter draws;
  L2  tables and chains: ``coefficients`` for each family,
      ``derived_coefficients`` of each distinct bivariate table in the
      directions x, y and xy, and the monic chain ``GChain(spec, 4)`` for
      the seven recurrence families (``L2.gchain.<family>``); whole
      ``generate(spec, 4, leading)`` calls (upto 2 with ``--quick``) for the
      same seven families with monic and family leading matrices, each on a
      spec built inside the repeat, so that each builds the monic chain a
      spec keeps, as one command does (ops: the recurrence steps); one
      S_n / T_n derivation on the monomials, the one a chain makes per
      degree, ``_phi_blocks`` of a fresh copy of the printed table per repeat
      at degree 4 (2 with ``--quick``), for the same seven families and for
      ch-tri (ops: the monomials the table acts on); for racah and racah-bar,
      the blocks on the paper's F-basis, ``sn_tn_derived`` at the same degree
      on a fresh copy of the table per repeat (``L2.sn_tn_paper.<family>``,
      ops: the monomials imaged at degrees n and n - 1, whose blocks its
      change of basis reads); ``operator_images`` of a fresh copy of each
      printed table per repeat, at degree 4 for the seven bivariate tables
      and 6 for ch-tri at either size (``L2.operator_images.<family>``, ops: the
      monomials imaged), so that a table's symbolic split and univariate
      images are built inside the timed call; the printed leading
      matrix ``leading_matrix(family, params, 4)`` of the seven recurrence
      families at either size (``L2.leading.<family>``, ops: its 25
      entries); the
      interpolation oracle ``family_poly_vector(spec, 3)``
      (n = 1 with ``--quick``) for the same seven families, which samples
      its members on the grid in integers (``families.family_grid``), with
      the family caches cleared before every repeat; and
      ``interpolate_on_grid`` of that oracle's members at degree 4
      (1 with ``--quick``) on field-valued samples recorded outside the
      timed call, so that the interpolation reads apart from the sampling
      (ops: the interpolated polynomials; the oracle itself hands its
      integer samples to ``interpolate_parts_on_grid``, which skips the
      samples' ``integer_parts``); ``L2.interpolate.recover`` does the
      same for the grid of ``recover_coefficients`` at the default Racah
      parameters (nine polynomials on 6 x 6 points, at either size);
  L3  residual sweeps: ``verify_table`` for racah, wilson, cdh and ch at
      total degree <= 2 (<= 0 with ``--quick``) and for ch-tri at degree 0
      on a 2-point grid, with the family caches cleared before every
      repeat; each call builds its printed table, which folds each grid
      point once.  And one label's grid sampling
      (``L3.label_grid.<family>``): the ``family_grid`` call that samples
      label (1, 1) ((1, 0, 0) for ch-tri) of a fresh spec on the tensor
      grid its sweep grid's stencils weigh, as ``StencilGrid`` makes it,
      the stencils folded outside the timed call (ops: the samples).
  L4  exact linear algebra on the inputs the proofs hand it: every
      ``exact_inverse`` (one Gauss-Jordan elimination, with no pivot scan
      before it), ``ExactMatrix.rank`` (the
      rank conditions on A_n and C_n, a fraction-free elimination) and
      every recurrence step ``ttrr._read_step`` (``L4.read_step.generate``: the
      stacked monic step read off the L rows, with polynomial right-hand
      sides, one slot per row and the other rows compared with it, no
      elimination) that
      ``generate(spec, 4, leading)`` (upto 2 with ``--quick``) makes for the
      seven recurrence families with monic and family leading matrices,
      and the 12 axis inverses (M_v^T)^-1 that ``recover_coefficients``
      builds, one per variable and coordinate of its 6 x 6 grid
      (``L4.exact_inverse.recovery``), each input recorded once before the
      timing.  No recurrence inverts anything; the family leading checks
      each of Lambda_1..Lambda_upto invertible with the pivot scan
      ``check_invertible``, so ``L4.pivot_scan.generate`` records 4 scans
      per family-leading ``generate`` at upto 4 (2 at upto 2).  The same
      runs' polynomial combinations, every ``MPoly.combine_rows`` call
      (``L4.combine.generate``: the right-hand sides of each step, one call
      per variable, and the family leading's Lambda_n Phat_n, one
      ``apply_rows`` per degree; ops: the calls), each recorded with its
      rows and polys before the timing.
  L5  the pointwise layer, per lattice kind (quadratic: racah, Wilson
      square: wilson, linear: ch, 3-variable linear: ch-tri):
      ``fold_terms`` of the family's printed table at each point of a
      3-per-axis grid (2 with ``--quick``), coefficients evaluated outside
      the timed call, each call building its own one-variable axis entries
      and rows, as the pointwise views and a singular row's points build
      them; ``CoeffTable.fold`` of a fresh copy of the
      ``coefficients(spec)`` table per repeat at each point of the same grid
      (``L5.table_fold.<kind>``), the table's monomial terms, rows and
      suffix contractions (or, before them, its coefficients evaluated at
      each point) all built inside the timed call, as a sweep builds them,
      and the table builder's arithmetic outside it; per one-variable
      lattice kind, ``apply_D`` at 40 grid
      coordinates (4 with ``--quick``), the S D and D^2 axis entries
      ``_axis_entry(lattice, s, l)`` for l = 1 and l = 2 at the same
      coordinates (``L5.axis_entry.<kind>``, ops: the entries), and 10
      calls of ``grid_points(lattice, 8)``; the point values of the
      nine-term forms' f_i, ``_form_values`` at each point of the label-(1, 1)
      grid of ``residual_grid`` (49 points at either size) on a fresh copy
      of the Wilson and of the continuous Hahn table per repeat
      (``L5.form_values.<family>``), so that the table's coefficient split
      is built inside the timed call; the 36 node solves of
      ``recover_coefficients`` at the default Racah parameters
      (``L5.recover_node.racah``), its ``sample`` recorded outside the timed
      call after one whole recovery, which has built the axis inverses it
      keeps, so each solve forms the node's stencil and its product with
      them; and the residual of each
      printed second-order form kind at label
      (1, 1) on a 3 x 3 grid (2 x 2 with ``--quick``), one equation built
      per repeat and ``residual(equation, ...)`` per point, each call
      folding its point afresh on a one-point ``StencilGrid``, with the
      family caches cleared before every repeat.
  L6  the printed forms end to end: in-process ``cli.run`` of
      ``verify-second-order`` for each of its four families, of
      ``verify-difference-form`` for each nine-term kind and of
      ``verify-ladder`` for each of the seven ladder families at total
      degree <= 1 (<= 0 with ``--quick``), with the family caches cleared
      before every repeat (ops: the command's residual or ladder checks);
      one whole ``recover_coefficients`` call for the default Racah
      parameters; and one ``residual(equation, ...)`` at label (1, 1) and
      one point per equation kind (the Racah coefficient table, each
      second-order kind, each nine-term kind), each equation built, and its
      stencil folded, inside the repeat: a table keeps its rows and suffix
      contractions, so one reused across repeats would time only the first.
  L7  family evaluation, per family: ``family_function(spec, label)`` at
      every neighbour (the keys of the integer stencil's weights) of
      ``CoeffTable.fold`` at each point of a
      3-per-axis grid (2 with ``--quick``), for every label of total degree
      <= 1, with the family caches cleared before every repeat and the
      stencils built outside the timed call.  Each neighbour is one
      one-point ``family_grid`` read, as the ladders and the ``eval``
      command read a value, and one shared by two stencils is read twice;
      the sweeps sample whole grids instead (``L3.label_grid``).

Every entry that evaluates family members (L2 oracle, L3, L5 second-order,
L6 and L7) builds its ``FamilySpec`` inside the repeat: a spec keeps its
members' factors once built, with the upper and lower vectors of every
coordinate they have met, so one reused across repeats would time the
building only in the first, where a command pays it on every run.

Every input is fixed (drawn from a seeded ``random.Random``), so two runs
on the same machine time the same work.  Each entry reports the operation
count of one repeat and the min, median and max seconds over the repeats.
The result is a JSON object with an environment record (Python version,
CPU count, repeat count) and the entries; it is printed and, with ``--out``,
written to a file.  With ``--baseline`` the result embeds an earlier run
under ``baseline`` and adds, for each entry, the change/baseline ratio of
the medians (``median_ratio``) and of the fastest repeats (``min_ratio``),
so one file holds a before/after comparison.  The minimum is the repeat
least disturbed by other load, so ``min_ratio`` is read beside the median
ratio, which can swing with the order in which the two runs were made.
The two runs are made at different times on a possibly shared machine, so
the result also reports ``drift``, the median ratio of the
``L0.fraction.*`` entries (they time the standard library's Fraction only,
which no change here can move), and each entry's ratio divided by it.
An entry is marked ``resolved`` only when its min-max range in this run,
divided by the drift, does not overlap its min-max range in the baseline,
and does not overlap it undivided either: a median ratio whose repeats
overlap the other run's repeats cannot be told from noise, and the drift,
read off a few entries of milliseconds, is too noisy to make a mark on its
own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quadlattice import families as fam  # noqa: E402
from quadlattice import cli, fbasis, latticeops, pdeverify, ttrr  # noqa: E402
from quadlattice.exactfield import GaussianRational, pochhammer  # noqa: E402
from quadlattice.matrix import ExactMatrix, check_invertible, exact_inverse  # noqa: E402

SCHEMA = "quadlattice-bench/1"


def _rationals(rng, count, lo, hi):
    """Rationals p/q with lo <= p <= hi and 1 <= q <= 11, p != 0."""
    out = []
    while len(out) < count:
        num = rng.randint(lo, hi)
        if num:
            out.append(Fraction(num, rng.randint(1, 11)))
    return out


def _gaussians(rng, count):
    return [
        GaussianRational(a, b)
        for a, b in zip(_rationals(rng, count, -9, 9), _rationals(rng, count, -9, 9))
    ]


def _l0_entries(size):
    rng = random.Random(0)
    qa, qb = _rationals(rng, size, -9, 9), _rationals(rng, size, -9, 9)
    ga, gb = _gaussians(rng, size), _gaussians(rng, size)
    qpairs, gpairs = list(zip(qa, qb)), list(zip(ga, gb))
    mixed = list(zip(ga, qb))

    def loop(op, pairs):
        return lambda: [op(a, b) for a, b in pairs]

    return {
        "L0.fraction.add": (loop(lambda a, b: a + b, qpairs), size),
        "L0.fraction.mul": (loop(lambda a, b: a * b, qpairs), size),
        "L0.fraction.div": (loop(lambda a, b: a / b, qpairs), size),
        "L0.fraction.hash": (lambda: [hash(a) for a in qa], size),
        "L0.gauss.add": (loop(lambda a, b: a + b, gpairs), size),
        "L0.gauss.mul": (loop(lambda a, b: a * b, gpairs), size),
        "L0.gauss.div": (loop(lambda a, b: a / b, gpairs), size),
        "L0.gauss.hash": (lambda: [hash(a) for a in ga], size),
        "L0.gauss.hash_first": (lambda: [hash(a.conjugate()) for a in ga], size),
        "L0.gauss_x_fraction.mul": (loop(lambda g, q: g * q, mixed), size),
        "L0.fraction_x_gauss.mul": (loop(lambda g, q: q * g, mixed), size),
    }


def _l1_args(points):
    """Argument tuples (without n) of each primary, shaped as the family
    couplings pass them: real Racah data, the conjugate pair e2 +- iy for
    Wilson and continuous dual Hahn, Gaussian continuous Hahn arguments."""
    # grid-like coordinates k + 1/7 and j - 3 + 2/9: no lower Racah
    # parameter (-t)_n, (t + 7/3)_n and no (-s)_k can vanish
    xs = [k % 9 + Fraction(1, 7) for k in range(points)]
    ys = [k % 7 - 3 + Fraction(2, 9) for k in range(points)]
    e2 = Fraction(2, 5)
    return {
        "racah_uni": [
            (Fraction(-8, 15), Fraction(2, 3), -t - 1, Fraction(2, 3) + t, s)
            for s, t in zip(xs, ys)
        ],
        "wilson_uni": [
            (Fraction(1, 2), Fraction(3, 4), GaussianRational(e2, y), GaussianRational(e2, -y), x)
            for x, y in zip(xs, ys)
        ],
        "cdh_uni": [
            (Fraction(1, 2), GaussianRational(e2, y), GaussianRational(e2, -y), x)
            for x, y in zip(xs, ys)
        ],
        "ch_uni": [
            (Fraction(1, 3), Fraction(5, 6), GaussianRational(e2, -y), GaussianRational(e2, y), x)
            for x, y in zip(xs, ys)
        ],
    }


def _pochhammer_args(points):
    """Pochhammer arguments at the heights the oracles' prefactors see: a
    default parameter plus k/p for perfbench's primes p, real and Gaussian."""
    rng = random.Random(1)
    primes = (13, 17, 19, 23, 29, 31)
    reals = [Fraction(k % 9 + 1, 4) + Fraction(rng.randint(1, p - 1), p)
             for k, p in zip(range(2 * points), primes * points)]
    return {
        "fraction": reals[:points],
        "gauss": [GaussianRational(a, b) for a, b in zip(reals[:points], reals[points:])],
    }


def _l1_entries(points):
    out = {}
    for name, arglist in _l1_args(points).items():
        fn = getattr(fam, name)
        for n in range(5):
            def job(fn=fn, n=n, arglist=arglist):
                fn.cache_clear()
                return [fn(n, *args) for args in arglist]

            out[f"L1.{name}.n{n}"] = (job, len(arglist))
    for kind, arglist in _pochhammer_args(points).items():
        for n in range(5):
            out[f"L1.pochhammer.{kind}.n{n}"] = (
                lambda n=n, arglist=arglist: [pochhammer(a, n) for a in arglist], len(arglist)
            )
    return out


def _recorded_samples(spec, degree):
    """The oracle's samples of the family's degree-``degree`` vector on its
    ``degree + 2``-per-axis grid, {point: values}."""
    samples = {}

    def sample(point):
        samples[point] = [fam.eval_family(spec, (degree - k, k), point) for k in range(degree + 1)]
        return samples[point]

    fbasis.interpolate_on_grid(spec.lattices(), degree + 2, sample)
    return samples


def _recorded_recover_sample():
    """The grid call of ``recover_coefficients`` at the default Racah
    parameters as (lattices, count, sample, nodes), recorded after one whole
    recovery, so ``sample`` keeps every axis inverse its nodes read."""
    ((lattices, count, sample),) = _recorded(
        pdeverify,
        "interpolate_on_grid",
        lambda: pdeverify.recover_coefficients(fam.FamilySpec(fam.RACAH).params),
    )
    return lattices, count, sample, list(product(*latticeops.grid_axes(lattices, count)))



# the degree of L2.leading, at either size
LEADING_DEGREE = 4
# the degree of L2.operator_images per variable count, at either size
IMAGES_DEGREE = {2: 4, 3: 6}


def _fresh(table):
    """A new table with the same coefficients: a table keeps its pointwise
    terms, rows and suffixes and its symbolic split and univariate images
    once built, so one reused across repeats would time them only in the
    first."""
    return pdeverify.CoeffTable(table.coeffs, table.eigenvalue, table.lattices)


def _l2_entries(oracle_degree, interpolate_degree, upto, phi_degree):
    """Default parameters throughout.  The table builds never touch the
    family caches, and the oracle clears the family caches, so repeats time
    the same work."""
    out = {}
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        out[f"L2.coefficients.{name}"] = (lambda spec=spec: pdeverify.coefficients(spec), 1)
    for name in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH):
        base = pdeverify.coefficients(fam.FamilySpec(name))
        for direction in ("x", "y", "xy"):
            out[f"L2.derived.{name}.{direction}"] = (
                lambda base=base, d=direction: pdeverify.derived_coefficients(base, d), 1
            )
    for name in ttrr.TTRR_FAMILIES:
        spec = fam.FamilySpec(name)
        out[f"L2.gchain.{name}"] = (lambda spec=spec: ttrr.GChain(spec, 4), 1)
        for leading in ("monic", "family"):
            out[f"L2.generate.{name}.{leading}"] = (
                lambda name=name, leading=leading: ttrr.generate(
                    fam.FamilySpec(name), upto, leading
                ),
                upto,
            )

        out[f"L2.leading.{name}"] = (
            lambda spec=spec: ttrr.leading_matrix(spec.family, spec.params, LEADING_DEGREE),
            (LEADING_DEGREE + 1) ** 2,
        )

        def oracle(name=name):
            _clear_family_caches()
            return ttrr.family_poly_vector(fam.FamilySpec(name), oracle_degree)

        out[f"L2.oracle.{name}"] = (oracle, 1)
        samples = _recorded_samples(spec, interpolate_degree)
        out[f"L2.interpolate.{name}"] = (
            lambda lattices=spec.lattices(), samples=samples: fbasis.interpolate_on_grid(
                lattices, interpolate_degree + 2, samples.__getitem__
            ),
            interpolate_degree + 1,
        )
    for name in ttrr.TTRR_FAMILIES + (fam.CH_TRI,):
        spec = fam.FamilySpec(name)
        table = pdeverify.coefficients(spec)
        out[f"L2.phi_blocks.{name}"] = (
            lambda table=table: ttrr._phi_blocks(_fresh(table), phi_degree),
            len(fbasis.graded(phi_degree, spec.nvars)),
        )
        if name in (fam.RACAH, fam.RACAH_BAR):
            out[f"L2.sn_tn_paper.{name}"] = (
                lambda spec=spec, table=table: ttrr.sn_tn_derived(spec, phi_degree, _fresh(table)),
                len(fbasis.graded(phi_degree, 2)) + len(fbasis.graded(phi_degree - 1, 2)),
            )
        degree = IMAGES_DEGREE[spec.nvars]
        out[f"L2.operator_images.{name}"] = (
            lambda table=table, degree=degree: pdeverify.operator_images(_fresh(table), degree),
            sum(len(fbasis.graded(d, spec.nvars)) for d in range(degree + 1)),
        )
    # every sample taken here, outside any timing
    lattices, count, sample, nodes = _recorded_recover_sample()
    samples = {point: sample(point) for point in nodes}
    out["L2.interpolate.recover"] = (
        lambda: fbasis.interpolate_on_grid(lattices, count, samples.__getitem__),
        len(next(iter(samples.values()))),
    )
    return out


FAMILY_CACHES = (fam._eval_cached, fam.racah_uni, fam.wilson_uni, fam.cdh_uni, fam.ch_uni)


def _clear_family_caches():
    """Empty the five LRU caches.  The only other family state, the member
    factors and their vectors, lives on the spec, which every entry builds
    afresh in each repeat."""
    for cache in FAMILY_CACHES:
        cache.cache_clear()


def _l3_entries(degree):
    """One sweep per family; ops is the number of residual checks."""
    out = {}
    sweeps = [(name, degree, None) for name in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH)]
    for name, bound, grid_size in sweeps + [(fam.CH_TRI, 0, 2)]:

        def job(name=name, bound=bound, grid_size=grid_size):
            _clear_family_caches()
            return pdeverify.verify_table(fam.FamilySpec(name), bound, grid_size=grid_size)

        checks = sum(r["points"] for r in job())
        out[f"L3.verify_table.{name}"] = (job, checks)
        label = (1, 1) if name != fam.CH_TRI else (1, 0, 0)
        axes = _label_grid_axes(name, label, grid_size)

        def sample(name=name, label=label, axes=axes):
            return fam.family_grid(fam.FamilySpec(name), [label], axes)

        out[f"L3.label_grid.{name}"] = (sample, len(sample()[0][1]))
    return out


def _label_grid_axes(name, label, grid_size):
    """The axes ``StencilGrid`` samples the label's member on: every
    coordinate the stencils of its sweep grid weigh."""
    spec = fam.FamilySpec(name)
    grid = pdeverify.StencilGrid(pdeverify.coefficients(spec), spec)
    for point in product(*pdeverify.residual_grid(spec, label, size=grid_size)):
        grid._stencil(point)
    return grid.axes


def _recorded(owner, name, run):
    """Run ``run()`` with ``owner.name`` wrapped to record its arguments;
    returns the recorded argument tuples.  Raises when ``run`` never calls
    it, so that no entry times an empty loop.  The attribute is put back as
    ``owner`` held it, a classmethod as a classmethod."""
    original = getattr(owner, name)
    held = vars(owner)[name]
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    setattr(owner, name, recording)
    try:
        run()
    finally:
        setattr(owner, name, held)
    if not calls:
        raise AssertionError(f"{name} was not called: its entry would time nothing")
    return calls


def _l4_entries(upto):
    """ops is the number of eliminations, scans, step reads or combinations
    in one repeat."""

    def generate_all():
        for name in ttrr.TTRR_FAMILIES:
            for leading in ("monic", "family"):
                ttrr.generate(fam.FamilySpec(name), upto, leading)

    scans = _recorded(ttrr, "check_invertible", generate_all)
    ranks = _recorded(ExactMatrix, "rank", generate_all)
    steps = _recorded(ttrr, "_read_step", generate_all)
    combinations = _recorded(fbasis.MPoly, "combine_rows", generate_all)
    axis_inverses = _recorded(
        pdeverify,
        "exact_inverse",
        lambda: pdeverify.recover_coefficients(fam.FamilySpec(fam.RACAH).params),
    )

    def loop(fn, calls):
        return lambda: [fn(*args) for args in calls], len(calls)

    return {
        "L4.pivot_scan.generate": loop(check_invertible, scans),
        "L4.rank.generate": loop(ExactMatrix.rank, ranks),
        "L4.read_step.generate": loop(ttrr._read_step, steps),
        "L4.combine.generate": loop(fbasis.MPoly.combine_rows, combinations),
        "L4.exact_inverse.recovery": loop(exact_inverse, axis_inverses),
    }


# lattice kind -> the family whose lattices and printed table L5 uses
L5_KINDS = {
    "quadratic": fam.RACAH,
    "wilson-square": fam.WILSON,
    "linear": fam.CH,
    "linear3": fam.CH_TRI,
}


def _l5_entries(size, coordinates):
    """ops is the number of folds, D applications, axis entries, grids or residuals."""
    out = {}
    for kind, name in L5_KINDS.items():
        spec = fam.FamilySpec(name)
        table = pdeverify.coefficients(spec)
        grid = list(product(*pdeverify.residual_grid(spec, (0,) * spec.nvars, size=size)))
        folds = []
        for point in grid:
            latpt = table.lattice_point(point)
            terms = [(fi.eval(latpt), lind) for fi, lind in zip(table.coeffs, table.lindices)]
            folds.append((point, [(c, lind) for c, lind in terms if c]))

        def fold(folds=folds, lattices=table.lattices):
            return [pdeverify.fold_terms(lattices, point, terms) for point, terms in folds]

        out[f"L5.fold.{kind}"] = (fold, len(folds))

        def table_fold(table=table, grid=grid):
            # a fresh copy of the printed table per repeat, so that its terms,
            # rows and suffixes are built inside the call, as a sweep builds
            # them; the builder's arithmetic is L2.coefficients's
            fresh = _fresh(table)
            return [fresh.fold(point) for point in grid]

        out[f"L5.table_fold.{kind}"] = (table_fold, len(grid))
        if spec.nvars == 3:
            continue
        lattice = spec.lattices()[0]
        coords = latticeops.grid_points(lattice, coordinates)
        square = lambda v, lattice=lattice: latticeops.lattice_value(lattice, v) ** 2
        out[f"L5.apply_D.{kind}"] = (
            lambda lattice=lattice, coords=coords, f=square: [
                latticeops.apply_D(lattice, f, s) for s in coords
            ],
            len(coords),
        )
        out[f"L5.axis_entry.{kind}"] = (
            lambda lattice=lattice, coords=coords: [
                pdeverify._axis_entry(lattice, s, l) for s in coords for l in (1, 2)
            ],
            2 * len(coords),
        )
        out[f"L5.grid_points.{kind}"] = (
            lambda lattice=lattice: [latticeops.grid_points(lattice, 8) for _ in range(10)],
            10,
        )
    for name in (fam.WILSON, fam.CH):
        spec = fam.FamilySpec(name)
        table = pdeverify.coefficients(spec)
        grid = list(product(*pdeverify.residual_grid(spec, (1, 1))))

        def form_values(table=table, grid=grid):
            fresh = _fresh(table)
            return [pdeverify._form_values(fresh, *point) for point in grid]

        out[f"L5.form_values.{name}"] = (form_values, len(grid))
    _, _, sample, nodes = _recorded_recover_sample()
    out["L5.recover_node.racah"] = (lambda: [sample(node) for node in nodes], len(nodes))
    for kind, (name, *_) in pdeverify.SECOND_ORDER_FORMS.items():
        spec = fam.FamilySpec(name)
        grid = list(product(*pdeverify.residual_grid(spec, (1, 1), size=size)))

        def job(kind=kind, name=name, grid=grid):
            _clear_family_caches()
            spec = fam.FamilySpec(name)
            equation = pdeverify.second_order_equation(kind, spec)
            return [pdeverify.residual(equation, spec, (1, 1), pt) for pt in grid]

        out[f"L5.second_order.{kind}"] = (job, len(grid))
    return out


def _l6_entries(degree):
    """ops is the number of residual checks of one command, or 1."""
    out = {}
    commands = [("verify-second-order", row[0]) for row in pdeverify.SECOND_ORDER_FORMS.values()]
    commands += [("verify-difference-form", name) for name in pdeverify.DIFFERENCE_FORMS]
    commands += [("verify-ladder", name) for name in fam.LADDER_DIRECTION]
    for command, name in commands:
        argv = [command, "--family", name, "--max-total-degree", str(degree)]

        def job(argv=argv):
            _clear_family_caches()
            code, report = cli.run(argv)
            if code != 0:
                raise AssertionError(f"{' '.join(argv)} exited {code}: {report}")
            return report

        labels = [tuple(r["label"]) for r in job()["results"]]
        # a ladder label sweeps |label| + 1 lattice values per axis, a form
        # label the default of residual_grid, |label| + 5
        extra = 1 if command == "verify-ladder" else 5
        checks = sum((sum(label) + extra) ** 2 for label in labels)
        out[f"L6.cli.{command}.{name}"] = (job, checks)
    point = (Fraction(8, 7), Fraction(15, 7))
    out["L6.recover_coefficients.racah"] = (
        lambda: pdeverify.recover_coefficients(fam.FamilySpec(fam.RACAH).params), 1
    )

    def equation_residual(build, name):
        spec = fam.FamilySpec(name)
        return pdeverify.residual(build(spec), spec, (1, 1), point)

    residuals = {"table.racah": (pdeverify.coefficients, fam.RACAH)}
    for kind, (name, *_) in pdeverify.SECOND_ORDER_FORMS.items():
        residuals[kind] = (partial(pdeverify.second_order_equation, kind), name)
    for name, kind in pdeverify.DIFFERENCE_FORMS.items():
        residuals[kind] = (partial(pdeverify.difference_form_equation, kind), name)
    for kind, (build, name) in residuals.items():

        def job(build=build, name=name):
            _clear_family_caches()
            if equation_residual(build, name) != 0:
                raise AssertionError("a printed equation has a nonzero residual")

        out[f"L6.residual.{kind}"] = (job, 1)
    return out


def _l7_entries(size):
    """ops is the number of member evaluations in one repeat."""
    out = {}
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        table = pdeverify.coefficients(spec)
        grid = product(*pdeverify.residual_grid(spec, (0,) * spec.nvars, size=size))
        neighbours = [q for point in grid for q in table.fold(point)[1]]
        labels = [lbl for lbl in product((0, 1), repeat=spec.nvars) if sum(lbl) <= 1]

        def job(name=name, neighbours=neighbours, labels=labels):
            _clear_family_caches()
            spec = fam.FamilySpec(name)
            for label in labels:
                f = fam.family_function(spec, label)
                for q in neighbours:
                    f(q)

        out[f"L7.family_eval.{name}"] = (job, len(labels) * len(neighbours))
    return out


def measure(entries, repeats):
    results = {}
    for name, (job, ops) in entries.items():
        job()  # warm-up: imports, method caches
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            job()
            times.append(time.perf_counter() - start)
        results[name] = {
            "ops": ops,
            "min_s": min(times),
            "median_s": statistics.median(times),
            "max_s": max(times),
        }
    return results


def environment(repeats):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
    }


def _parted(new, old, drift):
    """True when an entry's min-max range in this run lies wholly above or
    below its range in the baseline, the same way round whether or not this
    run's times are divided by the drift: the drift is itself an estimate
    from a few short entries, so it may clear a mark but never make one."""
    faster = max(new["max_s"], new["max_s"] / drift) < old["min_s"]
    slower = min(new["min_s"], new["min_s"] / drift) > old["max_s"]
    return faster or slower


def with_baseline(result, baseline):
    ratios, min_ratios = {}, {}
    for name, entry in result["entries"].items():
        old = baseline["entries"].get(name)
        if old and old["median_s"] > 0:
            ratios[name] = round(entry["median_s"] / old["median_s"], 4)
        if old and old["min_s"] > 0:
            min_ratios[name] = round(entry["min_s"] / old["min_s"], 4)
    drift = statistics.median(r for name, r in ratios.items() if name.startswith("L0.fraction."))
    adjusted = {name: round(r / drift, 4) for name, r in ratios.items()}
    resolved = {
        name: _parted(result["entries"][name], baseline["entries"][name], drift)
        for name in ratios
    }
    return dict(result, baseline=baseline, median_ratio=ratios, min_ratio=min_ratios,
                drift=drift, drift_adjusted_ratio=adjusted, resolved=resolved)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and 3 repeats instead of 25: a smoke run")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="an earlier run's JSON to embed and compare against")
    args = parser.parse_args(argv)
    repeats, size, points, degree, oracle_degree, interpolate_degree, upto, grid, form_degree = (
        (3, 200, 4, 0, 1, 1, 2, 2, 0) if args.quick else (25, 2000, 40, 2, 3, 4, 4, 3, 1)
    )
    phi_degree = 2 if args.quick else 4

    entries = dict(_l0_entries(size))
    entries.update(_l1_entries(points))
    entries.update(_l2_entries(oracle_degree, interpolate_degree, upto, phi_degree))
    entries.update(_l3_entries(degree))
    entries.update(_l4_entries(upto))
    entries.update(_l5_entries(grid, points))
    entries.update(_l6_entries(form_degree))
    entries.update(_l7_entries(grid))
    result = {
        "schema": SCHEMA,
        "environment": environment(repeats),
        "entries": measure(entries, repeats),
    }
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        result = with_baseline(result, baseline)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
