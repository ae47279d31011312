"""Command-line front end: construction, verification and matrix pipelines
with JSON output.

Every report embeds the resolved exact parameter set and the coefficient
table version; all numbers are exact strings, never floats.  Exit codes:
0 all requested residuals are exactly zero and consistency diffs are empty,
2 degenerate parameters / bad usage, 3 a residual or oracle comparison or
an internal consistency check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from itertools import product

from . import families as fam
from . import pdeverify as pv
from . import ttrr
from .exactfield import field_str, rat

TABLES_VERSION = "tables-v1"

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_MISMATCH = 3


def _int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``; anything else
    is a usage error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


DEGREE = _int_at_least(0)
GRID_SIZE = _int_at_least(1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadlattice",
        description="Exact construction and machine verification of the "
        "bivariate Racah/Wilson/continuous (dual) Hahn polynomial families "
        "on quadratic lattices.",
    )
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        if family:
            p.add_argument("--family", required=True, choices=fam.ALL_FAMILIES)
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="exact parameter override, repeatable (e.g. --param beta0=1/5)",
        )

    def seeded(p, text="grid jitter seed"):
        p.add_argument("--seed", type=int, default=0, help=text)

    unused_seed = "recorded in the report; this command's grid does not use it"

    p = sub.add_parser("eval", help="evaluate a family member at a point")
    common(p)
    p.add_argument("--label", required=True, help="comma-separated integers, e.g. 2,1")
    p.add_argument(
        "--point",
        required=True,
        help="comma-separated exact rationals, e.g. 3/2,5/2; "
        "write --point=-1/3,1 when the first is negative",
    )

    p = sub.add_parser("verify-pde", help="fourth-order residual sweep")
    common(p)
    seeded(p, unused_seed)
    p.add_argument("--max-total-degree", type=DEGREE, default=3)
    p.add_argument("--grid-size", type=GRID_SIZE, default=None)

    p = sub.add_parser("verify-trivariate", help="six-order residual sweep")
    common(p, family=False)
    seeded(p, unused_seed)
    p.add_argument("--max-total-degree", type=DEGREE, default=2)
    p.add_argument("--grid-size", type=GRID_SIZE, default=None)

    p = sub.add_parser("verify-ladder", help="difference-derivative identities")
    common(p)
    seeded(p)
    p.add_argument("--max-total-degree", type=DEGREE, default=2)

    p = sub.add_parser("verify-second-order", help="second-order equations")
    common(p)
    seeded(p)
    p.add_argument("--max-total-degree", type=DEGREE, default=3)
    p.add_argument("--grid-size", type=GRID_SIZE, default=None)

    p = sub.add_parser("verify-difference-form", help="nine-term stencil forms")
    common(p)
    seeded(p)
    p.add_argument("--max-total-degree", type=DEGREE, default=3)
    p.add_argument("--grid-size", type=GRID_SIZE, default=None)

    p = sub.add_parser(
        "recover-coeffs", help="re-derive the Racah table from the stencil form"
    )
    common(p)
    seeded(p, unused_seed)

    p = sub.add_parser("ttrr", help="dump recurrence matrices for one degree")
    common(p)
    p.add_argument("--n", type=DEGREE, required=True)
    p.add_argument("--monic", action="store_true")

    p = sub.add_parser("generate", help="generate polynomial vectors")
    common(p)
    p.add_argument("--upto", type=DEGREE, default=3)
    p.add_argument("--monic", action="store_true")

    p = sub.add_parser("connect", help="connection matrices between families")
    common(p)
    p.add_argument("--n", type=DEGREE, required=True, help="proves P_n = C Pbar_n at this n only")

    return parser


def _spec_from(args):
    overrides = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"bad --param {item!r}; expected NAME=VALUE")
        name, value = item.split("=", 1)
        overrides[name.strip()] = _read("--param", item, value, rat, "an exact rational")
    family = getattr(args, "family", fam.CH_TRI)
    return fam.FamilySpec(family, params=overrides)


def _grid_offset(seed):
    return Fraction(1, 7) + Fraction(seed % 23, 101)


def _read(option, text, entry, convert, what):
    """convert(entry), or a usage error that names the option and its text."""
    try:
        return convert(entry)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {option} {text!r}: {entry.strip()!r} is not {what}") from None


def _parse_tuple(option, text, convert, what, n=None):
    parts = text.replace(" ", "").split(",")
    if n is not None and len(parts) != n:
        raise ValueError(f"bad {option} {text!r}: expected {n} comma-separated entries")
    return tuple(_read(option, text, p, convert, what) for p in parts)


def _report_base(args, spec):
    return {
        "command": args.command,
        "family": spec.family,
        "params": spec.to_json()["params"],
        "tables_version": TABLES_VERSION,
        "seed": getattr(args, "seed", 0),
    }


def _pass_records(swept):
    return [pv.label_record(label, witness) for label, _, witness in swept]


def _run(args):
    spec = _spec_from(args)
    report = _report_base(args, spec)
    offset = _grid_offset(getattr(args, "seed", 0))
    status = EXIT_OK

    if args.command == "eval":
        label = _parse_tuple("--label", args.label, int, "an integer")
        point = _parse_tuple("--point", args.point, rat, "an exact rational", spec.nvars)
        value = fam.eval_family(spec, label, point)
        report["label"] = list(label)
        report["point"] = [field_str(v) for v in point]
        report["value"] = field_str(value)

    elif args.command in ("verify-pde", "verify-trivariate"):
        grid_size = args.grid_size
        if grid_size is None and args.command == "verify-trivariate":
            # the sixth-order sweep takes the smallest proof grid
            grid_size = args.max_total_degree + 1
        report["results"] = pv.verify_table(spec, args.max_total_degree, grid_size=grid_size)

    elif args.command == "verify-ladder":
        # D P - c P~ has total degree <= |label| - 1 in the lattice values: a
        # ladder's point map only shifts them (racah: x by -(2 beta1 + 1)/4 and
        # y by -(beta2 + 1); racah-bar: y by -(2 beta2 + 1)/4), so |label| + 1
        # values per axis prove it.  A ladder's two members come from two
        # specs, so no single equation's StencilGrid holds both, and it
        # checks each point as it goes
        report["results"] = _pass_records(pv.sweep(
            spec,
            args.max_total_degree,
            lambda label: (
                (pt, fam.derivative_ladder_check(spec, label, pt))
                for pt in product(*pv.residual_grid(spec, label, size=sum(label) + 1, offset=offset))
            ),
        ))

    elif args.command in ("verify-second-order", "verify-difference-form"):
        if args.command == "verify-second-order":
            # a PASS is a proof; the nine-term difference forms have rational
            # coefficients and no degree bound, so they stay a spot check
            pv.check_proof_grid(args.max_total_degree, args.grid_size)
            what, build = "second-order equation", pv.second_order_equation
            kind_of = {family: k for k, (family, *_) in pv.SECOND_ORDER_FORMS.items()}
            kind = kind_of.get(spec.family)
        else:
            what, build = "difference form", pv.difference_form_equation
            kind = pv.DIFFERENCE_FORMS.get(fam.base_family(spec.family))
        if kind is None:
            raise ValueError(f"no printed {what} for {spec.family}")
        equation = build(kind, spec)
        report["kind"] = kind
        report["results"] = _pass_records(
            pv.equation_sweep(equation, spec, args.max_total_degree, args.grid_size, offset)
        )

    elif args.command == "recover-coeffs":
        if spec.family != fam.RACAH:
            raise ValueError("coefficient recovery is defined for the racah family")
        recovered, eig = pv.recover_coefficients(spec.params)
        printed = pv.coefficients(spec)
        diffs = pv.compare_tables(recovered, printed)
        report["eigenvalue_1_1"] = field_str(eig)
        report["match"] = not diffs
        report["diffs"] = [
            {"coefficient": name, "delta": delta.to_json()} for name, delta in diffs
        ]
        expected_eig = printed.eigenvalue((1, 1))
        if diffs or eig != expected_eig:
            status = EXIT_MISMATCH

    elif args.command == "ttrr":
        n = args.n
        leading = "monic" if args.monic else "family"
        lead = ttrr.leading_matrices(spec, n + 1, leading)
        chain = ttrr.monic_chain(spec, n + 1)
        g, abc = ttrr.recurrence_blocks(chain, n, lead)
        out = {
            "n": n,
            "leading": leading,
            "entry_indexing": "1-based s_{k,k} lives at 0-based data[k-1][k-1]",
            "lambda_n": field_str(chain.lam[n]),
        }
        for name, m in zip(("Gnn", "Gn,n-1", "Gn,n-2"), g):
            out[name] = m.to_json()
        for j, matrices in enumerate(abc, 1):
            for name, m in zip("ABC", matrices):
                if m is not None:
                    out[f"{name}{j}"] = m.to_json()
        if n >= 1:
            # printed on the paper's basis, not the chain's monomials
            sn, tn = ttrr._on_working_bases(spec, n, chain.st.__getitem__, chain.lam)
            out["Sn"] = sn.to_json()
            out["Tn"] = tn.to_json()
        report["matrices"] = out

    elif args.command == "generate":
        leading = "monic" if args.monic else "family"
        vectors = ttrr.generate(spec, args.upto, leading=leading)
        report["leading"] = leading
        report["vectors"] = [
            {
                "degree": vec.degree,
                "entries": [p.to_json() for p in vec.entries],
            }
            for vec in vectors
        ]

    elif args.command == "connect":
        pair = fam.PAIR.get(spec.family)
        if pair is None:
            raise ValueError(f"no second family to connect for {spec.family}")
        n = args.n
        g = ttrr.leading_matrix(spec.family, spec.params, n)
        gbar = ttrr.leading_matrix(pair, spec.params, n)
        c = ttrr.connection(g, gbar)
        report["n"] = n
        report["other_family"] = pair
        report["connection"] = c.to_json()
        report["inverse_connection"] = ttrr.connection(gbar, g).to_json()
        # P_n = C Pbar_n as exact polynomial identities on the interpolated
        # members of both families, at this n only
        members = ttrr.family_poly_vector(spec, n).entries
        mapped = c.apply_rows(ttrr.family_poly_vector(fam.FamilySpec(pair, spec.params), n).entries)
        if any(not (p - q).is_zero() for p, q in zip(members, mapped)):
            status = EXIT_MISMATCH

    else:  # pragma: no cover
        raise ValueError(args.command)

    if not all(r["pass"] for r in report.get("results", ())):
        status = EXIT_MISMATCH
    return status, report


def _run_reporting_errors(args):
    """_run, with a raised error turned into an error report: exit 2 for
    bad input, exit 3 for a failed internal consistency check."""
    try:
        return _run(args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        # DegenerateParameterError and SingularPointError are ValueErrors; a
        # ZeroDivisionError is an ArithmeticError, yet it means degenerate input
        degenerate = isinstance(exc, (ValueError, ZeroDivisionError))
        return EXIT_DEGENERATE if degenerate else EXIT_MISMATCH, _error_report(args, str(exc))


def _error_report(args, message):
    return {"command": args.command, "error": message, "tables_version": TABLES_VERSION}


@cache
def _parser():
    """The parser, built on first use.  Parsing leaves it unchanged (an
    ``append`` option starts each parse from a copy of its default), so
    one serves every run in the process."""
    return build_parser()


def run(argv=None):
    """Parse arguments, run the command, and return (exit_code, report)."""
    return _run_reporting_errors(_parser().parse_args(argv))


def _write(fh, report):
    fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    args = _parser().parse_args(argv)
    # --out is opened before the command runs: an unwritable path is bad
    # usage, reported on stdout, and the command is not run
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        _write(sys.stdout, _error_report(args, f"bad --out {args.out!r}: {exc.strerror}"))
        return EXIT_DEGENERATE
    with out as fh:
        status, report = _run_reporting_errors(args)
        _write(fh, report)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
