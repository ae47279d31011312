import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from quadlattice import cli, families, pdeverify, ttrr
from quadlattice.cli import EXIT_DEGENERATE, EXIT_MISMATCH, EXIT_OK, main, run

SRC = str(Path(__file__).resolve().parent.parent / "src")

# (argv, exit code, sha256 of json.dumps(report, indent=2, sort_keys=True)):
# at least one argv per command, so a refactor must keep every report
# byte-identical.
PINNED_REPORTS = [
    (["eval", "--family", "racah", "--label", "1,1", "--point", "3/2,5/2"], 0,
     "6fb95154e2e0c5ab7259eafaa685b9e397eb5470f8d080983ddaf83efd20e49c"),
    (["eval", "--family", "racah-bar", "--label", "1,1", "--point", "3/2,5/2"], 0,
     "6e518d732ea3c2b41aedbb2fadce9784d4a3c383374d49f748045f68bef5f92f"),
    (["eval", "--family", "wilson", "--label", "1,1", "--point", "1/2,1/3"], 0,
     "002500fbb2be4907c5d326804661a79ecbfb05daa8bf9d54b21daf8bb035aeed"),
    (["eval", "--family", "wilson-bar", "--label", "1,1", "--point", "1/2,1/3"], 0,
     "e84ee51e7e456aa0f3cdb609997136ed68c9b3802f108e63f2d7c00ec87e620a"),
    (["eval", "--family", "cdh", "--label", "1,1", "--point", "1/2,1/3"], 0,
     "0d628442f71a9c41e037e8ab49033bbfb4fa214f2d68d26adb91ce60d8b4c870"),
    (["eval", "--family", "ch", "--label", "1,1", "--point", "1/2,1/3"], 0,
     "4f0be6072aecb9603ea1a5b83e3081d107e41eedacfe47eef52f3698669c32b7"),
    (["eval", "--family", "ch-bar", "--label", "1,1", "--point", "1/2,1/3"], 0,
     "adeca86f0979956d87aabdabd9e2b5fe4b5c11ea07ee02badc5204c93a69265b"),
    (["eval", "--family", "ch-tri", "--label", "1,1,1", "--point", "1/2,1/3,1/5"], 0,
     "424ded2326b81ad29d9e83b2a621d674acfdab9b2baff4210c305f1ea38b0780"),
    (["verify-pde", "--family", "cdh", "--max-total-degree", "1"], 0,
     "3fb44f242a3cdb44f1e9c22aedb9ad66f132fc641a3b60ef38626708f9359586"),
    (["verify-pde", "--family", "wilson", "--max-total-degree", "0", "--grid-size", "3"], 0,
     "d3606ca48d8d69ecfd4ff86e87964a7b11ec4a08d701ea7ba676c49e1b599565"),
    (["verify-trivariate", "--max-total-degree", "0", "--grid-size", "2"], 0,
     "6055f477a2e3f8cfd466f24f3a29224ba32e0d3349a1819148e2c11365fc5f7f"),
    (["verify-ladder", "--family", "racah", "--max-total-degree", "1", "--seed", "5"], 0,
     "41e0864804348278bc2f51442e2f7d5291140fea7f96f51cee1f7e42900344c4"),
    (["verify-second-order", "--family", "wilson", "--max-total-degree", "1", "--seed", "3"], 0,
     "c66d8d6bd031bee8e3e8129b147e30b5f53ce8102a136aec8bb9880085aa071f"),
    (["verify-difference-form", "--family", "ch", "--max-total-degree", "1", "--grid-size", "3"], 0,
     "68970247357078cbf184ca51d2811513d131a5ffcbc7debf7d0116d8819152ec"),
    (["recover-coeffs", "--family", "racah"], 0,
     "b12261783aafc3a3cc8acfa945a743b6d42d8ddd32d917eb09d2ad1f9e7617b2"),
    (["ttrr", "--family", "cdh", "--n", "2"], 0,
     "a7dfed540e1d96e904146ddd2ea4b2b895a89639d94b8f28ebc7f13e14727f73"),
    (["generate", "--family", "wilson", "--upto", "2", "--monic"], 0,
     "643d25aa169f58db94b6ad32973972685570b2acc8fd85e2d0c16098a84b3477"),
    (["connect", "--family", "ch", "--n", "2"], 0,
     "ff05024adb5c2b7ee69eca6fec865c0ca6f59b30b8797ff83710b9ade7ef8286"),
    # racah and racah-bar print S_n / T_n on the quadratic lattices' F-basis,
    # to which the ttrr report takes the chain's monomial blocks
    (["ttrr", "--family", "racah", "--n", "2"], 0,
     "a14bd367790f1dbfd6ece1003ddb205e17cf21d7ba3d5b11430e54d68e59ad0f"),
    (["generate", "--family", "racah-bar", "--upto", "2", "--monic"], 0,
     "8cad9c06c9c83155f548b3ef7d4b9eabbc67dc2d88503fc84d461db95d26ac11"),
    (["eval", "--family", "racah", "--label", "2,0", "--point", "8/7,16/7", "--param", "beta0=2/3"], 2,
     "c1744678a2694ddf3d06a741feacde1f68d7467dcb2cb637868a099edf355c93"),
    (["verify-second-order", "--family", "ch", "--max-total-degree", "0"], 2,
     "4b1b765768323b648e8dcead01c462156dfc20ca4e3f224f59f4f56e94a97605"),
    # the printed-form kinds and the base/second family pairing, on every
    # route that looks them up
    (["verify-second-order", "--family", "racah", "--max-total-degree", "1"], 0,
     "c391e697a45c468618c18f7199f12b50c6562e07923a730a2d8c21c2091456db"),
    (["verify-second-order", "--family", "wilson-bar", "--max-total-degree", "1"], 0,
     "e4dc4e0de8150736cf7820575e36829ffc101ab3b7642d4bab7bf2ce40e02377"),
    (["verify-second-order", "--family", "cdh", "--max-total-degree", "1"], 0,
     "9bb07f5b3d793296a8371cdecb71a51f7aedd7339d1539dd2792a90ce42846db"),
    (["verify-difference-form", "--family", "racah-bar", "--max-total-degree", "1",
      "--grid-size", "3"], 0,
     "7af5368d696b3a4e0af4930809666b8ebb491a004542e03a5aefffc61b75ee85"),
    (["verify-difference-form", "--family", "wilson-bar", "--max-total-degree", "1",
      "--grid-size", "3"], 0,
     "4d34e43dd3f2c02bdf45ec6ecab36fe6342211718f6b9b47b404d97be87825c3"),
    (["connect", "--family", "racah", "--n", "2"], 0,
     "d7bfdcaf52cdcc5259154d468cbebdbd20df6d37d791f040b957108dd9246bbf"),
    (["connect", "--family", "wilson", "--n", "2"], 0,
     "4cdecd9ec3ac9780a717d6ef13b9dc2c46494095f2bad4b875464a9b51587e1e"),
    (["ttrr", "--family", "ch-bar", "--n", "2"], 0,
     "729c03f47fdb37e4da82cb9ba77d0ccb65e7825ce178527071817b9295767e5e"),
    # degenerate recurrence runs: a singular leading matrix names its first
    # column without a pivot (Lambda_1 for generate's first step, Lambda_2 for
    # ttrr at n = 1), and the family guard comes before any leading matrix
    (["generate", "--family", "racah-bar", "--param", "beta3=2/3", "--upto", "3"], 2,
     "3136500a7a2d39e10035ade2776a9deb8b34999c64e5be5ce7bc50ad6a7a4e34"),
    (["ttrr", "--family", "racah-bar", "--param", "beta3=2/3", "--n", "1"], 2,
     "3ce6ff255fa029b1053c791ee4ee47392474111d107367200fc3da6162b0c139"),
    (["generate", "--family", "ch-tri", "--upto", "1"], 2,
     "2a6845ca5762b5cb417594264fd74977ad48b9934b18f2f84432f6dbe663ab7a"),
]


def test_eval_command():
    code, report = run(["eval", "--family", "racah", "--label", "0,0", "--point", "3/2,5/2"])
    assert code == EXIT_OK
    assert report["value"] == "1"
    assert report["params"]["beta0"] == "1/5"
    assert report["tables_version"]


def test_negative_first_coordinate_is_given_with_an_equals_sign(capsys):
    # "--point -1/3,1" reads as an option to argparse; "--point=-1/3,1" does not
    argv = ["eval", "--family", "racah", "--label", "1,1", "--point=-1/3,1"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    spec = families.FamilySpec(families.RACAH)
    assert report["point"] == ["-1/3", "1"]
    assert report["value"] == str(families.eval_family(spec, (1, 1), (Fraction(-1, 3), Fraction(1))))
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    assert "--point=-1/3,1" in capsys.readouterr().out


def test_param_overrides_are_echoed():
    code, report = run(
        ["eval", "--family", "racah", "--label", "1,0", "--point", "8/7,16/7",
         "--param", "beta0=1/3"]
    )
    assert code == EXIT_OK
    assert report["params"]["beta0"] == "1/3"


def test_verify_pde_small_sweep():
    code, report = run(["verify-pde", "--family", "cdh", "--max-total-degree", "1"])
    assert code == EXIT_OK
    assert all(r["pass"] for r in report["results"])
    assert [r["label"] for r in report["results"]] == [[0, 0], [0, 1], [1, 0]]


def test_verify_trivariate_small():
    code, report = run(["verify-trivariate", "--max-total-degree", "1"])
    assert code == EXIT_OK
    assert all(r["pass"] for r in report["results"])


def test_ttrr_dump_contains_eigenvalue():
    code, report = run(["ttrr", "--family", "cdh", "--n", "2"])
    assert code == EXIT_OK
    assert report["matrices"]["lambda_n"] == "2"
    assert report["matrices"]["Sn"]["rows"] == 3
    assert "Gn,n-1" in report["matrices"]


def test_ttrr_report_builds_one_coefficient_table(monkeypatch):
    # the report's S_n / T_n are read from the chain's blocks
    tables = []
    coefficients = ttrr.coefficients
    monkeypatch.setattr(ttrr, "coefficients", lambda spec: tables.append(spec) or coefficients(spec))
    code, _ = run(["ttrr", "--family", "racah", "--n", "2"])
    assert code == EXIT_OK and len(tables) == 1


@pytest.mark.parametrize("family", ["wilson", "racah"])
def test_ttrr_report_derives_each_degree_once(monkeypatch, family):
    # the chain to n + 1 derives S_k / T_k at k = 1..3 on the monomials, and
    # the report's S_2 / T_2, on the F-basis for racah, are converted from
    # the chain's blocks, not derived again
    degrees = []
    phi_blocks = ttrr._phi_blocks
    monkeypatch.setattr(ttrr, "_phi_blocks", lambda *args: degrees.append(args[1]) or phi_blocks(*args))
    code, _ = run(["ttrr", "--family", family, "--n", "2"])
    assert code == EXIT_OK and degrees == [1, 2, 3]


@pytest.mark.parametrize("family, n, leading", [
    ("cdh", 0, "family"), ("racah", 2, "family"), ("wilson", 1, "monic"), ("ch-bar", 3, "monic"),
])
def test_ttrr_reads_the_chain_its_spec_keeps(monkeypatch, family, n, leading):
    # the command's chain is the spec's (ttrr.monic_chain), built once to n + 1
    tops = []
    monic_chain = ttrr.monic_chain
    monkeypatch.setattr(ttrr, "monic_chain", lambda spec, top: tops.append(top) or monic_chain(spec, top))
    monic = ["--monic"] if leading == "monic" else []
    code, _ = run(["ttrr", "--family", family, "--n", str(n), *monic])
    assert code == EXIT_OK and tops == [n + 1]


def test_generate_and_connect():
    code, report = run(["generate", "--family", "wilson", "--upto", "2", "--monic"])
    assert code == EXIT_OK
    assert len(report["vectors"]) == 3
    code, report = run(["connect", "--family", "ch", "--n", "2"])
    assert code == EXIT_OK
    assert report["other_family"] == "ch-bar"


def test_recover_coeffs_reports_match():
    code, report = run(["recover-coeffs", "--family", "racah"])
    assert code == EXIT_OK
    assert report["match"] is True
    assert report["diffs"] == []


def test_usage_errors_exit_2():
    code, report = run(["eval", "--family", "racah", "--label", "1,1", "--point", "8/7"])
    assert code == EXIT_DEGENERATE
    assert "error" in report
    code, report = run(["eval", "--family", "racah", "--label", "1,1",
                        "--point", "8/7,16/7", "--param", "beta0=oops"])
    assert code == EXIT_DEGENERATE
    # --seed and --grid-size exist only where a sweep uses them
    bad = [["eval", "--family", "cdh", "--label", "0,0", "--point", "1/2,1/3", "--seed", "1"],
           ["verify-ladder", "--family", "racah", "--grid-size", "3"]]
    # degrees are non-negative and grid sizes positive
    bad += [["ttrr", "--family", "racah", "--n", "-2"],
            ["connect", "--family", "ch", "--n", "-3"],
            ["generate", "--family", "racah", "--upto", "-1"]]
    bad += [[command, "--family", "cdh", "--max-total-degree", "-1"]
            for command in ("verify-pde", "verify-ladder", "verify-second-order",
                            "verify-difference-form")]
    bad.append(["verify-trivariate", "--max-total-degree", "-1"])
    for size in ("0", "-3"):
        bad += [[command, "--family", "cdh", "--max-total-degree", "0", "--grid-size", size]
                for command in ("verify-pde", "verify-second-order", "verify-difference-form")]
        bad.append(["verify-trivariate", "--max-total-degree", "0", "--grid-size", size])
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_DEGENERATE, argv


def test_negative_degree_exits_2_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "quadlattice.cli", "ttrr", "--family", "racah", "--n", "-2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")),
    )
    assert proc.returncode == EXIT_DEGENERATE
    assert "Traceback" not in proc.stderr
    assert "--n: must be at least 0" in proc.stderr


@pytest.mark.parametrize("target, cause", [
    ("missing/r.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_exits_2_without_traceback(tmp_path, target, cause):
    # the path is opened before the command runs, and the error report goes
    # to stdout
    path = str(tmp_path / target)
    proc = subprocess.run(
        [sys.executable, "-m", "quadlattice.cli", "--out", path,
         "eval", "--family", "cdh", "--label", "0,0", "--point", "1/2,1/3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")),
    )
    assert proc.returncode == EXIT_DEGENERATE
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {
        "command": "eval",
        "error": f"bad --out {path!r}: {cause}",
        "tables_version": cli.TABLES_VERSION,
    }


def test_degenerate_parameters_exit_2():
    # beta1 = beta0 makes alpha + 1 = 0 in the first Racah factor
    code, report = run(
        ["eval", "--family", "racah", "--label", "2,0", "--point", "8/7,16/7",
         "--param", "beta0=2/3"]
    )
    assert code == EXIT_DEGENERATE
    assert "denominator parameter" in report["error"]


@pytest.mark.parametrize("command", ["ttrr", "generate", "connect"])
def test_degenerate_leading_matrix_exits_2(command):
    # beta1 = beta0 makes the leading matrix divide by (beta1 - beta0)_k
    degree = ["--upto", "2"] if command == "generate" else ["--n", "2"]
    code, report = run([command, "--family", "racah", *degree, "--param", "beta1=1/5"])
    assert code == EXIT_DEGENERATE
    assert report["error"] == "denominator parameter beta1-beta0 = 0 hits zero at shift 0"


@pytest.mark.parametrize("command, degree", [("generate", "--upto=3"), ("ttrr", "--n=1")])
def test_leading_matrices_are_checked_before_the_chain(command, degree):
    # beta1 - beta0 = -1 both collides lambda_1 with lambda_0 and makes
    # Lambda_1 divide by (beta1 - beta0)_1: the family leading builds its
    # leading matrices first and names the denominator, the monic run the
    # collision
    argv = [command, "--family", "racah", degree, "--param", "beta0=9/2", "--param", "beta1=7/2"]
    assert run(argv) == (EXIT_DEGENERATE, {
        "command": command,
        "error": "denominator parameter beta1-beta0 = -1 hits zero at shift 1",
        "tables_version": "tables-v1",
    })
    assert run(argv + ["--monic"])[1]["error"] == "eigenvalue collision lambda_1 = lambda_0"


def test_an_inconsistent_recurrence_exits_3(monkeypatch):
    # B_{1,2} off by 1/1000 leaves the stacked degree-2 system inconsistent:
    # a failed consistency check, not degenerate input
    abc_matrices = ttrr.abc_matrices

    def perturbed(chain, n, j):
        a, b, c = abc_matrices(chain, n, j)
        if (n, j) == (1, 2):
            b[0, 0] = b[0, 0] + Fraction(1, 1000)
        return a, b, c

    monkeypatch.setattr(ttrr, "abc_matrices", perturbed)
    code, report = run(["generate", "--family", "cdh", "--upto", "3"])
    assert code == EXIT_MISMATCH
    assert report["error"] == (
        "recurrence step to degree 2: inconsistent stacked system: nonzero residual row"
    )


def test_grid_size_at_or_below_degree_exits_2():
    # a residual of total degree k needs k + 1 lattice values per axis
    for argv in (["verify-pde", "--family", "racah", "--max-total-degree", "2", "--grid-size", "2"],
                 ["verify-pde", "--family", "racah", "--max-total-degree", "2", "--grid-size", "1"],
                 ["verify-trivariate", "--max-total-degree", "3", "--grid-size", "3"],
                 ["verify-second-order", "--family", "cdh", "--max-total-degree", "3",
                  "--grid-size", "1"]):
        code, report = run(argv)
        assert code == EXIT_DEGENERATE, argv
        assert "results" not in report
        assert "k + 1 lattice values per axis" in report["error"]
    code, report = run(["verify-pde", "--family", "racah", "--max-total-degree", "2",
                        "--grid-size", "3"])
    assert code == EXIT_OK
    assert [r["points"] for r in report["results"]] == [9] * 6


def test_trivariate_default_grid_follows_the_degree():
    # an unset grid is max-total-degree + 1 lattice values per axis
    assert run(["verify-trivariate", "--max-total-degree", "1"]) == run(
        ["verify-trivariate", "--max-total-degree", "1", "--grid-size", "2"]
    )


def test_trivariate_degree_3_sweeps_a_4_point_grid(monkeypatch):
    sizes = []

    def captured(spec, max_total_degree, grid_size=None):
        sizes.append(grid_size)
        return []

    monkeypatch.setattr(pdeverify, "verify_table", captured)
    code, report = run(["verify-trivariate", "--max-total-degree", "3"])
    assert code == EXIT_OK
    assert sizes == [4]


def test_trivariate_has_no_recurrence_machinery():
    code, report = run(["ttrr", "--family", "ch-tri", "--n", "1"])
    assert code == EXIT_DEGENERATE
    assert "no recurrence machinery" in report["error"]


def _coefficient_typo(monkeypatch, family, index):
    """The family's printed table with f_(index + 1) off by +1/1000."""
    printed = pdeverify._TABLE_BUILDERS[family]

    def typo(params):
        coeffs, eigenvalue = printed(params)
        coeffs[index] = coeffs[index] + Fraction(1, 1000)
        return coeffs, eigenvalue

    monkeypatch.setitem(pdeverify._TABLE_BUILDERS, family, typo)


def _tau_typo(monkeypatch, kind):
    """The second-order form's tau off by +1/1000."""
    family, var, form, eigenvalue = pdeverify.SECOND_ORDER_FORMS[kind]

    def typo(params, x, y):
        phi, tau = form(params, x, y)
        return phi, tau + Fraction(1, 1000)

    monkeypatch.setitem(pdeverify.SECOND_ORDER_FORMS, kind, (family, var, typo, eigenvalue))


def _failing_ladder(monkeypatch):
    monkeypatch.setattr(families, "derivative_ladder_check", lambda *a, **k: Fraction(1))


# command -> (family, the failure: an equation with one printed coefficient
# off by +1/1000 or a ladder check that never vanishes, the equation, and
# the first failing label with its witness point and value); the Hahn
# nine-term form reads the Hahn table's f8
SWEEP_FAILURES = {
    "verify-pde": (
        "cdh", lambda mp: _coefficient_typo(mp, families.CDH, 7), pdeverify.coefficients,
        [0, 1], ["8/7", "15/7"], "-1/1000",
    ),
    "verify-ladder": ("racah", _failing_ladder, None, [0, 0], ["8/7", "15/7"], "1"),
    "verify-second-order": (
        "cdh", lambda mp: _tau_typo(mp, "cdh-x"),
        lambda spec: pdeverify.second_order_equation("cdh-x", spec),
        [1, 0], ["8/7", "15/7"], "-1/1000",
    ),
    "verify-difference-form": (
        "ch", lambda mp: _coefficient_typo(mp, families.CH, 7),
        lambda spec: pdeverify.difference_form_equation("ch-f", spec),
        [0, 1], ["8/7", "15/7"], "1753/630000",
    ),
}


@pytest.mark.parametrize("command", SWEEP_FAILURES)
def test_verification_failure_exits_3(monkeypatch, command):
    # the first failing label's witness is pinned; for an equation, every
    # witness is the first point of its label's grid, in sweep order, whose
    # residual on the series oracle's member is nonzero, with that residual
    # as its value
    family, fail, build, label, point, value = SWEEP_FAILURES[command]
    fail(monkeypatch)
    code, report = run([command, "--family", family, "--max-total-degree", "1"])
    assert code == EXIT_MISMATCH
    failing = [r for r in report["results"] if not r["pass"]]
    assert (failing[0]["label"], failing[0]["point"], failing[0]["value"]) == (label, point, value)
    if build is None:
        return
    spec = families.FamilySpec(family)
    equation = build(spec)
    for record in report["results"]:
        lbl = tuple(record["label"])
        oracle = lambda q: families.eval_family_oracle(spec, lbl, q)
        witness = next(
            (
                (pt, value)
                for pt in product(*pdeverify.residual_grid(spec, lbl))
                if (value := pdeverify.table_residual_on(equation, oracle, lbl, pt))
            ),
            None,
        )
        record.pop("points", None)
        assert record == pdeverify.label_record(lbl, witness)


def test_ladder_factor_typo_fails_with_witnesses(monkeypatch):
    # a +1/1000 typo in the Wilson ladder factor shows at every label with
    # n > 0; each failing label carries its witness
    parts = families.ladder_parts

    def typo(spec, label):
        direction, factor, shifted, new_label, transform = parts(spec, label)
        return direction, factor + Fraction(1, 1000), shifted, new_label, transform

    monkeypatch.setattr(families, "ladder_parts", typo)
    code, report = run(["verify-ladder", "--family", "wilson", "--max-total-degree", "2"])
    assert code == EXIT_MISMATCH
    failing = [r for r in report["results"] if not r["pass"]]
    assert [r["label"] for r in failing] == [[1, 0], [1, 1], [2, 0]]
    assert all(len(r["point"]) == 2 and r["value"] != "0" for r in failing)
    # a passing label is swept over its whole proof grid
    assert "point" not in report["results"][0]


def _shift_racah_point(row):
    factor, shifts, _ = row
    return factor, shifts, (-Fraction(1, 2), 0)


def _drop_wilson_e2_shift(row):
    factor, shifts, shift = row
    return factor, {k: v for k, v in shifts.items() if k != "e2"}, shift


def _ch_bar_factor_typo(row):
    factor, shifts, shift = row
    return (lambda p, k: factor(p, k) + Fraction(1, 1000)), shifts, shift


# a wrong entry in one printed ladder row, and the labels it fails at
LADDER_ROW_TYPOS = {
    "racah-point-shift": (families.RACAH, _shift_racah_point, [[1, 1], [2, 0]]),
    "wilson-e2-shift": (families.WILSON, _drop_wilson_e2_shift, [[1, 1], [2, 0]]),
    "ch-bar-factor": (families.CH_BAR, _ch_bar_factor_typo, [[0, 1], [0, 2], [1, 1]]),
}


@pytest.mark.parametrize("typo", sorted(LADDER_ROW_TYPOS))
def test_ladder_row_typo_fails_at_its_labels(monkeypatch, typo):
    family, mutate, labels = LADDER_ROW_TYPOS[typo]
    rows = dict(families.LADDERS)
    rows[family] = mutate(rows[family])
    monkeypatch.setattr(families, "LADDERS", rows)
    code, report = run(["verify-ladder", "--family", family, "--max-total-degree", "2"])
    assert code == EXIT_MISMATCH
    assert [r["label"] for r in report["results"] if not r["pass"]] == labels


def test_ladder_sweeps_its_proof_grid(monkeypatch):
    # |label| + 1 lattice values per axis for every label
    calls = {}
    check = families.derivative_ladder_check

    def counted(spec, label, point):
        calls[label] = calls.get(label, 0) + 1
        return check(spec, label, point)

    monkeypatch.setattr(families, "derivative_ladder_check", counted)
    code, report = run(["verify-ladder", "--family", "racah-bar", "--max-total-degree", "2"])
    assert code == EXIT_OK
    assert calls == {tuple(r["label"]): (sum(r["label"]) + 1) ** 2 for r in report["results"]}
    assert len(calls) == 6


def test_a_ladder_builds_its_shifted_spec_once(monkeypatch):
    # the parameter shifts depend only on the family: the command's spec and
    # one shifted spec serve all 36 checks of wilson at degree <= 2
    built, checks = [], []
    init, check = families.FamilySpec.__init__, families.derivative_ladder_check

    def counted_init(self, family, params=None):
        built.append(family)
        init(self, family, params)

    def counted_check(spec, label, point):
        checks.append(label)
        return check(spec, label, point)

    monkeypatch.setattr(families.FamilySpec, "__init__", counted_init)
    monkeypatch.setattr(families, "derivative_ladder_check", counted_check)
    code, report = run(["verify-ladder", "--family", "wilson", "--max-total-degree", "2"])
    assert code == EXIT_OK
    assert len(checks) == 36
    assert built == [families.WILSON] * 2


def test_usage_errors_name_the_cause():
    for argv, message in (
        (["eval", "--family", "racah", "--label", "1,1", "--point", "8/7,16/7",
          "--param", "beta0"], "bad --param 'beta0'; expected NAME=VALUE"),
        (["eval", "--family", "racah", "--label", "1,1", "--point", "1/2,1/0"],
         "bad --point '1/2,1/0': '1/0' is not an exact rational"),
        (["eval", "--family", "racah", "--label", "1,1", "--point", "8/7,16/7",
          "--param", "beta0=1/0"], "bad --param 'beta0=1/0': '1/0' is not an exact rational"),
        (["eval", "--family", "racah", "--label", "1,x", "--point", "8/7,16/7"],
         "bad --label '1,x': 'x' is not an integer"),
        (["eval", "--family", "racah", "--label", "1,1", "--point", "1/2"],
         "bad --point '1/2': expected 2 comma-separated entries"),
        (["eval", "--family", "cdh", "--label", "1,,1", "--point", "1/2,1/3"],
         "bad --label '1,,1': '' is not an integer"),
        (["eval", "--family", "cdh", "--label", "1,1,", "--point", "1/2,1/3"],
         "bad --label '1,1,': '' is not an integer"),
        (["eval", "--family", "cdh", "--label", "1,1", "--point", "1/2,,1/3"],
         "bad --point '1/2,,1/3': expected 2 comma-separated entries"),
        (["eval", "--family", "racah", "--label", "1,1", "--point", "8/7,16/7",
          "--param", "beta0=abc"], "bad --param 'beta0=abc': 'abc' is not an exact rational"),
        (["verify-ladder", "--family", "ch-tri"], "no printed ladder for family ch-tri"),
        (["recover-coeffs", "--family", "wilson"],
         "coefficient recovery is defined for the racah family"),
        (["connect", "--family", "cdh", "--n", "1"], "no second family to connect for cdh"),
    ):
        code, report = run(argv)
        assert code == EXIT_DEGENERATE, argv
        assert report["error"] == message


def test_recovered_table_diff_exits_3(monkeypatch):
    # a +1/1000 typo in the printed Racah f3 is named by the recovery diff
    printed = pdeverify._TABLE_BUILDERS[families.RACAH]

    def typo(params):
        coeffs, eigenvalue = printed(params)
        coeffs[2] = coeffs[2] + Fraction(1, 1000)
        return coeffs, eigenvalue

    monkeypatch.setitem(pdeverify._TABLE_BUILDERS, families.RACAH, typo)
    code, report = run(["recover-coeffs", "--family", "racah"])
    assert code == EXIT_MISMATCH
    assert report["match"] is False
    assert [d["coefficient"] for d in report["diffs"]] == ["f3"]


def test_connection_round_trip_failure_exits_3(monkeypatch):
    # a "connection" that returns its first argument: P_n != G Pbar_n
    monkeypatch.setattr(ttrr, "connection", lambda g, gbar: g)
    code, report = run(["connect", "--family", "ch", "--n", "2"])
    assert code == EXIT_MISMATCH
    params = families.FamilySpec(families.CH).params
    assert report["connection"] == ttrr.leading_matrix(families.CH, params, 2).to_json()


def test_connect_proves_p_equals_c_pbar_at_its_n(monkeypatch):
    # a +1/1000 slip in racah-bar's G_{2,2}: C Cbar = I still holds, but
    # P_2 = C Pbar_2 fails on the interpolated members; n = 1 is not checked
    printed = ttrr.leading_matrix

    def slip(family, params, n):
        g = printed(family, params, n)
        if (family, n) == (families.RACAH_BAR, 2):
            g[2, 0] = g[2, 0] + Fraction(1, 1000)
        return g

    monkeypatch.setattr(ttrr, "leading_matrix", slip)
    code, report = run(["connect", "--family", "racah", "--n", "2"])
    assert code == EXIT_MISMATCH
    params = families.FamilySpec(families.RACAH).params
    c = ttrr.connection(slip(families.RACAH, params, 2), slip(families.RACAH_BAR, params, 2))
    assert report["connection"] == c.to_json()
    assert run(["connect", "--family", "racah", "--n", "1"])[0] == EXIT_OK


@pytest.mark.parametrize("error", [AssertionError, ArithmeticError])
def test_internal_consistency_failure_exits_3(monkeypatch, error):
    def fail(*args):
        raise error("inconsistent")

    monkeypatch.setattr(families, "eval_family", fail)
    code, report = run(["eval", "--family", "cdh", "--label", "0,0", "--point", "1/2,1/3"])
    assert code == EXIT_MISMATCH
    assert report["error"] == "inconsistent"


def test_reports_match_pinned_digests():
    mismatches = []
    for argv, expected_code, digest in PINNED_REPORTS:
        code, report = run(argv)
        text = json.dumps(report, indent=2, sort_keys=True)
        if (code, hashlib.sha256(text.encode()).hexdigest()) != (expected_code, digest):
            mismatches.append(" ".join(argv))
    assert not mismatches



def test_recurrence_reports_are_pinned():
    # one digest over every recurrence report of the seven families: ttrr at
    # n = 0..3 and generate up to 4, each with both leadings, and connect at
    # n = 3 (cdh has no second family and exits 2); a change to how the
    # pipeline shares or reuses its exact arithmetic must leave every byte
    digest = hashlib.sha256()
    for family in ttrr.TTRR_FAMILIES:
        argvs = [
            ["ttrr", "--family", family, "--n", str(n)] + monic
            for n in range(4)
            for monic in ([], ["--monic"])
        ]
        argvs += [["generate", "--family", family, "--upto", "4"] + monic for monic in ([], ["--monic"])]
        argvs.append(["connect", "--family", family, "--n", "3"])
        for argv in argvs:
            code, report = run(argv)
            digest.update(json.dumps([argv, code, report], indent=2, sort_keys=True).encode())
    assert digest.hexdigest() == "01db04c03709b767c168e6fd82006f9b28a575dbe8f305489c1f5822cad22351"

def _digest(report):
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def test_failing_sweep_report_is_pinned(monkeypatch):
    # a +1/1000 typo in the Wilson f3 first shows at labels (2,1) and (3,0);
    # the witnesses and every report byte are pinned
    printed = pdeverify._TABLE_BUILDERS[families.WILSON]

    def typo(params):
        coeffs, eigenvalue = printed(params)
        coeffs[2] = coeffs[2] + Fraction(1, 1000)
        return coeffs, eigenvalue

    monkeypatch.setitem(pdeverify._TABLE_BUILDERS, families.WILSON, typo)
    code, report = run(["verify-pde", "--family", "wilson", "--max-total-degree", "3"])
    assert code == EXIT_MISMATCH
    failing = [(r["label"], r["point"]) for r in report["results"] if not r["pass"]]
    assert failing == [([2, 1], ["8/7", "15/7"]), ([3, 0], ["8/7", "15/7"])]
    assert _digest(report) == "2a1cf5ca001c66bf3923048c23a80b938aa2ab55426a67e40d4a28b8eaba0c9b"


def test_second_order_typo_report_is_pinned(monkeypatch):
    # a +1/1000 typo in the wilson-x tau shows at every label with n > 0
    family, var, form, eigenvalue = pdeverify.SECOND_ORDER_FORMS["wilson-x"]

    def typo(params, x, y):
        phi, tau = form(params, x, y)
        return phi, tau + Fraction(1, 1000)

    monkeypatch.setitem(pdeverify.SECOND_ORDER_FORMS, "wilson-x", (family, var, typo, eigenvalue))
    code, report = run(["verify-second-order", "--family", "wilson", "--max-total-degree", "2"])
    assert code == EXIT_MISMATCH
    failing = [r["label"] for r in report["results"] if not r["pass"]]
    assert failing == [[1, 0], [1, 1], [2, 0]]
    assert _digest(report) == "d006a3ce802370a3e4d167b222b1309df6ff5517001416f53a78ca9ec5dfc46a"


def test_difference_form_typo_report_is_pinned(monkeypatch):
    # a +1/1000 typo in the (1, 1) entry of the Racah nine-term form breaks
    # every label, the constant member too
    printed = pdeverify.racah_gi_stencil

    def typo(params, s, t):
        den, stencil = printed(params, s, t)
        stencil = {o: (1000 * a, 1000 * b) for o, (a, b) in stencil.items()}
        a, b = stencil[(1, 1)]
        stencil[(1, 1)] = (a + den, b)
        return 1000 * den, stencil

    monkeypatch.setattr(pdeverify, "racah_gi_stencil", typo)
    code, report = run(["verify-difference-form", "--family", "racah", "--max-total-degree", "2"])
    assert code == EXIT_MISMATCH
    assert len(report["results"]) == 6
    assert not any(r["pass"] for r in report["results"])
    assert _digest(report) == "1aae15462ac723265636c8e48a1a2182354654cc7b69da60a0d9642f270d6a62"


NINE_TERM_BUILDERS = {
    families.RACAH: "racah_gi_stencil",
    families.WILSON: "wilson_f_stencil",
    families.CH: "ch_f_stencil",
}


@pytest.mark.parametrize("command, family, degree", [
    ("verify-second-order", families.RACAH, 1),
    ("verify-second-order", families.WILSON, 3),
    ("verify-second-order", families.WILSON_BAR, 1),
    ("verify-second-order", families.CDH, 1),
    ("verify-difference-form", families.RACAH, 1),
    ("verify-difference-form", families.WILSON, 3),
    ("verify-difference-form", families.CH, 1),
    ("verify-pde", families.RACAH, 2),
    ("verify-trivariate", families.CH_TRI, 1),
])
def test_form_commands_build_each_grid_point_stencil_once(monkeypatch, command, family, degree):
    # a form's stencil does not depend on the label, and each label's grid is
    # a prefix of the next: a command builds the (degree + 5)^2 points of its
    # largest grid once each (wilson at degree 3: 64); the sixth-order sweep
    # takes the smallest proof grid, (degree + 1)^3 points
    calls = []
    if command != "verify-difference-form":
        fold = pdeverify.CoeffTable.fold

        def counted(self, point):
            calls.append(point)
            return fold(self, point)

        monkeypatch.setattr(pdeverify.CoeffTable, "fold", counted)
    else:
        name = NINE_TERM_BUILDERS[family]
        builder = getattr(pdeverify, name)

        def counted(first, x, y):
            calls.append((x, y))
            return builder(first, x, y)

        monkeypatch.setattr(pdeverify, name, counted)
    argv = [command, "--max-total-degree", str(degree)]
    if command != "verify-trivariate":
        argv += ["--family", family]
    code, report = run(argv)
    assert code == EXIT_OK
    folds = (degree + 1) ** 3 if command == "verify-trivariate" else (degree + 5) ** 2
    assert len(calls) == len(set(calls)) == folds


# One parameter draw per family, seed-pinned: each DEFAULT_PARAMS value plus
# k/p with one prime p >= 13 per position, as the benchmark draws them.  The
# printed tables, forms and ladders are polynomial identities in the
# parameters, so passing at a random draw is probabilistic evidence that they
# hold for all parameters.
DRAW_SEED = 9280
DRAW_PRIMES = (13, 17, 19, 23, 29, 31)


def _drawn_params(family):
    rng = random.Random(DRAW_SEED)
    defaults = families.DEFAULT_PARAMS[family]
    return {
        name: defaults[name] + Fraction(rng.randint(1, p - 1), p)
        for name, p in zip(families.PARAM_NAMES[family], DRAW_PRIMES)
    }


@pytest.mark.parametrize("command, family", [
    ("verify-second-order", families.RACAH),
    ("verify-second-order", families.WILSON),
    ("verify-second-order", families.WILSON_BAR),
    ("verify-second-order", families.CDH),
    ("verify-difference-form", families.RACAH),
    ("verify-difference-form", families.WILSON),
    ("verify-difference-form", families.CH),
    *[("verify-pde", name) for name in families.ALL_FAMILIES if name != families.CH_TRI],
    *[("verify-ladder", name) for name in families.LADDER_DIRECTION],
    ("verify-trivariate", families.CH_TRI),
])
def test_printed_forms_hold_at_drawn_parameters(command, family):
    params = _drawn_params(family)
    argv = [command, "--max-total-degree", "2"]
    if command != "verify-trivariate":
        argv += ["--family", family]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, report = run(argv)
    assert code == EXIT_OK, report
    spec = families.FamilySpec(family, params=params)
    assert report["params"] == spec.to_json()["params"]
    assert params != families.DEFAULT_PARAMS[family]
    # the labels of total degree <= 2: 6 in two variables, 10 in three
    assert len(report["results"]) == (6 if spec.nvars == 2 else 10)


def test_singular_grid_point_exits_2(monkeypatch):
    # the last x coordinate of every grid is moved to s = -beta1/2, where the
    # D^2 denominator 2s + beta1 vanishes, after other points were folded
    grid = pdeverify.residual_grid

    def singular_grid(spec, label, size=None, offset=Fraction(1, 7)):
        xs, ys = grid(spec, label, size=size, offset=offset)
        return [xs[:-1] + [-spec.params["beta1"] / 2], ys]

    monkeypatch.setattr(pdeverify, "residual_grid", singular_grid)
    code, report = run(["verify-pde", "--family", "racah", "--max-total-degree", "1"])
    assert code == EXIT_DEGENERATE
    assert report["error"] == "stencil denominator vanishes at -1/3 on LatticeSpec(quadratic, beta=2/3, x)"
    assert _digest(report) == "a6ea3c57c91bcd1360cbd8d206d81308e6f7d164938fd37eca180c08f8798a26"


# One parser serves every run in a process: these runs, in this order, must
# report what each would report in a fresh process.
ONE_PROCESS_ARGVS = [
    ["eval", "--family", "racah", "--label", "1,1", "--point", "3/2,5/2",
     "--param", "beta0=1/5", "--param", "N=7"],
    ["eval", "--family", "racah", "--label", "1,1", "--point", "3/2,5/2"],
    ["ttrr", "--family", "wilson", "--n", "1", "--monic"],
    ["ttrr", "--family", "wilson", "--n", "1"],
    ["verify-ladder", "--family", "cdh", "--max-total-degree", "1", "--seed", "3"],
    ["verify-ladder", "--family", "cdh", "--max-total-degree", "1"],
]


def test_runs_in_one_process_match_fresh_processes():
    in_process = []
    for argv in ONE_PROCESS_ARGVS:
        code, report = run(argv)
        in_process.append((code, json.dumps(report, indent=2, sort_keys=True) + "\n"))
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, want in zip(ONE_PROCESS_ARGVS, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "quadlattice.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout) == want, argv


def test_repeated_params_do_not_leak_into_the_next_run():
    argv = ["eval", "--family", "cdh", "--label", "1,1", "--point", "1/2,1/3"]
    _, plain = run(argv)
    _, overridden = run(argv + ["--param", "a=1/3", "--param", "b=2/5", "--param", "a=1/4"])
    _, again = run(argv)
    assert overridden["params"]["a"] == "1/4" and overridden["params"]["b"] == "2/5"
    assert again == plain
    assert cli._parser().parse_args(argv).param == []


def test_one_parser_per_process(monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        good = ["eval", "--family", "cdh", "--label", "0,0", "--point", "1/2,1/3"]
        for _ in range(2):
            assert run(good)[0] == EXIT_OK
            # a usage error leaves the parser as it was, and still exits 2
            with pytest.raises(SystemExit) as exc:
                run(["ttrr", "--family", "racah", "--n", "-2"])
            assert exc.value.code == EXIT_DEGENERATE
            with pytest.raises(SystemExit) as exc:
                run(["eval", "--family", "cdh"])
            assert exc.value.code == EXIT_DEGENERATE
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_determinism_byte_identical(tmp_path):
    args = ["verify-ladder", "--family", "racah", "--max-total-degree", "1", "--seed", "5"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1)] + args) == EXIT_OK
    assert main(["--out", str(out2)] + args) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    blob = json.loads(out1.read_text())
    assert blob["seed"] == 5


def test_stdout_output(capsys):
    assert main(["eval", "--family", "cdh", "--label", "0,0", "--point", "1/2,1/3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["value"] == "1"
