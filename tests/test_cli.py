import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siegeljacobi import cli, matfun, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_algebra_exits_zero(capsys):
    code, out = run_cli(capsys, "verify", "algebra", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all("anchor" in c for c in report["checks"])
    assert report["conventions"]["sign_sigma"] == 1


def test_verify_reports_are_reproducible(capsys):
    _, out1 = run_cli(capsys, "verify", "gj1", "--seed", "3")
    _, out2 = run_cli(capsys, "verify", "gj1", "--seed", "3")
    assert out1 == out2


@pytest.mark.parametrize("suite", ["oracle", "jacobi", "symplectic"])
def test_verify_report_does_not_depend_on_the_blas_thread_count(suite):
    # the oracle records apply banded exponentials elementwise; the jacobi
    # and symplectic suites hand stacks to matmul and LAPACK, where a
    # threaded BLAS kernel could change a summation order
    src = Path(__file__).resolve().parents[1] / "src"
    outs = [
        subprocess.run([sys.executable, "-m", "siegeljacobi", "verify", suite, "--seed", "7"],
                       capture_output=True, check=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


def test_eval_kernel_at_origin(capsys):
    origin = json.dumps(
        {"z": [[0.0, 0.0]], "W": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}}
    )
    code, out = run_cli(capsys, "eval", "kernel", "--x", origin, "--y", origin, "--k", "4")
    assert code == 0
    val = json.loads(out)["value"]
    assert abs(val["re"] - 1.0) < 1e-14 and abs(val["im"]) < 1e-14


def test_eval_lambda(capsys):
    code, out = run_cli(capsys, "eval", "lambda", "--n", "1", "--k", "5")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1 / math.pi**2) < 1e-14


def test_eval_density(capsys):
    point = json.dumps(
        {"z": [[0.0, 0.0]], "W": {"rows": 1, "cols": 1, "re": [0.5], "im": [0.0]}}
    )
    code, out = run_cli(capsys, "eval", "density", "--point", point)
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.75 ** (-3)) < 1e-12


def test_eval_form_shape(capsys):
    point = json.dumps(
        {"z": [[0.1, 0.0]], "W": {"rows": 1, "cols": 1, "re": [0.2], "im": [0.1]}}
    )
    code, out = run_cli(capsys, "eval", "form", "--point", point, "--k", "4")
    assert code == 0
    form = matfun.mat_from_json(json.loads(out)["value"])
    assert form.shape == (2, 2)
    assert np.linalg.eigvalsh(0.5 * (form + form.conj().T)).min() > 0


_GOLDEN_X = json.dumps({"z": [[0.3, -0.2], [0.1, 0.4]], "W": {
    "rows": 2, "cols": 2, "re": [0.2, 0.1, 0.1, -0.3], "im": [0.1, -0.2, -0.2, 0.05]}})
_GOLDEN_Y = json.dumps({"z": [[-0.1, 0.25], [0.2, 0.0]], "W": {
    "rows": 2, "cols": 2, "re": [-0.1, 0.05, 0.05, 0.2], "im": [0.3, 0.1, 0.1, -0.1]}})


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["kernel", "--x", _GOLDEN_X, "--y", _GOLDEN_Y, "--k", "6"],
         '{"anchor": "coherent-state-overlap", "k": 6.0, "value": {"im": 0.23036202808378742,'
         ' "re": 0.643983262321579}, "what": "kernel"}\n'),
        (["potential", "--point", _GOLDEN_X, "--k", "5"],
         '{"anchor": "log-diagonal-kernel", "k": 5.0, "value": 1.0354103955187668,'
         ' "what": "potential"}\n'),
        (["form", "--point", _GOLDEN_X, "--k", "4"],
         '{"anchor": "invariant-two-form", "k": 4.0, "value": {"cols": 5, "im":'
         ' [0.0, -0.1383171414457435, -0.2463038140518201,'
         ' 0.5983916685865635, -0.049492793494507775, 0.1383171414457435,'
         ' 0.0, 0.043229678626819555, -0.2667344227210468,'
         ' 0.6493041506177831, 0.2463038140518201, -0.043229678626819555,'
         ' 0.0, -0.4601188046755504, 0.03259910987196468,'
         ' -0.5983916685865635, 0.2667344227210468, 0.4601188046755504,'
         ' 0.0, -0.5129423662211097, 0.049492793494507775,'
         ' -0.6493041506177831, -0.03259910987196468, 0.5129423662211097,'
         ' 0.0], "re": [1.1295899884735716, -0.05269224436028323,'
         ' 0.25921235105166623, 0.12626659955773292, 0.06789126281214003,'
         ' -0.05269224436028323, 1.1855754981063726, 0.018068112458745733,'
         ' 0.18844657143455967, 0.17686998209853022, 0.25921235105166623,'
         ' 0.018068112458745733, 2.665135597703017, -0.3395850979161604,'
         ' -0.006339229415090138, 0.12626659955773292, 0.18844657143455967,'
         ' -0.3395850979161604, 5.892451906720625, -0.3678515945705002,'
         ' 0.06789126281214003, 0.17686998209853022, -0.006339229415090138,'
         ' -0.3678515945705002, 3.1931692707834323], "rows": 5}, "what": "form"}\n'),
        (["density", "--point", _GOLDEN_Y],
         '{"anchor": "invariant-volume-density", "value": 2.118255501319053,'
         ' "what": "density"}\n'),
        (["lambda", "--n", "2", "--k", "7"],
         '{"anchor": "resolution-of-unity-constant", "k": 7.0, "n": 2, "p": 0.0,'
         ' "value": 0.019606581858320326, "what": "lambda"}\n'),
    ],
    ids=["kernel", "potential", "form", "density", "lambda"],
)
def test_eval_output_bytes(capsys, argv, expected):
    # every eval quantity at fixed n = 2 points, byte for byte
    code, out = run_cli(capsys, "eval", *argv)
    assert code == 0 and out == expected


@pytest.mark.parametrize(
    "argv",
    [["density", "--point", _GOLDEN_Y], ["potential", "--point", _GOLDEN_X, "--k", "5"],
     ["form", "--point", _GOLDEN_X, "--k", "4"],
     ["kernel", "--x", _GOLDEN_X, "--y", _GOLDEN_Y, "--k", "3"], ["lambda", "--n", "2", "--k", "7"]],
    ids=["density", "potential", "form", "kernel", "lambda"],
)
def test_eval_of_the_geometry_loads_no_scipy_linalg(argv):
    # the verify layer is imported for verify only, which keeps its import
    # time and memory out of eval; every eval quantity loads no scipy module
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from siegeljacobi import cli; code = cli.main(sys.argv[1:]); "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), code)")
    proc = subprocess.run([sys.executable, "-c", code, "eval", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_decompose_identity_gauss(capsys):
    g = json.dumps(
        {
            "a": {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]},
            "b": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]},
        }
    )
    code, out = run_cli(capsys, "decompose", "--g", g, "--which", "gauss")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-12
    assert payload["factors"]["Y"]["re"] == [0.0]


def test_decompose_cartan_scalar(capsys):
    r = 0.3
    g = json.dumps(
        {
            "a": {"rows": 1, "cols": 1, "re": [math.cosh(r)], "im": [0.0]},
            "b": {"rows": 1, "cols": 1, "re": [math.sinh(r)], "im": [0.0]},
        }
    )
    code, out = run_cli(capsys, "decompose", "--g", g, "--which", "cartan")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["factors"]["Z"]["re"][0] - r) < 1e-12
    assert abs(payload["factors"]["v"]["re"][0] - 1.0) < 1e-12
    assert payload["residual"] <= 1e-9


def test_malformed_input_exits_two(capsys):
    code = cli.main(["decompose", "--g", "{not json", "--which", "gauss"])
    assert code == 2
    code = cli.main(
        ["decompose", "--g", json.dumps({"a": {"rows": 1, "cols": 1, "re": [2.0],
         "im": [0.0]}, "b": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}}),
         "--which", "gauss"]
    )
    assert code == 2  # not a group element


def test_decompose_rejects_blocks_whose_membership_residual_overflows(capsys):
    # a = b = 1e300 is no group element (a a* - b b* = 0); the residual read
    # inf - inf = NaN, which passed the gate: "residual": 0.0 and exit 0
    g = json.dumps({"a": {"rows": 1, "cols": 1, "re": [1e300], "im": [0.0]},
                    "b": {"rows": 1, "cols": 1, "re": [1e300], "im": [0.0]}})
    for which in ("gauss", "cartan"):
        code = cli.main(["decompose", "--g", g, "--which", which])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: membership residual inf exceeds tol 1.0e-09"]


def test_verify_oracle_with_cutoff_flag(capsys):
    code, out = run_cli(capsys, "verify", "oracle", "--cutoff", "60", "--samples", "5")
    assert code == 0
    report = json.loads(out)
    lemma = next(c for c in report["checks"] if c["check"] == "squeezed-vector-relation")
    assert lemma["residual"] <= lemma["tolerance"]


def test_decompose_random_element(capsys):
    from siegeljacobi import symplectic as sp

    g = sp.sp_random(2, 0.5, np.random.default_rng(4))
    code, out = run_cli(
        capsys, "decompose", "--g", json.dumps(g.to_json()), "--which", "cartan"
    )
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-9


def test_module_entry_point_runs_verify():
    import siegeljacobi

    src = str(Path(siegeljacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "siegeljacobi", "verify", "algebra", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["suite"] == "algebra" and report["pass"] is True


def test_bad_suite_name_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "bogus"])
    assert err.value.code == 2


def _point_json(z, w):
    return json.dumps(
        {"z": [[z, 0.0]], "W": {"rows": 1, "cols": 1, "re": [w], "im": [0.0]}}
    )


def test_eval_rejects_point_outside_domain(capsys):
    code, out = run_cli(capsys, "eval", "density", "--point", _point_json(0.0, 1.5))
    assert code == 2 and out == ""


def test_eval_rejects_non_finite_input(capsys):
    x = _point_json(0.0, 0.0).replace("[[0.0, 0.0]]", "[[NaN, 0.0]]")
    code, out = run_cli(
        capsys, "eval", "kernel", "--x", x, "--y", _point_json(0.0, 0.0), "--k", "4"
    )
    assert code == 2 and out == ""


def test_eval_non_finite_result_exits_two_without_output(capsys):
    x = _point_json(1e3, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(capsys, "eval", "kernel", "--x", x, "--y", x, "--k", "4")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "point",
    [
        '{"z": [0.5], "W": {"rows": 1, "cols": 1, "re": [0.1], "im": [0.0]}}',
        '{"z": [[0.5, 0.0], [0.5, 0.0]], "W": {"rows": 1, "cols": 1, "re": [0.1], "im": [0.0]}}',
    ],
)
def test_eval_rejects_malformed_point(capsys, point):
    code, out = run_cli(capsys, "eval", "potential", "--point", point, "--k", "4")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--which", "gauss", "--seed", "3", "--g",
         '{"a": {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]},'
         ' "b": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}}'],
        ["verify", "algebra", "--tol", "1e-3"],
        ["verify", "algebra", "--json-indent", "2"],
    ],
)
def test_flag_the_subcommand_does_not_read_exits_two(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "density", "--n", "3", "--k", "7", "--point", _point_json(0.0, 0.5)],
        ["eval", "lambda", "--n", "1", "--k", "5", "--point", _point_json(0.0, 0.5)],
        ["eval", "kernel", "--n", "9", "--x", _point_json(0.0, 0.0),
         "--y", _point_json(0.0, 0.0), "--k", "4"],
        ["eval", "potential", "--point", _point_json(0.0, 0.5), "--k", "4",
         "--y", _point_json(0.0, 0.0)],
        ["eval", "form", "--point", _point_json(0.0, 0.5), "--k", "4", "--n", "1"],
    ],
)
def test_eval_flag_the_quantity_does_not_read_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "does not read" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "jacobi", "--n", "0"],
        ["verify", "jacobi", "--samples", "-5"],
        ["verify", "oracle", "--samples", "0"],
        ["verify", "algebra", "--n", "0"],
        ["eval", "lambda", "--n", "0", "--k", "5"],
        ["eval", "lambda", "--n", "1", "--k", "nan"],
        ["eval", "lambda", "--n", "1", "--k", "inf"],
        ["verify", "gj1", "--k", "inf"],
        # a representation index is positive: -3 gave a form with a negative
        # diagonal entry, and verify jacobi --k 0 failed two of its records
        ["eval", "form", "--point", _point_json(0.0, 0.5), "--k", "-3"],
        ["eval", "kernel", "--x", _point_json(0.0, 0.5), "--y", _point_json(0.0, 0.5), "--k", "0"],
        ["verify", "jacobi", "--k", "0"],
    ],
)
def test_out_of_range_numeric_flag_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("k", ["6.5", "5"])
def test_verify_jacobi_rejects_a_k_that_is_not_an_even_integer(capsys, k):
    # the cocycle records need an even integer k; no record runs at a rounded one
    code = cli.main(["verify", "jacobi", "--n", "2", "--k", k])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"k must be an even integer, got {float(k)}" in captured.err
    # no CLI flag sets the cocycles' unchecked_branch, so the message must
    # not offer it
    assert "unchecked_branch" not in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_decompose_rejects_a_tol_that_is_not_finite_and_positive(capsys, tol):
    # a = 3, b = 0.5 has membership residual 7.75: inf accepted it and printed a
    # Gauss factorization with residual 2.58, nan a Cartan one with residual 0
    g = json.dumps({"a": {"rows": 1, "cols": 1, "re": [3.0], "im": [0.0]},
                    "b": {"rows": 1, "cols": 1, "re": [0.5], "im": [0.0]}})
    for which in ("gauss", "cartan"):
        with pytest.raises(SystemExit) as err:
            cli.main(["decompose", "--g", g, "--which", which, "--tol", tol])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert "--tol" in captured.err


@pytest.mark.parametrize("which", ["gauss", "cartan"])
def test_decompose_tol_sets_the_membership_tolerance(capsys, which):
    # membership residual 2.0e-6: outside the default --tol 1e-9, inside 1e-5
    g = json.dumps({"a": {"rows": 1, "cols": 1, "re": [1.000001], "im": [0.0]},
                    "b": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}})
    code, out = run_cli(capsys, "decompose", "--g", g, "--which", which)
    assert code == 2 and out == ""
    code, out = run_cli(capsys, "decompose", "--g", g, "--which", which, "--tol", "1e-5")
    assert code == 0 and json.loads(out)["residual"] <= 1e-5


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "oracle", "--k", "4"],
        ["verify", "oracle", "--k", "4", "--n", "2"],
        ["verify", "algebra", "--samples", "5"],
        ["verify", "algebra", "--samples", "5", "--k", "3", "--cutoff", "7"],
        ["verify", "gj1", "--n", "2"],
        ["verify", "measure", "--cutoff", "60"],
        ["verify", "measure", "--n", "2"],
    ],
)
def test_verify_flag_the_suite_does_not_read_exits_two(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_verify_seed_the_suite_does_not_read_is_logged(capsys, caplog):
    code, out = run_cli(capsys, "verify", "algebra", "--n", "1", "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    assert [r.getMessage() for r in caplog.records] == [
        "suite 'algebra' draws nothing; seed 5 is not read"
    ]
    caplog.clear()
    # without --seed the report records the default, and nothing is logged
    code, out = run_cli(capsys, "verify", "algebra", "--n", "1")
    assert code == 0 and json.loads(out)["seed"] == 1234
    assert caplog.records == []


def test_verify_all_passes_each_flag_to_the_suites_that_read_it(monkeypatch):
    calls = {}

    def recorder(name, fn):
        @functools.wraps(fn)
        def record(**kwargs):
            calls[name] = kwargs
            return []
        return record

    for name, fn in list(verify._SUITE_FNS.items()):
        monkeypatch.setitem(verify._SUITE_FNS, name, recorder(name, fn))
    verify.run_suite("all", seed=5, cutoff=70, k=None)
    assert calls.pop("oracle") == {"seed": 5, "cutoff": 70}
    assert calls.pop("algebra") == {}
    assert calls == {name: {"seed": 5} for name in ("symplectic", "jacobi", "gj1", "measure")}


@pytest.mark.parametrize("argv", [
    ["eval", "density", "--point", '{"z": [[0.0, 0.0]], "W": [[0]]}'],
    ["decompose", "--which", "gauss", "--g", json.dumps(
        {"a": [[1]], "b": {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}})],
])
def test_a_matrix_that_is_not_the_json_form_exits_two(capsys, argv):
    # a bare nested list in place of {rows, cols, re, im}: one error line,
    # no traceback
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: a matrix must be an object with the keys rows, cols, re, im"]
