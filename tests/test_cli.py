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
    code, out = run_cli(capsys, "eval", "density", "--point", point, "--n", "1")
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
    code, out = run_cli(
        capsys, "eval", "density", "--point", _point_json(0.0, 1.5), "--n", "1"
    )
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
    ],
)
def test_flag_the_subcommand_does_not_read_exits_two(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


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
    ],
)
def test_out_of_range_numeric_flag_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert argv[-2] in captured.err


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
