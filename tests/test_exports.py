"""Every name the package and its layer modules export in ``__all__`` exists,
the layers take no tolerance or step that no caller sets, and they take one
representation index, ``k``."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("matfun", "symplectic", "jacobi", "numdiff", "fockoracle", "diffops",
          "gj1", "verify", "cli")


@pytest.mark.parametrize("module", ["siegeljacobi"] + [f"siegeljacobi.{m}" for m in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


#: The only tolerance, integer-slack and branch-check parameters a caller can
#: set: each is set by a caller (the CLI's ``decompose --tol``, the Fock
#: oracle's weight-one cocycles); every other such value is fixed
SETTABLE = {
    "symplectic.sp_new": {"tol"},
    "symplectic.SpElement.from_json": {"tol"},
    "jacobi.lambda_cocycle": {"unchecked_branch"},
    "jacobi.lambda_cocycle_ez": {"unchecked_branch"},
}


def _public_callables(mod):
    """``(name, function)`` of the public functions a module defines and of
    the public methods of its public classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static/class methods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_only_the_settable_tolerances_and_branch_checks_are_parameters():
    found = {}
    for layer in LAYERS:
        for name, fn in _public_callables(importlib.import_module(f"siegeljacobi.{layer}")):
            knobs = set(inspect.signature(fn).parameters) & {"tol", "eps", "unchecked_branch"}
            if knobs:
                found[f"{layer}.{name}"] = knobs
    assert found == SETTABLE


def test_no_layer_takes_a_kappa_index():
    # the half-plane literature's kappa is k/4; every layer takes k itself
    found = [f"{layer}.{name}"
             for layer in LAYERS
             for name, fn in _public_callables(importlib.import_module(f"siegeljacobi.{layer}"))
             if "kappa" in inspect.signature(fn).parameters]
    assert found == []


def test_finite_difference_oracles_take_no_step():
    numdiff = importlib.import_module("siegeljacobi.numdiff")
    params = {name: list(inspect.signature(getattr(numdiff, name)).parameters)
              for name in numdiff.__all__}
    assert params == {
        "wirtinger_hessian": ["fun", "x"],
        "holomorphic_jacobian": ["mapping", "x"],
    }


def test_the_geometry_path_loads_no_scipy_linalg():
    # importing the package and running the closed forms (the geometry, the
    # kernel, the cocycles and every log-determinant), the
    # finite-difference oracles, the Fock oracle and its verify suite calls
    # numpy only: scipy is a test dependency
    src = Path(__file__).resolve().parents[1] / "src"
    code = """
import sys
import numpy as np
import siegeljacobi
from siegeljacobi import jacobi, matfun, numdiff, symplectic
rng = np.random.default_rng(2)
x = jacobi.cs_point(0.3 * rng.normal(size=2) + 0.2j, symplectic.random_siegel_point(2, 0.5, rng))
y = jacobi.cs_point(0.2 * rng.normal(size=2) - 0.1j, symplectic.random_siegel_point(2, 0.4, rng))
h = jacobi.JacobiElement(g=symplectic.sp_random(2, 0.4, rng), alpha=np.array([0.1, 0.2j]), t=0.3)
jacobi.kernel(x, y, 3.0)
jacobi.lambda_cocycle(h, x, 4.0)
jacobi.lambda_cocycle_ez(h, x, 4.0)
symplectic.multiplier(h.g, x.W, 3.0)
symplectic.ball_compose(x.W, y.W)
matfun.principal_logdet(np.eye(2) + 0.3 * rng.normal(size=(4, 2, 2)))
jacobi.kahler_form(x, 4.0)
jacobi.kahler_potential(x, 4.0)
jacobi.density(jacobi.act(h, x))
numdiff.wirtinger_hessian(lambda p: jacobi.kahler_potential(p, 4.0), x)
numdiff.holomorphic_jacobian(lambda p: jacobi.act(h, p), x)
import siegeljacobi.fockoracle, siegeljacobi.verify
siegeljacobi.verify.suite_oracle(samples=1)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
