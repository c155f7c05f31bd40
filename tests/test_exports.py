"""Every name the package and its layer modules export in ``__all__`` exists,
and the layers take no tolerance or step that no caller sets."""

import importlib
import inspect

import pytest

LAYERS = ("matfun", "symplectic", "jacobi", "numdiff", "fockoracle", "diffops",
          "gj1", "verify", "cli")


@pytest.mark.parametrize("module", ["siegeljacobi"] + [f"siegeljacobi.{m}" for m in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


#: The only tolerance, integer-slack and branch-check parameters a caller can
#: set: each is set by a caller (the CLI's ``decompose --tol``, a test of
#: ``is_siegel``, the Fock oracle's weight-one cocycles); every other such
#: value is fixed
SETTABLE = {
    "matfun.is_siegel": {"tol"},
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


def test_finite_difference_oracles_take_no_step():
    numdiff = importlib.import_module("siegeljacobi.numdiff")
    params = {name: list(inspect.signature(getattr(numdiff, name)).parameters)
              for name in numdiff.__all__}
    assert params == {
        "wirtinger_hessian": ["fun", "x"],
        "holomorphic_jacobian": ["mapping", "x"],
        "w_jacobian": ["mapping", "w"],
    }
