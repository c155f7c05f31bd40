"""Every name the package and its layer modules export in ``__all__`` exists."""

import importlib

import pytest

LAYERS = ("matfun", "symplectic", "jacobi", "numdiff", "fockoracle", "diffops",
          "gj1", "verify", "cli")


@pytest.mark.parametrize("module", ["siegeljacobi"] + [f"siegeljacobi.{m}" for m in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
