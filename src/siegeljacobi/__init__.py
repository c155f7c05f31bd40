"""Coherent-state geometry of the semidirect product of phase-space
translations with the real symplectic group, realized on C^n x D_n.

Subpackage map:

* ``matfun``      -- Hermitian spectral calculus, principal log-determinant
* ``symplectic``  -- the group, its decompositions, kernel, volume, constants
* ``jacobi``      -- the semidirect product: action, cocycle, kernel, measure
* ``diffops``     -- exact first-order operator realization and table checks
* ``fockoracle``  -- truncated single-mode ground truth for every identity
* ``gj1``         -- one-variable section: polynomial basis, half-plane maps
* ``verify``      -- verification suites and the independent routes they run

``fockoracle`` and ``verify`` load on first use (``siegeljacobi.verify`` or
an import of the submodule): a caller of the closed forms alone, such as
``eval``, then skips their import (about 20 ms and 2 MB of peak memory).
"""

import importlib

from . import diffops, gj1, jacobi, matfun, numdiff, symplectic
from .jacobi import CSPoint, JacobiElement
from .symplectic import SpElement

__all__ = [
    "diffops",
    "fockoracle",
    "gj1",
    "jacobi",
    "matfun",
    "numdiff",
    "symplectic",
    "verify",
    "CSPoint",
    "JacobiElement",
    "SpElement",
]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: the verification layers, which the closed forms never call,
    # are imported on first access
    if name in ("fockoracle", "verify"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
