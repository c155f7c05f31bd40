"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

:func:`wirtinger_hessian` evaluates its whole stencil in one call: the
function it differentiates receives a stacked :class:`CSPoint` and returns an
array of the stack's leading shape, as :func:`jacobi.kahler_potential` and
:func:`matfun.principal_logdet` do.  The Jacobians map one point at a time.
"""

from __future__ import annotations

import numpy as np

from .jacobi import CSPoint, cs_coords, cs_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian", "w_jacobian"]


def _wirtinger_steps(h: float, conjugate: bool):
    """Fourth-order stencil for d/dxi (or d/dxibar) as (offset, weight) pairs."""
    real = [(-2 * h, 1 / 12), (-h, -8 / 12), (h, 8 / 12), (2 * h, -1 / 12)]
    sign = 1j if conjugate else -1j
    steps = [(off, w / (2 * h)) for off, w in real]
    steps += [(1j * off, sign * w / (2 * h)) for off, w in real]
    return steps


def wirtinger_hessian(fun, x: CSPoint, h: float = 5e-4) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    Both Wirtinger derivatives use fourth-order central stencils in the real
    and imaginary directions (64 evaluations per entry), so the truncation
    error is O(h^4) and stays far below the closed forms it validates.

    ``fun`` is called once, on the stacked :class:`CSPoint` of all
    ``64 dim^2`` stencil points (leading shape ``(dim, dim, 8, 8)``: entry
    ``(a, b)``, then the steps in coordinates ``a`` and ``b``), and returns
    the real values as an array of that leading shape.
    """
    base = cs_coords(x)
    dim = len(base)
    steps_a = _wirtinger_steps(h, conjugate=False)
    steps_b = _wirtinger_steps(h, conjugate=True)
    lead = (dim, dim, len(steps_a), len(steps_b))
    stack = np.broadcast_to(base, lead + (dim,)).copy()
    diag = np.arange(dim)
    stack[diag, :, :, :, diag] += np.array([da for da, _ in steps_a])[:, None]
    stack[:, diag, :, :, diag] += np.array([db for db, _ in steps_b])
    vals = np.asarray(fun(cs_from_coords(stack, x.n)))
    if vals.shape != lead:
        raise ValueError(f"fun returned shape {vals.shape}, expected {lead}")
    out = np.zeros((dim, dim), dtype=complex)
    for a, row in enumerate(vals.tolist()):
        for b, block in enumerate(row):
            acc = 0j
            for (_, wa), fs in zip(steps_a, block):
                for (_, wb), f in zip(steps_b, fs):
                    acc += wa * wb * f
            out[a, b] = acc
    return out


def holomorphic_jacobian(mapping, x: CSPoint, h: float = 1e-6) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).
    """
    base = cs_coords(x)
    n = x.n
    dim = len(base)
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        cols = []
        for step in (h, -h, 1j * h, -1j * h):
            vec = base.copy()
            vec[b] += step
            cols.append(cs_coords(mapping(cs_from_coords(vec, n))))
        d_re = (cols[0] - cols[1]) / (2 * h)
        d_im = (cols[2] - cols[3]) / (2 * h)
        out[:, b] = 0.5 * (d_re - 1j * d_im)
    return out


def w_jacobian(mapping, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Holomorphic Jacobian of a domain self-map in the ``w_ij`` coordinates."""
    n = w.shape[0]
    x = CSPoint(z=np.zeros(n, dtype=complex), W=w)

    def lifted(pt: CSPoint) -> CSPoint:
        return CSPoint(z=np.zeros(n, dtype=complex), W=mapping(pt.W))

    full = holomorphic_jacobian(lifted, x, h=h)
    return full[n:, n:]
