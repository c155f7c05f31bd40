"""Finite-difference oracles for the closed-form geometry.

Mixed Wirtinger Hessians and holomorphic Jacobians in the independent
coordinates of C^n x D_n.  These are deliberately independent of the closed
forms they validate: plain central differences on the real and imaginary
parts of each coordinate.

Each oracle evaluates its stencil on stacks: the function it differentiates
receives a stacked :class:`CSPoint` and returns results of the stack's
leading shape, as :func:`jacobi.kahler_potential`, :func:`jacobi.act` and
:func:`matfun.logdet_hpd` do.  The Hessian's stencil holds 32 points for
each coordinate pair ``a <= b`` (96 / 480 / 1440 points at n = 1 / 2 / 3),
and entry ``(b, a)`` is the conjugate of ``(a, b)``.  Its pairs go to the
function in three groups by coordinate kind (z–z, z–w, w–w), one call each,
with ``z`` and ``W`` stacks of leading shape ``(pairs, 8, 4)`` that keep
only the stencil axes they move along: a z–z pair never moves ``W`` and a
z–w pair moves it along the eight steps of its ``w`` coordinate only, so
the 96 / 480 / 1440 points hold only 41 / 241 / 817 distinct ``W``.  A
Jacobian's stack holds four points per coordinate (20 at n = 2), in one
call.
"""

from __future__ import annotations

import functools

import numpy as np

from .jacobi import CSPoint, cs_coords, cs_from_coords, w_from_coords

__all__ = ["wirtinger_hessian", "holomorphic_jacobian"]


#: Step of the Hessian's stencil: the truncation error is O(h^4)
_HESSIAN_STEP = 5e-4
#: Step of the Jacobians' stencils
_JACOBIAN_STEP = 1e-6


def _hessian_stencil(h: float):
    """The Hessian's stencil at step ``h`` as ``(steps, partners, weights)``.

    ``steps`` are the eight steps of one coordinate ``xi_b``: ``-2h, -h, h,
    2h``, then ``i`` times them.  For step ``i``, ``partners[kind, i]`` holds
    the four steps of ``xi_a`` it is paired with and ``weights[kind, i]``
    their weights in ``H_ab``; kind 0 is an entry off the diagonal, kind 1 a
    diagonal one.  Both kinds are fourth order:

    * off the diagonal, the four steps of the same size in either direction.
      Each real mixed derivative is then the Richardson form
      ``(16 S(h) - S(2h)) / (48 h^2)`` with ``S(t) = f(t, t) - f(t, -t) -
      f(-t, t) + f(-t, -t)`` (B. Fornberg, Math. Comp. 51 (1988) 699-706),
      and ``H_ab = 1/4 [f_xx + f_yy + i (f_xy - f_yx)]``, ``x`` and ``y``
      the real and imaginary parts of ``xi_a`` (first) and ``xi_b``;
    * on the diagonal, the four steps in the same direction, weighted by the
      products of the fourth-order first-derivative stencils,
      ``1/4 (D_x D_x + D_y D_y) f``: the cross terms only estimate
      ``d_x d_y - d_y d_x = 0``.
    """
    units = np.array([-2.0, -1.0, 1.0, 2.0])
    unit = np.concatenate([units, 1j * units])
    steps = h * unit
    size = np.abs(unit)
    same_size = [[j for j in range(8) if size[j] == size[i]] for i in range(8)]
    same_dir = [[i - i % 4 + j for j in range(4)] for i in range(8)]
    # the sign and phase of a point of S(t): +-1 for two steps in one
    # direction, +-i for xi_a real and xi_b imaginary, -+i for the reverse
    phase = unit[same_size].conj() * unit[:, None] / (size * size)[:, None]
    richardson = np.where(size == 1.0, 16.0, -1.0) / (4 * 48 * h * h)
    first = np.array([1 / 12, -8 / 12, 8 / 12, -1 / 12]) / (2 * h)
    product = first[np.arange(8) % 4][:, None] * first
    return (
        steps,
        np.stack([steps[same_size], steps[same_dir]]),
        np.stack([phase * richardson[:, None], product]),
    )


_HESSIAN_STEPS, _HESSIAN_PARTNERS, _HESSIAN_WEIGHTS = _hessian_stencil(_HESSIAN_STEP)
#: The Jacobian stencil's steps ``h, -h, ih, -ih`` in one coordinate
_JACOBIAN_STEPS = np.array(
    [_JACOBIAN_STEP, -_JACOBIAN_STEP, 1j * _JACOBIAN_STEP, -1j * _JACOBIAN_STEP]
)


def _contract(weights, blocks):
    """Real and imaginary parts, shape ``(2, len(blocks))``, of
    ``sum_i sum_j weights[p, i, j] * f[i, j]`` for each real block ``f =
    blocks[p]``, accumulated in that order.

    As ``f`` is real, both parts are sums of real products, and ``np.cumsum``
    adds them one at a time: each gets the bits of the complex accumulation
    ``acc += w * f``.
    """
    flat = blocks.reshape(len(blocks), -1)
    w = weights.reshape(len(blocks), -1)
    return np.cumsum(np.stack([flat * w.real, flat * w.imag]), axis=-1)[..., -1]


@functools.lru_cache(maxsize=8)
def _pair_groups(n: int):
    """The stencil of the pairs ``a <= b`` of the ``dim = n + n(n+1)/2``
    coordinates, as ``(rows, cols, weights, groups)``, built once per ``n``
    as read-only arrays.

    ``rows, cols`` is ``np.triu_indices(dim)`` and ``weights`` has shape
    ``(pairs, 8, 4)``.  ``groups`` holds the non-empty groups z–z, z–w and
    w–w, each as ``(where, z_plan, w_plan)``: the group's positions in the
    pair order, then for each kind of coordinates the :func:`_plan` of its
    stack.
    """
    rows, cols = np.triu_indices(n + n * (n + 1) // 2)
    kind = (rows == cols).astype(int)
    partners = _HESSIAN_PARTNERS[kind]
    steps = _HESSIAN_STEPS[None, :, None]
    groups = []
    for where in (cols < n, (rows < n) & (cols >= n), rows >= n):
        if not where.any():
            continue
        z_moves, w_moves = [], []
        # xi_a takes the partner steps, then xi_b the eight steps
        for coords, offsets in ((rows[where], partners[where]), (cols[where], steps)):
            if coords[0] < n:
                z_moves.append((coords, offsets))
            else:
                w_moves.append((coords - n, offsets))
        groups.append((_frozen(np.flatnonzero(where)), _plan(z_moves), _plan(w_moves)))
    return _frozen(rows), _frozen(cols), _frozen(_HESSIAN_WEIGHTS[kind]), tuple(groups)


def _plan(moves):
    """``(lead, moves)`` of a :func:`_stack` from its moves ``(coords,
    offsets)``: the move adds ``offsets[p]`` (shape ``(pairs, 8, 4)``, or
    ``(1, 8, 1)`` for the eight steps of every pair) to coordinate
    ``coords[p]``.  ``lead`` is ``(pairs, 8, 4)`` with a size-1 axis where no
    move varies, and ``(1, 1, 1)`` if there is no move."""
    lead = np.broadcast_shapes((1, 1, 1), *((len(c),) + off.shape[1:] for c, off in moves))
    return lead, tuple(tuple(map(_frozen, (np.arange(len(c)), c, off))) for c, off in moves)


def _frozen(arr):
    """``arr``, made read-only: the cached stencil arrays are shared."""
    arr.flags.writeable = False
    return arr


def _stack(base, plan):
    """Stencil stack of one kind of coordinates (the ``z`` or the ``w_ij``)
    for a group of pairs: ``base`` stepped by the moves of ``plan``, in
    their order."""
    lead, moves = plan
    stack = np.empty(lead + base.shape, dtype=complex)
    stack[...] = base
    for pair, coords, offsets in moves:
        stack[pair, :, :, coords] += offsets
    return stack


def wirtinger_hessian(fun, x: CSPoint) -> np.ndarray:
    """Mixed Hessian ``H_ab = d^2 f / dxi_a dxibar_b`` of a real function.

    Fourth-order central differences in the real and imaginary parts of the
    coordinates, with the fixed step ``h = 5e-4``, so the truncation error is
    O(h^4) and stays far below the closed forms it validates.  Each entry
    ``a <= b`` takes 32 points (see :func:`_hessian_stencil`): for each of
    the eight steps of ``xi_b``, four steps of ``xi_a``.  Entry ``(b, a)`` is
    the conjugate of ``(a, b)`` and the diagonal is real, so the Hessian is
    Hermitian bit for bit.

    The stencil holds the pairs ``a <= b`` in the order of
    ``np.triu_indices`` (96 / 480 / 1440 points at n = 1 / 2 / 3).  ``fun``
    is called once per group of pairs by coordinate kind, in the order z–z,
    z–w, w–w, on a :class:`CSPoint` whose ``z`` and ``W`` stacks have the
    leading shape ``(pairs, 8, 4)``, with size-1 axes where they do not
    move: at n = 3 the groups hold 6, 18 and 21 pairs; ``z`` has leading
    shapes ``(6, 8, 4)``, ``(18, 8, 4)`` and ``(1, 1, 1)``, and ``W`` has
    ``(1, 1, 1)``, ``(18, 8, 1)`` and ``(21, 8, 4)``.  ``fun`` returns real
    values with three axes that broadcast to the group's leading shape
    ``(pairs, 8, 4)``, as :func:`jacobi.kahler_potential` does; so work that
    depends on ``W`` alone runs once per distinct ``W`` (41 / 241 / 817).
    Every entry sums ``w_ij f_ij`` over the same values in the same order as
    a call of ``fun`` per point would.
    """
    base = cs_coords(x)
    n, dim = x.n, len(base)
    rows, cols, weights, groups = _pair_groups(n)
    vals = np.empty(weights.shape)
    for where, z_plan, w_plan in groups:
        z = _stack(base[:n], z_plan)
        w = _stack(base[n:], w_plan)
        got = np.asarray(fun(CSPoint(z=z, W=w_from_coords(w, n))))
        shape = (len(where),) + weights.shape[1:]
        if got.ndim != 3 or any(g not in (1, s) for g, s in zip(got.shape, shape)):
            raise ValueError(
                f"fun returned shape {got.shape}, expected one broadcasting to {shape}"
            )
        if np.iscomplexobj(got):
            raise ValueError("fun returned complex values, expected real ones")
        vals[where] = got
    re, im = _contract(weights, vals)
    out = np.empty((dim, dim), dtype=complex)
    out.real[rows, cols] = out.real[cols, rows] = re
    out.imag[rows, cols], out.imag[cols, rows] = im, -im
    # the diagonal's weights are real: its imaginary sums are +-0
    np.fill_diagonal(out.imag, 0.0)
    return out


def holomorphic_jacobian(mapping, x: CSPoint) -> np.ndarray:
    """Jacobian ``J_ab = d (mapping coords)_a / d xi_b`` by complex stencils
    with the fixed step ``h = 1e-6``.

    The mapping must be holomorphic; the anti-holomorphic part of the
    stencil is discarded (and is O(h) small for holomorphic maps).

    ``mapping`` is called once, on the stacked :class:`CSPoint` of the
    ``4 dim`` stencil points (leading shape ``(dim, 4)``: the coordinate
    ``b``, then the steps ``h, -h, ih, -ih`` in it), and returns the stacked
    image points, a :class:`CSPoint` of the same leading shape.  Each entry
    is computed from the same values in the same arithmetic as with a call
    of ``mapping`` per point.  The Jacobian of a domain self-map is the
    ``w`` block ``[n:, n:]`` of the map lifted with ``z = 0``.
    """
    base = cs_coords(x)
    coord = np.arange(len(base))
    lead = (len(coord), len(_JACOBIAN_STEPS))
    stack = np.broadcast_to(base, lead + base.shape).copy()
    stack[coord, :, coord] += _JACOBIAN_STEPS
    cols = cs_coords(mapping(cs_from_coords(stack, x.n)))
    if cols.shape[:-1] != lead:
        raise ValueError(f"mapping returned leading shape {cols.shape[:-1]}, expected {lead}")
    d_re = (cols[:, 0] - cols[:, 1]) / (2 * _JACOBIAN_STEP)
    d_im = (cols[:, 2] - cols[:, 3]) / (2 * _JACOBIAN_STEP)
    return (0.5 * (d_re - 1j * d_im)).T
