"""Truncated single-mode Fock space: brute-force ground truth.

Every analytic identity of the package (displacement composition, squeeze
disentangling, the squeezed-vacuum relation, the conjugation equations, the
orbit map and its multiplier, the reproducing kernel) can be checked on the
span of the number states |0>..|N>.  The single-mode realization
``Kp = a+ a+ / 2``, ``Km = a a / 2``, ``K0 = (a+ a + a a+) / 4`` has vacuum
weight 1/4, so the oracle pins the representation index to k = 1.

A state is a complex array of amplitudes over |0>..|N>: one vector, or a
block whose columns are a stack of states (:func:`vacuum` and
:func:`cs_vector` return them).

Every exponential is one routine, ``_expm_apply``: the action of
``exp(G)`` on a vector or a block of columns through the generator's few
nonzero diagonals, so no ``(N+1)^2`` matrix is formed to exponentiate.  A
generator's coefficients are numbers, or 1-D arrays of ``c`` entries: then
column ``i`` of the block takes the ``i mod c``-th generator, and each
generator runs its own number of Taylor steps.  The
operators (:func:`displacement`, :func:`squeeze`,
:func:`squeeze_from_generator`, :func:`s_of_g`) are their actions: each
takes a vector or a block of columns over |0>..|N>, reads the cutoff from
its length, and applies its ordered product of exponentials, with the
vacuum as one more column for its tail guard; ``np.eye(N + 1)`` gives the
operator.  The operators and the sampled routes (:func:`cs_vector`,
:func:`oracle_kernel`, :func:`mm1_residual`) take one sample or a stack of
samples along one leading axis (1-D parameter arrays, a stacked
:class:`SpElement`, stacked points) and make one stacked call of each
operator for all of them, with one guard column per sample: every column of
a stack has the bits of its own one-sample call, and a single sample keeps
its scalar returns.  The orbit vectors of :func:`cs_vector` sum their
series on a stack of columns that each stop at their own last term.

The diagonals of the ladder and quadratic generators are built once per
cutoff and kept read-only; no operator is formed as a dense matrix.
Operators have one route each here, their actions; their second routes are
records of :func:`siegeljacobi.verify.suite_oracle`.

Accuracy is certified by cutoff doubling rather than a priori bounds: all
checks report a residual that must shrink when N grows.
"""

from __future__ import annotations

import functools

import numpy as np

from . import matfun
from .errors import CutoffTooSmall
from .jacobi import CSPoint, JacobiElement, alpha_action, alpha_action_inv, lambda_cocycle
from .symplectic import SpElement, cartan_decompose, cartan_synthesize

__all__ = [
    "displacement",
    "squeeze",
    "squeeze_from_generator",
    "cs_vector",
    "vacuum",
    "s_of_g",
    "check_lemma6",
    "check_hpb",
    "oracle_kernel",
    "mm1_residual",
    "squeezed_vacuum_convention",
]

TAIL_FRACTION = 0.9
TAIL_THRESHOLD = 1e-8
SERIES_TERMS = 400  # cap on the orbit-vector series; it converges far sooner
TAYLOR_DEGREE = 18  # 1/19! < 1e-17: one step's truncation at unit norm

#: The most Taylor steps per level of the cutoff ``N`` :func:`_expm_apply` runs.
#: Steps are about ``2 |alpha| sqrt(N)`` for a displacement, ``|zeta| N`` for a
#: squeeze: past ``16 N``, the vacuum's image (mean photon number above ``64 N``,
#: or amplitudes decaying like ``tanh(16)^(m/2)``, ``tanh(16) = 1 - 2.5e-14``)
#: leaves the cutoff, which the tail guard refuses only after the steps.  The
#: tests and suites run at most 2.33 steps per level.
_STEPS_PER_LEVEL = 16


def _norm(amps: np.ndarray):
    """Norm of a state, or the array of the norms of a stack's columns.

    The columns are the rows of one contiguous transposed copy, and
    :func:`matfun._norms` forms the BLAS dots of ``np.linalg.norm``: each
    norm has the bits of ``np.linalg.norm`` of its column as a vector.
    """
    if amps.ndim == 1:
        return float(np.linalg.norm(amps))
    return matfun._norms(np.ascontiguousarray(amps.T)[:, None, :])


def _tail_mass(amps: np.ndarray):
    """Probability mass above ``TAIL_FRACTION * N`` of a state over
    |0>..|N>, or the array of it of each column of a stack.

    A stack's columns are summed as the rows of one contiguous transposed
    copy, each in the pairwise order of ``np.sum`` of its column as a
    vector, so each mass has that sum's bits.
    """
    start = int(TAIL_FRACTION * (len(amps) - 1))
    if amps.ndim == 1:
        return float(np.sum(np.abs(amps[start:]) ** 2))
    return (np.abs(np.ascontiguousarray(amps[start:].T)) ** 2).sum(axis=1)


def _sample_error(message, bad, stacked: bool):
    """:class:`CutoffTooSmall` for the first flagged column of ``bad``, named
    as a sample when the call was stacked; ``message(i)`` describes
    column ``i``.  Returns quietly when no column is flagged."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        i = flagged[0]
        raise CutoffTooSmall(f"sample {i}: {message(i)}" if stacked else message(i))


@functools.cache
def _generators(cutoff: int) -> dict:
    """The one nonzero diagonal of each of ``a, ad, kp, km, k0`` at one
    cutoff, read-only: ``{name: (offset, diagonal)}``, the operator being
    ``np.diag(diagonal, offset)``.

    ``a[m - 1, m] = sqrt(m)``, ``ad = a*``, ``kp = ad ad / 2``,
    ``km = a a / 2`` and ``k0 = (ad a + a ad) / 4``, with no matrix formed.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    root = np.sqrt(np.arange(1, cutoff + 1))
    square = root * root
    out = {
        "a": (1, root.astype(complex)),
        "ad": (-1, root.astype(complex).conj()),
        "kp": (-2, (0.5 * root[1:] * root[:-1]).astype(complex)),
        "km": (2, (0.5 * root[:-1] * root[1:]).astype(complex)),
        "k0": (0, (0.25 * (np.append(0.0, square) + np.append(square, 0.0))).astype(complex)),
    }
    for _, diag in out.values():
        diag.setflags(write=False)
    return out


@np.errstate(invalid="ignore", over="ignore")
def _banded(cutoff: int, **coeffs) -> dict:
    """``sum coeff * op`` over named generators as ``{offset: diagonal}``;
    no two generators share an offset.

    Each diagonal is a column ``(len, 1)`` for a number ``coeff``, or
    ``(len, c)`` for a 1-D array of ``c`` coefficients: ``c`` generators,
    column ``i`` of a block taking generator ``i mod c``.  An infinite or
    overflowing coefficient gives a non-finite diagonal without a warning
    (``inf * (sqrt(m) + 0j)`` has a NaN part), which the one finiteness
    check, :func:`_expm_apply`'s, turns away.
    """
    ops = _generators(cutoff)
    return {ops[name][0]: coeff * ops[name][1][:, None] for name, coeff in coeffs.items()}


def _band_matvec(gen: dict, v: np.ndarray) -> np.ndarray:
    """``G @ v`` for a banded ``G = {offset: diagonal}`` and a block ``v``
    whose first axis is the basis; the diagonals broadcast along the
    other axes."""
    out = np.zeros(v.shape, dtype=complex)
    for offset, diag in gen.items():
        if offset >= 0:
            out[: len(v) - offset] += diag * v[offset:]
        else:
            out[-offset:] += diag * v[:offset]
    return out


def _expm_apply(gen: dict, v: np.ndarray) -> np.ndarray:
    """``expm(G) @ v`` for a banded generator ``G = {offset: diagonal}`` and
    a vector or a block of columns ``v``: the package's one exponential.

    The diagonals hold ``c`` generators (:func:`_banded`), and column ``i``
    of ``v`` takes generator ``i mod c``.  A diagonal ``G`` is an
    elementwise multiply.  Otherwise each generator ``G_c`` runs
    ``ceil(||G_c||_1)`` steps of the degree-``TAYLOR_DEGREE`` Taylor
    polynomial of ``G_c / steps`` on its columns (the exponential action of
    Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011, at a fixed degree).
    Columns whose first terms are all exactly zero have every term zero and
    are returned as they are.  The generators are ordered by step count, so
    that each step acts on those still running; each column has the bits of
    its own one-column action.

    Raises
    ------
    ValueError
        If a generator has a non-finite entry (a NaN, infinite or
        overflowing parameter), which has no step count.
    CutoffTooSmall
        Before any step, past :data:`_STEPS_PER_LEVEL` steps per level.
    """
    finite = functools.reduce(np.logical_and, (np.isfinite(diag).all(axis=0) for diag in gen.values()))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"generator {bad[0]} of the exponential is not finite")
    width = max(diag.shape[1] for diag in gen.values())
    block = v.reshape(len(v), -1, width)
    gen = {offset: diag[:, None, :] for offset, diag in gen.items()}
    if gen.keys() == {0}:
        return (np.exp(gen[0]) * block).reshape(v.shape)
    n = len(block)
    colsum = np.zeros((n, 1, width))
    for offset, diag in gen.items():
        if offset >= 0:
            colsum[offset:] += np.abs(diag)
        else:
            colsum[: n + offset] += np.abs(diag)
    steps = np.maximum(1.0, np.ceil(colsum.max(axis=(0, 1))))
    over = np.flatnonzero(~(steps <= _STEPS_PER_LEVEL * (n - 1)))
    if over.size:
        raise CutoffTooSmall(
            f"generator {over[0]} of the exponential needs {steps[over[0]]:.3g} Taylor "
            f"steps, more than {_STEPS_PER_LEVEL} per level of cutoff {n - 1}")
    steps = steps.astype(int)
    # the factor 1 / (steps * j) of Taylor term j, one row per generator; it
    # multiplies the diagonals as numpy's division of a complex by a real
    # does (by the reciprocal), so the bits are those of the quotient
    scales = (1.0 / np.multiply.outer(steps, np.arange(1, TAYLOR_DEGREE + 1))).astype(complex)

    def taylor_term(j, active):
        # the diagonals of term j for the first ``active`` generators, made
        # per term: kept for all terms, many generators take several MB
        return {offset: diag[..., :active] * scales[:active, j - 1]
                for offset, diag in gen.items()}

    if width == 1:
        # one generator: each term's diagonals are made once
        taylor_term = functools.cache(taylor_term)

    runs = np.where(_band_matvec(taylor_term(1, width), block).any(axis=(0, 1)), steps, 0)
    order = np.argsort(-runs, kind="stable")
    runs, scales = runs[order], scales[order]
    gen = {offset: diag[..., order] for offset, diag in gen.items()}
    out = np.empty(block.shape, dtype=complex)
    cols = block[..., order].astype(complex, copy=False)
    for step in range(runs[0]):
        active = np.count_nonzero(runs > step)
        if active < cols.shape[-1]:
            # the generators that have run all their steps leave, and the
            # rest stay contiguous: a strided block multiplies slower
            out[..., order[active : cols.shape[-1]]] = cols[..., active:]
            cols = cols[..., :active].copy()
            gen = {offset: diag[..., :active].copy() for offset, diag in gen.items()}
        term = cols
        for j in range(1, TAYLOR_DEGREE + 1):
            term = _band_matvec(taylor_term(j, active), term)
            cols += term
    out[..., order[: cols.shape[-1]]] = cols
    return out.reshape(v.shape)


def vacuum(cutoff: int) -> np.ndarray:
    """The vacuum ``e_0`` over |0>..|N>, ``N = cutoff``."""
    v = np.zeros(cutoff + 1, dtype=complex)
    v[0] = 1.0
    return v


def _product(factors: list, v: np.ndarray) -> np.ndarray:
    """``exp(G_m) ... exp(G_1) v`` on a vector or a block of columns ``v``
    over |0>..|N>, the generators ``factors = [G_1, ..., G_m]`` given as
    :func:`_banded` coefficients in the order they act (rightmost first)."""
    for coeffs in factors:
        v = _expm_apply(_banded(len(v) - 1, **coeffs), v)
    return v


def _guarded(factors: list, v: np.ndarray, what: str, size) -> np.ndarray:
    """An operator's :func:`_product` with its guard: the vacuum acts as one
    more column of ``v``, and :class:`CutoffTooSmall` is raised if its image
    has more than ``TAIL_THRESHOLD`` absolute tail mass, or a tail mass
    that is NaN.

    When the coefficients are 1-D arrays, one per column of the block ``v``,
    each sample gets a vacuum column of its own, and the error names the
    sample.  ``what`` and ``size`` (the parameter's size, one per sample for
    a stack) describe the operator in the error.
    """
    cutoff = len(v) - 1
    stacked = any(np.ndim(c) for coeffs in factors for c in coeffs.values())
    width = v.shape[1] if stacked else 1
    vacua = np.zeros((cutoff + 1, width), dtype=complex)
    vacua[0] = 1.0
    out = _product(factors, np.column_stack([v, vacua]))
    tails = _tail_mass(out[:, -width:])
    _sample_error(
        lambda i: f"{what}={size[i] if stacked else size} tail mass {tails[i]:.2e} "
                  f"at cutoff {cutoff}",
        ~(tails <= TAIL_THRESHOLD), stacked)
    return out[:, :-width].reshape(v.shape)


def displacement(alpha, v: np.ndarray) -> np.ndarray:
    """Displacement operator ``exp(alpha a+ - conj(alpha) a)`` applied to
    ``v``, a vector or a block of columns over |0>..|N> (``np.eye(N + 1)``
    gives the operator); a 1-D array ``alpha`` holds one parameter per
    column of ``v``.

    Raises
    ------
    CutoffTooSmall
        If the displaced vacuum leaks too much mass into the tail.
    """
    return _guarded([{"ad": alpha, "a": -np.conj(alpha)}], v,
                    "displacement by |alpha|", abs(alpha))


def squeeze(w, v: np.ndarray) -> np.ndarray:
    """Bogoliubov operator for a domain point ``|w| < 1`` applied to ``v``,
    a vector or a block of columns over |0>..|N>; a 1-D array ``w`` holds
    one point per column of ``v``.

    Acts as ``exp(w Kp) exp(eta K0) exp(-conj(w) Km)`` with
    ``eta = log(1 - |w|^2)``; raises :class:`CutoffTooSmall` if the
    squeezed vacuum leaks too much mass into the tail.
    """
    if np.any(abs(w) >= 1):
        raise ValueError("need |w| < 1")
    eta = np.log(1 - abs(w) ** 2)
    return _guarded([{"km": -np.conj(w)}, {"k0": eta}, {"kp": w}], v,
                    "squeeze by |w|", abs(w))


def squeeze_from_generator(zeta, v: np.ndarray) -> np.ndarray:
    """One-parameter form ``exp(zeta Kp - conj(zeta) Km)`` applied to ``v``,
    with :func:`squeeze`'s guard; a 1-D array ``zeta`` holds one parameter
    per column of ``v``."""
    return _guarded([{"kp": zeta, "km": -np.conj(zeta)}], v, "squeeze by |zeta|", abs(zeta))


def cs_vector(z, w, cutoff: int) -> np.ndarray:
    """Un-normalized orbit vector ``exp(z a+ + w Kp)|0>`` by series
    summation: its amplitudes over |0>..|N>, shape ``(N + 1,)``.

    For 1-D arrays ``z`` and ``w`` of ``c`` entries, the vectors of their
    pairs are the columns of one stack ``(N + 1, c)``, each column's series
    stopping at the term where its own would stop.

    Raises
    ------
    CutoffTooSmall
        If the tail mass fraction exceeds the module threshold or is NaN
        (a NaN parameter); for a stack the error names the sample.
    """
    if np.any(abs(w) >= 1):
        raise ValueError("need |w| < 1")
    z, w = np.broadcast_arrays(z, w)
    gen = _banded(cutoff, ad=z, kp=w)
    acc = np.zeros((cutoff + 1, z.size), dtype=complex)
    acc[0] = 1.0
    term = acc.copy()
    out = acc.copy()  # each column once its series stops
    live = np.arange(acc.shape[1])
    for kterm in range(1, SERIES_TERMS):
        term = _band_matvec(gen, term) / kterm
        acc += term
        # each column's norm as one row of the transposed copy, so its bits
        # do not depend on the other columns
        done = np.linalg.norm(np.ascontiguousarray(term.T), axis=1) < 1e-18
        if done.any():
            out[:, live[done]] = acc[:, done]
            keep = ~done
            live, acc, term = live[keep], acc[:, keep], term[:, keep]
            gen = {offset: diag[:, keep] for offset, diag in gen.items()}
            if not live.size:
                break
    else:
        out[:, live] = acc
    tails, norms = _tail_mass(out), _norm(out)
    _sample_error(
        lambda i: f"orbit vector tail mass {tails[i]:.2e} at cutoff {cutoff}",
        ~(tails <= TAIL_THRESHOLD * norms**2), z.ndim > 0)
    return out if z.ndim > 0 else out[:, 0]


def s_of_g(g: SpElement, v: np.ndarray) -> np.ndarray:
    """Metaplectic-type lift of a 1x1 group element applied to ``v``, with
    :func:`squeeze`'s guard; a stack of elements ``g`` (one leading axis)
    holds one element per column of ``v``.

    The Cartan factors ``(zeta, u)`` of ``g`` give
    ``S(g) = exp(zeta Kp - conj(zeta) Km) exp(2 log(u) K0)``; the principal
    logarithm fixes the lift, consistently with the closed-form multiplier
    for elements near the identity.
    """
    zeta, u = _cartan_params(g)
    return _guarded([{"k0": 2 * np.log(u)}, {"kp": zeta, "km": -np.conj(zeta)}], v,
                    "lift by |zeta|", abs(zeta))


def _cartan_params(g: SpElement) -> tuple:
    """The Cartan factors ``(zeta, v)`` of a 1x1 group element, or the
    arrays of them of a stack, from one :func:`cartan_decompose` call."""
    if g.n != 1:
        raise ValueError("the oracle is single mode (n = 1)")
    fac = cartan_decompose(g)
    return fac.z[..., 0, 0][()], fac.v[..., 0, 0][()]


def check_lemma6(alpha: complex, w: complex, cutoff: int) -> float:
    """Residual of the squeezed-vector relation.

    ``D(alpha) S(w)|0>`` must equal
    ``(1 - w wbar)^{1/4} exp(-conj(alpha) z / 2) e_{z,w}`` with
    ``z = alpha - w conj(alpha)`` (single mode, k = 1).
    """
    lhs = displacement(alpha, squeeze(w, vacuum(cutoff)))
    z = alpha - w * np.conj(alpha)
    rhs = (
        (1 - w * np.conj(w)) ** 0.25
        * np.exp(-0.5 * np.conj(alpha) * z)
        * cs_vector(z, w, cutoff)
    )
    return float(np.linalg.norm(lhs - rhs))


def check_hpb(zeta: complex, alpha: complex, cutoff: int) -> float:
    """Max residual of the conjugation equations at one parameter point.

    For the hyperbolic element ``g = cartan_synthesize([[zeta]], 1)`` with
    blocks ``(m, n) = (cosh|zeta|, zeta sinh|zeta| / |zeta|)``, checks on the
    lower quarter of the truncated basis, applying each operator to those
    basis columns:

    * ``S^-1 a S = m a + n a+``
    * ``D(alpha) S = S D(beta)`` with ``beta = g^-1 . alpha``
      (:func:`siegeljacobi.jacobi.alpha_action_inv`)
    * ``S D(alpha) S^-1 = D(g . alpha)``
      (:func:`siegeljacobi.jacobi.alpha_action`).
    """
    g = cartan_synthesize(np.array([[zeta]]), np.eye(1))
    m, n = complex(g.a[0, 0]), complex(g.b[0, 0])
    alpha_v = np.array([alpha], dtype=complex)
    beta = complex(alpha_action_inv(g, alpha_v)[0])
    deep = cutoff // 4  # conjugation products touch the corner above this
    cols = np.eye(cutoff + 1, deep, dtype=complex)
    annihilate = _banded(cutoff, a=1.0)

    # with E = cols, each squeeze acts once on the blocks it shares: S on
    # [E, D(beta) E], then S^-1 on [a S E, E]
    s_cols, s_d_beta = np.hsplit(
        squeeze_from_generator(zeta, np.hstack([cols, displacement(beta, cols)])), 2)
    sinv_a_s, sinv_cols = np.hsplit(
        squeeze_from_generator(-zeta, np.hstack([_band_matvec(annihilate, s_cols), cols])), 2)

    m_a_n_ad = _band_matvec(_banded(cutoff, a=m, ad=n), cols)  # (m a + n a+) E
    res = [np.abs((sinv_a_s - m_a_n_ad)[:deep]).max(),
           np.abs((displacement(alpha, s_cols) - s_d_beta)[:deep]).max()]
    lhs = squeeze_from_generator(zeta, displacement(alpha, sinv_cols))
    rhs = displacement(complex(alpha_action(g, alpha_v)[0]), cols)
    res.append(np.abs((lhs - rhs)[:deep]).max())
    # NaN in any of the three is the result: Python's max would drop it
    return float(np.max(res))


def oracle_kernel(x: CSPoint, y: CSPoint, cutoff: int):
    """Truncated inner product ``(e_x, e_y)``, conjugate-linear in ``x``.

    For stacks of points (one leading axis of length ``c``) the array of the
    ``c`` inner products ``(e_{x_i}, e_{y_i})``, from one stacked
    :func:`cs_vector` call whose columns are the ``x_i`` and then the ``y_i``.
    """
    if x.n != 1 or y.n != 1:
        raise ValueError("the oracle is single mode (n = 1)")
    if not x.z.shape[:-1] == x.W.shape[:-2] == y.z.shape[:-1] == y.W.shape[:-2]:
        raise ValueError("x and y must be stacks of one shape")
    z = np.concatenate([np.ravel(x.z[..., 0]), np.ravel(y.z[..., 0])])
    w = np.concatenate([np.ravel(x.W[..., 0, 0]), np.ravel(y.W[..., 0, 0])])
    vecs = np.ascontiguousarray(cs_vector(z, w, cutoff).T)
    half = len(z) // 2
    vals = np.array([np.vdot(vx, vy) for vx, vy in zip(vecs[:half], vecs[half:])])
    return complex(vals[0]) if x.z.ndim == 1 else vals


def mm1_residual(g, alpha, z, w, cutoff: int):
    """End-to-end orbit check ``S(g) D(alpha) e_{z,w} = lambda e_{z1,w1}``.

    The right-hand side uses the closed-form multiplier and image point at
    k = 1.  Returns ``(residual, data)`` with the cocycle data; this single
    check arbitrates every convention flag in the package.

    For a stack of samples (``g`` a stack of elements with one leading axis,
    ``alpha``, ``z`` and ``w`` 1-D arrays of its length) each operator acts
    once on all of them, and the returns are the array of residuals and the
    stacked data, whose indexing gives each sample's.
    """
    single = g.a.ndim == 2
    if single:
        g = g[None]
    alpha, z, w = (np.atleast_1d(np.asarray(p, dtype=complex)) for p in (alpha, z, w))
    if not len(g.a) == len(alpha) == len(z) == len(w):
        raise ValueError("g, alpha, z and w must hold one sample each")
    # one stacked cocycle call: each entry has the bits of its single call
    data = lambda_cocycle(JacobiElement(g=g, alpha=alpha[:, None], t=0.0),
                          CSPoint(z=z[:, None], W=w[:, None, None]), 1, unchecked_branch=True)
    lhs = s_of_g(g, displacement(alpha, cs_vector(z, w, cutoff)))
    image = cs_vector(*map(np.ascontiguousarray, (data.z1[:, 0], data.W1[:, 0, 0])), cutoff)
    res = _norm(lhs - data.lam * image)
    return (float(res[0]), data[0]) if single else (res, data)


def squeezed_vacuum_convention(w: complex, cutoff: int) -> float:
    """Residual of the orbit-vector reading of ``S(w)|0>``: the distance of
    :func:`squeeze` on the vacuum (whose factor ``exp(-conj(w) Km)`` returns
    it as it is, ``Km|0> = 0``) from ``(1-|w|^2)^{1/4} exp(w Kp)|0>``, the
    reading of the orbit vector's argument used throughout the package."""
    lhs = squeeze(w, vacuum(cutoff))
    plain = (1 - abs(w) ** 2) ** 0.25 * cs_vector(0.0, w, cutoff)
    return float(np.linalg.norm(lhs - plain))
