"""Dense complex matrix primitives.

Everything downstream (group decompositions, kernels, measures) is built on a
small set of spectral operations for Hermitian matrices, two
log-determinants (a principal one by LU for general matrices, and a real one
by Cholesky for the Hermitian positive-definite ``1 - W Wbar``), and linear
solves and inverses.  A single matrix goes to LAPACK directly: on the
``n <= 3`` matrices of the closed forms, numpy's ``np.linalg`` wrappers cost
several microseconds more than the LAPACK call, so they serve stacks only.
Matrices are plain ``numpy`` arrays of ``complex``; the shared JSON wire
format is ``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with row-major
entry order.

Branch convention: every fractional power of a general determinant goes
through the principal log-determinant, the sum of the principal logs of the
LU pivots.  That is neither the principal branch of ``log det`` nor the
branch continued from the identity, so interior points of the domain are not
safe from it: at n = 2, 3 and odd ``k``, 59 of 277 finite diagonal values
``jacobi.kernel(x, x, k)`` came out negative or complex (``W`` drawn by
``symplectic.random_siegel_point`` at scales in [0.3, 3]).  Integer powers,
such as the kernel's at even ``k``, do not depend on the branch.  Powers of
``det(1 - W Wbar)`` are real and need no branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainViolation, NonHermitian, NoConvergence, NotSymmetric, Singular

#: Relative tolerance of the symmetry checks (against ``max(||m||, 1)``), and
#: the default tolerance of :func:`is_siegel` and of the group membership check.
DEFAULT_TOL = 1e-10

#: A log-determinant raises :class:`Singular` when a pivot magnitude is at
#: most this fraction of ``max(|m|, 1)`` over its matrix.
SINGULAR_RTOL = 1e-13


def as_cmat(entries) -> np.ndarray:
    """Coerce input to a 2-d complex array and check finiteness."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


@functools.cache
def eye(n: int) -> np.ndarray:
    """The ``n x n`` float identity, built once per ``n`` and read-only.

    For identities used as operands, such as ``eye(n) - W Wbar``; it has the
    dtype and bits of ``np.eye(n)``.
    """
    out = np.eye(n)
    out.flags.writeable = False
    return out


#: LAPACK ``gesv`` by the dtype numpy's solve computes in
_GESV = {np.dtype(float): lapack.dgesv, np.dtype(complex): lapack.zgesv}


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)``, bit for bit, without its wrapper on one matrix.

    One square ``(n, n)`` matrix ``a`` with a right-hand side ``(n,)`` or
    ``(n, k)`` whose dtypes promote to float64 or complex128 is one LAPACK
    ``dgesv``/``zgesv`` call, the routine ``np.linalg.solve`` calls; the
    result is C-ordered, as numpy's is.  Every other input (a stack, an empty
    or non-square matrix, a mismatched right-hand side, another dtype) goes
    to ``np.linalg.solve`` itself.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` is singular, as ``np.linalg.solve`` raises it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    gesv = _GESV.get(np.promote_types(a.dtype, b.dtype))
    if (gesv is None or a.ndim != 2 or b.ndim not in (1, 2)
            or not 0 < a.shape[0] == a.shape[1] == b.shape[0]):
        return np.linalg.solve(a, b)
    _, _, x, info = gesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    # gesv returns a Fortran-ordered x; the order can change the rounding of
    # a product that follows
    return np.ascontiguousarray(x)


def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)``, bit for bit: :func:`solve` of ``a`` and the identity
    on one matrix, which is the solve ``np.linalg.inv`` makes; a stack goes to
    ``np.linalg.inv``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``a`` is singular, as ``np.linalg.inv`` raises it.
    """
    a = np.asarray(a)
    if a.ndim == 2 and a.dtype in _GESV:
        return solve(a, eye(len(a)))
    return np.linalg.inv(a)


def mat_to_json(m: np.ndarray) -> dict:
    """Serialize a matrix to the shared JSON format (row-major)."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def mat_from_json(d: dict) -> np.ndarray:
    """Inverse of :func:`mat_to_json`."""
    rows, cols = int(d["rows"]), int(d["cols"])
    re = np.asarray(d["re"], dtype=float).reshape(rows, cols)
    im = np.asarray(d["im"], dtype=float).reshape(rows, cols)
    return re + 1j * im


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    evals : ndarray
        Real eigenvalues in ascending order.
    evecs : ndarray
        Unitary matrix whose columns are the eigenvectors.
    """

    evals: np.ndarray
    evecs: np.ndarray


def herm_eig(h: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with validation.

    Parameters
    ----------
    h : ndarray
        Square matrix, Hermitian within ``DEFAULT_TOL * max(||h||, 1)``.

    Raises
    ------
    NonHermitian
        If the symmetry check fails.
    NoConvergence
        If the underlying QR iteration stalls.
    """
    h = as_cmat(h)
    if h.shape[0] != h.shape[1]:
        raise NonHermitian("matrix is not square")
    scale = max(np.linalg.norm(h), 1.0)
    if np.linalg.norm(h - h.conj().T) > DEFAULT_TOL * scale:
        raise NonHermitian(
            f"symmetry residual {np.linalg.norm(h - h.conj().T):.3e} exceeds tol"
        )
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    return HermEig(evals=evals, evecs=evecs)


def herm_func(h: np.ndarray, f, domain=None) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix by spectral calculus.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix, validated by :func:`herm_eig`.
    f : callable
        Scalar function applied to the eigenvalues (vectorized).
    domain : callable, optional
        Predicate on the eigenvalue array; a ``False`` anywhere raises
        :class:`DomainViolation` (e.g. ``arctanh`` needs eigenvalues < 1).

    Returns
    -------
    ndarray
        ``V f(diag(evals)) V*``; Hermitian whenever ``f`` is real valued.
    """
    dec = herm_eig(h)
    if domain is not None and not np.all(domain(dec.evals)):
        raise DomainViolation(
            f"eigenvalues {dec.evals} leave the domain of {getattr(f, '__name__', f)}"
        )
    fe = np.asarray(f(dec.evals))
    return (dec.evecs * fe) @ dec.evecs.conj().T


def _sqrt_series(t, small, f_small, f_large):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    mask = np.abs(t) < small
    out[mask] = f_small(t[mask])
    out[~mask] = f_large(t[~mask])
    return out


def cosh_of_sqrt(t):
    """cosh(sqrt(t)) for t >= 0, stable near 0."""
    return _sqrt_series(
        t, 1e-12, lambda s: 1 + s / 2, lambda s: np.cosh(np.sqrt(np.maximum(s, 0.0)))
    )


def sinhc_of_sqrt(t):
    """sinh(sqrt(t))/sqrt(t), extended by 1 at t = 0."""
    return _sqrt_series(
        t,
        1e-10,
        lambda s: 1 + s / 6,
        lambda s: np.sinh(np.sqrt(np.maximum(s, 0.0))) / np.sqrt(np.maximum(s, 1e-300)),
    )


def tanhc_of_sqrt(t):
    """tanh(sqrt(t))/sqrt(t), extended by 1 at t = 0."""
    return _sqrt_series(
        t,
        1e-10,
        lambda s: 1 - s / 3,
        lambda s: np.tanh(np.sqrt(np.maximum(s, 0.0))) / np.sqrt(np.maximum(s, 1e-300)),
    )


def arctanhc_of_sqrt(t):
    """arctanh(sqrt(t))/sqrt(t), extended by 1 at t = 0; needs t < 1."""
    return _sqrt_series(
        t,
        1e-10,
        lambda s: 1 + s / 3,
        lambda s: np.arctanh(np.sqrt(np.clip(s, 0.0, 1.0 - 1e-300)))
        / np.sqrt(np.maximum(s, 1e-300)),
    )


def check_symmetric(z: np.ndarray) -> np.ndarray:
    """Validate complex symmetry ``z == z^T``, within
    ``DEFAULT_TOL * max(||z||, 1)``, and return ``z``."""
    z = as_cmat(z)
    scale = max(np.linalg.norm(z), 1.0)
    if np.linalg.norm(z - z.T) > DEFAULT_TOL * scale:
        raise NotSymmetric(f"symmetry residual {np.linalg.norm(z - z.T):.3e}")
    return z


def cartan_blocks(z: np.ndarray):
    """Hyperbolic blocks of the exponential of an off-diagonal generator.

    For symmetric ``z`` returns ``(m, n)`` with ``m = cosh(sqrt(z zbar))`` and
    ``n = sinhc(sqrt(z zbar)) z``; the product ``z zbar`` equals ``z z*`` so
    the spectral calculus applies.  The pair satisfies ``m m* - n n* = 1``.

    Raises
    ------
    NotSymmetric
        If ``z`` is not complex-symmetric.
    """
    z = check_symmetric(z)
    h = z @ z.conj().T
    m = herm_func(h, cosh_of_sqrt)
    n = herm_func(h, sinhc_of_sqrt) @ z
    return m, n


def principal_logdet(m: np.ndarray):
    """Principal log-determinant via LU with pivot-phase accumulation.

    ``m`` is one square matrix ``(n, n)`` or a stack ``(..., n, n)``.
    ``exp(result) == det(m)``; the imaginary part is the sum of the principal
    logarithms of the diagonal of the U factor plus ``i pi`` for an odd
    number of row swaps.  Returns a ``complex`` for one matrix and a complex
    array of the leading shape for a stack.  Each matrix is factorized by
    LAPACK ``zgetrf`` on its own, so a stacked call equals the per-matrix
    calls bit for bit; a single matrix is one ``zgetrf`` call with its
    bookkeeping done on that matrix directly.  A ``0 x 0`` matrix has
    determinant 1 (the empty product) and log-determinant 0, as in
    ``np.linalg.slogdet``; LAPACK is not called for it.

    Raises
    ------
    ValueError
        If an entry is not finite or the matrices are not square.
    Singular
        If a pivot magnitude is at most ``SINGULAR_RTOL * max(|m|, 1)`` of its
        matrix; for a stack the message names the first such matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if m.shape[-1] == 0:
        # the determinant of a 0x0 matrix is the empty product 1
        return 0j if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=complex)
    if m.ndim == 2:
        # one matrix: the same factorization and sums as one stack entry,
        # without the stack bookkeeping that dominates a single call
        lu, piv, _ = lapack.zgetrf(m)
        diag = lu.diagonal()
        mag = np.abs(diag).min()
        bound = SINGULAR_RTOL * max(np.abs(m).max(), 1.0)
        if mag <= bound:
            raise Singular(f"pivot magnitude {mag:.3e} below threshold {bound:.3e}")
        val = np.log(diag).sum()
        if sum(p != i for i, p in enumerate(piv.tolist())) % 2 == 1:
            val += 1j * np.pi
        return complex(val)
    lead, n = m.shape[:-2], m.shape[-1]
    flat = m.reshape(-1, n, n)
    lus = np.empty_like(flat)
    pivs = np.empty((len(flat), n), dtype=np.int32)
    for i, mat in enumerate(flat):
        lus[i], pivs[i], _ = lapack.zgetrf(mat)
    diag = lus.diagonal(axis1=-2, axis2=-1)
    odd = np.count_nonzero(pivs != np.arange(n), axis=-1) % 2 == 1
    mag = np.abs(diag)
    bound = SINGULAR_RTOL * np.maximum(np.abs(flat).max(axis=(-2, -1)), 1.0)
    bad = (mag <= bound[:, None]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"stack index {tuple(map(int, np.unravel_index(i, lead)))}: " if lead else ""
        raise Singular(
            f"{where}pivot magnitude {mag[i].min():.3e} below threshold {bound[i]:.3e}"
        )
    out = np.log(diag).sum(axis=-1)
    out[odd] += 1j * np.pi
    return out.reshape(lead) if lead else complex(out[0])


def logdet_hpd(m: np.ndarray):
    """Real log-determinant of Hermitian positive-definite matrices by Cholesky.

    ``m`` is one square matrix ``(n, n)`` or a stack ``(..., n, n)``, such as
    ``1 - W Wbar`` for ``W`` in the domain; only its lower triangle is read.
    The result is ``2 sum_i log L_ii``: a ``float`` for one matrix and a
    float array of the leading shape for a stack.  One matrix is one LAPACK
    ``zpotrf`` call, without the per-call cost of ``np.linalg.cholesky``'s
    wrapper; one ``np.linalg.cholesky`` call factors a whole stack.  The
    gufunc calls the same ``zpotrf`` on each matrix, so a stacked call equals
    the per-matrix calls bit for bit.  A ``0 x 0`` matrix has log-determinant
    0.

    Raises
    ------
    ValueError
        If an entry is not finite or the matrices are not square.
    DomainViolation
        If a matrix is not positive definite (for ``1 - W Wbar``: ``W`` is
        outside the domain); the message names the first such matrix of a
        stack and its smallest eigenvalue.
    Singular
        If a pivot ``L_ii^2`` is at most ``SINGULAR_RTOL * max(|m|, 1)`` of its
        matrix; for a stack the message names the first such matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    # max(|m|, 1) over the whole stack; NaN or inf if an entry is not finite
    scale = np.abs(m).max(initial=1.0)
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    lead, n = m.shape[:-2], m.shape[-1]

    def where(i):
        return f"stack index {tuple(map(int, np.unravel_index(i, lead)))}: " if lead else ""

    def not_positive_definite(i, mat):
        evmin = np.linalg.eigvalsh(mat).min()
        return DomainViolation(
            f"{where(i)}matrix is not positive definite, smallest eigenvalue {evmin:.3e}"
        )

    flat = m.reshape(math.prod(lead), n, n)
    if lead:
        try:
            diag = np.linalg.cholesky(flat).diagonal(axis1=-2, axis2=-1).real
        except np.linalg.LinAlgError:
            # the failure path only: find the first matrix that does not factor
            for i, mat in enumerate(flat):
                if lapack.zpotrf(mat, lower=1)[1] > 0:
                    raise not_positive_definite(i, mat) from None
            raise  # pragma: no cover - every matrix factored on its own
    else:
        factor, info = lapack.zpotrf(m, lower=1)
        if info > 0:
            raise not_positive_definite(0, m)
        diag = factor.diagonal().real[None]
    # a pivot at or below its own matrix's bound is at or below the largest one
    if diag.size and diag.min() ** 2 <= SINGULAR_RTOL * scale:
        pivots = diag * diag
        bound = SINGULAR_RTOL * np.maximum(np.abs(flat).max(axis=(-2, -1)), 1.0)
        bad = (pivots <= bound[:, None]).any(axis=-1)
        if bad.any():
            i = int(np.argmax(bad))
            raise Singular(
                f"{where(i)}pivot magnitude {pivots[i].min():.3e} below threshold {bound[i]:.3e}"
            )
    out = 2.0 * np.log(diag).sum(axis=-1)
    return out.reshape(lead) if lead else float(out[0])


def detpow(m: np.ndarray, s: float) -> complex:
    """``det(m)**s`` on the principal branch: ``exp(s * principal_logdet(m))``."""
    return complex(np.exp(s * principal_logdet(m)))


def is_siegel(w: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Predicate for membership in the bounded symmetric domain.

    True iff ``w`` is complex-symmetric within ``tol`` and the smallest
    eigenvalue of ``1 - w w*`` exceeds ``tol``.
    """
    w = as_cmat(w)
    if w.shape[0] != w.shape[1]:
        return False
    scale = max(np.linalg.norm(w), 1.0)
    if np.linalg.norm(w - w.T) > tol * scale:
        return False
    g = eye(w.shape[0]) - w @ w.conj().T
    return bool(np.linalg.eigvalsh(g).min() > tol)
