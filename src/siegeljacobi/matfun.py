"""Dense complex matrix primitives.

Everything downstream (group decompositions, kernels, measures) is built on a
small set of spectral operations for Hermitian matrices, two
log-determinants (a principal one from the eigenvalues of a general matrix,
and a real one by Cholesky for the Hermitian positive-definite
``1 - W Wbar``), and linear solves and inverses.  All of them call numpy's
own LAPACK gufuncs (``numpy.linalg._umath_linalg``), the ones ``np.linalg``
calls, on one matrix and on a stack alike: on the ``n <= 3`` matrices of the
closed forms, ``np.linalg``'s wrappers cost several microseconds more than
the factorization.  The spectral calculus, the log-determinants, the
solves and the domain and symmetry checks take one matrix ``(n, n)`` or a
stack ``(..., n, n)``, and a stacked call equals the per-matrix calls bit
for bit; a validation error on a stack names the index of the first matrix
that failed.  The symmetry checks compare residuals of the matrices scaled
to entries of at most 1, so that no finite input overflows them, and they
are written so that NaN fails them.  This module loads no scipy.  Matrices are plain
``numpy`` arrays of ``complex``; the shared JSON wire format is
``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with row-major entry
order.

Branch convention: every fractional power of a general determinant goes
through :func:`principal_logdet`, the sum of the principal logs of the
eigenvalues.  The kernel's ``U = (1 - A)^-1`` with ``A = W_y conj(W_x)``
and ``ball_compose``'s ``1 + w1 w2*`` have every eigenvalue in the right
half-plane for ``W`` in the domain, and stay there as ``A`` (or ``w1 w2*``)
is scaled down to 0; so that sum is the branch continued from the identity,
the diagonal kernel is real and positive, and ``K(x, y) = conj(K(y, x))``,
at every real ``k``.  For a
``1 x 1`` matrix it is the principal log of the entry.  Integer powers, such
as the cocycles' at even ``k``, do not depend on the branch.  Powers of
``det(1 - W Wbar)`` are real and need no branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainViolation, NonHermitian, NoConvergence, NotSymmetric, Singular

#: Relative tolerance of the symmetry checks (against ``max(||m||, 1)``), and
#: the tolerance of :func:`is_siegel`, and the default of the membership check.
DEFAULT_TOL = 1e-10

#: A log-determinant raises :class:`Singular` when an eigenvalue (or
#: Cholesky pivot) magnitude is at most this fraction of ``max(|m|, 1)`` over
#: its matrix.
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


@np.errstate(all="ignore", invalid="raise")
def _lapack(gufunc, fallback, *args):
    """``gufunc(*args)`` as ``np.linalg`` calls it, for float64 or complex128
    operands: a failed factorization sets the floating-point invalid flag
    (and fills its matrix with NaN), which raises ``LinAlgError`` here as it
    does there, without a warning; a failed ``eigvals``, ``eigh`` or
    ``eigvalsh`` raises :class:`NoConvergence`.  Both name the first matrix
    of a stack that failed; the ``LinAlgError`` also carries that prefix as
    its ``where``, for callers that raise their own error.  Operands the
    gufunc refuses (a matrix that is not square, a mismatched right-hand
    side) go to ``fallback``, the ``np.linalg`` function, which raises its
    own error for them."""
    try:
        return gufunc(*args)
    except FloatingPointError:
        # run it again to read which matrix it left as NaN: the last two axes
        # of an inverse or a solve, the last axis of a vector or eigenvalues
        with np.errstate(invalid="ignore"):
            out = gufunc(*args)
        out = out[0] if isinstance(out, tuple) else out
        core = (-2, -1) if gufunc in (_umath_linalg.inv, _umath_linalg.solve) else -1
        where = _first_failure(np.isnan(out).any(axis=core))[1]
        if gufunc in (_umath_linalg.eigvals, _umath_linalg.eigh_lo, _umath_linalg.eigvalsh_lo):
            raise NoConvergence(f"{where}eigenvalues did not converge") from None
        err = np.linalg.LinAlgError(f"{where}Singular matrix")
        err.where = where
        raise err from None
    except ValueError:
        return fallback(*args)


def _first_failure(failed: np.ndarray) -> tuple:
    """The index of the first true entry of ``failed``, a boolean array over a
    stack's leading shape, and the message prefix naming it (empty for one
    matrix, where ``failed`` is 0-d)."""
    idx = np.unravel_index(int(np.argmax(failed)), failed.shape)
    return idx, f"stack index {tuple(map(int, idx))}: " if failed.ndim else ""


@np.errstate(all="ignore")
def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a matrix or stack, as ``np.linalg.cholesky``
    computes them; a matrix that does not factor comes back as NaN."""
    return _umath_linalg.cholesky_lo(m)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)``, bit for bit, without its wrapper.

    ``a`` is one square matrix ``(n, n)`` or a stack ``(..., n, n)``; ``b`` is
    a vector ``(n,)`` or a matrix or stack of them ``(..., n, k)``.  Operands
    of float64 or complex128 go to numpy's LAPACK gufunc (``zgesv`` per
    matrix), the one ``np.linalg.solve`` calls, so the result is its result,
    C-ordered; operands of any other dtype go to ``np.linalg.solve`` itself.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a matrix of ``a`` is singular, as ``np.linalg.solve`` raises it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.char not in "dD" or b.dtype.char not in "dD":
        return np.linalg.solve(a, b)
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return _lapack(gufunc, np.linalg.solve, a, b)


def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)``, bit for bit, without its wrapper: numpy's LAPACK
    gufunc for one matrix or a stack of float64 or complex128, and
    ``np.linalg.inv`` itself for any other dtype.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a matrix is singular, as ``np.linalg.inv`` raises it.
    """
    a = np.asarray(a)
    if a.dtype.char not in "dD":
        return np.linalg.inv(a)
    return _lapack(_umath_linalg.inv, np.linalg.inv, a)


def solve_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``a x = b`` for a stack of matrices ``a`` ``(..., n, n)`` and
    a stack of vectors ``b`` ``(..., n)`` whose leading shapes broadcast, with
    one LU factorization per matrix of ``a``.

    The vectors that share a matrix (along the axes where ``a`` has size 1)
    are the columns of one right-hand side of :func:`solve`, one ``zgesv``
    per matrix.  Each column gets the arithmetic of a one-column solve, so
    the result equals ``np.linalg.solve`` of each point on its own, bit for
    bit.  It is C-ordered, of the broadcast leading shape.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a matrix is singular, as ``np.linalg.solve`` raises it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b.ndim == 1:  # one vector: no matrix to share
        return solve(a, b[:, None])[..., 0]
    nd = max(a.ndim - 2, b.ndim - 1)
    a_lead = (1,) * (nd + 2 - a.ndim) + a.shape[:-2]
    b_lead = (1,) * (nd + 1 - b.ndim) + b.shape[:-1]
    shared = [i for i in range(nd) if a_lead[i] == 1]
    own = [i for i in range(nd) if i not in shared]
    order = own + [nd] + shared
    cols = b.reshape(b_lead + b.shape[-1:]).transpose(order)
    cols = cols.reshape(
        tuple(b_lead[i] for i in own) + (b.shape[-1], math.prod(b_lead[i] for i in shared))
    )
    x = solve(a.reshape(tuple(a_lead[i] for i in own) + a.shape[-2:]), cols)
    x = x.reshape(x.shape[:-1] + tuple(b_lead[i] for i in shared))
    return np.ascontiguousarray(x.transpose([order.index(i) for i in range(nd + 1)]))


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
    """Inverse of :func:`mat_to_json`.

    Raises
    ------
    ValueError
        If ``d`` is not an object with integer ``rows`` and ``cols`` and
        finite ``re`` and ``im`` lists of ``rows * cols`` numbers each.
    """
    keys = ("rows", "cols", "re", "im")
    if not isinstance(d, dict) or set(d) != set(keys):
        raise ValueError(f"a matrix must be an object with the keys {', '.join(keys)}")
    rows, cols = d["rows"], d["cols"]
    if not all(isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in (rows, cols)):
        raise ValueError(f"matrix rows and cols must be non-negative integers, got {rows!r}, {cols!r}")
    parts = []
    for key in ("re", "im"):
        try:
            part = np.asarray(d[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix {key} must be a list of numbers: {exc}") from exc
        if part.shape != (rows * cols,):
            raise ValueError(f"matrix {key} must hold {rows * cols} numbers, got shape {part.shape}")
        if not np.all(np.isfinite(part)):
            raise ValueError(f"matrix {key} has non-finite entries")
        parts.append(part.reshape(rows, cols))
    re, im = parts
    return re + 1j * im


def _as_square_stack(m, error) -> np.ndarray:
    """``m`` as a complex array of one square matrix or a stack of them.

    Raises
    ------
    ValueError
        If ``m`` has fewer than two axes or a non-finite entry.
    error
        If the matrices are not square.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise error("matrix is not square")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _part_scale(m: np.ndarray) -> np.ndarray:
    """``max(1, largest |real| or |imag| part)`` of each matrix of ``m``."""
    return np.maximum(np.abs(m.real).max(axis=(-2, -1), initial=1.0),
                      np.abs(m.imag).max(axis=(-2, -1), initial=1.0))


def _norms(m: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` (Frobenius) of each matrix of a stack ``(..., r, c)``,
    with its bits: the sums of squares of the row-major entries are the BLAS
    dot products it forms.  A ``float64`` for one matrix; a stack of vectors
    ``v`` is ``v[..., None, :]``."""
    flat = m.reshape(m.shape[:-2] + (1, m.shape[-2] * m.shape[-1]))
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _asymmetry(m: np.ndarray, conjugate: bool):
    """Which matrices of ``m`` differ from their transpose (their conjugate
    transpose if ``conjugate``) by more than ``DEFAULT_TOL * max(||m||, 1)``,
    Frobenius norms, and by how much relative to ``max(||m||, 1)``.

    Each matrix is divided by ``s = max(1, largest |real| or |imag| part)``
    and ``||m/s - (m/s)^T|| <= DEFAULT_TOL * max(||m/s||, 1/s)`` is tested:
    the same inequality on entries of at most 1, so that no finite input
    overflows it, written so that a NaN residual fails it.  Returns the
    boolean failure array and the relative residuals, both of the leading
    shape.
    """
    scale = _part_scale(m)
    unit = m / scale[..., None, None]
    flip = unit.swapaxes(-1, -2)
    res = np.linalg.norm(unit - (flip.conj() if conjugate else flip), axis=(-2, -1))
    size = np.maximum(np.linalg.norm(unit, axis=(-2, -1)), 1.0 / scale)
    return ~(res <= DEFAULT_TOL * size), res / size


def _symmetry_gate(m: np.ndarray, conjugate: bool, error) -> None:
    """Raise ``error`` if a matrix of ``m`` fails :func:`_asymmetry`; for a
    stack the message names the first one."""
    bad, rel = _asymmetry(m, conjugate)
    if bad.any():
        idx, where = _first_failure(bad)
        raise error(f"{where}symmetry residual {rel[idx]:.3e} of max(||m||, 1) exceeds "
                    f"tol {DEFAULT_TOL:.1e}")


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    Attributes
    ----------
    evals : ndarray
        Real eigenvalues in ascending order, ``(..., n)``.
    evecs : ndarray
        Unitary matrices whose columns are the eigenvectors, ``(..., n, n)``.
    """

    evals: np.ndarray
    evecs: np.ndarray

    def apply(self, f) -> np.ndarray:
        """``V f(diag(evals)) V*`` for a scalar function ``f`` applied to the
        eigenvalues (vectorized); several functions of one matrix share its
        decomposition."""
        fe = np.asarray(f(self.evals))
        return (self.evecs * fe[..., None, :]) @ self.evecs.conj().swapaxes(-1, -2)


def herm_eig(h: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, or of a stack, with
    validation: one call of numpy's ``eigh`` gufunc (``zheevd`` per matrix,
    lower triangle), the one ``np.linalg.eigh`` calls.

    Parameters
    ----------
    h : ndarray
        Square matrix ``(n, n)`` or stack ``(..., n, n)``, each Hermitian
        within ``DEFAULT_TOL * max(||h||, 1)``.

    Raises
    ------
    ValueError
        If an entry is not finite.
    NonHermitian
        If the matrices are not square or the symmetry check fails.
    NoConvergence
        If the underlying QR iteration stalls.
    """
    h = _as_square_stack(h, NonHermitian)
    _symmetry_gate(h, True, NonHermitian)
    evals, evecs = _lapack(_umath_linalg.eigh_lo, np.linalg.eigh, h)
    return HermEig(evals=evals, evecs=evecs)


def herm_func(h: np.ndarray, f, domain=None) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix, or to each of a stack,
    by spectral calculus.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix or stack, validated by :func:`herm_eig`.
    f : callable
        Scalar function applied to the eigenvalues (vectorized).
    domain : callable, optional
        Predicate on the eigenvalue array; a ``False`` anywhere raises
        :class:`DomainViolation` (e.g. ``arctanh`` needs eigenvalues < 1),
        naming the first matrix of a stack that leaves it.

    Returns
    -------
    ndarray
        ``V f(diag(evals)) V*``; Hermitian whenever ``f`` is real valued.
    """
    dec = herm_eig(h)
    if domain is not None:
        bad = ~np.all(domain(dec.evals), axis=-1)
        if bad.any():
            idx, where = _first_failure(bad)
            raise DomainViolation(f"{where}eigenvalues {dec.evals[idx]} leave the domain "
                                  f"of {getattr(f, '__name__', f)}")
    return dec.apply(f)


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
    """Validate complex symmetry ``z == z^T`` of a matrix or of each of a
    stack, within ``DEFAULT_TOL * max(||z||, 1)``, and return ``z`` as a
    complex array.

    Raises
    ------
    ValueError
        If ``z`` is not a matrix or an entry is not finite.
    NotSymmetric
        If a matrix is not square or not symmetric; for a stack the message
        names the first such matrix.
    """
    z = _as_square_stack(z, NotSymmetric)
    _symmetry_gate(z, False, NotSymmetric)
    return z


def cartan_blocks(z: np.ndarray):
    """Hyperbolic blocks of the exponential of an off-diagonal generator.

    For symmetric ``z`` (one matrix or a stack) returns ``(m, n)`` with
    ``m = cosh(sqrt(z zbar))`` and ``n = sinhc(sqrt(z zbar)) z``; the product
    ``z zbar`` equals ``z z*`` so the spectral calculus applies.  The pair
    satisfies ``m m* - n n* = 1``.

    Raises
    ------
    NotSymmetric
        If ``z`` is not complex-symmetric.
    """
    z = check_symmetric(z)
    dec = herm_eig(z @ z.conj().swapaxes(-1, -2))
    return dec.apply(cosh_of_sqrt), dec.apply(sinhc_of_sqrt) @ z


def principal_logdet(m: np.ndarray):
    """Principal log-determinant: the sum of the principal logs of the
    eigenvalues.

    ``m`` is one square matrix ``(n, n)`` or a stack ``(..., n, n)``.
    ``exp(result) == det(m)``.  Returns a ``complex`` for one matrix and a
    complex array of the leading shape for a stack.  One call of numpy's
    ``eigvals`` gufunc (``zgeev`` per matrix) serves one matrix or a whole
    stack, so a stacked call equals the per-matrix calls bit for bit, and
    each equals ``np.log(np.linalg.eigvals(m)).sum()``.  See the module's
    branch convention.  A ``0 x 0`` matrix has determinant 1 (the empty
    product) and log-determinant 0, as in ``np.linalg.slogdet``; LAPACK is
    not called for it.

    Raises
    ------
    ValueError
        If an entry is not finite or the matrices are not square.
    Singular
        If an eigenvalue magnitude is at most ``SINGULAR_RTOL * max(|m|, 1)``
        of its matrix; for a stack the message names the first such matrix.
    NoConvergence
        If the eigenvalue iteration fails; the message names the matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if m.shape[-1] == 0:
        # the determinant of a 0x0 matrix is the empty product 1
        return 0j if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=complex)
    # max(|m|, 1) of each matrix; NaN or inf if an entry is not finite
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    if not math.isfinite(scale if m.ndim == 2 else scale.max(initial=1.0)):
        raise ValueError("matrix has non-finite entries")
    ev = _lapack(_umath_linalg.eigvals, np.linalg.eigvals, m)
    bound = SINGULAR_RTOL * scale
    if m.ndim == 2:
        # one matrix: the minimum as a Python scalar
        mag = min(map(abs, ev.tolist()))
        if mag <= bound:
            raise Singular(f"eigenvalue magnitude {mag:.3e} below threshold {bound:.3e}")
        return complex(np.log(ev).sum())
    mag = np.abs(ev).min(axis=-1)
    bad = mag <= bound
    if bad.any():
        idx, where = _first_failure(bad)
        raise Singular(
            f"{where}eigenvalue magnitude {mag[idx]:.3e} below threshold {bound[idx]:.3e}"
        )
    return np.log(ev).sum(axis=-1)


def logdet_hpd(m: np.ndarray):
    """Real log-determinant of Hermitian positive-definite matrices by Cholesky.

    ``m`` is one square matrix ``(n, n)`` or a stack ``(..., n, n)``, such as
    ``1 - W Wbar`` for ``W`` in the domain; only its lower triangle is read.
    The result is ``2 sum_i log L_ii``: a ``float`` for one matrix and a
    float array of the leading shape for a stack.  One call of numpy's LAPACK
    gufunc, the ``zpotrf`` per matrix that ``np.linalg.cholesky`` calls,
    factors one matrix or a whole stack without that wrapper's per-call
    cost, so a stacked call equals the per-matrix calls bit for bit.  A
    matrix that does not factor comes back as NaN, which is read once the
    stack is factored.  A ``0 x 0`` matrix has log-determinant 0.

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
    diag = _cholesky(m).diagonal(axis1=-2, axis2=-1).real
    # a NaN pivot fails the test, and a pivot at or below its own matrix's
    # bound is at or below the largest one
    if diag.size and not diag.min() ** 2 > SINGULAR_RTOL * scale:
        _raise_hpd_failure(m, diag)
    out = 2.0 * np.log(diag).sum(axis=-1)
    return float(out) if m.ndim == 2 else out


def _raise_hpd_failure(m: np.ndarray, diag: np.ndarray):
    """Raise the error of :func:`logdet_hpd` for the first matrix of ``m``
    whose Cholesky diagonal ``diag`` is NaN or has a pivot at or below its
    bound, if there is one."""
    failed = np.isnan(diag).any(axis=-1)
    if failed.any():
        idx, where = _first_failure(failed)
        evmin = np.linalg.eigvalsh(m[idx]).min()
        raise DomainViolation(
            f"{where}matrix is not positive definite, smallest eigenvalue {evmin:.3e}"
        )
    pivots = diag * diag
    bound = SINGULAR_RTOL * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    bad = (pivots <= bound[..., None]).any(axis=-1)
    if bad.any():
        idx, where = _first_failure(bad)
        raise Singular(
            f"{where}pivot magnitude {pivots[idx].min():.3e} below threshold {bound[idx]:.3e}"
        )


def detpow(m: np.ndarray, s: float):
    """``det(m)**s`` on the principal branch: ``exp(s * principal_logdet(m))``,
    a ``complex`` for one matrix and a complex array for a stack."""
    out = np.exp(s * principal_logdet(m))
    return out if isinstance(out, np.ndarray) else complex(out)


def _cmul(a, b):
    """``a * b`` with the rounding of one complex scalar product.

    Python and numpy scalars multiply complex numbers by the textbook
    formula; numpy's SIMD loop for complex arrays fuses multiply and add and
    rounds some products differently.  For arrays the formula is applied
    here on the real and imaginary parts, so an element of a stacked result
    has the bits of the scalar product of its operands.
    """
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return a * b
    a, b = np.asarray(a), np.asarray(b)
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def is_siegel(w: np.ndarray):
    """Predicate for membership in the bounded symmetric domain.

    True iff ``w`` is complex-symmetric within :data:`DEFAULT_TOL` and the
    smallest eigenvalue of ``1 - w w*`` exceeds it.  ``w`` is one matrix,
    giving a ``bool``, or a stack, giving a boolean array of its leading
    shape.  A matrix with an entry whose real or imaginary part has size at
    least 1 is outside (a diagonal entry of ``1 - w w*`` is at most 0) and
    is not multiplied out, so no finite input overflows.

    Raises
    ------
    ValueError
        If ``w`` is not a matrix or an entry is not finite.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={w.ndim}")
    if not np.isfinite(w).all():
        raise ValueError("matrix has non-finite entries")
    if w.shape[-1] != w.shape[-2]:
        return False if w.ndim == 2 else np.zeros(w.shape[:-2], dtype=bool)
    # zeroing the matrices that are outside keeps every product finite
    small = np.maximum(np.abs(w.real), np.abs(w.imag)).max(axis=(-2, -1), initial=0.0) < 1.0
    w = np.where(small[..., None, None], w, 0.0)
    g = eye(w.shape[-1]) - w @ w.conj().swapaxes(-1, -2)
    inside = small & ~_asymmetry(w, False)[0]
    inside &= _lapack(_umath_linalg.eigvalsh_lo, np.linalg.eigvalsh, g).min(axis=-1) > DEFAULT_TOL
    return bool(inside) if w.ndim == 2 else inside
