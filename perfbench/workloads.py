"""The workloads: what one op calls, and how its output is checked.

Every workload is a closed loop with one client: the runner calls
``call(op)`` for each op of a round, times it, and only afterwards, outside
the timed region, hands the recorded output to ``check``.  A check returns
``(attempted, failed, reasons)``; a failed check is counted, never raised.

Tolerances are those of the matching test or verify suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import numpy as np

import gen
from siegeljacobi import cli, jacobi, matfun, numdiff, symplectic
from siegeljacobi.jacobi import CSPoint

REL_TOL = 1e-9  # kernel symmetry, cocycle unitarity, density (verify suites)
POTENTIAL_TOL = 1e-11  # potential vs log-kernel (suite_jacobi), relative to |f|
FD_TOL = 1e-5  # finite-difference form, form and density invariance


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


def _same(a, b) -> bool:
    """Exact equality of two outputs: numbers, arrays, or dataclasses of them."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return bool(np.array_equal(a, b))


class Pointwise:
    """Stream of single closed-form calls: the scalar path."""

    name = "pointwise"
    tail_pct = 99
    min_rounds = 1
    rounds_per_second = 8  # 2 pool cycles per second
    rounds_per_traced_second = 0.625

    def __init__(self, seed: int):
        self.pool = gen.pointwise_pool(seed)
        self._verdicts = {}  # id(op) -> (output, failure reason) of its first check

    def round(self, index: int) -> list:
        return self.pool[index % len(self.pool)]

    def warm_up(self) -> None:
        for op in self.pool[0]:
            with contextlib.suppress(Exception):
                self.call(op)

    def call(self, op):
        return getattr(jacobi, op.kind)(*op.args)

    def check(self, op, out, seconds) -> tuple:
        # the pool is cycled: a repeated op whose output is bit-identical to
        # its first one shares that output's verdict
        seen = self._verdicts.get(id(op))
        if seen is not None and _same(seen[0], out):
            reason = seen[1]
        else:
            reason = self._reason(op, out)
            self._verdicts[id(op)] = (out, reason)
        return 1, int(reason is not None), [reason] if reason else []

    @staticmethod
    def known_defect(op, reason: str) -> bool:
        """Failure class of the open log-det branch defect: odd k at n >= 2."""
        if op.kind not in ("kernel", "kahler_potential") or op.n < 2:
            return False
        return int(op.args[-1]) % 2 == 1 and reason.split(":")[0] in (
            "kernel-hermitian",
            "kernel-diagonal",
            "potential-log-kernel",
        )

    def _reason(self, op, out):
        kind = op.kind
        if kind == "kernel":
            x, y, k = op.args
            if not _finite(out):
                return "kernel-finite"
            back = jacobi.kernel(y, x, k)
            if abs(out - np.conj(back)) > REL_TOL * max(1.0, abs(out)):
                return f"kernel-hermitian: {out!r} vs conj {back!r}"
            return _diagonal_reason(x, k)
        if kind == "kahler_potential":
            x, k = op.args
            if not _finite(out):
                return "potential-finite"
            diag = jacobi.kernel(x, x, k)
            logk = np.log(complex(diag))
            if abs(out - logk.real) + abs(logk.imag) > POTENTIAL_TOL * max(1.0, abs(out)):
                return f"potential-log-kernel: {out!r} vs log K = {logk!r}"
            return None
        if kind == "kahler_form":
            if not _finite(out):
                return "form-finite"
            if np.linalg.norm(out - out.conj().T) > REL_TOL * np.linalg.norm(out):
                return "form-hermitian"
            if np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() <= 0:
                return "form-positive"
            return None
        if kind == "act":
            if not _finite(out.z, out.W):
                return "act-finite"
            return None if matfun.is_siegel(out.W) else "act-image-outside-domain"
        if kind in ("lambda_cocycle", "lambda_cocycle_ez"):
            h, x, k = op.args
            if kind == "lambda_cocycle":
                lam, image = out.lam, CSPoint(z=out.z1, W=out.W1)
            else:
                lam, image = out, jacobi.act(h, x)
            if not _finite(lam):
                return f"{kind}-finite"
            kxx = jacobi.kernel(x, x, k).real
            khh = jacobi.kernel(image, image, k).real
            if abs(abs(lam) ** 2 * khh - kxx) > REL_TOL * kxx:
                return f"{kind}-unitarity: |lam|^2 K(hx,hx) = {abs(lam) ** 2 * khh!r}, K(x,x) = {kxx!r}"
            return None
        if kind == "density":
            (x,) = op.args
            gram = np.eye(op.n) - x.W @ x.W.conj()
            ref = np.linalg.det(gram).real ** (-(op.n + 2))
            if not (_finite(out) and out > 0 and abs(out - ref) <= REL_TOL * ref):
                return f"density: {out!r} vs det^-(n+2) = {ref!r}"
            return None
        if kind == "jacobi_compose":
            res = symplectic.membership_residual(out.g.a, out.g.b)
            if not (_finite(out.g.a, out.g.b, out.alpha, out.t) and res <= 10 * matfun.DEFAULT_TOL):
                return f"compose-membership: residual {res:.3e}"
            return None
        raise ValueError(kind)


def _diagonal_reason(x, k):
    diag = jacobi.kernel(x, x, k)
    if not (diag.real > 0 and abs(diag.imag) <= REL_TOL * abs(diag)):
        return f"kernel-diagonal: K(x,x) = {diag!r}"
    return None


class FdGeometry:
    """One op certifies the closed-form geometry at one point by finite differences."""

    name = "fd-geometry"
    tail_pct = 75
    min_rounds = 1
    rounds_per_second = 1.0
    rounds_per_traced_second = 0.1

    def __init__(self, seed: int):
        self.pool = gen.fd_pool(seed)

    def round(self, index: int) -> list:
        return self.pool[index % len(self.pool)]

    def warm_up(self) -> None:
        self.call(self.pool[0][0])

    def call(self, op):
        x, k, h = op.args
        closed = jacobi.kahler_form(x, k)
        fd = numdiff.wirtinger_hessian(lambda p: jacobi.kahler_potential(p, k), x)
        if h is None:
            return closed, fd, None
        jac = numdiff.holomorphic_jacobian(lambda p: jacobi.act(h, p), x)
        hx = jacobi.act(h, x)
        return closed, fd, (jac, jacobi.kahler_form(hx, k), jacobi.density(hx), jacobi.density(x))

    def check(self, op, out, seconds) -> tuple:
        closed, fd, inv = out
        reasons = []
        if not _finite(closed, fd) or np.abs(closed - fd).max() > FD_TOL:
            reasons.append(f"form-vs-fd: {np.abs(closed - fd).max():.3e}")
        if np.linalg.eigvalsh(0.5 * (closed + closed.conj().T)).min() <= 0:
            reasons.append("form-positive")
        if inv is not None:
            jac, form_hx, dens_hx, dens_x = inv
            pulled = jac.T @ form_hx @ jac.conj()
            if not _finite(pulled) or np.abs(pulled - closed).max() > FD_TOL:
                reasons.append(f"form-invariance: {np.abs(pulled - closed).max():.3e}")
            q_inv = dens_hx * abs(np.linalg.det(jac)) ** 2
            if not _finite(q_inv) or abs(q_inv - dens_x) > FD_TOL * dens_x:
                reasons.append(f"density-invariance: {abs(q_inv - dens_x) / dens_x:.3e}")
        return 1, int(bool(reasons)), reasons


class Verify:
    """In-process ``siegeljacobi verify all --seed S`` with stdout captured."""

    name = "verify"
    tail_pct = 75  # the second slowest of five reports; a maximum follows single host stalls
    min_rounds = 3  # a median over at least three reports
    rounds_per_second = 0.25
    rounds_per_traced_second = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.reports = []  # (bytes, checks, failed, max margin)

    def round(self, index: int) -> list:
        return [gen.Op("report", 0, (gen.verify_seed(self.seed, index),))]

    def warm_up(self) -> None:
        self._report("algebra", 0)

    def call(self, op):
        return self._report("all", *op.args)

    @staticmethod
    def _report(suite: str, seed: int) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", suite, "--seed", str(seed)])
        return code, buf.getvalue()

    def check(self, op, out, seconds) -> tuple:
        code, text = out
        try:
            report = json.loads(text)
            checks = report["checks"]
        except (ValueError, KeyError, TypeError) as exc:
            return 1, 1, [f"report-unparsable: {exc}"]
        bad = [c["check"] for c in checks if not c["pass"] or not _finite(c["residual"])]
        margins = [c["residual"] / c["tolerance"] for c in checks if c["tolerance"] > 0]
        self.reports.append((len(text.encode()), len(checks), len(bad), max(margins, default=0.0)))
        reasons = [f"check-failed: {name}" for name in bad]
        if code != 0 and not bad:
            reasons.append(f"exit-code: {code}")
        return max(len(checks), 1), len(reasons), reasons


WORKLOADS = {w.name: w for w in (Pointwise, FdGeometry, Verify)}
