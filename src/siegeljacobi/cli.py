"""Command-line harness: run verification suites, evaluate quantities,
decompose group elements.  All input and output is JSON on stdin/stdout.

Exit codes: 0 success, 1 check or residual failure, 2 invalid arguments.
The ``VERBOSITY`` environment variable (debug/info/warning/error) controls
logging; there is no other environment configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import jacobi, matfun, symplectic
from .errors import SiegelJacobiError
from .jacobi import CSPoint

log = logging.getLogger("siegeljacobi")


def _setup_logging():
    level = os.environ.get("VERBOSITY", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _emit(payload: dict):
    # serialise before writing: a NaN or infinity raises ValueError here and
    # leaves stdout empty instead of printing invalid JSON
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _complex_json(value: complex) -> dict:
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _suite_name(text: str) -> str:
    # verify (and with it fockoracle) is imported for the verify command only,
    # so eval and decompose skip its import time and memory
    from . import verify

    if text not in verify.SUITES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(verify.SUITES)})"
        )
    return text


def _load_json(text: str):
    if text == "-":
        return json.load(sys.stdin)
    return json.loads(text)


def _load_point(text: str) -> CSPoint:
    """Parse a JSON point and validate it through ``cs_point``."""
    x = CSPoint.from_json(_load_json(text))
    return jacobi.cs_point(x.z, x.W)


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_suite(
        args.suite,
        seed=args.seed,
        n=args.n,
        k=args.k,
        samples=args.samples,
        cutoff=args.cutoff,
    )
    _emit(report)
    return 0 if report["pass"] else 1


def _lambda_fields(args) -> dict:
    consts = jacobi.measure_constants(args.n, args.k)
    return {"n": consts.n, "k": consts.k, "p": consts.p, "value": consts.Lambda}


#: Each ``eval`` quantity as ``(flags, anchor, fields)``: the flags it reads
#: (each is required, and any other ``eval`` flag is an argument error), its
#: anchor, and its payload fields as a function of the parsed arguments.
_EVAL = {
    "kernel": (("x", "y", "k"), "coherent-state-overlap", lambda args: {
        "k": args.k,
        "value": _complex_json(jacobi.kernel(_load_point(args.x), _load_point(args.y), args.k)),
    }),
    "potential": (("point", "k"), "log-diagonal-kernel", lambda args: {
        "k": args.k, "value": jacobi.kahler_potential(_load_point(args.point), args.k),
    }),
    "form": (("point", "k"), "invariant-two-form", lambda args: {
        "k": args.k,
        "value": matfun.mat_to_json(jacobi.kahler_form(_load_point(args.point), args.k)),
    }),
    "density": (("point",), "invariant-volume-density", lambda args: {
        "value": jacobi.density(_load_point(args.point)),
    }),
    "lambda": (("n", "k"), "resolution-of-unity-constant", _lambda_fields),
}


def cmd_eval(args) -> int:
    _, anchor, fields = _EVAL[args.what]
    _emit({"what": args.what, "anchor": anchor, **fields(args)})
    return 0


def cmd_decompose(args) -> int:
    g = symplectic.SpElement.from_json(_load_json(args.g), tol=args.tol)
    if args.which == "gauss":
        f = symplectic.gauss_decompose(g)
        re = symplectic.gauss_reassemble(f)
        factors = {
            "Y": matfun.mat_to_json(f.y),
            "Yp": matfun.mat_to_json(f.yp),
            "gamma": matfun.mat_to_json(f.gamma),
            "delta": matfun.mat_to_json(f.delta),
        }
    else:
        f = symplectic.cartan_decompose(g)
        re = symplectic.cartan_synthesize(f.z, f.v)
        factors = {"Z": matfun.mat_to_json(f.z), "v": matfun.mat_to_json(f.v)}
    residual = float(np.linalg.norm(re.a - g.a) + np.linalg.norm(re.b - g.b))
    _emit({"which": args.which, "factors": factors, "residual": residual})
    return 0 if residual <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegeljacobi",
        description="evaluate and machine-verify the coherent-state geometry library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", type=_suite_name, help="a suite of siegeljacobi.verify, or all")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--samples", type=_positive_int, default=None)
    pv.add_argument("--cutoff", type=int, default=None)
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate a quantity at given points")
    pe.add_argument("what", choices=tuple(_EVAL))
    pe.add_argument("--x", help="JSON point (kernel first slot), or - for stdin")
    pe.add_argument("--y", help="JSON point (kernel second slot)")
    pe.add_argument("--point", help="JSON point for potential/form/density")
    pe.set_defaults(fn=cmd_eval)

    pd = sub.add_parser("decompose", help="factor a group element")
    pd.add_argument("--g", required=True, help="JSON element {a: ..., b: ...}, or -")
    pd.add_argument("--which", choices=("gauss", "cartan"), required=True)
    pd.add_argument("--tol", type=_positive_float, default=1e-9)
    pd.set_defaults(fn=cmd_decompose)

    # each subcommand takes only the flags it reads
    for p in (pv, pe):
        p.add_argument("--n", type=_positive_int, default=None, help="matrix dimension")
        p.add_argument("--k", type=_positive_float, default=None, help="representation index")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_eval:
        reads = _EVAL[args.what][0]
        for flag in ("x", "y", "point", "n", "k"):
            if (getattr(args, flag) is None) == (flag in reads):
                verb = "needs" if flag in reads else "does not read"
                parser.error(f"eval {args.what} {verb} --{flag}")
    try:
        code = args.fn(args)
    except (SiegelJacobiError, ValueError, KeyError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
