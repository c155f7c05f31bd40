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

from . import jacobi, matfun, symplectic, verify
from .errors import SiegelJacobiError
from .jacobi import CSPoint

log = logging.getLogger("siegeljacobi")


def _setup_logging():
    level = os.environ.get("VERBOSITY", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _emit(payload: dict, indent):
    # serialise before writing: a NaN or infinity raises ValueError here and
    # leaves stdout empty instead of printing invalid JSON
    text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
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


def _load_json(text: str):
    if text == "-":
        return json.load(sys.stdin)
    return json.loads(text)


def _load_point(text: str) -> CSPoint:
    """Parse a JSON point and validate it through ``cs_point``."""
    x = CSPoint.from_json(_load_json(text))
    return jacobi.cs_point(x.z, x.W)


def cmd_verify(args) -> int:
    report = verify.run_suite(
        args.suite,
        seed=args.seed,
        n=args.n,
        k=args.k,
        samples=args.samples,
        cutoff=args.cutoff,
    )
    _emit(report, args.json_indent)
    return 0 if report["pass"] else 1


def cmd_eval(args) -> int:
    what = args.what
    if what == "lambda":
        consts = jacobi.measure_constants(args.n, args.k)
        _emit(
            {
                "what": "lambda",
                "anchor": "resolution-of-unity-constant",
                "n": consts.n,
                "k": consts.k,
                "p": consts.p,
                "value": consts.Lambda,
            },
            args.json_indent,
        )
        return 0
    if what == "kernel":
        x = _load_point(args.x)
        y = _load_point(args.y)
        val = jacobi.kernel(x, y, args.k)
        _emit(
            {
                "what": "kernel",
                "anchor": "coherent-state-overlap",
                "k": args.k,
                "value": _complex_json(val),
            },
            args.json_indent,
        )
        return 0
    x = _load_point(args.point)
    if what == "potential":
        payload = {"value": jacobi.kahler_potential(x, args.k), "k": args.k,
                   "anchor": "log-diagonal-kernel"}
    elif what == "form":
        payload = {"value": matfun.mat_to_json(jacobi.kahler_form(x, args.k)),
                   "k": args.k, "anchor": "invariant-two-form"}
    elif what == "density":
        payload = {"value": jacobi.density(x), "anchor": "invariant-volume-density"}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(what)
    payload["what"] = what
    _emit(payload, args.json_indent)
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
    _emit({"which": args.which, "factors": factors, "residual": residual}, args.json_indent)
    return 0 if residual <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegeljacobi",
        description="evaluate and machine-verify the coherent-state geometry library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=verify.SUITES)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--samples", type=_positive_int, default=None)
    pv.add_argument("--cutoff", type=int, default=None)
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate a quantity at given points")
    pe.add_argument("what", choices=("kernel", "potential", "form", "density", "lambda"))
    pe.add_argument("--x", help="JSON point (kernel first slot), or - for stdin")
    pe.add_argument("--y", help="JSON point (kernel second slot)")
    pe.add_argument("--point", help="JSON point for potential/form/density")
    pe.set_defaults(fn=cmd_eval)

    pd = sub.add_parser("decompose", help="factor a group element")
    pd.add_argument("--g", required=True, help="JSON element {a: ..., b: ...}, or -")
    pd.add_argument("--which", choices=("gauss", "cartan"), required=True)
    pd.add_argument("--tol", type=float, default=1e-9)
    pd.set_defaults(fn=cmd_decompose)

    # each subcommand takes only the flags it reads
    for p in (pv, pe):
        p.add_argument("--n", type=_positive_int, default=None, help="matrix dimension")
        p.add_argument("--k", type=_finite_float, default=None, help="representation index")
    for p in (pv, pe, pd):
        p.add_argument("--json-indent", type=int, default=None)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_eval:
        if args.what == "kernel" and (args.x is None or args.y is None):
            parser.error("eval kernel needs --x and --y")
        if args.what in ("potential", "form", "density") and args.point is None:
            parser.error(f"eval {args.what} needs --point")
        if args.what == "lambda" and (args.n is None or args.k is None):
            parser.error("eval lambda needs --n and --k")
        if args.what in ("kernel", "potential", "form") and args.k is None:
            parser.error(f"eval {args.what} needs --k")
    try:
        code = args.fn(args)
    except (SiegelJacobiError, ValueError, KeyError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
