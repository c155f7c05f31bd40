"""Metric names, units and their computation from op timings and spans."""

from __future__ import annotations

import numpy as np

import spans

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

JACOBI_PRIMS = (
    "kernel",
    "kahler_potential",
    "kahler_form",
    "act",
    "lambda_cocycle",
    "lambda_cocycle_ez",
    "density",
    "jacobi_compose",
)
SUITES = ("algebra", "symplectic", "jacobi", "oracle", "gj1", "measure")

PER_LAYER = (
    ("matfun.calls", "count"),
    ("matfun.self_s", "s"),
    ("matfun.principal_logdet.us_per_call", "us"),
    ("matfun.herm_func.calls", "count"),
    ("matfun.is_siegel.calls", "count"),
    ("symplectic.calls", "count"),
    ("symplectic.self_s", "s"),
    ("symplectic.moebius.us_per_call", "us"),
    ("symplectic.sp_compose.us_per_call", "us"),
    ("symplectic.membership_residual.calls_per_compose", "ratio"),
    *((f"jacobi.{fn}.n{n}.us_per_call", "us") for fn in JACOBI_PRIMS for n in (1, 2, 3)),
    ("jacobi.calls", "count"),
    ("jacobi.self_s", "s"),
    ("jacobi.sample_arrays_n1.samples_per_s", "1/s"),
    *((f"numdiff.wirtinger_hessian.n{n}.s", "s") for n in (1, 2, 3)),
    ("numdiff.holomorphic_jacobian.n2.ms", "ms"),
    ("numdiff.self_s", "s"),
    *((f"numdiff.potential_calls_per_hessian.n{n}", "count") for n in (1, 2, 3)),
    ("fockoracle.calls", "count"),
    ("fockoracle.self_s", "s"),
    ("fockoracle.mm1_residual.ms", "ms"),
    ("fockoracle.oracle_kernel.ms", "ms"),
    ("fockoracle.displacement.calls", "count"),
    ("fockoracle.squeeze.calls", "count"),
    ("fockoracle.cs_vector.calls", "count"),
    ("diffops.self_s", "s"),
    ("diffops.verify_structure_constants.n1.s", "s"),
    ("diffops.verify_structure_constants.n2.s", "s"),
    ("diffops.brackets_checked", "count"),
    ("gj1.calls", "count"),
    ("gj1.self_s", "s"),
    *((f"verify.suite_{s}.s", "s") for s in SUITES),
    ("verify.resolved_conventions.s", "s"),
    ("verify.resolve_calls", "count"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("verify.max_margin", "ratio"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def with_units(values: dict, spec) -> dict:
    """Attach units in the result format; every name of ``spec`` must be present."""
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}


def tail(op_seconds, pct):
    """``(label, ms)``: the workload's fixed tail percentile."""
    return f"p{pct}", 1e3 * float(np.percentile(op_seconds, pct))


def layer_metrics(tr: spans.Tracer, n_ops: int, wl) -> dict:
    """Per-layer metrics of one traced plan of ``n_ops`` ops."""
    sp = tr.arrays()
    names = np.array(tr.names, dtype=object)[sp["name"]] if len(sp["name"]) else np.array([], dtype=object)
    dur = (sp["end_ns"] - sp["start_ns"]) * 1e-9
    own = spans.self_times(sp["parent"], dur)
    tag = sp["tag"]
    layer = np.array([q.split(".")[0] for q in names], dtype=object)
    ops = max(n_ops, 1)
    out = {}

    def sel(qual, n=None):
        mask = names == qual
        return mask if n is None else mask & (np.abs(tag) == n)

    def per_call(qual, n=None, scale=1.0):
        mask = sel(qual, n)
        return scale * float(dur[mask].mean()) if mask.any() else 0.0

    for lay in spans.LAYERS + (spans.BENCH,):
        out[f"{lay}.self_s"] = float(own[layer == lay].sum())
        out[f"{lay}.calls"] = int((layer == lay).sum())

    out["matfun.principal_logdet.us_per_call"] = per_call("matfun.principal_logdet", scale=1e6)
    out["matfun.herm_func.calls"] = int(sel("matfun.herm_func").sum())
    out["matfun.is_siegel.calls"] = int(sel("matfun.is_siegel").sum())
    out["symplectic.moebius.us_per_call"] = per_call("symplectic.moebius", scale=1e6)
    out["symplectic.sp_compose.us_per_call"] = per_call("symplectic.sp_compose", scale=1e6)
    composes = int(sel("symplectic.sp_compose").sum())
    out["symplectic.membership_residual.calls_per_compose"] = (
        int(sel("symplectic.membership_residual").sum()) / composes if composes else 0.0
    )
    for fn in JACOBI_PRIMS:
        for n in (1, 2, 3):
            out[f"jacobi.{fn}.n{n}.us_per_call"] = per_call(f"jacobi.{fn}", n, 1e6)

    mask = sel("jacobi.sample_arrays_n1")
    out["jacobi.sample_arrays_n1.samples_per_s"] = (
        float(tag[mask].sum() / dur[mask].sum()) if mask.any() else 0.0
    )

    hess = names == "numdiff.wirtinger_hessian"
    pot_parent = sp["parent"][names == "jacobi.kahler_potential"]
    for n in (1, 2, 3):
        out[f"numdiff.wirtinger_hessian.n{n}.s"] = per_call("numdiff.wirtinger_hessian", n)
        idx = np.flatnonzero(hess & (tag == n))
        counts = np.array([np.count_nonzero(pot_parent == i) for i in idx], dtype=float)
        counts = counts[counts > 0]
        out[f"numdiff.potential_calls_per_hessian.n{n}"] = float(counts.mean()) if len(counts) else 0.0
    out["numdiff.holomorphic_jacobian.n2.ms"] = per_call("numdiff.holomorphic_jacobian", 2, 1e3)

    out["fockoracle.mm1_residual.ms"] = per_call("fockoracle.mm1_residual", scale=1e3)
    out["fockoracle.oracle_kernel.ms"] = per_call("fockoracle.oracle_kernel", scale=1e3)
    for fn in ("displacement", "squeeze", "cs_vector"):
        out[f"fockoracle.{fn}.calls"] = int(sel(f"fockoracle.{fn}").sum())

    vsc = sel("diffops.verify_structure_constants")
    for n in (1, 2):
        out[f"diffops.verify_structure_constants.n{n}.s"] = float(dur[vsc & (tag == n)].sum()) / ops
    out["diffops.brackets_checked"] = float(sp["value"][vsc].sum()) / ops

    for s in SUITES:
        out[f"verify.suite_{s}.s"] = float(dur[sel(f"verify.suite_{s}")].sum()) / ops
    out["verify.resolved_conventions.s"] = float(dur[sel("verify.resolved_conventions")].sum()) / ops
    out["verify.resolve_calls"] = sum(
        int(sel(f"verify.resolve_{what}").sum())
        for what in ("action_order", "central_phase", "kernel_transform")
    ) / ops
    reports = getattr(wl, "reports", [])
    out["verify.checks"] = float(np.mean([r[1] for r in reports])) if reports else 0.0
    out["verify.checks_failed"] = float(np.mean([r[2] for r in reports])) if reports else 0.0
    out["verify.max_margin"] = float(max(r[3] for r in reports)) if reports else 0.0
    out["cli.report_bytes"] = float(np.mean([r[0] for r in reports])) if reports else 0.0
    return out
