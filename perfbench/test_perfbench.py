"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import siegeljacobi  # noqa: E402
from siegeljacobi import jacobi, matfun, symplectic, verify  # noqa: E402


def _bench(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def result(workload, seed, seconds, trace, repeat=0):
    proc = _bench(workload, seed, seconds, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _coords(op):
    """Flat numeric fingerprint of an op's arguments."""
    out = []
    for arg in op.args:
        if isinstance(arg, jacobi.CSPoint):
            out.extend(jacobi.cs_coords(arg))
        elif isinstance(arg, jacobi.JacobiElement):
            out.extend([*arg.g.a.ravel(), *arg.g.b.ravel(), *arg.alpha, arg.t])
        elif arg is not None and not isinstance(arg, str):
            out.append(arg)
    return np.array(out, dtype=complex)


def _fingerprint(rounds):
    return np.concatenate([_coords(op) for ops in rounds for op in ops])


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in (
        lambda s: gen.pointwise_pool(s, rounds=2),
        lambda s: gen.fd_pool(s, rounds=2),
    ):
        assert np.array_equal(_fingerprint(make(5)), _fingerprint(make(5)))
        a, b = _fingerprint(make(5)), _fingerprint(make(6))
        assert a.shape != b.shape or not np.array_equal(a, b)
    assert gen.verify_seed(5, 0) == gen.verify_seed(5, 0) != gen.verify_seed(6, 0)


def test_pointwise_keeps_the_near_boundary_odd_k_share():
    ops = [op for ops in gen.pointwise_pool(3) for op in ops]
    norms = [np.linalg.norm(op.args[0].W, 2) for op in ops if op.kind == "kernel"]
    assert 0.05 < np.mean(np.array(norms) > 0.9) < 0.15
    ks = {int(op.args[-1]) for op in ops if op.kind in ("kernel", "kahler_potential")}
    assert ks == set(gen.K_GEOMETRY)


def test_known_defect_class_is_odd_k_at_n_at_least_two():
    x = gen.random_point(2, np.random.default_rng(0), 0.5, 0.95)
    odd = gen.Op("kernel", 2, (x, x, 3.0))
    even = gen.Op("kernel", 2, (x, x, 4.0))
    assert workloads.Pointwise.known_defect(odd, "kernel-diagonal: K(x,x) = -1")
    assert not workloads.Pointwise.known_defect(even, "kernel-diagonal: K(x,x) = -1")
    assert not workloads.Pointwise.known_defect(odd, "kernel-finite")


def test_self_times_subtract_direct_children():
    # root(0..10) > a(1..4) > b(2..3); root > c(5..9)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([10.0, 3.0, 1.0, 4.0])
    assert np.allclose(spans.self_times(parent, dur), [3.0, 2.0, 1.0, 4.0])
    assert spans.self_times(parent, dur).sum() == dur[0]


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (matfun.detpow, symplectic.detpow, jacobi.detpow, verify._SUITE_FNS["gj1"])
    tracer = spans.Tracer()
    tracer.install(siegeljacobi)
    try:
        assert matfun.detpow is symplectic.detpow is jacobi.detpow
        assert matfun.detpow is not originals[0]
        assert verify._SUITE_FNS["gj1"] is not originals[3]
        x = gen.random_point(2, np.random.default_rng(1), 0.5, 0.5)
        jacobi.kernel(x, x, 4.0)
    finally:
        tracer.uninstall()
    assert (matfun.detpow, symplectic.detpow, jacobi.detpow, verify._SUITE_FNS["gj1"]) == originals
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "jacobi.kernel" and "matfun.principal_logdet" in names
    assert tracer.parent[0] == -1 and all(p >= 0 for p in tracer.parent[1:])
    assert tracer.tag[0] == 2


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    _, plain = result("pointwise", 1, 1, 0)
    _, traced = result("pointwise", 1, 1, 1)
    for res, names in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in names}
        assert res["attempted"] >= 1 and res["correct"] is True


def test_untraced_runs_at_one_seed_attempt_and_fail_the_same_ops():
    first = result("pointwise", 2, 1, 0)[1]
    second = result("pointwise", 2, 1, 0, repeat=1)[1]
    assert first["attempted"] == second["attempted"] == 1 * 8 * 32 * 24
    assert first["failed"] == second["failed"]


@pytest.mark.parametrize("workload,seconds", [("pointwise", 1), ("fd-geometry", 10), ("verify", 10)])
def test_traced_counts_repeat_at_one_seed(workload, seconds):
    first = result(workload, 2, seconds, 1)[1]["metrics"]
    second = result(workload, 2, seconds, 1, repeat=1)[1]["metrics"]
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    if workload == "fd-geometry":
        assert [first[f"numdiff.potential_calls_per_hessian.n{n}"]["value"] for n in (1, 2, 3)] == [
            256, 1600, 5184
        ]
    if workload == "verify":
        assert first["verify.checks"]["value"] == 50
        assert first["verify.checks_failed"]["value"] == 0


@pytest.mark.parametrize("workload,seconds", [("pointwise", 1), ("fd-geometry", 10), ("verify", 10)])
def test_self_times_add_up_to_the_traced_wall(workload, seconds):
    detail, res = result(workload, 2, seconds, 1)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS + (spans.BENCH,))
    wall = m["trace.wall_s"]
    overhead = abs(wall - detail["plain_wall_s"])
    assert abs(wall - total) <= max(overhead, 0.01 * wall)


def test_missing_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("pointwise", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
