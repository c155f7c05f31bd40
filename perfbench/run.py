"""Benchmark of the siegeljacobi package: three seeded closed-loop workloads.

Run from the repository root, for example::

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Workloads (one client each, closed loop; see ``gen.py`` for the inputs and
``workloads.py`` for what one op calls and how it is checked):

* ``pointwise``   -- single closed-form calls of eight ``jacobi`` primitives;
* ``fd-geometry`` -- finite-difference certifications of the Kahler form;
* ``verify``      -- in-process ``siegeljacobi verify all`` reports.

``--trace 0`` runs a fixed plan of rounds, sized by ``--seconds`` (see
``planned_rounds``), and reports the end-to-end metrics.  The plan, and so
``attempted`` and ``failed``, depends only on the seed and ``--seconds``,
never on the speed of the machine.  ``--trace 1`` runs one untimed round, then a
fixed plan of rounds twice, plain and then with a span at every layer
boundary, and reports the per-layer metrics; the spans are written to
``perfbench/out/``.  Outputs are checked after each round, outside the timed
region.

End-to-end times, ``setup_s`` included, are reported in reference seconds:
every 50 ms or so of ops is bracketed by library-free calibration slices and
scaled by the machine's speed at that moment (``calibrate.py``).  The raw
clock readings are in the detail record.

The last line of stdout is the result JSON.  The line before it is a detail
record: the environment (Python, numpy, scipy, nproc, BLAS threads, seed),
the tail percentile and op count, the error rate and the failure reasons.
``correct`` is false when a check fails outside the known defect class of
the workload (see ``Pointwise.known_defect``); every failure, known or not,
is counted in ``failed``.  Exits with code 2 when the package source is
missing.
"""

from __future__ import annotations

import os

# one BLAS thread for every process of the benchmark, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("pointwise", "fd-geometry", "verify")
BLOCK_S = 0.05  # ops run between calibration slices, in seconds
SETUP_REPEATS = 5
SETUP_SLICE_S = 0.1
SETUP_TIMEOUT_S = 120
REASON_EXAMPLES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up repetition in a fresh process, timed by the parent
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Run:
    """Timings and check outcomes of one pass over rounds of ops.

    ``op_seconds`` are reference seconds when the pass was calibrated (each
    op scaled by the speed factor of its calibration block, kept in
    ``factors``); ``raw_seconds`` are the clock readings.  A round's time is
    the sum of its ops' times.
    """

    op_seconds: array = field(default_factory=lambda: array("d"))
    raw_seconds: array = field(default_factory=lambda: array("d"))
    factors: array = field(default_factory=lambda: array("d"))
    round_starts: list = field(default_factory=list)  # index of each round's first op
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    reasons: collections.Counter = field(default_factory=collections.Counter)
    examples: list = field(default_factory=list)
    deferred: list = field(default_factory=list)

    def add_op(self, seconds: float) -> None:
        self.op_seconds.append(seconds)
        self.raw_seconds.append(seconds)
        self.factors.append(1.0)

    def scale_from(self, first: int, factor: float) -> None:
        """Convert the ops from index ``first`` on to reference seconds."""
        for j in range(first, len(self.op_seconds)):
            self.op_seconds[j] = self.raw_seconds[j] * factor
            self.factors[j] = factor

    def _per_round(self, values) -> list:
        ends = self.round_starts[1:] + [len(values)]
        return [sum(values[a:b]) for a, b in zip(self.round_starts, ends)]

    @property
    def round_walls(self) -> list:
        return self._per_round(self.op_seconds)

    @property
    def raw_walls(self) -> list:
        return self._per_round(self.raw_seconds)

    @property
    def measured_s(self) -> float:
        return sum(self.op_seconds)

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def evaluate(wl, done, run: Run) -> None:
    """Check recorded outputs; failures are counted and never raised."""
    known = getattr(wl, "known_defect", None)
    for op, out, seconds in done:
        if isinstance(out, Exception):
            attempted, failed, reasons = 1, 1, [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                attempted, failed, reasons = wl.check(op, out, seconds)
            except Exception as exc:  # a broken output must not abort the run
                attempted, failed, reasons = 1, 1, [f"check raised {type(exc).__name__}: {exc}"]
        run.attempted += attempted
        run.failed += failed
        for reason in reasons:
            expected = known is not None and known(op, reason)
            run.unexpected += not expected
            run.reasons[f"{op.kind} n={op.n}: {reason.split(':')[0]}" + (" (known)" if expected else "")] += 1
            example = f"{op.kind} n={op.n}: {reason}"
            if len(run.examples) < REASON_EXAMPLES and example not in run.examples:
                run.examples.append(example)


def planned_rounds(wl, seconds: float) -> int:
    """Rounds of an untraced run: about ``seconds`` of ops on the reference
    machine, and at least the workload's ``min_rounds``.

    The count is fixed in advance rather than read off the clock, so two runs
    at one seed attempt the same ops and fail the same ones, however fast the
    machine or the library is.
    """
    return max(wl.min_rounds, round(seconds * wl.rounds_per_second))


def run_loop(wl, *, rounds, tracer=None, checks="now", calibrated=False) -> Run:
    """Closed loop over the first ``rounds`` rounds of the workload.

    ``checks`` is ``now`` (after each round), ``defer`` (outputs kept in
    ``Run.deferred``) or ``skip``.  With
    ``calibrated``, once at least ``BLOCK_S`` of ops have run, a calibration
    slice converts them to reference seconds (see ``calibrate.py``); the
    slices fall between ops and are not timed.
    """
    run = Run()
    bench_op = tracer.name_id("bench.op") if tracer is not None else None
    index = 0
    unit_before = calibrate.unit_seconds(BLOCK_S * calibrate.SLICE_SHARE) if calibrated else None
    block_first = 0
    block_time = 0.0
    while True:
        done = []
        run.round_starts.append(len(run.op_seconds))
        for op in wl.round(index):
            if tracer is not None:
                tracer.current_op = len(run.op_seconds)
                span = tracer.open(bench_op)
            t0 = time.perf_counter()
            try:
                out = wl.call(op)
            except Exception as exc:  # a failed op is counted by the checks
                out = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            done.append((op, out, elapsed))
            run.add_op(elapsed)
            block_time += elapsed
            if calibrated and block_time >= BLOCK_S:
                unit_after = calibrate.unit_seconds(block_time * calibrate.SLICE_SHARE)
                run.scale_from(block_first, calibrate.speed_factor(unit_before, unit_after))
                unit_before, block_first, block_time = unit_after, len(run.op_seconds), 0.0
        index += 1
        finished = index >= rounds
        if calibrated and finished and block_first < len(run.op_seconds):
            unit_after = calibrate.unit_seconds(max(block_time, BLOCK_S) * calibrate.SLICE_SHARE)
            run.scale_from(block_first, calibrate.speed_factor(unit_before, unit_after))
        # outputs are checked after the round, outside the timed region
        if checks == "now":
            evaluate(wl, done, run)
        elif checks == "defer":
            run.deferred.extend(done)
        if finished:
            return run


def setup_seconds(args) -> tuple:
    """Times of fresh processes that import, generate inputs and warm up.

    Set-up is import and Python-level work for every workload, so each probe
    is bracketed by calibration slices.  Returns the times in reference
    seconds and the raw clock readings.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    raw, units = [], [calibrate.unit_seconds(SETUP_SLICE_S)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        units.append(calibrate.unit_seconds(SETUP_SLICE_S))
    return [t * calibrate.speed_factor(u0, u1) for t, u0, u1 in zip(raw, units, units[1:])], raw


def measure(args, wl, metrics) -> tuple:
    """Untraced run: the end-to-end metrics."""
    setup_runs, setup_raw = setup_seconds(args)
    wl.warm_up()
    run = run_loop(wl, rounds=planned_rounds(wl, args.seconds), calibrated=True)
    op_seconds = run.op_seconds
    label, tail_ms = metrics.tail(op_seconds, wl.tail_pct)
    values = {
        "setup_s": statistics.median(setup_runs),
        "wall_s": statistics.median(run.round_walls),
        "ops_per_s": len(op_seconds) / run.measured_s,
        "op_p50_ms": 1e3 * statistics.median(op_seconds),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "speed_factor_median": statistics.median(run.factors),
        "raw_op_p50_ms": 1e3 * statistics.median(run.raw_seconds),
        "raw_wall_s": statistics.median(run.raw_walls),
        "raw_ops_per_s": len(op_seconds) / sum(run.raw_walls),
        "setup_raw_s": setup_raw,
        "rounds": len(run.round_walls),
        "ops": len(op_seconds),
        "op_tail": label,
        "ops_beyond_tail": sum(1 for s in op_seconds if 1e3 * s > tail_ms),
    }
    return run, values, metrics.END_TO_END, detail


def traced(args, wl, metrics) -> tuple:
    """Traced run: the same fixed plan plain, then traced; the per-layer metrics."""
    import siegeljacobi
    import spans

    wl.warm_up()
    # one untimed round first, so that neither timed pass pays first-call costs
    run_loop(wl, rounds=1, checks="skip")
    rounds = max(1, round(args.seconds * wl.rounds_per_traced_second))
    plain = run_loop(wl, rounds=rounds, checks="skip")
    tracer = spans.Tracer()
    tracer.install(siegeljacobi)
    try:
        run = run_loop(wl, rounds=rounds, tracer=tracer, checks="defer")
    finally:
        tracer.uninstall()
    evaluate(wl, run.deferred, run)
    run.deferred.clear()
    values = metrics.layer_metrics(tracer, len(run.op_seconds), wl)
    values["trace.wall_s"] = run.measured_s
    values["trace.overhead_ratio"] = run.measured_s / plain.measured_s
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.npz"
    tracer.write(path)
    detail = {
        "rounds": rounds,
        "ops": len(run.op_seconds),
        "spans": len(tracer.name),
        "spans_file": str(path.relative_to(HERE.parent)),
        "plain_wall_s": plain.measured_s,
    }
    return run, values, metrics.PER_LAYER, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "siegeljacobi" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.warm_up()
        return 0
    run, values, spec, detail = (traced if args.trace else measure)(args, wl, metrics)
    detail.update(
        environment=environment(args),
        error_rate=run.error_rate(),
        failure_counts=dict(run.reasons),
        failure_examples=run.examples,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.unexpected == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics.with_units(values, spec),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
