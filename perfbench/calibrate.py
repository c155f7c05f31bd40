"""Machine-speed calibration of the reported times.

On a shared virtual machine the speed of Python-level code drifts by tens of
percent over tens of seconds, as neighbours load the host.  A fixed
calibration unit -- small complex matrices pushed through the kind of
Python-level numpy calls the library makes, without calling the library --
is timed in short slices between blocks of ops.  Each op time is reported
scaled by ``REFERENCE_UNIT_S`` over the unit time measured around it:
seconds on a machine where one unit takes ``REFERENCE_UNIT_S``.  Work in the
library changes the op times and not the unit, so a speed-up or slow-down of
the library still shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: Median unit time on a 2-vCPU Xeon VM (2.0 GHz, Python 3.11, numpy 2.4).
REFERENCE_UNIT_S = 5.5e-4
SLICE_SHARE = 0.15  # calibration time as a share of the block it brackets
MIN_UNITS = 4

_RNG = np.random.default_rng(20060)
_MATS = [0.3 * (_RNG.normal(size=(2, 2)) + 1j * _RNG.normal(size=(2, 2))) for _ in range(16)]


def unit() -> complex:
    """One calibration unit: Python-level small-matrix work, library-free."""
    acc = 0j
    for m in _MATS:
        gram = np.eye(2) - m @ m.conj().T
        inv = np.linalg.inv(gram)
        acc += np.sum(inv.conj() * m) + complex(np.exp(0.5 * np.log(np.linalg.det(inv))))
        parts = {"m": m, "inv": inv}
        acc += sum(abs(complex(v[0, 0])) for v in parts.values())
    return acc


def unit_seconds(budget_s: float) -> float:
    """Mean time of one unit over a slice of about ``budget_s`` seconds."""
    count = 0
    start = time.perf_counter()
    while count < MIN_UNITS or time.perf_counter() - start < budget_s:
        unit()
        count += 1
    return (time.perf_counter() - start) / count


def speed_factor(before_s: float, after_s: float) -> float:
    """Scale from measured seconds to reference seconds for a block."""
    return REFERENCE_UNIT_S / (0.5 * (before_s + after_s))
