"""Reference kernels that measure how fast the machine runs right now.

On a shared VM the speed of one vCPU drifts by 20-40% over minutes, so raw
wall times from runs taken minutes apart are not comparable. The measuring
worker interleaves these fixed kernels with the program's calls, spending
about ``SHARE`` of the call time on them, and divides every end-to-end time
by the run's speed factor: the geometric mean over kernels of median
kernel time / ``NOMINAL`` time. The kernels import nothing from effham, so
no change to the program changes them; together they span its instruction
mix: small-matrix numpy steps in a Python loop (RK4), Python tuple, dict
and complex churn with tiny numpy calls (tone and series canonicalisation),
and vectorised array work over a time grid (grid evaluation, quadrature).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Fraction of timed call time spent on kernels.
SHARE = 0.15

#: Kernel medians (s) at which the speed factor is 1; they set the scale only.
NOMINAL = {"rk4": 0.0060, "churn": 0.0040, "grid": 0.0040}

_rng = np.random.default_rng(20231209)
_MATS = [0.1 * (_rng.standard_normal((10, 10)) + 1j * _rng.standard_normal((10, 10)))
         for _ in range(4)]
_FREQS = np.array([1.0, 2.3, -1.0, -2.3])
_TS = np.linspace(0.0, 10.0, 3000)


def _rk4():
    A0, Am, A1 = _MATS[:3]
    U = np.eye(10, dtype=complex)
    h = 0.01
    for _ in range(300):
        k1 = A0 @ U
        k2 = Am @ (U + (h / 2) * k1)
        k3 = Am @ (U + (h / 2) * k2)
        k4 = A1 @ (U + h * k3)
        U = U + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def _churn():
    terms = [(float((i * 7919) % 97) * 0.37, i % 5, complex(i, 1)) for i in range(3000)]
    terms.sort(key=lambda x: (x[0], x[1]))
    merged: dict[tuple[float, int], complex] = {}
    for freq, power, coeff in terms:
        merged[(freq, power)] = merged.get((freq, power), 0j) + coeff
    row = np.ones(36, dtype=complex)
    for _ in range(150):
        np.linalg.norm(row / 2.0)
    return merged


def _grid():
    stacked = np.stack(_MATS)
    for _ in range(3):
        np.tensordot(np.exp(1j * np.outer(_TS, _FREQS)), stacked, axes=1)


KERNELS = {"rk4": _rk4, "churn": _churn, "grid": _grid}


class SpeedProbe:
    """Runs kernel rounds as call time accrues and keeps their timings."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._owed = 0.0
        self.round()

    def round(self):
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - t0)

    def after_call(self, call_s: float):
        """Owe ``SHARE`` of the call's time to kernels; pay it in whole rounds."""
        self._owed += SHARE * call_s
        while self._owed > 0:
            t0 = time.perf_counter()
            self.round()
            self._owed -= time.perf_counter() - t0

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def factor(self) -> float:
        """Geometric mean of median / nominal kernel time (> 1: slower machine)."""
        med = self.medians()
        return math.exp(sum(math.log(med[k] / NOMINAL[k]) for k in KERNELS) / len(KERNELS))
