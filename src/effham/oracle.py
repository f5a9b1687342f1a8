"""Independent numerical references for the closed-form builders.

Three tools live here: exact propagation of the Schroedinger equation
under the interaction Hamiltonian, propagation under an arbitrary
operator-valued series (Hermitian or not), and a nested-quadrature
evaluation of the order-n effective term that deliberately shares no code
with the tone calculus. The integrator is a fixed-step classical
Runge-Kutta scheme (order 4) with a step-halving error estimate, chosen
over adaptive black boxes for reproducibility.

The quadrature path (:func:`quad_oracle`) evaluates the interaction
Hamiltonian directly on refined uniform grids and builds the nested
integrals with a fourth-order cumulative Simpson rule; it must not touch
the closed-form machinery, since its whole value is independence from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, OperatorValueError, QuadratureError

#: Default sample density: steps per unit of (max carrier) * (time span).
STEPS_PER_UNIT = 4096

#: Refinement cap for the nested quadrature (grid points per level).
MAX_QUAD_POINTS = 1 << 21

_RK4_BLOCK = 8192


@dataclass(frozen=True)
class PropagationResult:
    """Propagator estimate with a step-halving error bound.

    ``U`` is computed at ``2 * steps`` steps; ``est_error`` is the
    Frobenius distance between the ``steps`` and ``2 * steps`` runs.
    """

    U: np.ndarray
    steps: int
    est_error: float


def default_step_count(max_omega: float, t: float) -> int:
    """Default fixed-step count: ``STEPS_PER_UNIT`` per unit of ``max_omega * t``."""
    return max(16, int(math.ceil(STEPS_PER_UNIT * max_omega * abs(t))))


def _rk4(grid_eval, dim: int, t: float, steps: int) -> np.ndarray:
    # Classical RK4 on dU/dt = -i H(t) U. H samples for each block of
    # steps are precomputed on the half-step grid in one vectorized call.
    h = t / steps
    U = np.eye(dim, dtype=complex)
    for s0 in range(0, steps, _RK4_BLOCK):
        s1 = min(steps, s0 + _RK4_BLOCK)
        times = h * (s0 + 0.5 * np.arange(2 * (s1 - s0) + 1))
        A = -1j * np.asarray(grid_eval(times))
        for k in range(s1 - s0):
            A0, Am, A1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
            k1 = A0 @ U
            k2 = Am @ (U + (h / 2) * k1)
            k3 = Am @ (U + (h / 2) * k2)
            k4 = A1 @ (U + h * k3)
            U = U + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def _propagate(grid_eval, dim: int, t: float, steps: int | None,
               default_steps: int) -> PropagationResult:
    if steps is None:
        steps = default_steps
    steps = int(steps)
    if steps < 16:
        raise OperatorValueError(f"steps must be >= 16, got {steps}")
    if t < 0:
        raise OperatorValueError(f"propagation time must be >= 0, got {t}")
    if t == 0.0:
        return PropagationResult(np.eye(dim, dtype=complex), steps, 0.0)
    coarse = _rk4(grid_eval, dim, t, steps)
    fine = _rk4(grid_eval, dim, t, 2 * steps)
    return PropagationResult(fine, steps, float(np.linalg.norm(coarse - fine)))


def propagate_exact(H, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i H(t) U`` with U(0) = I under a multi-tone model."""
    return _propagate(
        H.evaluate_grid, H.dim, t, steps, default_step_count(H.max_omega, t)
    )


def propagate_series(S, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i S(t) U`` for an operator-valued series.

    No unitarity is implied: a non-Hermitian S yields a non-unitary U,
    by design.
    """
    max_freq = float(np.abs(S.freqs).max(initial=0.0))
    return _propagate(
        S.evaluate_grid, S.dim, t, steps, default_step_count(max(1.0, max_freq), t)
    )


def fidelity_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Dimension-normalized Frobenius distance ``||U - V|| / sqrt(dim)``."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise DimensionMismatchError(
            f"fidelity_distance operands have shapes {U.shape} and {V.shape}"
        )
    return float(np.linalg.norm(U - V)) / math.sqrt(U.shape[0])


def _cumulative_simpson(F: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order cumulative integral of uniform samples F along axis 0.

    Even prefixes use composite Simpson pairs; odd prefixes add the
    integral of the quadratic through the enclosing three samples, which
    keeps the even chain independent of the odd corrections.
    """
    out = np.zeros_like(F)
    pair = (h / 3.0) * (F[0:-2:2] + 4.0 * F[1:-1:2] + F[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    out[1::2] = out[0:-2:2] + (h / 12.0) * (
        5.0 * F[0:-2:2] + 8.0 * F[1:-1:2] - F[2::2]
    )
    return out


def _nested_order_value(H, n: int, t: float, points: int) -> np.ndarray:
    ts = np.linspace(0.0, t, points + 1)
    h = t / points
    Hs = H.evaluate_grid(ts)
    A = Hs
    for _ in range(n - 1):
        A = np.matmul(Hs, _cumulative_simpson(A, h))
    factor = 1 + 0j
    for _ in range(n - 1):
        factor *= -1j
    return factor * A[-1]


def quad_oracle(H, n: int, t: float, tol: float,
                max_points: int = MAX_QUAD_POINTS) -> np.ndarray:
    """Order-n effective term by nested grid quadrature, no closed forms.

    Grids are refined by doubling until two successive refinements agree
    to ``tol`` in Frobenius norm. Raises :class:`QuadratureError` (with
    the best estimate attached) if the refinement cap is reached first.
    """
    n = int(n)
    if not 2 <= n <= 4:
        raise OperatorValueError(f"quad_oracle supports orders 2..4, got {n}")
    if tol < 1e-12:
        raise OperatorValueError(f"tolerance must be >= 1e-12, got {tol}")
    if t == 0.0:
        return np.zeros((H.dim, H.dim), dtype=complex)
    prev = None
    points = 256
    while points <= max_points:
        val = _nested_order_value(H, n, t, points)
        if prev is not None and float(np.linalg.norm(val - prev)) < tol:
            return val
        prev = val
        points *= 2
    raise QuadratureError(
        f"quadrature did not reach tol={tol} within {max_points} points",
        best=prev,
    )
