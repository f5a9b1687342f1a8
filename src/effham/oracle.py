"""Independent numerical references for the closed-form builders.

Three tools live here: exact propagation of the Schroedinger equation
under the interaction Hamiltonian, propagation under an arbitrary
operator-valued series (Hermitian or not), and a nested-quadrature
evaluation of the order-n effective term that deliberately shares no code
with the tone calculus. The integrator is a fixed-step classical
Runge-Kutta scheme (order 4) with a step-halving error estimate, chosen
over adaptive black boxes for reproducibility.

Both RK4 runs (``steps`` and ``2 * steps``) proceed block by block. Each
block samples H once on the fine run's half-step grid; the coarse run
reads every other sample. Since the equation is linear, each step is
``U <- U + D_k U`` with an increment matrix ``D_k`` that depends on the
samples only, so the increments of a block are formed in batched numpy
products and only the chain ``U + D_k U`` runs one step at a time.

The quadrature path (:func:`quad_oracle`) evaluates the interaction
Hamiltonian directly on refined uniform grids and builds the nested
integrals with a fourth-order cumulative Simpson rule, one refinement
for any set of orders 2..4; it must not touch the closed-form machinery,
since its whole value is independence from it.
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

#: Coarse RK4 steps per block. A block of B coarse steps samples H at
#: ``4B + 1`` points of the fine half-step grid, about ``(4B+1) * d^2 * 16``
#: bytes, and its batched increments and their temporaries take a few
#: times ``2B * d^2 * 16`` more. On a dim-10 model, B from 64 to 512 ran
#: equally fast; 8192 was 1.5x slower at 4x the peak memory.
_RK4_BLOCK = 256


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


def _increments(A: np.ndarray, h: float) -> np.ndarray:
    """Per-step RK4 increments ``D_k`` for ``dU/dt = A(t) U``, batched.

    ``A`` holds ``2n + 1`` samples on the half-step grid of ``n`` steps of
    size ``h``. One classical RK4 step is ``U <- U + D_k U`` with
    ``D_k = (h/6)(A0 + 2 K2 + 2 K3 + K4)``, ``K2 = Am (I + h/2 A0)``,
    ``K3 = Am (I + h/2 K2)`` and ``K4 = A1 (I + h K3)``.
    """
    A0, Am, A1 = A[:-1:2], A[1::2], A[2::2]
    K2 = Am + (h / 2) * (Am @ A0)
    K3 = Am + (h / 2) * (Am @ K2)
    K4 = A1 + h * (A1 @ K3)
    return (h / 6) * (A0 + 2 * K2 + 2 * K3 + K4)


def _rk4_pair(grid_eval, dim: int, t: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    # Coarse (``steps``) and fine (``2 * steps``) RK4 runs on dU/dt = -i H U,
    # both fed from one sampling of H per block (see the module docstring).
    h = t / (2 * steps)
    coarse = np.eye(dim, dtype=complex)
    fine = coarse
    for c0 in range(0, steps, _RK4_BLOCK):
        c1 = min(steps, c0 + _RK4_BLOCK)
        times = (h / 2) * (4 * c0 + np.arange(4 * (c1 - c0) + 1))
        A = -1j * np.asarray(grid_eval(times))
        for D in _increments(A[::2], 2 * h):
            coarse = coarse + D @ coarse
        for D in _increments(A, h):
            fine = fine + D @ fine
    return coarse, fine


def _propagate(grid_eval, dim: int, t: float, steps: int | None,
               max_omega: float) -> PropagationResult:
    if not math.isfinite(t):
        raise OperatorValueError(f"propagation time must be finite, got {t}")
    if t < 0:
        raise OperatorValueError(f"propagation time must be >= 0, got {t}")
    if steps is None:
        steps = default_step_count(max_omega, t)
    steps = int(steps)
    if steps < 16:
        raise OperatorValueError(f"steps must be >= 16, got {steps}")
    if t == 0.0:
        return PropagationResult(np.eye(dim, dtype=complex), steps, 0.0)
    coarse, fine = _rk4_pair(grid_eval, dim, t, steps)
    return PropagationResult(fine, steps, float(np.linalg.norm(coarse - fine)))


def propagate_exact(H, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i H(t) U`` with U(0) = I under a multi-tone model."""
    return _propagate(H.evaluate_grid, H.dim, t, steps, H.max_omega)


def propagate_series(S, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i S(t) U`` for an operator-valued series.

    No unitarity is implied: a non-Hermitian S yields a non-unitary U,
    by design.
    """
    max_freq = float(np.abs(S.freqs).max(initial=0.0))
    return _propagate(S.evaluate_grid, S.dim, t, steps, max(1.0, max_freq))


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


def _nested_values(H, orders: list[int], t: float, points: int) -> dict[int, np.ndarray]:
    # Order-k values for each k in ``orders`` from one sampling of H: the
    # chain of order k is the first k - 1 steps of the highest order's chain.
    ts = np.linspace(0.0, t, points + 1)
    h = t / points
    Hs = H.evaluate_grid(ts)
    A = Hs
    factor = 1 + 0j
    out = {}
    for k in range(2, max(orders) + 1):
        A = np.matmul(Hs, _cumulative_simpson(A, h))
        factor *= -1j
        if k in orders:
            out[k] = factor * A[-1]
    return out


def quad_oracle(H, n, t: float, tol: float,
                max_points: int = MAX_QUAD_POINTS):
    """Order-n effective term by nested grid quadrature, no closed forms.

    Grids are refined by doubling until two successive refinements agree
    to ``tol`` in Frobenius norm. ``n`` is one order, which gives its
    matrix, or a tuple of orders, which gives ``{order: matrix}``. All
    orders share one refinement: each level samples H once and runs one
    nested chain up to the highest order not yet converged, and each order
    is frozen at the level where its own successive values agree, so its
    value is the same as that of a call for that order alone. Raises
    :class:`QuadratureError` if the refinement cap is reached first; its
    ``best`` holds the best estimate, or for a tuple the best estimate of
    every order.
    """
    single = not isinstance(n, (tuple, list))
    orders = sorted({int(k) for k in ((n,) if single else n)})
    if not orders:
        raise OperatorValueError("quad_oracle needs at least one order")
    for k in orders:
        if not 2 <= k <= 4:
            raise OperatorValueError(f"quad_oracle supports orders 2..4, got {k}")
    if tol < 1e-12:
        raise OperatorValueError(f"tolerance must be >= 1e-12, got {tol}")
    if not math.isfinite(t):
        raise OperatorValueError(f"quadrature time must be finite, got {t}")
    if t == 0.0:
        zero = {k: np.zeros((H.dim, H.dim), dtype=complex) for k in orders}
        return zero[orders[0]] if single else zero
    done: dict[int, np.ndarray] = {}
    prev: dict[int, np.ndarray] = {}
    points = 256
    while points <= max_points:
        vals = _nested_values(H, [k for k in orders if k not in done], t, points)
        for k, val in vals.items():
            if k in prev and float(np.linalg.norm(val - prev[k])) < tol:
                done[k] = val
        if len(done) == len(orders):
            return done[orders[0]] if single else done
        prev = vals
        points *= 2
    best = {k: done.get(k, prev.get(k)) for k in orders}
    missing = ", ".join(str(k) for k in orders if k not in done)
    raise QuadratureError(
        f"quadrature of order {missing} did not reach tol={tol} within {max_points} points",
        best=best[orders[0]] if single else best,
    )
