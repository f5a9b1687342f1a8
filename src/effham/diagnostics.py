"""Defect diagnostics, the third-order reordering identity gap, a small
model zoo, and the report runner behind the command-line interface.

The central numerical question this module answers is how the
time-dependent truncations misbehave and when they do not: Hermiticity
defects of each order over a time grid, unitarity defects of the truncated
propagator expansion, the gap of the operator-reordering identity

    H(t) * II[H(t1) H(t2)]  vs  II[H(t2) H(t1)] * H(t)

(where II denotes the nested integral over 0 <= t2 <= t1 <= t), residuals
of the closed forms against the independent quadrature oracle, and
coupling-scaling sweeps. Reports are deterministic: identical inputs
produce byte-identical JSON apart from the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import builder
from .errors import OperatorValueError
from .metrics import hermiticity_defect, unitarity_defect
from .model import (
    DEFAULT_GAP_MIN,
    HBAR,
    FrequencyReport,
    MultiToneHamiltonian,
    ToneTerm,
    frequency_report,
)
from .operators import annihilate, projector, sigma_plus, sigma_z, tensor_product
from .oracle import quad_oracle
from .series import OperatorSeries
from .tones import TOL_ZERO

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# reordering identity


def _identity_sides(H: MultiToneHamiltonian) -> tuple[OperatorSeries, OperatorSeries]:
    # left: H * II[H H] = (i*hbar)**2 Heff_3; right: the reordered product
    S = H.to_operator_series()
    left = builder.heff_n_timedep(H, 3).scale(-HBAR ** 2)
    right = (S.integrate_from_zero() * S).integrate_from_zero() * S
    return left, right


def eq6_gap(H: MultiToneHamiltonian, t: float) -> float:
    """Frobenius gap of the third-order reordering identity at time t.

    Zero for commuting families; strictly positive whenever moving H(t)
    from the left of the double integral to the right actually matters.
    """
    return float(eq6_gap_grid(H, [t])[0])


def eq6_gap_grid(H: MultiToneHamiltonian, ts) -> np.ndarray:
    """Vectorized :func:`eq6_gap` over a time grid."""
    left, right = _identity_sides(H)
    diff = left.evaluate_grid(ts) - right.evaluate_grid(ts)
    return np.linalg.norm(diff, axis=(1, 2))


# ----------------------------------------------------------------------
# model zoo


def jc_detuned(g: float = 0.05, delta: float = 1.0, n_cavity: int = 5) -> MultiToneHamiltonian:
    """Qubit-cavity exchange tone ``g * (sigma_plus x a)`` at carrier ``delta``."""
    h = g * tensor_product(sigma_plus(), annihilate(n_cavity))
    return MultiToneHamiltonian([ToneTerm(h, delta)])


def raman_lambda(g1: float = 0.05, g2: float = 0.05, delta: float = 1.0,
                 delta_split: float = 0.3) -> MultiToneHamiltonian:
    """Two raising tones on a three-level system at carriers delta, delta+split."""
    h1 = g1 * projector(3, 2, 0)
    h2 = g2 * projector(3, 2, 1)
    return MultiToneHamiltonian([ToneTerm(h1, delta), ToneTerm(h2, delta + delta_split)])


def commuting_diag() -> MultiToneHamiltonian:
    """Two real diagonal tones: a commuting family at all time pairs."""
    h1 = np.diag([0.8, 0.3]).astype(complex)
    h2 = np.diag([0.2, 0.6]).astype(complex)
    return MultiToneHamiltonian([ToneTerm(h1, 1.0), ToneTerm(h2, 2.3)])


def noncommuting_two_tone(g: float = 0.2, omega1: float = 5.0,
                          omega2: float = 12.0) -> MultiToneHamiltonian:
    """``g*sigma_plus`` and ``g*sigma_z`` tones; noncommuting at generic times."""
    return MultiToneHamiltonian(
        [ToneTerm(g * sigma_plus(), omega1), ToneTerm(g * sigma_z(), omega2)]
    )


def scalar_single_tone(g: float = 1.0, omega: float = 1.0) -> MultiToneHamiltonian:
    """One-dimensional model ``H(t) = 2 g cos(omega t)``; everything commutes."""
    return MultiToneHamiltonian([ToneTerm(np.array([[g]], dtype=complex), omega)])


_ZOO = {
    "jc_detuned": jc_detuned,
    "raman_lambda": raman_lambda,
    "commuting_diag": commuting_diag,
    "noncommuting_two_tone": noncommuting_two_tone,
    "scalar_single_tone": scalar_single_tone,
}

ZOO_NAMES = tuple(sorted(_ZOO))


def make_model(name: str, **params) -> MultiToneHamiltonian:
    """Look up a zoo model by name (see ``ZOO_NAMES``)."""
    try:
        factory = _ZOO[name]
    except KeyError:
        raise OperatorValueError(
            f"unknown model {name!r}; available: {', '.join(ZOO_NAMES)}"
        ) from None
    return factory(**params)


def model_digest(H: MultiToneHamiltonian) -> str:
    """SHA-256 content hash of the compiled model."""
    hasher = hashlib.sha256()
    hasher.update(np.int64(H.dim).tobytes())
    for tone in H.tones:
        hasher.update(np.float64(tone.omega).tobytes())
        hasher.update(np.ascontiguousarray(tone.h).tobytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# report runner


@dataclass(frozen=True)
class OrderRecord:
    order: int
    secular: np.ndarray
    secular_growth_flag: bool
    hermiticity_defect_grid: np.ndarray
    dyson_unitarity_grid: np.ndarray
    secular_hermiticity_defect: float


@dataclass(frozen=True)
class Report:
    model_digest: str
    source: str
    dim: int
    omegas: tuple[float, ...]
    frequency: FrequencyReport
    time_grid: np.ndarray
    orders: tuple[OrderRecord, ...]
    eq6: np.ndarray
    oracle_residuals: tuple[dict, ...]
    sweep: dict | None
    options: dict
    generated_at: str = field(default="", compare=False)

    def as_dict(self) -> dict:
        """JSON-ready representation (deterministic apart from the timestamp)."""
        freq = self.frequency
        return {
            "schema": SCHEMA_VERSION,
            "generated_at": self.generated_at,
            "model_digest": self.model_digest,
            "model": {
                "source": self.source,
                "dim": self.dim,
                "tone_count": len(self.omegas),
                "omegas": list(self.omegas),
            },
            "options": self.options,
            "frequency_report": {
                "pairwise_distinct": freq.pairwise_distinct,
                "min_pair_gap": None if math.isinf(freq.min_pair_gap) else freq.min_pair_gap,
                "ambiguous_count": freq.ambiguous_count,
                "tol_zero": freq.tol_zero,
                "gap_min": freq.gap_min,
                "three_sums": [
                    {
                        "indices": list(s.indices),
                        "signs": list(s.signs),
                        "value": s.value,
                        "class": s.klass,
                    }
                    for s in freq.three_sum_classes
                ],
            },
            "time_grid": self.time_grid.tolist(),
            "orders": [
                {
                    "order": rec.order,
                    "secular_re": rec.secular.real.tolist(),
                    "secular_im": rec.secular.imag.tolist(),
                    "secular_growth_flag": rec.secular_growth_flag,
                    "secular_hermiticity_defect": rec.secular_hermiticity_defect,
                    "hermiticity_defect": rec.hermiticity_defect_grid.tolist(),
                    "dyson_unitarity_defect": rec.dyson_unitarity_grid.tolist(),
                }
                for rec in self.orders
            ],
            "eq6_gap": self.eq6.tolist(),
            "oracle_residuals": list(self.oracle_residuals),
            "sweep": self.sweep,
        }

    def to_json(self) -> str:
        # allow_nan=False enforces the every-numeric-field-finite invariant
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, allow_nan=False)

    def csv_rows(self) -> list[list]:
        """Time series table: t, per-order defect columns, then the identity gap."""
        header: list = ["t"]
        for rec in self.orders:
            header.append(f"hermiticity_defect_order{rec.order}")
            header.append(f"dyson_unitarity_defect_order{rec.order}")
        header.append("eq6_gap")
        rows: list[list] = [header]
        for i, t in enumerate(self.time_grid):
            row: list = [float(t)]
            for rec in self.orders:
                row.append(float(rec.hermiticity_defect_grid[i]))
                row.append(float(rec.dyson_unitarity_grid[i]))
            row.append(float(self.eq6[i]))
            rows.append(row)
        return rows


def _unitarity_of_partial_sums(terms, orders: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Unitarity defect of ``I + terms[0] + ... + terms[N-1]`` for each N in orders.

    ``terms`` holds the values of U_1, U_2, ... at any common leading shape
    (a time grid or one time).
    """
    partial = np.eye(terms[0].shape[-1], dtype=complex)
    out: dict[int, np.ndarray] = {}
    for n, U in enumerate(terms, start=1):
        partial = partial + U
        if n in orders:
            out[n] = unitarity_defect(partial)
    return out


def run_report(
    model_path_or_name: str,
    orders: tuple[int, ...] = (2, 3),
    tmax: float | None = None,
    grid: int = 64,
    sweep: tuple[float, ...] | None = None,
    tol_zero: float = TOL_ZERO,
    gap_min: float = DEFAULT_GAP_MIN,
    quad_tol: float = 1e-9,
    out: str | None = None,
    csv_path: str | None = None,
) -> Report:
    """Run the full diagnostic pipeline for one model.

    ``model_path_or_name`` is a ``.ham`` file path, a bare zoo name, or
    ``builtin:NAME``. Writes JSON/CSV when paths are given and returns the
    :class:`Report` either way. An empty order list, orders outside
    ``[2, MAX_ORDER]`` and non-finite sweep factors raise
    :class:`OperatorValueError` before any computation; ``tol_zero``
    reaches both the frequency report and the secular extraction.

    ``U_1 .. U_N`` (N the highest order) come from one pass of the Dyson
    recursion, :func:`~effham.builder.dyson_terms`, and each order from one
    :func:`~effham.builder.heff_secular` call, which still builds its own
    chains (``Heff_n = H * U_{n-1}`` and the indefinite-integral chain for
    ``secular``). The sweep is derived from them by homogeneity,
    ``Heff_n(lam H) = lam^n Heff_n(H)`` and ``U_k(lam H) = lam^k U_k(H)``:
    row ``lam`` holds, per order n, the largest Hermiticity defect of
    ``lam^n Heff_n`` on the grid and the unitarity defect of
    ``I + sum_{k<=n} lam^k U_k(1)``. The quadrature
    residuals of all orders up to 4, at the 8 times ``j * tmax / 8``, come
    from one :func:`quad_oracle` call: one refinement on ``[0, tmax]``
    whose chain holds every residual time as an even level-0 node
    (``256 / 8 = 32`` intervals apart). Since that grid spans ``[0, tmax]``
    and not ``[0, t]``, a reference value is not bit-identical to that of a
    call at its time alone; the residuals agree with such calls to well
    below the quadrature tolerance.
    """
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not orders or not 2 <= orders[0] <= orders[-1] <= builder.MAX_ORDER:
        raise OperatorValueError(f"orders must be given and lie in [2, {builder.MAX_ORDER}]")
    lambdas = [float(x) for x in sweep] if sweep else []
    for lam in lambdas:
        if not math.isfinite(lam):
            raise OperatorValueError(f"sweep factors must be finite, got {lam}")

    source = model_path_or_name
    if source.startswith("builtin:"):
        H = make_model(source[len("builtin:"):])
    elif source in _ZOO:
        H = make_model(source)
    else:
        from .dsl import load_model

        H = load_model(source)

    if tmax is None:
        tmax = 10.0 / H.min_omega
    ts = np.linspace(0.0, float(tmax), int(grid))

    freq = frequency_report(H, tol_zero=tol_zero, gap_min=gap_min)
    dyson = builder.dyson_terms(H, max(orders))
    dyson_grids = _unitarity_of_partial_sums([U.evaluate_grid(ts) for U in dyson], orders)

    records = []
    series_by_order = {}
    sweep_herm = {}
    for n in orders:
        result = builder.heff_secular(H, n, tol_zero=tol_zero, time_grid=ts)
        series_by_order[n] = result.series
        values = result.grid_values
        sweep_herm[n] = [float(hermiticity_defect(lam ** n * values).max(initial=0.0))
                         for lam in lambdas]
        records.append(
            OrderRecord(
                order=n,
                secular=result.secular,
                secular_growth_flag=result.secular_growth_flag,
                hermiticity_defect_grid=result.hermiticity_defect_grid,
                dyson_unitarity_grid=dyson_grids[n],
                secular_hermiticity_defect=hermiticity_defect(result.secular),
            )
        )

    eq6 = eq6_gap_grid(H, ts)

    quad_orders = tuple(n for n in orders if n <= 4)  # the oracle covers orders 2..4
    residual_ts = np.linspace(tmax / 8.0, tmax, 8)
    refs = quad_oracle(H, quad_orders, residual_ts, quad_tol) if quad_orders else {}
    residuals = tuple(
        {"order": n, "t": float(t), "residual": float(np.linalg.norm(closed - ref))}
        for n in quad_orders
        for t, closed, ref in zip(residual_ts, series_by_order[n].evaluate_grid(residual_ts),
                                  refs[n])
    )

    sweep_block = None
    if lambdas:
        at_one = [U.evaluate(1.0) for U in dyson]
        rows = []
        for i, lam in enumerate(lambdas):
            unitarity = _unitarity_of_partial_sums(
                [lam ** k * U for k, U in enumerate(at_one, start=1)], orders)
            rows.append({
                "lambda": lam,
                "orders": [
                    {
                        "order": n,
                        "hermiticity_defect_max": sweep_herm[n][i],
                        "dyson_unitarity_defect_t1": unitarity[n],
                    }
                    for n in orders
                ],
            })
        sweep_block = {"lambdas": lambdas, "rows": rows}

    report = Report(
        model_digest=model_digest(H),
        source=source,
        dim=H.dim,
        omegas=H.omegas,
        frequency=freq,
        time_grid=ts,
        orders=tuple(records),
        eq6=eq6,
        oracle_residuals=residuals,
        sweep=sweep_block,
        options={
            "orders": list(orders),
            "tmax": float(tmax),
            "grid": int(grid),
            "sweep": list(sweep) if sweep else None,
            "tol_zero": tol_zero,
            "gap_min": gap_min,
            "quad_tol": quad_tol,
        },
        generated_at=datetime.now(timezone.utc).isoformat(),
    )

    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if csv_path:
        import csv as _csv

        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerows(report.csv_rows())
    return report
