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
    S = H.to_operator_series()
    inner = S.integrate_from_zero()
    left = S * (S * inner).integrate_from_zero()
    right = (inner * S).integrate_from_zero() * S
    return left, right


def eq6_gap(H: MultiToneHamiltonian, t: float) -> float:
    """Frobenius gap of the third-order reordering identity at time t.

    Zero for commuting families; strictly positive whenever moving H(t)
    from the left of the double integral to the right actually matters.
    """
    left, right = _identity_sides(H)
    return float(np.linalg.norm(left.evaluate(t) - right.evaluate(t)))


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


def _dyson_partial_grids(H: MultiToneHamiltonian, orders: tuple[int, ...],
                         ts: np.ndarray) -> dict[int, np.ndarray]:
    """Unitarity defect of I + U_1 + ... + U_N on the grid, for each N in orders."""
    top = max(orders)
    partial = np.broadcast_to(np.eye(H.dim, dtype=complex), (ts.size, H.dim, H.dim)).copy()
    out: dict[int, np.ndarray] = {}
    for n in range(1, top + 1):
        partial = partial + builder.dyson_term(H, n).evaluate_grid(ts)
        if n in orders:
            out[n] = np.array([unitarity_defect(U) for U in partial])
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
    :class:`Report` either way.
    """
    source = model_path_or_name
    if source.startswith("builtin:"):
        H = make_model(source[len("builtin:"):])
    elif source in _ZOO:
        H = make_model(source)
    else:
        from .dsl import load_model

        H = load_model(source)

    orders = tuple(sorted(set(int(n) for n in orders)))
    for n in orders:
        if not 2 <= n <= builder.MAX_ORDER:
            raise OperatorValueError(f"orders must lie in [2, {builder.MAX_ORDER}]")

    if tmax is None:
        tmax = 10.0 / H.min_omega
    ts = np.linspace(0.0, float(tmax), int(grid))

    freq = frequency_report(H, tol_zero=tol_zero, gap_min=gap_min)
    dyson_grids = _dyson_partial_grids(H, orders, ts)

    records = []
    for n in orders:
        result = builder.heff_secular(H, n, time_grid=ts)
        herm = np.array(
            [hermiticity_defect(M) for M in result.series.evaluate_grid(ts)]
        )
        records.append(
            OrderRecord(
                order=n,
                secular=result.secular,
                secular_growth_flag=result.secular_growth_flag,
                hermiticity_defect_grid=herm,
                dyson_unitarity_grid=dyson_grids[n],
                secular_hermiticity_defect=hermiticity_defect(result.secular),
            )
        )

    eq6 = eq6_gap_grid(H, ts)

    residual_ts = np.linspace(tmax / 8.0, tmax, 8)
    residuals = []
    for n in orders:
        if n > 4:
            continue  # quadrature oracle covers orders 2..4
        series = builder.heff_n_timedep(H, n)
        for t in residual_ts:
            ref = quad_oracle(H, n, float(t), quad_tol)
            residuals.append(
                {
                    "order": n,
                    "t": float(t),
                    "residual": float(np.linalg.norm(series.evaluate(float(t)) - ref)),
                }
            )

    sweep_block = None
    if sweep:
        lambdas = [float(x) for x in sweep]
        rows = []
        for lam in lambdas:
            scaled = H.scaled(lam)
            per_order = []
            scaled_dyson = _dyson_partial_grids(scaled, orders, np.array([1.0]))
            for n in orders:
                series = builder.heff_n_timedep(scaled, n)
                worst = max(
                    hermiticity_defect(M) for M in series.evaluate_grid(ts)
                )
                per_order.append(
                    {
                        "order": n,
                        "hermiticity_defect_max": float(worst),
                        "dyson_unitarity_defect_t1": float(scaled_dyson[n][0]),
                    }
                )
            rows.append({"lambda": lam, "orders": per_order})
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
        oracle_residuals=tuple(residuals),
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
