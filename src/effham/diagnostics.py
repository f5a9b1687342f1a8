"""Defect diagnostics, the third-order reordering identity gap, a small
model zoo, and the report runner behind the command-line interface.

The central numerical question this module answers is how the
time-dependent truncations misbehave and when they do not: Hermiticity
defects of each order over a time grid, unitarity defects of the truncated
propagator expansion, the gap of the operator-reordering identity

    H(t) * II[H(t1) H(t2)]  vs  II[H(t2) H(t1)] * H(t)

(where II denotes the nested integral over 0 <= t2 <= t1 <= t; as every
sample of H is Hermitian, the right side is the adjoint of the left, so
the gap is the anti-Hermitian part of ``Heff_3``), residuals of the closed
forms against the independent quadrature oracle, and coupling-scaling
sweeps. Reports are deterministic: identical inputs produce
byte-identical JSON apart from the timestamp field. A report writes its
JSON and CSV files with one emitter, which formats each time-series float
once for both and gives the bytes of ``json.dumps(..., indent=2,
sort_keys=True, allow_nan=False)`` and of ``csv.writer``.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from . import builder
from .dsl import load_model
from .errors import (
    OperatorValueError,
    SeriesOverflowError,
    SweepOverflowError,
    UnknownModelError,
    check_integer,
    check_orders,
    check_real,
    check_times,
    elide,
)
from .metrics import hermiticity_defect, unitarity_defect
from .model import (
    DEFAULT_GAP_MIN,
    HBAR,
    MAX_ORDER,
    FrequencyReport,
    MultiToneHamiltonian,
    ToneTerm,
    check_threshold,
    frequency_report,
)
from .operators import annihilate, projector, sigma_plus, sigma_z, tensor_product
from .oracle import quad_oracle
from .tones import TOL_ZERO

SCHEMA_VERSION = 1

#: Tolerance of the report's quadrature residuals (``options.quad_tol``).
QUAD_TOL = 1e-9


def _sequence(name: str, values):
    """``values`` itself if it is a sequence or a numpy array: an option
    that takes several values refuses a bare one."""
    if isinstance(values, (Sequence, np.ndarray)):
        return values
    raise OperatorValueError(f"{name} must be a sequence, got {elide(values)}")


#: The check of each :func:`run_report` option, by keyword: it returns the
#: value or raises :class:`~effham.errors.OperatorValueError`. ``effham
#: report`` applies the same checks to the values of its options.
OPTION_CHECKS = {
    "orders": lambda orders: check_orders(_sequence("orders", orders), MAX_ORDER),
    "tmax": lambda tmax: check_real("tmax", tmax, 0.0, strict=True),
    "grid": lambda grid: check_integer("grid", grid, 2),
    "sweep": lambda sweep: tuple(check_real("sweep factor", x) for x in _sequence("sweep", sweep)),
    "tol_zero": lambda tol_zero: check_threshold("tol_zero", tol_zero),
    "gap_min": lambda gap_min: check_threshold("gap_min", gap_min),
}


# ----------------------------------------------------------------------
# reordering identity


def eq6_gap(H: MultiToneHamiltonian, t: float) -> float:
    """Frobenius gap of the third-order reordering identity at time t.

    Zero for commuting families; strictly positive whenever moving H(t)
    from the left of the double integral to the right actually matters.
    As every sample of H is Hermitian, the gap is ``hbar**2`` times the
    anti-Hermitian part of ``Heff_3(t)`` (see :func:`eq6_gap_grid`), so it
    vanishes exactly where ``Heff_3`` is Hermitian.
    ``t`` must be a finite real number (:class:`OperatorValueError`).
    """
    return float(eq6_gap_grid(H, [check_real("time", t)])[0])


def eq6_gap_grid(H: MultiToneHamiltonian, ts) -> np.ndarray:
    """Vectorized :func:`eq6_gap` over a time grid, a 1-D sequence of
    finite times, checked before any series is built.

    The left side ``L = H * II[H H]`` is ``(i*hbar)**2 Heff_3``. Every
    sample of H is Hermitian, so the reordered product ``II[H(t2) H(t1)] *
    H`` is the adjoint ``L^dag``, and the gap is ``||L - L^dag||`` at each
    time: one ``Heff_3`` build (2 series products and 2 integrals) and one
    grid evaluation. The report builds ``Heff_3`` here once more instead of
    reading it off its own chain, which keeps this function on the
    report's route to the builder.
    """
    ts = check_times("time grid", ts)
    L = builder.heff_n_timedep(H, 3).scale(-HBAR ** 2).evaluate_grid(ts)
    return np.linalg.norm(L - L.conj().swapaxes(1, 2), axis=(1, 2))


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


_ZOO = {f.__name__: f for f in (jc_detuned, raman_lambda, commuting_diag,
                                 noncommuting_two_tone, scalar_single_tone)}

ZOO_NAMES = tuple(sorted(_ZOO))


def make_model(name: str, **params) -> MultiToneHamiltonian:
    """Look up a zoo model by name (see ``ZOO_NAMES``); an unknown name
    raises :class:`UnknownModelError`, which lists the known ones."""
    try:
        factory = _ZOO[name]
    except KeyError:
        raise UnknownModelError(
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


class _Column:
    """One time-series column of a report: its CSV header, its values as
    Python floats and their ``float.__repr__`` texts, which the JSON and
    the CSV both write."""

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = values.tolist()
        self.texts = list(map(float.__repr__, self.values))


def _float_text(x: float) -> str:
    """``x`` as json writes it; a non-finite ``x`` raises json's ValueError."""
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


def _scalar_text(x) -> str:
    """A leaf of a JSON tree as json writes it, tested in json's order."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit_floats(values: list, texts: list[str], newline: str, out: list[str]) -> None:
    """Append a list of floats, given with their texts, as one string."""
    if not all(map(math.isfinite, values)):
        _float_text(next(x for x in values if not math.isfinite(x)))
    inner = newline + "  "
    out.append("[" + inner + ("," + inner).join(texts) + newline + "]" if texts else "[]")


def _emit(node, newline: str, out: list[str]) -> None:
    """Append the text of ``node`` to ``out``; ``newline`` starts the line
    of its closing bracket."""
    if isinstance(node, _Column):
        _emit_floats(node.values, node.texts, newline, out)
    elif isinstance(node, (list, tuple)):
        try:
            texts = list(map(float.__repr__, node))
        except TypeError:  # an item that is not a float
            inner = newline + "  "
            sep = "[" + inner
            for item in node:
                out.append(sep)
                _emit(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
        else:
            _emit_floats(node, texts, newline, out)
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(node):
            # a key that is not a str raises TypeError here
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(node[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_scalar_text(node))


def _json_text(tree) -> str:
    """``json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)``, byte
    for byte, with each list of floats written by one join.

    ``tree`` holds dicts with string keys, lists, tuples, strings, ints,
    bools, ``None``, floats (float subclasses too, written by
    ``float.__repr__`` as json writes them) and report columns, whose floats
    are formatted already. A non-finite float raises json's
    ``ValueError``; any other value, or a key that is not a string, raises
    ``TypeError``.
    """
    out: list[str] = []
    _emit(tree, "\n", out)
    return "".join(out)


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

    @functools.cached_property
    def _columns(self) -> tuple[_Column, ...]:
        """The time series in CSV order: ``t``, the two defect grids of each
        order, then the identity gap. Each float is formatted here, once per
        report, for both files."""
        columns = [_Column("t", self.time_grid)]
        for rec in self.orders:
            columns.append(_Column(f"hermiticity_defect_order{rec.order}",
                                   rec.hermiticity_defect_grid))
            columns.append(_Column(f"dyson_unitarity_defect_order{rec.order}",
                                   rec.dyson_unitarity_grid))
        columns.append(_Column("eq6_gap", self.eq6))
        return tuple(columns)

    def _tree(self, series) -> dict:
        """The report as a JSON tree, with ``series[i]`` standing for the
        values of column ``i`` of :attr:`_columns`."""
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
            "time_grid": series[0],
            "orders": [
                {
                    "order": rec.order,
                    "secular_re": rec.secular.real.tolist(),
                    "secular_im": rec.secular.imag.tolist(),
                    "secular_growth_flag": rec.secular_growth_flag,
                    "secular_hermiticity_defect": rec.secular_hermiticity_defect,
                    "hermiticity_defect": series[2 * i + 1],
                    "dyson_unitarity_defect": series[2 * i + 2],
                }
                for i, rec in enumerate(self.orders)
            ],
            "eq6_gap": series[-1],
            "oracle_residuals": list(self.oracle_residuals),
            "sweep": self.sweep,
        }

    def as_dict(self) -> dict:
        """JSON-ready representation (deterministic apart from the timestamp),
        a new tree on every call: editing it leaves the report unchanged."""
        return copy.deepcopy(self._tree([list(col.values) for col in self._columns]))

    def to_json(self) -> str:
        """``json.dumps(self.as_dict(), indent=2, sort_keys=True,
        allow_nan=False)``, written by :func:`_json_text`; a non-finite
        field raises json's ``ValueError``."""
        return _json_text(self._tree(self._columns))

    def csv_rows(self) -> list[list]:
        """Time series table: t, per-order defect columns, then the identity gap."""
        columns = self._columns
        return [[col.name for col in columns]] + [list(row) for row in
                                                   zip(*(col.values for col in columns))]

    def write(self, json_path: str | None = None, csv_path: str | None = None) -> None:
        """Write the JSON report and the CSV time series to the paths given.
        The CSV holds the bytes ``csv.writer`` writes for :meth:`csv_rows`:
        comma-separated, ``\\r\\n`` line ends, floats by ``float.__repr__``."""
        if json_path:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
                fh.write("\n")
        if csv_path:
            columns = self._columns
            lines = [",".join(col.name for col in columns)]
            lines += map(",".join, zip(*(col.texts for col in columns)))
            with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                fh.write("\r\n".join(lines) + "\r\n")


def default_time_grid(H: MultiToneHamiltonian, points: int = 64) -> np.ndarray:
    """Diagnostic grid covering [0, 10 / min carrier] with ``points``
    samples, an integer >= 2 (:class:`OperatorValueError`)."""
    points = check_integer("points", points, 2)
    return np.linspace(0.0, 10.0 / H.min_omega, points)


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


def _sweep_row(lam: float, values, at_one, orders: tuple[int, ...]) -> list[dict]:
    """The sweep cells of factor ``lam``: per order n, the largest
    Hermiticity defect of ``lam^n Heff_n`` on the grid, whose values
    ``values[n]`` holds, and the unitarity defect of
    ``I + sum_{k<=n} lam^k U_k(1)``, with ``at_one`` holding the values
    ``U_k(1)``. Raises :class:`SweepOverflowError` at the first order
    whose cell is not finite."""
    # an overflow, of a power of lam too, shows as a non-finite defect
    # below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = _unitarity_of_partial_sums(
            [np.float64(lam) ** k * U for k, U in enumerate(at_one, start=1)], orders)
        cells = []
        for n in orders:
            scaled = np.float64(lam) ** n * values[n]
            herm = float(hermiticity_defect(scaled).max(initial=0.0))
            if not (math.isfinite(herm) and math.isfinite(unitarity[n])):
                raise SweepOverflowError(
                    f"sweep factor {lam!r} overflows the float range at order {n}: "
                    f"Hermiticity defect {herm}, unitarity defect {unitarity[n]}"
                )
            cells.append({
                "order": n,
                "hermiticity_defect_max": herm,
                "dyson_unitarity_defect_t1": unitarity[n],
            })
    return cells


def run_report(
    model_path_or_name: str,
    orders: tuple[int, ...] = (2, 3),
    tmax: float | None = None,
    grid: int = 64,
    sweep: tuple[float, ...] | None = None,
    tol_zero: float = TOL_ZERO,
    gap_min: float = DEFAULT_GAP_MIN,
) -> Report:
    """Run the full diagnostic pipeline for one model.

    ``model_path_or_name`` is ``builtin:NAME`` for a zoo model; any other
    string, a bare zoo name too, is the path of a ``.ham`` file. Returns
    the :class:`Report`; :meth:`Report.write` writes its JSON and CSV
    files. ``orders``, ``tmax``, ``grid`` and ``sweep`` that their
    ``OPTION_CHECKS`` refuse raise :class:`OperatorValueError` before the
    model is loaded; a finite sweep factor that scales some order out of
    the float range raises :class:`SweepOverflowError`, which names the
    factor and the order. ``tol_zero`` reaches both the frequency report
    and the secular extraction; thresholds that
    :func:`~effham.model.check_thresholds` refuses raise
    :class:`OperatorValueError` from :func:`frequency_report`, before any
    build.

    Every order comes from one :func:`~effham.builder.heff_secular` call
    over the tuple of orders, which builds one definite and one indefinite
    Dyson chain up to the highest order N; the propagator terms
    ``U_1 .. U_N`` are the ``dyson_terms`` of the top order's result. A
    report at top order N thus makes ``2 (N - 1) + 2`` series products and
    ``2 N + 1`` integrals, whichever orders up to N it lists: ``2 (N - 1)``
    products and ``2 N - 1`` integrals for the two chains, and 2 of each
    for the ``Heff_3`` of the reordering-identity gap. The builder
    measures nothing: this function evaluates each listed order's series
    once on the time grid and takes the Hermiticity defects, and the
    sweep's, from those values. The Hermiticity and Dyson unitarity defects
    and the reordering-identity gap are taken under one overflow rule: one
    that is not finite at some time raises
    :class:`~effham.errors.SeriesOverflowError`, which names the order, the
    quantity and the first such time. The sweep
    is derived from them by homogeneity,
    ``Heff_n(lam H) = lam^n Heff_n(H)`` and ``U_k(lam H) = lam^k U_k(H)``:
    row ``lam`` holds, per order n, the largest Hermiticity defect of
    ``lam^n Heff_n`` on the grid and the unitarity defect of
    ``I + sum_{k<=n} lam^k U_k(1)``. The quadrature residuals of every
    listed order, at the 8 times ``j * tmax / 8``, come from one
    :func:`quad_oracle` call at tolerance ``QUAD_TOL``: one refinement on
    ``[0, tmax]`` whose panels end at every residual time, each gap of
    ``tmax / 8`` cut into the same number of panels. Since the panels
    depend on all 8 times, a reference value is not bit-identical to that
    of a call at its time alone; the residuals agree with such calls to well
    below the quadrature tolerance.
    """
    orders = OPTION_CHECKS["orders"](orders)
    if tmax is not None:
        tmax = float(OPTION_CHECKS["tmax"](tmax))
    grid = OPTION_CHECKS["grid"](grid)
    sweep = OPTION_CHECKS["sweep"](sweep) if sweep is not None else ()
    lambdas = [float(x) for x in sweep]

    source = model_path_or_name
    if source.startswith("builtin:"):
        H = make_model(source[len("builtin:"):])
    else:
        H = load_model(source)

    # linspace ends on its stop exactly, so ts[-1] is the given tmax
    ts = default_time_grid(H, grid) if tmax is None else np.linspace(0.0, tmax, grid)
    tmax = float(ts[-1])

    freq = frequency_report(H, tol_zero=tol_zero, gap_min=gap_min)
    results = builder.heff_secular(H, orders, tol_zero=tol_zero)
    dyson = results[orders[-1]].dyson_terms
    # an overflow shows as a defect or gap that is not finite, refused
    # below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        values = {n: results[n].series.evaluate_grid(ts) for n in orders}
        herm_grids = {n: hermiticity_defect(values[n]) for n in orders}
        dyson_grids = _unitarity_of_partial_sums([U.evaluate_grid(ts) for U in dyson], orders)
        eq6 = eq6_gap_grid(H, ts)
        measured = [(n, "Hermiticity defect", herm_grids[n]) for n in orders]
        measured += [(n, "Dyson unitarity defect", dyson_grids[n]) for n in orders]
        for n, name, column in measured + [(3, "reordering-identity gap", eq6)]:
            if not np.isfinite(column).all():
                raise SeriesOverflowError(
                    f"the order-{n} {name} on the time grid is not finite at "
                    f"t = {float(ts[~np.isfinite(column)][0])!r}")

    records = tuple(
        OrderRecord(
            order=n,
            secular=result.secular,
            secular_growth_flag=result.secular_growth_flag,
            hermiticity_defect_grid=herm_grids[n],
            dyson_unitarity_grid=dyson_grids[n],
            secular_hermiticity_defect=hermiticity_defect(result.secular),
        )
        for n, result in results.items()
    )

    residual_ts = np.linspace(tmax / 8.0, tmax, 8)
    refs = quad_oracle(H, orders, residual_ts, QUAD_TOL)
    residuals = tuple(
        {"order": n, "t": float(t), "residual": float(np.linalg.norm(closed - ref))}
        for n in orders
        for t, closed, ref in zip(residual_ts, results[n].series.evaluate_grid(residual_ts),
                                  refs[n])
    )

    sweep_block = None
    if lambdas:
        at_one = [U.evaluate(1.0) for U in dyson]
        rows = [{"lambda": lam, "orders": _sweep_row(lam, values, at_one, orders)}
                for lam in lambdas]
        sweep_block = {"lambdas": lambdas, "rows": rows}

    return Report(
        model_digest=model_digest(H),
        source=source,
        dim=H.dim,
        omegas=H.omegas,
        frequency=freq,
        time_grid=ts,
        orders=records,
        eq6=eq6,
        oracle_residuals=residuals,
        sweep=sweep_block,
        options={
            "orders": list(orders),
            "tmax": float(tmax),
            "grid": grid,
            "sweep": list(sweep) if sweep else None,
            "tol_zero": tol_zero,
            "gap_min": gap_min,
            "quad_tol": QUAD_TOL,
        },
        generated_at=datetime.now(timezone.utc).isoformat(),
    )
