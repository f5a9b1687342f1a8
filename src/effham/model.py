"""Multi-tone interaction Hamiltonians ``H(t) = sum_m (h_m e^{i w_m t} + h.c.)``.

Each tone is a constant operator ``h_m`` with a positive carrier frequency
``w_m``; the conjugate (negative-frequency) partner is implied, so the
evaluated Hamiltonian is Hermitian by construction. The reduced Planck
constant is fixed to 1: couplings and frequencies share units of rad per
unit time.

Besides evaluation, this module classifies the frequency content of a
model: pairwise distinctness of the carriers and the signed sums of any
three of them (index repetition allowed). Those classifications gate the
commutator-form second-order Hamiltonian and the Hermiticity of secular
extractions, so the report distinguishes sums that are exactly zero from
sums that are safely away from zero, counting everything in between as
ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, OperatorValueError, check_real
from .operators import as_operator
from .series import OperatorSeries
from .tones import TOL_ZERO, TonePoly

#: Reduced Planck constant in the fixed unit convention.
HBAR = 1.0

#: Default threshold above which a frequency sum counts as safely nonzero.
DEFAULT_GAP_MIN = 1e-3

#: Largest supported expansion order. An order-n term oscillates at sums
#: of up to n carriers, so a model's carriers must keep such sums finite.
MAX_ORDER = 6


@dataclass(frozen=True)
class ToneTerm:
    """One tone: constant operator ``h`` at carrier frequency ``omega > 0``."""

    h: np.ndarray
    omega: float


class MultiToneHamiltonian:
    """Immutable multi-tone interaction Hamiltonian.

    Parameters
    ----------
    tones:
        Sequence of ``(h, omega)`` pairs or :class:`ToneTerm` instances;
        must be nonempty, share one dimension, and have ``omega > 0``
        with ``MAX_ORDER * omega`` finite, so that no sum of carriers the
        builders or the frequency report form overflows.
    """

    __slots__ = ("dim", "tones", "_freqs", "_mats")

    def __init__(self, tones: Sequence[ToneTerm | tuple]):
        terms = []
        for tone in tones:
            if not isinstance(tone, ToneTerm):
                tone = ToneTerm(*tone)
            h = as_operator(tone.h, name="tone operator")
            omega = float(check_real("tone frequency", tone.omega, 0.0, strict=True))
            if not math.isfinite(MAX_ORDER * omega):
                raise OperatorValueError(
                    f"tone frequency {omega:g} is too large: a sum of {MAX_ORDER} "
                    "carriers would overflow"
                )
            h.setflags(write=False)
            terms.append(ToneTerm(h, omega))
        if not terms:
            raise OperatorValueError("a model needs at least one tone")
        dim = terms[0].h.shape[0]
        for tone in terms:
            if tone.h.shape[0] != dim:
                raise DimensionMismatchError(
                    f"tone operators mix dimensions {dim} and {tone.h.shape[0]}"
                )

        # Stacked [h_m at +w_m ; h_m^dag at -w_m] for vectorized evaluation.
        freqs = np.array(
            [t.omega for t in terms] + [-t.omega for t in terms], dtype=float
        )
        mats = np.stack([t.h for t in terms] + [t.h.conj().T for t in terms])
        freqs.setflags(write=False)
        mats.setflags(write=False)

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tones", tuple(terms))
        object.__setattr__(self, "_freqs", freqs)
        object.__setattr__(self, "_mats", mats)

    def __setattr__(self, name, value):
        raise AttributeError("MultiToneHamiltonian is immutable")

    def __repr__(self) -> str:
        om = ", ".join(f"{t.omega:g}" for t in self.tones)
        return f"MultiToneHamiltonian(dim={self.dim}, omegas=[{om}])"

    @property
    def omegas(self) -> tuple[float, ...]:
        return tuple(t.omega for t in self.tones)

    @property
    def min_omega(self) -> float:
        return min(self.omegas)

    @property
    def max_omega(self) -> float:
        return max(self.omegas)

    # ------------------------------------------------------------------
    def evaluate(self, t: float) -> np.ndarray:
        """Hermitian matrix ``sum_m (h_m e^{i w_m t} + h_m^dag e^{-i w_m t})``."""
        M = np.tensordot(np.exp(1j * self._freqs[: len(self.tones)] * t),
                         self._mats[: len(self.tones)], axes=1)
        return M + M.conj().T

    def evaluate_grid(self, ts) -> np.ndarray:
        """Vectorized :meth:`evaluate`; returns shape (len(ts), dim, dim)."""
        ts = np.asarray(ts, dtype=float)
        phases = np.exp(1j * np.outer(ts, self._freqs))
        return np.tensordot(phases, self._mats, axes=1)

    def to_operator_series(self) -> OperatorSeries:
        """Symbolic form: entries ``(h_m, e^{i w_m t})`` and ``(h_m^dag, e^{-i w_m t})``."""
        entries = []
        for tone in self.tones:
            entries.append((tone.h, TonePoly.exponential(tone.omega)))
            entries.append((tone.h.conj().T, TonePoly.exponential(-tone.omega)))
        return OperatorSeries(self.dim, entries)

    def scaled(self, factor: float) -> "MultiToneHamiltonian":
        """New model with every ``h_m`` multiplied by ``factor``."""
        return MultiToneHamiltonian(
            [ToneTerm(factor * t.h, t.omega) for t in self.tones]
        )


# ----------------------------------------------------------------------
# frequency conditions


@dataclass(frozen=True)
class ThreeSum:
    """One signed three-frequency combination ``s1*w_a + s2*w_b + s3*w_c``."""

    indices: tuple[int, int, int]
    signs: tuple[int, int, int]
    value: float
    klass: str  # "zero" | "nonzero" | "ambiguous"


@dataclass(frozen=True)
class FrequencyReport:
    """Distinctness and three-frequency-sum classification of a model."""

    pairwise_distinct: bool
    min_pair_gap: float  # inf when the model has a single tone
    three_sum_classes: tuple[ThreeSum, ...]
    ambiguous_count: int
    tol_zero: float
    gap_min: float

    @property
    def passes(self) -> bool:
        """True iff the commutator-form and secular Hermiticity conditions hold.

        Every signed three-carrier sum is then exactly resonant ("zero") or
        at least ``gap_min`` away from zero. These are the resonance
        conditions of the indefinite-integral frame in which
        :func:`~effham.builder.heff_secular` extracts the secular part:
        there an order-3 zero-frequency term needs a "zero" three-sum, and
        so does a raised ``secular_growth_flag`` at order 5.
        """
        return self.pairwise_distinct and self.ambiguous_count == 0


def check_threshold(name: str, value: float) -> float:
    """``value`` itself if it is a frequency threshold: a finite real number
    >= 0."""
    return check_real(name, value, 0.0)


def check_thresholds(tol_zero: float, gap_min: float) -> None:
    """Refuse a ``tol_zero`` or ``gap_min`` that :func:`check_threshold`
    refuses, or a ``tol_zero`` not below ``gap_min``."""
    check_threshold("tol_zero", tol_zero)
    check_threshold("gap_min", gap_min)
    if not tol_zero < gap_min:
        raise OperatorValueError(
            f"tol_zero ({tol_zero}) must be smaller than gap_min ({gap_min})"
        )


def frequency_report(H: MultiToneHamiltonian, tol_zero: float = TOL_ZERO,
                     gap_min: float = DEFAULT_GAP_MIN) -> FrequencyReport:
    """Classify carrier distinctness and all signed three-frequency sums.

    Sums run over index multisets with repetition (so "two same ones" and
    "three same ones" are included) and all sign patterns, deduplicated up
    to reordering. A sum is "zero" when |sum| <= tol_zero, "nonzero" when
    |sum| >= gap_min, and "ambiguous" in between.

    Thresholds that :func:`check_thresholds` refuses raise
    :class:`OperatorValueError`.
    """
    check_thresholds(tol_zero, gap_min)
    omegas = H.omegas
    n = len(omegas)

    gaps = [abs(omegas[a] - omegas[b]) for a in range(n) for b in range(a + 1, n)]
    min_pair_gap = min(gaps) if gaps else float("inf")
    pairwise_distinct = all(g >= gap_min for g in gaps)

    seen: set[tuple[tuple[int, int], ...]] = set()
    sums: list[ThreeSum] = []
    for triple in combinations_with_replacement(range(n), 3):
        for signs in product((1, -1), repeat=3):
            canon = tuple(sorted(zip(triple, signs)))
            if canon in seen:
                continue
            seen.add(canon)
            value = sum(s * omegas[i] for i, s in zip(triple, signs))
            mag = abs(value)
            if mag <= tol_zero:
                klass = "zero"
            elif mag >= gap_min:
                klass = "nonzero"
            else:
                klass = "ambiguous"
            sums.append(ThreeSum(triple, signs, value, klass))

    ambiguous = sum(1 for s in sums if s.klass == "ambiguous")
    return FrequencyReport(
        pairwise_distinct=pairwise_distinct,
        min_pair_gap=min_pair_gap,
        three_sum_classes=tuple(sums),
        ambiguous_count=ambiguous,
        tol_zero=tol_zero,
        gap_min=gap_min,
    )


def commutation_probe(H: MultiToneHamiltonian,
                      time_pairs: Sequence[tuple[float, float]]) -> float:
    """Largest normalized commutator norm ``||[H(t1), H(t2)]||`` over the sample.

    Zero indicates a commuting family on the sampled pairs; the
    normalization is ``max(1, ||H(t1)|| * ||H(t2)||)``.
    """
    if not len(time_pairs):
        raise OperatorValueError("commutation_probe needs at least one time pair")
    worst = 0.0
    for t1, t2 in time_pairs:
        A = H.evaluate(t1)
        B = H.evaluate(t2)
        num = np.linalg.norm(A @ B - B @ A)
        den = max(1.0, float(np.linalg.norm(A)) * float(np.linalg.norm(B)))
        worst = max(worst, float(num) / den)
    return worst
