"""Multi-tone interaction Hamiltonians ``H(t) = sum_m (h_m e^{i w_m t} + h.c.)``.

Each tone is a constant operator ``h_m`` with a positive carrier frequency
``w_m``; the conjugate (negative-frequency) partner is implied. The model
is sampled in the equivalent cos/sin form
``H(t) = sum_m cos(w_m t) (h_m + h_m^dag) + sin(w_m t) i (h_m - h_m^dag)``,
a real combination of Hermitian matrices, so every sample is exactly
Hermitian. Any array of times is flattened, one sample per time; a single
time is the one-row case. The reduced Planck constant is fixed to 1:
couplings and frequencies share units of rad per unit time.

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
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, OperatorValueError, check_real, check_times
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
        must be nonempty and share one dimension, and every ``omega``
        must pass :func:`check_carrier`. The couplings must keep every
        sample of H finite: :class:`OperatorValueError` refuses them when
        the entrywise sum of ``|h_m + h_m^dag|`` and ``|h_m - h_m^dag|``
        over the tones, taken on real and imaginary parts, is not finite.
    """

    __slots__ = ("dim", "tones", "_omegas", "_stack")

    def __init__(self, tones: Sequence[ToneTerm | tuple]):
        terms = []
        for tone in tones:
            if not isinstance(tone, ToneTerm):
                tone = ToneTerm(*tone)
            h = as_operator(tone.h, name="tone operator")
            h.setflags(write=False)
            terms.append(ToneTerm(h, check_carrier(tone.omega)))
        if not terms:
            raise OperatorValueError("a model needs at least one tone")
        dim = terms[0].h.shape[0]
        for tone in terms:
            if tone.h.shape[0] != dim:
                raise DimensionMismatchError(
                    f"tone operators mix dimensions {dim} and {tone.h.shape[0]}"
                )

        # Hermitian rows [h_m + h_m^dag ; i (h_m - h_m^dag)], each stored as
        # the (real, imaginary) pairs of its d * d entries, so that a sample
        # is a real matrix product. As |cos| and |sin| are at most 1, the sum
        # of |rows| bounds every part of every sample.
        omegas = np.array([t.omega for t in terms], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = np.stack([t.h + t.h.conj().T for t in terms]
                             + [1j * (t.h - t.h.conj().T) for t in terms])
            stack = stack.reshape(2 * len(terms), dim * dim).view(float)
            bound = np.abs(stack).sum(axis=0)
        if not np.isfinite(bound).all():
            raise OperatorValueError("the couplings are so large that a sample of H is not finite")
        omegas.setflags(write=False)
        stack.setflags(write=False)

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tones", tuple(terms))
        object.__setattr__(self, "_omegas", omegas)
        object.__setattr__(self, "_stack", stack)

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
        """Hermitian matrix ``H(t)``: the one-row case of :meth:`evaluate_grid`."""
        return self.evaluate_grid(t)[0]

    def evaluate_grid(self, ts) -> np.ndarray:
        """``H`` at each time of ``ts`` (any shape, flattened), in shape
        (size, dim, dim): ``[cos(w t) | sin(w t)]`` times the Hermitian rows."""
        wt = np.outer(np.asarray(ts, dtype=float), self._omegas)
        samples = np.dot(np.hstack((np.cos(wt), np.sin(wt))), self._stack)
        return samples.view(complex).reshape(-1, self.dim, self.dim)

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


def check_carrier(value) -> float:
    """``value`` as a ``float`` if it is a carrier frequency: a finite real
    number > 0 whose ``MAX_ORDER``-fold sum is finite, so that no sum of
    carriers the builders or the frequency report form overflows."""
    omega = float(check_real("tone frequency", value, 0.0, strict=True))
    if not math.isfinite(MAX_ORDER * omega):
        raise OperatorValueError(
            f"tone frequency {omega:g} is too large: a sum of {MAX_ORDER} "
            "carriers would overflow"
        )
    return omega


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

    # each multiset of three signed carriers once, ordered by indices and
    # then by signs, + first
    letters = [(i, s) for i in range(n) for s in (1, -1)]
    sums: list[ThreeSum] = []
    for combo in sorted(combinations_with_replacement(letters, 3),
                        key=lambda c: ([i for i, _ in c], [-s for _, s in c])):
        triple, signs = zip(*combo)
        value = sum(s * omegas[i] for i, s in combo)
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
    normalization is ``max(1, ||H(t1)|| * ||H(t2)||)``. Each pair must
    hold two finite times (:class:`OperatorValueError`, before H is
    sampled).
    """
    pairs = [check_times("time pair", pair) for pair in time_pairs]
    if not pairs:
        raise OperatorValueError("commutation_probe needs at least one time pair")
    sizes = [len(pair) for pair in pairs if len(pair) != 2]
    if sizes:
        raise OperatorValueError(f"time pair must hold two times, got {sizes[0]}")
    worst = 0.0
    for t1, t2 in pairs:
        A = H.evaluate(t1)
        B = H.evaluate(t2)
        num = np.linalg.norm(A @ B - B @ A)
        den = max(1.0, float(np.linalg.norm(A)) * float(np.linalg.norm(B)))
        worst = max(worst, float(num) / den)
    return worst
