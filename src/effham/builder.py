"""Closed-form effective Hamiltonians and time-ordered propagator terms.

The second-order effective Hamiltonian is the product form

    Heff2(t) = (1/(i*hbar)) * H(t) * int_0^t H(t') dt',

the third order nests one more integral,

    Heff3(t) = (1/(i*hbar))^2 * H(t) * int_0^t H(t1) int_0^t1 H(t2) dt2 dt1,

and order n continues the pattern with n-1 nested integrals. The order-n
time-ordered propagator term

    U_n(t) = (1/(i*hbar))^n * int_0^t H(t1) ... int_0^t(n-1) H(tn) dtn ... dt1

obeys the exact identities U_n(0) = 0 and Heff_n(t) = i*hbar * dU_n/dt,
which the closed forms reproduce coefficient by coefficient. All builders
work symbolically on :class:`~effham.series.OperatorSeries`, so evaluation
at any time is exact up to rounding.

When every carrier is distinct, dropping the oscillating content of
Heff2 leaves the commutator form ``sum_m [h_m, h_m^dag] / (hbar*w_m)``
(:func:`heff2_rwa`). For any order, :func:`heff_secular` extracts the
secular part in the indefinite-integral, time-averaged frame (James &
Jerke, Can. J. Phys. 85, 625 (2007)): the same nested product, with every
integral's lower-limit constants dropped. There a term's frequency is the
signed sum of its carriers, so zero-frequency content at order n comes
only from signed n-carrier sums that vanish; at order 3 these are the
three-sums the frequency report classes as "zero". The lower-limit
constants kept by :func:`heff_n_timedep` (so that U_n(0) = 0) would
instead pair a tone with its conjugate into zero-frequency terms that are
not Hermitian at third order. Zero-frequency terms of that frame with a
polynomial time dependence set ``secular_growth_flag`` instead of being
silently folded into a "time-independent" Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrequencyConditionError, OperatorValueError
from .metrics import hermiticity_defect
from .model import (
    HBAR,
    FrequencyReport,
    MultiToneHamiltonian,
    frequency_report,
)
from .series import OperatorSeries
from .tones import TOL_ZERO

#: Largest supported expansion order.
MAX_ORDER = 6


def _inv_i_power(k: int) -> complex:
    # (1/(i*hbar))**k via repeated exact multiplication by -i (hbar = 1).
    out = 1 + 0j
    for _ in range(k):
        out *= -1j / HBAR
    return out


def _check_order(n: int, low: int = 2) -> int:
    n = int(n)
    if not low <= n <= MAX_ORDER:
        raise OperatorValueError(f"order must be in [{low}, {MAX_ORDER}], got {n}")
    return n


def _drop_lower_limit_constants(I: OperatorSeries) -> OperatorSeries:
    """``I`` without its zero-frequency, power-0 key.

    For ``I = S.integrate_from_zero()`` that key is exactly the sum of the
    lower-limit constants, since zero-frequency input integrates to power
    >= 1; what is left is the indefinite integral.
    """
    keep = (I.freqs != 0.0) | (I.powers != 0)
    return OperatorSeries._of(I.dim, I.freqs[keep], I.powers[keep], I.coeffs[keep])


def _nested_product(S: OperatorSeries, depth: int, indefinite: bool = False) -> OperatorSeries:
    """W_depth = S * int(S * int(... S))  with ``depth`` factors of S.

    The integrals run from 0, or are indefinite if ``indefinite``.
    """
    acc = S
    for _ in range(depth - 1):
        integral = acc.integrate_from_zero()
        if indefinite:
            integral = _drop_lower_limit_constants(integral)
        acc = S * integral
    return acc


def heff_n_timedep(H: MultiToneHamiltonian, n: int) -> OperatorSeries:
    """Order-n time-dependent effective Hamiltonian, closed form.

    ``(1/(i*hbar))**(n-1)`` times the n-fold nested product of the
    interaction Hamiltonian with its iterated integrals; evaluates to the
    zero matrix at t = 0 because every lower-limit constant is kept.
    """
    n = _check_order(n)
    S = H.to_operator_series()
    return _nested_product(S, n).scale(_inv_i_power(n - 1))


def heff2_timedep(H: MultiToneHamiltonian) -> OperatorSeries:
    """Second-order product form ``(1/(i*hbar)) H(t) int_0^t H``."""
    return heff_n_timedep(H, 2)


def heff3_timedep(H: MultiToneHamiltonian) -> OperatorSeries:
    """Third-order nested-integral form."""
    return heff_n_timedep(H, 3)


def heff2_rwa(H: MultiToneHamiltonian, report: FrequencyReport | None = None) -> np.ndarray:
    """Commutator form ``sum_m [h_m, h_m^dag] / (hbar * w_m)``.

    Valid only when all carriers are pairwise distinct (the oscillating
    cross terms it drops are then far from resonance); raises
    :class:`FrequencyConditionError` otherwise. Degenerate models should
    use :func:`heff_secular`, which keeps cross terms naturally.
    """
    if report is None:
        report = frequency_report(H)
    if not (report.pairwise_distinct and report.ambiguous_count == 0):
        raise FrequencyConditionError(
            "the commutator form requires pairwise-distinct carrier frequencies "
            "and no ambiguous three-frequency sums"
        )
    out = np.zeros((H.dim, H.dim), dtype=complex)
    for tone in H.tones:
        hd = tone.h.conj().T
        out += (tone.h @ hd - hd @ tone.h) / (HBAR * tone.omega)
    return out


@dataclass(frozen=True)
class EffectiveOrderResult:
    """Secular extraction of one expansion order.

    ``series`` is the full order-n series of :func:`heff_n_timedep`, with
    its lower-limit constants. ``secular`` and ``secular_growth_flag`` come
    from the indefinite-integral frame, where each integral of the nested
    product drops its lower-limit constants: ``secular`` is that product's
    zero-frequency, power-0 content (time independent by construction), and
    ``secular_growth_flag`` reports whether it also holds zero-frequency
    terms with power >= 1, which were excluded. Such a term needs the
    signed carrier sum of an inner stretch of the product to vanish as
    well as the full sum: the flag is never raised at order 3, and at
    order 5 only when some signed three-carrier sum vanishes.
    """

    order: int
    series: OperatorSeries
    secular: np.ndarray
    secular_growth_flag: bool
    max_hermiticity_defect_on_grid: float


def default_time_grid(H: MultiToneHamiltonian, points: int = 64) -> np.ndarray:
    """Diagnostic grid covering [0, 10 / min carrier] with ``points`` samples."""
    return np.linspace(0.0, 10.0 / H.min_omega, points)


def heff_secular(H: MultiToneHamiltonian, n: int,
                 tol_zero: float = TOL_ZERO,
                 time_grid: np.ndarray | None = None) -> EffectiveOrderResult:
    """Order-n series plus its secular (non-oscillating, non-growing) part.

    ``secular`` and ``secular_growth_flag`` are read from the nested
    product built with indefinite integrals (see
    :class:`EffectiveOrderResult`); at order 3 its zero-frequency terms
    come only from three-carrier sums that the frequency report classes as
    "zero". The Hermiticity defect of the full time-dependent series is
    measured on ``time_grid`` (default: 64 points over [0, 10 / min
    carrier]).
    """
    n = _check_order(n)
    series = heff_n_timedep(H, n)
    averaged = _nested_product(H.to_operator_series(), n, indefinite=True)
    averaged = averaged.scale(_inv_i_power(n - 1))
    if time_grid is None:
        time_grid = default_time_grid(H)
    worst = float(hermiticity_defect(series.evaluate_grid(time_grid)).max(initial=0.0))
    return EffectiveOrderResult(
        order=n,
        series=series,
        secular=averaged.constant_part(tol_zero),
        secular_growth_flag=averaged.has_secular_growth(tol_zero),
        max_hermiticity_defect_on_grid=worst,
    )


def dyson_term(H: MultiToneHamiltonian, n: int) -> OperatorSeries:
    """Order-n time-ordered propagator correction ``U_n(t)`` in closed form."""
    n = _check_order(n, low=1)
    S = H.to_operator_series()
    acc = S.integrate_from_zero()
    for _ in range(n - 1):
        acc = (S * acc).integrate_from_zero()
    return acc.scale(_inv_i_power(n))


def dyson_truncated(H: MultiToneHamiltonian, N: int, t: float) -> np.ndarray:
    """``I + sum_{n=1..N} U_n(t)``: the truncated propagator expansion.

    Generally non-unitary away from t = 0; the defect shrinks with the
    coupling strength as lambda**(N+1).
    """
    N = _check_order(N, low=1)
    out = np.eye(H.dim, dtype=complex)
    S = H.to_operator_series()
    acc = S.integrate_from_zero()
    out += acc.scale(_inv_i_power(1)).evaluate(t)
    for k in range(2, N + 1):
        acc = (S * acc).integrate_from_zero()
        out += acc.scale(_inv_i_power(k)).evaluate(t)
    return out
