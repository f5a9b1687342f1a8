"""Closed-form effective Hamiltonians and time-ordered propagator terms.

Every closed form here comes from one Dyson recursion, whose loop is
:func:`_chain` (one step per order); no other module runs it:

    U_0 = I,    U_k(t) = (1/(i*hbar)) * int_0^t H(t') U_{k-1}(t') dt',

so that U_n(t) = (1/(i*hbar))**n * int_0^t H(t1) ... int_0^t(n-1) H(tn)
dtn ... dt1 is the order-n time-ordered propagator term, and the order-n
time-dependent effective Hamiltonian is

    Heff_n(t) = H(t) * U_{n-1}(t),

the n-fold nested product ``(1/(i*hbar))**(n-1) H int H int ... H``
(Heff2 = (1/(i*hbar)) H(t) int_0^t H). This is the Reply's second point:
the iterative method is equivalent to the Dyson series, Heff_n = H U_{n-1}
and U_n = -i int Heff_n. The integrand of each step is Heff_n itself, so
one pass of the recursion serves every order up to its last. The closed
forms obey U_n(0) = 0 and Heff_n(t) = i*hbar * dU_n/dt coefficient by
coefficient. All builders work symbolically on
:class:`~effham.series.OperatorSeries`, so evaluation at any time is exact
up to rounding.

When every carrier is distinct, dropping the oscillating content of
Heff2 leaves the commutator form ``sum_m [h_m, h_m^dag] / (hbar*w_m)``
(:func:`heff2_rwa`). For any order, :func:`heff_secular` extracts the
secular part in the indefinite-integral, time-averaged frame (James &
Jerke, Can. J. Phys. 85, 625 (2007)): the same recursion, with every
integral's lower-limit constants dropped. There a term's frequency is the
signed sum of its carriers, so zero-frequency content at order n comes
only from signed n-carrier sums that vanish; at order 3 these are the
three-sums the frequency report classes as "zero". The lower-limit
constants kept by :func:`heff_n_timedep` (so that U_n(0) = 0) would
instead pair a tone with its conjugate into zero-frequency terms that are
not Hermitian at third order. Zero-frequency terms of that frame with a
polynomial time dependence set ``secular_growth_flag`` instead of being
silently folded into a "time-independent" Hamiltonian.

The propagator terms ``U_1 .. U_n`` of the definite chain ride along on
each :class:`EffectiveOrderResult` as ``dyson_terms``, equal key for key to
:func:`dyson_terms`, so a caller that needs both the effective orders and
the propagator (the report) runs the recursion once. The builders build
series and measure nothing: the Hermiticity and unitarity defects on a
time grid are taken by :func:`~effham.diagnostics.run_report`, which
evaluates each order's series there once.

A build does each key's scalar work once. It converts the model to its
series once (:func:`dyson_terms` and :func:`dyson_term` take a model or
that series, and :func:`heff_n_timedep` hands its series on), and every
integral of the build, in both of :func:`heff_secular`'s chains, shares one
by-parts table (see :meth:`~effham.series.OperatorSeries.integrate_from_zero`),
so each distinct ``(frequency, power)`` key is integrated once per build.
No table outlives its build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrequencyConditionError, check_integer, check_orders, check_real
from .model import (
    HBAR,
    MAX_ORDER,
    MultiToneHamiltonian,
    check_threshold,
    frequency_report,
)
from .series import OperatorSeries
from .tones import TOL_ZERO

#: Factor ``1/(i*hbar)`` of one step of the Dyson recursion. Scaling by it
#: only swaps and negates real and imaginary parts, so it is exact.
_STEP = complex(0.0, -1.0 / HBAR)


def _drop_lower_limit_constants(I: OperatorSeries) -> OperatorSeries:
    """``I`` without its zero-frequency, power-0 key.

    For ``I = S.integrate_from_zero()`` that key is exactly the sum of the
    lower-limit constants, since zero-frequency input integrates to power
    >= 1; what is left is the indefinite integral.
    """
    keep = (I.freqs != 0.0) | (I.powers != 0)
    return OperatorSeries._of(I.dim, I.freqs[keep], I.powers[keep], I.coeffs[keep])


def _chain(S: OperatorSeries, N: int, indefinite: bool = False,
           table: dict | None = None) -> tuple[list[OperatorSeries], list[OperatorSeries]]:
    """Integrands ``[Heff_1, ..., Heff_N]`` and terms ``[U_1, ..., U_N]``.

    One step of the Dyson recursion per order: ``U_k = (1/(i*hbar)) int_0^t
    Heff_k`` and ``Heff_(k+1) = S * U_k``, from ``Heff_1 = S``. The chain
    makes N - 1 products and N integrals. If ``indefinite``, every integral
    drops its lower-limit constants and the terms stop at ``U_(N-1)``: only
    the integrands of that frame are read, so it makes N - 1 integrals. The
    integrals share ``table`` (a new one by default; see
    :meth:`OperatorSeries.integrate_from_zero`), so each distinct key is
    integrated once per build.
    """
    table = {} if table is None else table
    heffs, terms = [S], []
    for k in range(N - 1 if indefinite else N):
        integral = heffs[-1].integrate_from_zero(table=table)
        if indefinite:
            integral = _drop_lower_limit_constants(integral)
        terms.append(integral.scale(_STEP))
        if k < N - 1:
            heffs.append(S * terms[-1])
    return heffs, terms


def heff_n_timedep(H: MultiToneHamiltonian, n: int) -> OperatorSeries:
    """Order-n time-dependent effective Hamiltonian ``Heff_n = H * U_{n-1}``.

    ``H`` times the order-(n-1) propagator term, so that
    ``U_n = (1/(i*hbar)) int Heff_n``: the Reply's point that the iterative
    method is the Dyson series. It is the n-fold nested product
    ``(1/(i*hbar))**(n-1) H int H ... int H`` and evaluates to the zero
    matrix at t = 0 because every lower-limit constant of ``U_{n-1}`` is
    kept.
    """
    n = check_integer("order", n, 2, MAX_ORDER)
    S = H.to_operator_series()
    return S * dyson_term(S, n - 1)


def heff2_timedep(H: MultiToneHamiltonian) -> OperatorSeries:
    """Second-order product form ``(1/(i*hbar)) H(t) int_0^t H``."""
    return heff_n_timedep(H, 2)


def heff3_timedep(H: MultiToneHamiltonian) -> OperatorSeries:
    """Third-order nested-integral form."""
    return heff_n_timedep(H, 3)


def heff2_rwa(H: MultiToneHamiltonian) -> np.ndarray:
    """Commutator form ``sum_m [h_m, h_m^dag] / (hbar * w_m)``.

    Valid only when all carriers are pairwise distinct (the oscillating
    cross terms it drops are then far from resonance); it runs
    :func:`frequency_report` on ``H`` and raises
    :class:`FrequencyConditionError` when the report fails. Degenerate
    models should use :func:`heff_secular`, which keeps cross terms
    naturally.
    """
    if not frequency_report(H).passes:
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

    ``dyson_terms`` holds the propagator terms ``(U_1, ..., U_n)``, with
    ``U_k = (1/(i*hbar)) int_0^t Heff_k`` taken from the same definite
    chain as ``series``, and equal key for key to
    ``dyson_terms(H, n)``. The results of one :func:`heff_secular` call
    share prefixes of one tuple.
    """

    order: int
    series: OperatorSeries
    secular: np.ndarray
    secular_growth_flag: bool
    dyson_terms: tuple[OperatorSeries, ...]


def heff_secular(H: MultiToneHamiltonian, n, tol_zero: float = TOL_ZERO
                 ) -> EffectiveOrderResult | dict[int, EffectiveOrderResult]:
    """Order-n series plus its secular (non-oscillating, non-growing) part.

    ``n`` is one order, which gives its :class:`EffectiveOrderResult`, or a
    tuple (or list) of orders, which gives ``{order: EffectiveOrderResult}``
    for its distinct orders in ascending order. Every order is read off one
    definite and one indefinite Dyson chain up to the highest order N
    (``2 (N - 1)`` series products and ``2 N - 1`` integrals in all): the
    integrand ``Heff_n = H * U_{n-1}`` of the definite chain is ``series``,
    equal key for key to :func:`heff_n_timedep`, its terms ``U_1 .. U_n``
    are ``dyson_terms``, and ``secular`` and ``secular_growth_flag`` are
    read from ``H * V_{n-1}`` of the indefinite chain (see
    :class:`EffectiveOrderResult`); at order 3 its zero-frequency terms
    come only from three-carrier sums that the frequency report classes as
    "zero". A result does not depend on the other orders asked for.

    It builds and evaluates nothing else: a caller that measures ``series``
    on a time grid, as :func:`~effham.diagnostics.run_report` does,
    evaluates it there. Bad orders, and a ``tol_zero`` that is negative or
    not finite, raise :class:`OperatorValueError` before any build.
    """
    single = not isinstance(n, (tuple, list))
    orders = check_orders((n,) if single else n, MAX_ORDER)
    check_threshold("tol_zero", tol_zero)
    S, table = H.to_operator_series(), {}
    heffs, terms = _chain(S, orders[-1], table=table)
    terms = tuple(terms)
    averaged, _ = _chain(S, orders[-1], indefinite=True, table=table)
    results = {}
    for k in orders:
        results[k] = EffectiveOrderResult(
            order=k,
            series=heffs[k - 1],
            secular=averaged[k - 1].constant_part(tol_zero),
            secular_growth_flag=averaged[k - 1].has_secular_growth(tol_zero),
            dyson_terms=terms[:k],
        )
    return results[orders[0]] if single else results


def dyson_terms(H: MultiToneHamiltonian | OperatorSeries, N: int) -> list[OperatorSeries]:
    """Propagator terms ``[U_1(t), ..., U_N(t)]`` in closed form, from one pass
    of the Dyson recursion ``U_k = (1/(i*hbar)) int_0^t H U_{k-1}``. ``H`` is
    a model or its :meth:`~effham.model.MultiToneHamiltonian.to_operator_series`."""
    N = check_integer("order", N, 1, MAX_ORDER)
    return _chain(H if isinstance(H, OperatorSeries) else H.to_operator_series(), N)[1]


def dyson_term(H: MultiToneHamiltonian | OperatorSeries, n: int) -> OperatorSeries:
    """Order-n time-ordered propagator correction ``U_n(t)`` in closed form;
    ``H`` as for :func:`dyson_terms`."""
    return dyson_terms(H, n)[-1]


def dyson_truncated(H: MultiToneHamiltonian, N: int, t: float) -> np.ndarray:
    """``I + sum_{n=1..N} U_n(t)``: the truncated propagator expansion.

    Generally non-unitary away from t = 0; the defect shrinks with the
    coupling strength as lambda**(N+1). ``t`` must be finite, as for
    :func:`~effham.oracle.propagate_exact`, and is checked before any
    series is built.
    """
    check_real("time", t)
    out = np.eye(H.dim, dtype=complex)
    for U in dyson_terms(H, N):
        out += U.evaluate(t)
    return out
