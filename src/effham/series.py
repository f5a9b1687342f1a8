"""Operator-valued tone series ``sum_k C_k t**p_k e^{i w_k t}``, keyed by ``(w, p)``.

An :class:`OperatorSeries` holds three arrays, ``freqs[K]``, ``powers[K]``
and ``coeffs[K, d, d]``, sorted by (frequency, power). Such envelopes are
closed under products, derivatives and integrals from 0, which is what
lets the nested-integral builders produce closed forms. The scalar rules
(zero snapping, frequency clustering, the power cap, the by-parts
integral) live in :class:`~effham.tones.TonePoly` alone. Construction,
sums and products take the keys of their result from ``TonePoly`` and
only sum matrices. Integrals and derivatives take each key's monomials
from ``TonePoly`` and group the output keys exactly: such a monomial keeps
its key's frequency or has frequency 0.0, and canonical frequencies lie
more than ``TOL_ZERO`` apart, so clustering them again would change nothing.
An integral takes a ``table`` that maps a key to the terms ``TonePoly``
gave its unit monomial, and maps only the keys it lacks: the builders pass
one by-parts table to every integral of a build, so a build integrates
each distinct key once (a table lives no longer than its build).
A series' own keys are canonical and are never canonicalized again: they
reach ``TonePoly`` through its trusted constructor ``TonePoly._of``, one
key at a time for an integral or a derivative, whose rules put a single
key's monomials in canonical order directly. So an integral or a
derivative canonicalizes nothing and a product only the product of its
two key sets, once.
Keys whose matrix cancels below ``DROP_TOL`` of the largest are dropped;
when squaring the entries would overflow, the norms are taken of the
matrices divided by their largest real or imaginary part, so the rule
holds at any finite size.
A coefficient that is not finite, after a sum, a product or :meth:`OperatorSeries.scale`,
raises :class:`SeriesOverflowError`; an entry matrix with a non-finite entry
(NaN or infinite) raises :class:`OperatorValueError`, by the rule of
:func:`~effham.operators.as_operator`.
Stored keys and the key pairs of one product are guarded by a budget
(default 2_000_000, overridable via ``EFFHAM_MAX_TERMS``).
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import Iterable

import numpy as np

from .errors import (DimensionMismatchError, OperatorValueError, SeriesOverflowError,
                     TermBudgetError)
from .tones import DROP_TOL, TOL_ZERO, ToneMono, TonePoly, _keyed_index, _new_mono

#: Default budget for stored keys and for the key pairs of one product.
MAX_TERMS = 2_000_000

# A unit coefficient as a canonical term holds it: complex.
_ONE = 1 + 0j

_NOT_FINITE = ("a series coefficient is not finite: the couplings drive a sum, "
               "product or multiple of series out of the float range")


def term_budget() -> int:
    """Active budget: ``EFFHAM_MAX_TERMS`` if set, else :data:`MAX_TERMS`.

    Raises :class:`TermBudgetError` if the variable is not an integer >= 1.
    """
    raw = os.environ.get("EFFHAM_MAX_TERMS")
    if raw is None:
        return MAX_TERMS
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise TermBudgetError(f"EFFHAM_MAX_TERMS must be an integer >= 1, got {raw!r}")
    return budget


def _check_budget(count: int, what: str) -> None:
    budget = term_budget()
    if count > budget:
        raise TermBudgetError(
            f"{what} ({count}) exceeds the budget ({budget}); "
            "raise EFFHAM_MAX_TERMS to override"
        )


def _key_poly(freqs, powers) -> TonePoly:
    """Unit-coefficient polynomial whose terms are the canonical keys of
    the monomials at ``freqs``/``powers``."""
    return TonePoly(ToneMono(1.0, int(k), float(f)) for f, k in zip(freqs, powers))


def _unit_keys(freqs: np.ndarray, powers: np.ndarray) -> TonePoly:
    """Unit-coefficient polynomial of a series' own keys, which are
    canonical already and so are not canonicalized again."""
    return TonePoly._of(tuple([_new_mono(ToneMono, (_ONE, k, f))
                               for f, k in zip(freqs.tolist(), powers.tolist())]))


def _sum_keys(dim: int, key_freqs: np.ndarray, key_powers: np.ndarray, index, mats):
    """``(freqs, powers, coeffs)`` of the keys ``key_freqs``/``key_powers``,
    each the sum of the ``mats[i]`` with ``index[i]`` at it, in input order;
    keys that cancel below ``DROP_TOL`` of the largest are dropped. A
    coefficient that is not finite raises :class:`SeriesOverflowError`.

    The index is flat: entry ``j`` of ``mats[i]`` goes to position
    ``index[i] * d**2 + j`` of the raveled coefficients, since numpy's fast
    indexed ``ufunc.at`` loop takes only a 1-D operand with one 1-D index;
    a ``(K, d**2)`` operand takes the generic loop, about 4 times slower at
    420 monomials into 154 keys at d = 6, though a few microseconds faster
    below about ten monomials. The sums are those of the 2-D form, in the
    same order: each entry adds its monomials in input order, from 0."""
    _check_budget(len(key_freqs), "series keys")
    size = dim * dim
    coeffs = np.zeros((len(key_freqs), size), dtype=complex)
    flat = (np.asarray(index, dtype=np.intp)[:, None] * size + np.arange(size)).ravel()
    # an overflow shows as a norm that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(coeffs.reshape(-1), flat, np.reshape(mats, -1))  # a view: coeffs is contiguous
        norms = np.linalg.norm(coeffs, axis=1)
    top = norms.max(initial=0.0)
    if not top < np.inf:
        # squared entries overflow: take the norms of the coefficients
        # divided by their largest real or imaginary part, if all are finite
        if not np.isfinite(coeffs).all():
            raise SeriesOverflowError(_NOT_FINITE)
        norms = np.linalg.norm(coeffs / np.abs(coeffs.view(float)).max(), axis=1)
        top = norms.max()
    keep = norms > DROP_TOL * top
    return key_freqs[keep], key_powers[keep], coeffs[keep].reshape(-1, dim, dim)


def _gather(dim: int, freqs, powers, mats, keys: TonePoly | None = None):
    """``(freqs, powers, coeffs)`` of the sum of the monomials
    ``mats[i] t**powers[i] e^{i freqs[i] t}``, whose keys are the terms of
    ``keys`` (default: their key polynomial)."""
    if keys is None:
        keys = _key_poly(freqs, powers)
    return _sum_keys(dim, *_keyed_index(keys.terms, freqs, powers), mats)


def _group(dim: int, freqs: np.ndarray, powers: np.ndarray, mats: np.ndarray):
    """As :func:`_gather`, for monomials whose keys are equal exactly when
    they merge: no snapping or clustering, only a sort and a grouping of
    equal neighbours."""
    order = np.lexsort((powers, freqs))
    f, k = freqs[order], powers[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (f[1:] != f[:-1]) | (k[1:] != k[:-1])
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return _sum_keys(dim, f[first], k[first], index, mats)


class _KeyView(Sequence):
    """Read-only ``(coefficient matrix, unit monomial)`` pair per key."""

    def __init__(self, series: "OperatorSeries"):
        self._series = series

    def __len__(self) -> int:
        return self._series.term_count

    def __getitem__(self, k: int):
        S = self._series
        return S.coeffs[k], _unit_keys(S.freqs[k:k + 1], S.powers[k:k + 1])


class OperatorSeries:
    """Immutable operator-valued function of time."""

    __slots__ = ("dim", "freqs", "powers", "coeffs")

    def __init__(self, dim: int, entries: Iterable[tuple[np.ndarray, TonePoly]] = ()):
        dim = int(dim)
        freqs, powers, mats = [], [], []
        for A, p in entries:
            A = np.asarray(A, dtype=complex)
            if A.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"series entry has shape {A.shape}, expected ({dim}, {dim})"
                )
            if not np.isfinite(A).all():
                raise OperatorValueError("series entry has non-finite entries")
            for m in p.terms:
                freqs.append(m.freq)
                powers.append(m.power)
                mats.append(m.coeff * A)
        self._set(dim, *_gather(dim, freqs, powers, mats))

    def _set(self, dim: int, freqs: np.ndarray, powers: np.ndarray, coeffs: np.ndarray) -> None:
        for name, value in (("freqs", freqs), ("powers", powers), ("coeffs", coeffs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def _of(cls, dim: int, freqs: np.ndarray, powers: np.ndarray, coeffs: np.ndarray) -> "OperatorSeries":
        """Series of already canonical key arrays."""
        out = object.__new__(cls)
        out._set(dim, freqs, powers, coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSeries is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "OperatorSeries":
        return cls(dim, ())

    @classmethod
    def constant(cls, M: np.ndarray) -> "OperatorSeries":
        M = np.asarray(M, dtype=complex)
        return cls(M.shape[0], ((M, TonePoly.constant(1.0)),))

    @property
    def entries(self) -> Sequence[tuple[np.ndarray, TonePoly]]:
        """Per-key ``(coefficient matrix, unit monomial)`` view."""
        return _KeyView(self)

    @property
    def term_count(self) -> int:
        """Number of stored ``(frequency, power)`` keys."""
        return len(self.freqs)

    @property
    def is_zero(self) -> bool:
        return not len(self.freqs)

    def __repr__(self) -> str:
        return f"OperatorSeries(dim={self.dim}, keys={self.term_count})"

    # ------------------------------------------------------------------
    # algebra
    def __add__(self, other: "OperatorSeries") -> "OperatorSeries":
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"cannot add series of dims {self.dim} and {other.dim}"
            )
        return OperatorSeries._of(self.dim, *_gather(
            self.dim,
            np.concatenate([self.freqs, other.freqs]),
            np.concatenate([self.powers, other.powers]),
            np.concatenate([self.coeffs, other.coeffs]),
        ))

    def scale(self, z: complex) -> "OperatorSeries":
        """Series times the number ``z``; a coefficient driven out of the
        float range raises :class:`SeriesOverflowError`."""
        if z == 0:
            return OperatorSeries.zero(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = self.coeffs * z
        # a real or imaginary factor of modulus <= 1 (the Dyson step, -1)
        # takes no entry out of the float range
        w = complex(z)
        if not (abs(w) <= 1 and 0.0 in (w.real, w.imag)) and not np.isfinite(coeffs).all():
            raise SeriesOverflowError(_NOT_FINITE)
        return OperatorSeries._of(self.dim, self.freqs, self.powers, coeffs)

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        """Pointwise-in-time operator product (left factor first)."""
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"cannot multiply series of dims {self.dim} and {other.dim}"
            )
        _check_budget(self.term_count * other.term_count, "series product key pairs")
        keys = _unit_keys(self.freqs, self.powers) * _unit_keys(other.freqs, other.powers)
        return OperatorSeries._of(self.dim, *_gather(
            self.dim,
            np.add.outer(self.freqs, other.freqs).ravel(),
            np.add.outer(self.powers, other.powers).ravel(),
            np.einsum("iab,jbc->ijac", self.coeffs, other.coeffs),
            keys,
        ))

    # ------------------------------------------------------------------
    # calculus
    def _termwise(self, op, table: dict) -> "OperatorSeries":
        """Apply the scalar map ``op`` to each key's unit monomial.

        ``table`` maps a key ``(frequency, power)`` to the terms ``op`` gave
        its unit monomial; a key found there is not mapped again, and a key
        mapped here is added. ``op`` (an integral or a derivative) keeps a
        key's frequency or gives exactly 0.0, and canonical frequencies lie
        more than ``TOL_ZERO`` apart, so the output keys are grouped exactly."""
        monos, counts = [], []
        for key in zip(self.freqs.tolist(), self.powers.tolist()):
            terms = table.get(key)
            if terms is None:
                f, k = key
                terms = table[key] = op(TonePoly._of((ToneMono(_ONE, k, f),))).terms
            monos += terms
            counts.append(len(terms))
        scalars, powers, freqs = zip(*monos) if monos else ((), (), ())
        mats = (np.array(scalars, dtype=complex)[:, None, None]
                * np.repeat(self.coeffs, counts, axis=0))
        return OperatorSeries._of(self.dim, *_group(
            self.dim, np.array(freqs, dtype=float), np.array(powers, dtype=int), mats))

    def integrate_from_zero(self, table: dict | None = None) -> "OperatorSeries":
        """Exact integral from 0 to t. ``table`` (see :meth:`_termwise`)
        holds the by-parts terms of keys integrated before; a build passes
        one dict to all its integrals, so each distinct key is integrated
        once."""
        return self._termwise(TonePoly.integrate_from_zero, {} if table is None else table)

    def derivative(self) -> "OperatorSeries":
        """Term-by-term ``d/dt``."""
        return self._termwise(TonePoly.derivative, {})

    # ------------------------------------------------------------------
    # evaluation and extraction
    def evaluate(self, t: float) -> np.ndarray:
        """Value at ``t``: the one-row case of :meth:`evaluate_grid`."""
        return self.evaluate_grid(t)[0]

    def evaluate_grid(self, ts, index=None) -> np.ndarray:
        """Value at each time of ``ts`` (any shape, flattened, as the model
        takes it), in shape (size, dim, dim).

        ``index``, a 1-D array of flat positions ``row * dim + col``, gives
        those entries only, in shape (size, len(index)): those columns of
        the whole values."""
        ts = np.asarray(ts, dtype=float).ravel()
        envelopes = np.exp(1j * np.outer(ts, self.freqs)) * ts[:, None] ** self.powers
        # tensordot's own product on the (K, d * d) view, without its overhead
        d, K = self.dim, len(self.coeffs)
        values = np.dot(envelopes, self.coeffs.reshape(K, d * d))
        # the product over the given columns alone would run other complex
        # BLAS kernels, whose sums differ in the last bits
        return values.reshape(-1, d, d) if index is None else values[:, index]

    @property
    def support(self) -> np.ndarray:
        """``(dim, dim)`` boolean array of the entries that are nonzero in
        some value: those with a nonzero coefficient at some key. An entry
        outside it is zero at every time, and shares its envelopes with the
        entries inside it."""
        return np.any(self.coeffs != 0, axis=0)

    def secular_series(self, tol_zero: float = TOL_ZERO) -> "OperatorSeries":
        """Sub-series with zero-frequency envelopes only."""
        keep = np.abs(self.freqs) <= tol_zero
        return OperatorSeries._of(self.dim, self.freqs[keep], self.powers[keep], self.coeffs[keep])

    def constant_part(self, tol_zero: float = TOL_ZERO) -> np.ndarray:
        """Time-independent (zero-frequency, power-0) content as a matrix."""
        return self.coeffs[(np.abs(self.freqs) <= tol_zero) & (self.powers == 0)].sum(axis=0)

    def has_secular_growth(self, tol_zero: float = TOL_ZERO) -> bool:
        return bool(np.any((np.abs(self.freqs) <= tol_zero) & (self.powers >= 1)))

    def monomial_table(self) -> dict[tuple[float, int], np.ndarray]:
        """Coefficient matrix of each monomial ``t**k e^{i w t}``, keyed ``(w, k)``."""
        return {(float(f), int(k)): C for f, k, C in zip(self.freqs, self.powers, self.coeffs)}


def series_residual(left: OperatorSeries, right: OperatorSeries) -> tuple[float, float]:
    """Key-level distance between two series.

    Returns ``(residual, scale)`` where ``residual`` is the largest
    Frobenius norm over the keys of ``left - right`` and ``scale`` the
    largest over the keys of either operand. Two series agree to relative
    tolerance r iff ``residual <= r * scale``.
    """
    def largest(S: OperatorSeries) -> float:
        return float(np.linalg.norm(S.coeffs, axis=(1, 2)).max(initial=0.0))

    return largest(left + right.scale(-1.0)), max(largest(left), largest(right))
