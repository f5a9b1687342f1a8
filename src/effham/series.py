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
A product's key pairs and an integral's or a derivative's monomials are
the only allocations that can outgrow their operands: before either is
formed, its projected bytes are checked against ``errors.BYTE_BUDGET``, and
past it :class:`TermBudgetError` is raised. A sum or a constructor holds no
more than its inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable

import numpy as np

from . import errors
from .errors import (DimensionMismatchError, OperatorValueError, SeriesOverflowError,
                     TermBudgetError, check_integer)
from .tones import DROP_TOL, TOL_ZERO, ToneMono, TonePoly, _keyed_index, _new_mono

#: Projected peak bytes of a series product, integral or derivative: per
#: formed monomial (a key pair of a product), ``_SERIES_BYTES_PER_ENTRY``
#: per matrix entry and ``_SERIES_BYTES_PER_MONOMIAL`` of bookkeeping (the
#: Python keys, the key table and the frequency, power and index arrays),
#: both from tracemalloc peaks, rounded up. Per entry, 51.3 B: a product of
#: 40 x 40 keys whose pairs all stay apart at d = 8 (the pairs' matrices, the
#: summed keys and the norms' temporary, 16 B each), 48.8 B at d = 16. Per
#: monomial, the largest peak less ``d * d * 52`` at d = 1 to 8, 449 B: a
#: derivative of 176,000 keys into one monomial each at d = 1; a product's
#: pairs took at most 285 B and an integral's monomials 315 B.
_SERIES_BYTES_PER_ENTRY = 52
_SERIES_BYTES_PER_MONOMIAL = 480

# A unit coefficient as a canonical term holds it: complex.
_ONE = 1 + 0j

_NOT_FINITE = ("a series coefficient is not finite: the couplings drive a sum, "
               "product or multiple of series out of the float range")


def _series_bytes(count: int, dim: int) -> int:
    """Projected peak bytes of forming ``count`` monomials of dimension ``dim``."""
    return count * (dim * dim * _SERIES_BYTES_PER_ENTRY + _SERIES_BYTES_PER_MONOMIAL)


def _check_bytes(count: int, what: str, dim: int) -> None:
    """Refuse ``count`` monomials (``what``) of dimension ``dim`` whose
    projected bytes pass ``errors.BYTE_BUDGET``, before they are formed."""
    if (need := _series_bytes(count, dim)) > errors.BYTE_BUDGET:
        raise TermBudgetError(f"{count} {what} at dim {dim} would take about {need} bytes, "
                              f"over the budget of {errors.BYTE_BUDGET} bytes")


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
    size = dim * dim
    coeffs = np.zeros((len(key_freqs), size), dtype=complex)
    # an overflow shows as a norm that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # coeffs is contiguous, so its reshape is a view; the flat index is
        # a temporary, freed before the norms take their own
        np.add.at(coeffs.reshape(-1),
                  (np.asarray(index, dtype=np.intp)[:, None] * size + np.arange(size)).ravel(),
                  np.reshape(mats, -1))
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
    """Immutable operator-valued function of time.

    ``dim`` is an integer >= 1, by the rule of :func:`errors.check_integer`.
    """

    __slots__ = ("dim", "freqs", "powers", "coeffs")

    def __init__(self, dim: int, entries: Iterable[tuple[np.ndarray, TonePoly]] = ()):
        dim = check_integer("dim", dim, 1)
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
        _check_bytes(self.term_count * other.term_count, "key pairs of a product", self.dim)
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
        _check_bytes(len(monos), f"monomials of {op.__name__}", self.dim)
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
