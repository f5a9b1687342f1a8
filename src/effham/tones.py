"""Exact calculus on finite sums of ``c * t**k * exp(1j*Omega*t)``.

The class of scalar functions spanned by such monomials is closed under
multiplication, differentiation and definite integration from 0, which is
what makes closed-form construction of nested time-ordered integrals
possible. A :class:`TonePoly` is always held in canonical form: terms
sorted by (frequency, power), frequencies within ``TOL_ZERO`` of each
other merged (and snapped to exactly 0.0 near zero), and coefficients
below ``DROP_TOL`` relative to the largest one pruned. Both are module
constants: every constructor, product, sum, integral and derivative
canonicalizes with the same two.

Canonical terms are never canonicalized again. ``TonePoly._of`` takes
terms that are canonical already, as they are. The constructor snaps its
input triples (nonzero coefficients made complex, frequencies within
``TOL_ZERO`` of 0 set to 0.0) and a product snaps each product triple as
it forms it; either then canonicalizes once. The by-parts integral and
the derivative are each one loop over the terms. For a one-term
polynomial whose frequency is 0.0 or farther than ``TOL_ZERO`` from 0
(every series key is one), none of the monomials they emit share a key
or merge, so those are put in canonical order directly, the lower-limit
constant first for a positive frequency, and built into the canonical
tuple in one pass, not canonicalized.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

from .errors import PowerCapError

#: Frequencies closer than this (rad per unit time) count as equal; in
#: particular, anything within TOL_ZERO of 0 is treated as zero frequency.
TOL_ZERO = 1e-9

#: Relative coefficient threshold below which cancelled terms are pruned.
DROP_TOL = 1e-14

#: Hard cap on t-powers. Orders n <= 6 of the nested-integral builders
#: cannot exceed it; hitting it indicates runaway expansion.
POWER_CAP = 16


class ToneMono(NamedTuple):
    """One monomial ``coeff * t**power * exp(1j*freq*t)``.

    A named tuple ``(coeff, power, freq)``: immutable and hashable, with
    fields read by name or by position. Being a tuple, it also compares
    equal to a plain ``(coeff, power, freq)`` tuple of the same values.
    """

    coeff: complex
    power: int
    freq: float


# Builds a ToneMono from a triple at half the cost of calling the class.
_new_mono = tuple.__new__
_BY_KEY = itemgetter(0, 1)


def _canonicalize(snapped: list[tuple[float, int, complex]]) -> tuple[ToneMono, ...]:
    """Canonical terms of snapped ``(freq, power, coeff)`` triples, as
    :meth:`TonePoly.__init__` and :meth:`TonePoly.__mul__` form them: each
    coefficient nonzero and complex, each frequency a float snapped to 0.0
    within ``TOL_ZERO`` of 0. One sort by (frequency, power), then one pass
    that clusters and sums."""
    if not snapped:
        return ()
    snapped.sort(key=_BY_KEY)

    # Cluster frequencies by adjacency in the sorted order; the cluster
    # representative is its smallest member. Unless a cluster holds two
    # distinct frequencies, the sums come out in sorted key order.
    merged: dict[tuple[float, int], complex] = {}
    cluster_freq = snapped[0][0]
    regroup = False
    for freq, power, coeff in snapped:
        if freq != cluster_freq:
            if freq - cluster_freq > TOL_ZERO:
                cluster_freq = freq
            else:
                regroup = True
        key = (cluster_freq, power)
        merged[key] = merged.get(key, 0j) + coeff

    max_mag = max(map(abs, merged.values()))
    if max_mag == 0.0:
        return ()
    floor = DROP_TOL * max_mag
    items = sorted(merged.items()) if regroup else merged.items()
    return tuple([_new_mono(ToneMono, (coeff, power, freq))
                  for (freq, power), coeff in items if abs(coeff) > floor])


class TonePoly:
    """Canonical finite sum of tone monomials.

    Supports ``+``, ``-``, ``*`` (with scalars or other polynomials),
    definite integration from 0 (:meth:`integrate_from_zero`),
    differentiation (:meth:`derivative`) and evaluation by calling the
    instance. Instances are immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[complex, int, float]] = ()):
        snapped = [(0.0 if abs(freq) <= TOL_ZERO else float(freq), int(power), complex(coeff))
                   for coeff, power, freq in terms if coeff != 0]
        object.__setattr__(self, "terms", _canonicalize(snapped))
        for m in self.terms:
            if m.power > POWER_CAP:
                raise PowerCapError(f"power {m.power} exceeds cap {POWER_CAP}")

    @classmethod
    def _of(cls, terms: tuple[ToneMono, ...]) -> "TonePoly":
        """Polynomial of terms that are already canonical, taken as they are."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TonePoly is immutable")

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls) -> "TonePoly":
        return cls(())

    @classmethod
    def constant(cls, c: complex) -> "TonePoly":
        return cls((ToneMono(complex(c), 0, 0.0),))

    @classmethod
    def exponential(cls, freq: float, coeff: complex = 1.0, power: int = 0) -> "TonePoly":
        """``coeff * t**power * exp(1j*freq*t)``."""
        return cls((ToneMono(complex(coeff), int(power), float(freq)),))

    # ------------------------------------------------------------------
    # structure
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TonePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "TonePoly(0)"
        bits = []
        for m in self.terms:
            s = f"({m.coeff:.6g})"
            if m.power:
                s += f"*t^{m.power}"
            if m.freq:
                s += f"*e^({m.freq:.6g}it)"
            bits.append(s)
        return "TonePoly(" + " + ".join(bits) + ")"

    def max_abs_coeff(self) -> float:
        return max((abs(m.coeff) for m in self.terms), default=0.0)

    # ------------------------------------------------------------------
    # algebra
    def __add__(self, other: "TonePoly") -> "TonePoly":
        if not isinstance(other, TonePoly):
            return NotImplemented
        return TonePoly(self.terms + other.terms)

    def __sub__(self, other: "TonePoly") -> "TonePoly":
        return self + (other * -1.0)

    def __neg__(self) -> "TonePoly":
        return self * -1.0

    def __mul__(self, other) -> "TonePoly":
        if isinstance(other, TonePoly):
            if self.terms and other.terms:
                power = max(m.power for m in self.terms) + max(m.power for m in other.terms)
                if power > POWER_CAP:
                    raise PowerCapError(f"product power {power} exceeds cap {POWER_CAP}")
            # each triple snapped as it is formed, as __init__ would snap it
            return TonePoly._of(_canonicalize(
                [(0.0 if abs(f) <= TOL_ZERO else f, p1 + p2, c)
                 for c1, p1, f1 in self.terms for c2, p2, f2 in other.terms
                 if (c := c1 * c2) != 0 for f in (f1 + f2,)]))
        z = complex(other)
        return TonePoly([(c * z, p, f) for c, p, f in self.terms])

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # calculus
    def integrate_from_zero(self) -> "TonePoly":
        """Exact definite integral from 0 to t, as a polynomial in t.

        Zero-frequency monomials integrate to ``t**(k+1)/(k+1)``; for
        nonzero frequency the by-parts recurrence

            int_0^t s**k e^{iws} ds = t**k e^{iwt}/(iw) - (k/(iw)) * int_0^t s**(k-1) e^{iws} ds

        is applied, keeping every lower-limit constant so that the result
        evaluates to exactly 0 at t = 0.
        """
        out: list[tuple[complex, int, float]] = []
        for coeff, power, freq in self.terms:
            if freq == 0.0:
                out.append((coeff / (power + 1), power + 1, 0.0))
                continue
            osc, const = _integral_table(power, freq)
            out += [(coeff * c, k, freq) for c, k in osc]
            out.append((coeff * const, 0, 0.0))
        return self._derived(out)

    def derivative(self) -> "TonePoly":
        """Term-by-term ``d/dt``; exact left inverse of integrate_from_zero."""
        out = []
        for coeff, power, freq in self.terms:
            if power >= 1:
                out.append((coeff * power, power - 1, freq))
            if freq != 0.0:
                out.append((coeff * 1j * freq, power, freq))
        return self._derived(out)

    def _derived(self, out: list[tuple[complex, int, float]]) -> "TonePoly":
        """Polynomial of the monomials that :meth:`integrate_from_zero` or
        :meth:`derivative` emitted, term by term: at the term's frequency
        in ascending power, then any lower-limit constant at (0.0, 0).

        For one term whose frequency is 0.0 or farther than ``TOL_ZERO``
        from 0, as every series key's is, no two of these monomials share a
        key or merge, so they are taken in canonical order without
        :func:`_canonicalize`: the constant goes first for a positive
        frequency. As in that function, each coefficient is added to 0j and
        each frequency to 0.0, which turns a signed zero into +0.0, and
        coefficients below ``DROP_TOL`` of the largest are pruned, in the
        one pass that builds the terms.
        """
        freq = self.terms[0].freq if len(self.terms) == 1 else None
        if freq is None or not (freq == 0.0 or abs(freq) > TOL_ZERO):
            return TonePoly(out)
        if freq > 0.0 and out[-1][2] == 0.0:
            out.insert(0, out.pop())
        floor = DROP_TOL * max([abs(m[0]) for m in out], default=0.0)
        kept = tuple([_new_mono(ToneMono, (0j + c, k, f + 0.0))
                      for c, k, f in out if abs(c) > floor])
        # only the integral at frequency 0.0 raises a power, and it emits one term
        if kept and kept[-1].power > POWER_CAP:
            raise PowerCapError(f"power {kept[-1].power} exceeds cap {POWER_CAP}")
        return TonePoly._of(kept)

    # ------------------------------------------------------------------
    # evaluation and extraction
    def __call__(self, t):
        """Evaluate at scalar or array ``t``, summing in canonical order."""
        t_arr = np.asarray(t, dtype=float)
        acc = np.zeros(t_arr.shape, dtype=complex)
        for m in self.terms:
            term = m.coeff * np.exp(1j * m.freq * t_arr)
            if m.power:
                term = term * t_arr**m.power
            acc = acc + term
        if np.ndim(t) == 0:
            return complex(acc)
        return acc

    def secular_part(self, tol_zero: float = TOL_ZERO) -> "TonePoly":
        """Sub-polynomial with |freq| <= tol_zero (the non-oscillating content)."""
        return TonePoly(tuple(m for m in self.terms if abs(m.freq) <= tol_zero))

    def has_secular_growth(self, tol_zero: float = TOL_ZERO) -> bool:
        """True iff a zero-frequency monomial with power >= 1 is present."""
        return any(abs(m.freq) <= tol_zero and m.power >= 1 for m in self.terms)


def _integral_table(k: int, freq: float) -> tuple[list[tuple[complex, int]], complex]:
    """Oscillating coefficients and lower-limit constant of
    ``int_0^t s**k e^{i*freq*s} ds`` for ``freq != 0``.

    Returns ``(osc, const)`` where ``osc`` is a list of (coefficient,
    power) pairs multiplying ``exp(1j*freq*t)`` and ``const`` is the
    accumulated constant term.
    """
    iw = 1j * freq
    osc: list[tuple[complex, int]] = [(1.0 / iw, 0)]
    const: complex = -1.0 / iw
    for j in range(1, k + 1):
        osc = [(-(j / iw) * c, p) for c, p in osc]
        osc.append((1.0 / iw, j))
        const = -(j / iw) * const
    return osc, const


def _keyed_index(terms: tuple[ToneMono, ...], freqs, powers):
    """``(key_freqs, key_powers, index)``: the frequencies (float) and powers
    (int) of the canonical ``terms``, and the positions in ``terms`` that the
    monomials at ``freqs``/``powers`` (those the terms were built from,
    default tolerances) merged into, reading the terms once: a snapped
    frequency joins the largest cluster representative not above it."""
    rep = np.array([m.freq for m in terms], dtype=float)
    key_powers = np.array([m.power for m in terms], dtype=int)
    cluster = np.concatenate(([0], np.cumsum(np.diff(rep) != 0)))
    codes = cluster * (POWER_CAP + 1) + key_powers
    f = np.asarray(freqs, dtype=float)
    last = np.searchsorted(rep, np.where(np.abs(f) <= TOL_ZERO, 0.0, f), side="right") - 1
    return rep, key_powers, np.searchsorted(
        codes, cluster[last] * (POWER_CAP + 1) + np.asarray(powers))


def poly_allclose(p: TonePoly, q: TonePoly, rtol: float = 1e-11) -> bool:
    """Coefficient-level comparison of two canonical polynomials.

    The residual of ``p - q`` is measured against the largest coefficient
    of either operand.
    """
    scale = max(p.max_abs_coeff(), q.max_abs_coeff())
    if scale == 0.0:
        return True
    diff = TonePoly(p.terms + tuple((-c, k, f) for c, k, f in q.terms))
    return diff.max_abs_coeff() <= rtol * scale
