import numpy as np
import pytest
from scipy.integrate import quad

from effham import POWER_CAP, TOL_ZERO, PowerCapError, ToneMono, TonePoly, poly_allclose
from effham.tones import DROP_TOL, _integral_table


def random_poly(rng, n_terms=10, max_power=3, freq_scale=5.0, coeff_scale=10.0):
    terms = [
        ToneMono(
            complex(rng.normal(), rng.normal()) * coeff_scale,
            int(rng.integers(0, max_power + 1)),
            float(rng.normal() * freq_scale),
        )
        for _ in range(n_terms)
    ]
    return TonePoly(terms)


def quad_integral(p, t):
    """Independent oracle: adaptive quadrature of the evaluated polynomial."""
    re = quad(lambda s: p(s).real, 0.0, t, epsabs=1e-12, limit=400)[0]
    im = quad(lambda s: p(s).imag, 0.0, t, epsabs=1e-12, limit=400)[0]
    return complex(re, im)


# ----------------------------------------------------------------------
# multiplication


def test_mul_conjugate_pair_collapses():
    p = TonePoly.exponential(4.0)
    q = TonePoly.exponential(-4.0)
    prod = p * q
    assert prod.terms == (ToneMono(1.0 + 0j, 0, 0.0),)


def test_mul_adds_powers():
    t = TonePoly.exponential(0.0, power=1)
    te2 = TonePoly.exponential(2.0, power=1)
    prod = t * te2
    assert prod.terms == (ToneMono(1.0 + 0j, 2, 2.0),)


def test_mul_distributes():
    p = TonePoly.exponential(3.0, coeff=2.0) + TonePoly.constant(1.0)
    q = TonePoly.exponential(-3.0)
    prod = p * q
    assert prod == TonePoly.constant(2.0) + TonePoly.exponential(-3.0)


def test_mul_commutative_and_associative(rng):
    for _ in range(10):
        p = random_poly(rng, 4)
        q = random_poly(rng, 4)
        r = random_poly(rng, 3)
        assert poly_allclose(p * q, q * p, rtol=1e-13)
        assert poly_allclose((p * q) * r, p * (q * r), rtol=1e-12)


def test_mul_power_overflow():
    high = TonePoly.exponential(1.0, power=POWER_CAP - 1)
    with pytest.raises(PowerCapError):
        _ = high * high


# ----------------------------------------------------------------------
# integration


def test_integral_of_pure_exponential():
    w = 3.0
    p = TonePoly.exponential(w)
    result = p.integrate_from_zero()
    iw = 1j * w
    assert result == TonePoly((ToneMono(-1 / iw, 0, 0.0), ToneMono(1 / iw, 0, w)))


def test_integral_of_constant():
    assert TonePoly.constant(1.0).integrate_from_zero().terms == (
        ToneMono(1.0 + 0j, 1, 0.0),
    )


def test_integral_matches_quadrature_frozen_case():
    # int_0^1.3 s e^{2is} ds, adaptive-quadrature oracle
    p = TonePoly.exponential(2.0, power=1)
    value = p.integrate_from_zero()(1.3)
    assert abs(value - quad_integral(p, 1.3)) < 1e-10


def test_integral_matches_quadrature_random(rng):
    for _ in range(10):
        p = random_poly(rng, 6, coeff_scale=10.0)
        t = float(rng.uniform(0.1, 20.0))
        closed = p.integrate_from_zero()(t)
        assert abs(closed - quad_integral(p, t)) < 1e-9


def test_integral_vanishes_at_zero_exactly_per_monomial(rng):
    # the oscillating power-0 coefficient and the lower-limit constant are
    # exact negations, so a single monomial cancels bitwise at t = 0
    for _ in range(20):
        p = random_poly(rng, 1)
        assert p.integrate_from_zero()(0.0) == 0j


def test_integral_vanishes_at_zero_to_roundoff(rng):
    # canonical form regroups constants across monomials, so multi-term
    # inputs cancel only up to float reassociation
    for _ in range(20):
        p = random_poly(rng, 8)
        q = p.integrate_from_zero()
        assert abs(q(0.0)) <= 1e-13 * max(1.0, q.max_abs_coeff())


# ----------------------------------------------------------------------
# differentiation


def test_derivative_of_linear():
    assert TonePoly.exponential(0.0, power=1).derivative() == TonePoly.constant(1.0)


def test_derivative_of_exponential():
    w = 2.5
    assert TonePoly.exponential(w).derivative() == TonePoly.exponential(w, coeff=1j * w)


def test_derivative_inverts_integral(rng):
    for _ in range(20):
        p = random_poly(rng, 10)
        assert poly_allclose(p.integrate_from_zero().derivative(), p, rtol=1e-13)


# ----------------------------------------------------------------------
# evaluation


def test_eval_phase_cancellation():
    p = TonePoly.constant(1.0) + TonePoly.exponential(np.pi)
    assert abs(p(1.0)) < 1e-15


def test_eval_power():
    assert TonePoly.exponential(0.0, power=2)(3.0) == pytest.approx(9.0)


def test_eval_matches_naive_sum(rng):
    for _ in range(10):
        p = random_poly(rng, 20)
        t = float(rng.uniform(-5, 5))
        naive = sum(m.coeff * t**m.power * np.exp(1j * m.freq * t) for m in p.terms)
        assert abs(p(t) - naive) <= 1e-13 * max(1.0, abs(naive))


def test_eval_vectorized(rng):
    p = random_poly(rng, 8)
    ts = np.linspace(0, 3, 7)
    grid = p(ts)
    assert grid.shape == ts.shape
    assert np.allclose(grid, [p(float(t)) for t in ts])


# ----------------------------------------------------------------------
# secular extraction


def test_secular_keeps_constant():
    p = TonePoly.constant(3.0) + TonePoly.exponential(5.0)
    assert p.secular_part() == TonePoly.constant(3.0)


def test_secular_of_pure_oscillation_is_empty():
    p = TonePoly.exponential(5.0) - TonePoly.exponential(-5.0)
    assert p.secular_part().is_zero


def test_secular_keeps_zero_frequency_powers():
    p = TonePoly.exponential(0.0, coeff=2.0, power=1) + TonePoly.exponential(0.5, power=1)
    assert p.secular_part(1e-9) == TonePoly.exponential(0.0, coeff=2.0, power=1)
    assert p.has_secular_growth()


# ----------------------------------------------------------------------
# canonical form


def test_canonicalization_idempotent(rng):
    for _ in range(20):
        p = random_poly(rng, 12)
        assert TonePoly(p.terms) == p


def test_canonicalization_merges_close_frequencies():
    p = TonePoly([ToneMono(1.0, 0, 1.0), ToneMono(1.0, 0, 1.0 + 1e-12)])
    assert len(p) == 1
    assert p.terms[0].coeff == 2.0 + 0j


def test_canonicalization_snaps_tiny_frequency_to_zero():
    p = TonePoly([ToneMono(1.0, 0, 1e-12)])
    assert p.terms[0].freq == 0.0


def test_canonicalization_drops_cancelled_terms():
    p = TonePoly([ToneMono(1.0, 0, 2.0), ToneMono(-1.0, 0, 2.0), ToneMono(0.5, 1, 0.0)])
    assert p.terms == (ToneMono(0.5 + 0j, 1, 0.0),)


def test_deterministic_ordering(rng):
    terms = [
        ToneMono(1.0, 1, 2.0),
        ToneMono(1.0, 0, -3.0),
        ToneMono(1.0, 0, 2.0),
        ToneMono(1.0, 2, 0.0),
    ]
    p = TonePoly(terms)
    q = TonePoly(list(reversed(terms)))
    assert p == q
    assert [m.freq for m in p.terms] == sorted(m.freq for m in p.terms)


def test_power_cap_enforced():
    with pytest.raises(PowerCapError):
        TonePoly([ToneMono(1.0, POWER_CAP + 1, 0.0)])


# ----------------------------------------------------------------------
# reference canonicalizer


def reference_canonicalize(terms, tol_zero, drop_tol):
    """The dict-of-clusters canonicalizer the one-sort version replaced,
    kept verbatim as the reference."""
    snapped = []
    for m in terms:
        if m.coeff == 0:
            continue
        freq = 0.0 if abs(m.freq) <= tol_zero else float(m.freq)
        snapped.append((freq, int(m.power), complex(m.coeff)))
    if not snapped:
        return ()
    snapped.sort(key=lambda x: (x[0], x[1]))

    # Cluster frequencies by adjacency in the sorted order; the cluster
    # representative is its smallest member.
    merged: dict[tuple[float, int], complex] = {}
    cluster_freq = snapped[0][0]
    for freq, power, coeff in snapped:
        if freq - cluster_freq > tol_zero:
            cluster_freq = freq
        key = (cluster_freq, power)
        merged[key] = merged.get(key, 0j) + coeff

    max_mag = max(abs(c) for c in merged.values())
    if max_mag == 0.0:
        return ()
    floor = drop_tol * max_mag
    out = [
        ToneMono(coeff, power, freq)
        for (freq, power), coeff in merged.items()
        if abs(coeff) > floor
    ]
    out.sort(key=lambda m: (m.freq, m.power))
    return tuple(out)


def edge_terms(rng, n_terms):
    """Monomials on a small frequency lattice with offsets just inside and
    just outside TOL_ZERO (also around 0), exact and near cancellations,
    and zero coefficients."""
    offsets = np.array([0.0, 0.4, 0.6, 0.99, 1.01, 1.5, 2.2]) * TOL_ZERO
    terms = []
    for _ in range(n_terms):
        base = float(rng.integers(-2, 3)) * 0.5
        freq = base + float(rng.choice(offsets)) * float(rng.choice([-1.0, 1.0]))
        power = int(rng.integers(0, 3))
        coeff = complex(rng.normal(), rng.normal())
        kind = rng.integers(0, 6)
        if kind == 0:
            terms.append(ToneMono(-coeff, power, freq))
        elif kind == 1:
            terms.append(ToneMono(-coeff * (1 - 1e-15), power, freq))
        elif kind == 2:
            coeff = 0j
        terms.append(ToneMono(coeff, power, freq))
    return terms


def test_canonicalize_matches_reference(rng):
    for trial in range(300):
        terms = edge_terms(rng, int(rng.integers(0, 14)))
        rng.shuffle(terms)
        expected = reference_canonicalize(terms, TOL_ZERO, DROP_TOL)
        got = TonePoly(terms).terms
        assert got == expected, trial
        assert [type(c) for m in got for c in m] == [type(c) for m in expected for c in m]


def test_canonicalize_matches_reference_on_random_polys(rng):
    for _ in range(50):
        p = random_poly(rng, 8, freq_scale=1e-8)
        q = random_poly(rng, 8)
        terms = (p * q).terms + p.integrate_from_zero().terms + (p * q).derivative().terms
        assert TonePoly(terms).terms == reference_canonicalize(terms, TOL_ZERO, 1e-14)


def test_cluster_representative_is_smallest_member():
    # gaps of 6e-10 chain 1.0 to 1.0 + 1.2e-9, which is more than TOL_ZERO
    # from the representative 1.0, so it starts a cluster of its own
    assert TOL_ZERO == 1e-9
    terms = [ToneMono(1.0, 0, 1.0), ToneMono(1.0, 0, 1.0 + 6e-10), ToneMono(1.0, 0, 1.0 + 1.2e-9)]
    for order in (terms, terms[::-1]):
        p = TonePoly(order)
        assert [m.freq for m in p.terms] == [1.0, 1.0 + 1.2e-9]
        assert [m.coeff for m in p.terms] == [2.0, 1.0]


def test_cluster_with_distinct_frequencies_keeps_sorted_keys():
    # the power-1 key of 1.0 sorts before the power-0 key of 1.0 + 5e-10,
    # which merges into the power-0 key of 1.0
    p = TonePoly([ToneMono(1.0, 1, 1.0), ToneMono(2.0, 0, 1.0 + 5e-10), ToneMono(3.0, 0, 4.0)])
    assert p.terms == (ToneMono(2.0, 0, 1.0), ToneMono(1.0, 1, 1.0), ToneMono(3.0, 0, 4.0))


def test_poly_is_immutable_and_shows_its_terms():
    p = TonePoly([ToneMono(2.0, 1, 1.5), ToneMono(0.5j, 0, 0.0)])
    with pytest.raises(AttributeError, match="immutable"):
        p.terms = ()
    assert repr(p) == "TonePoly((0+0.5j) + (2+0j)*t^1*e^(1.5it))"
    assert repr(TonePoly.zero()) == "TonePoly(0)"


def test_poly_equality_and_hash():
    p = TonePoly.exponential(2.0, 3.0, 1)
    q = TonePoly([ToneMono(3.0, 1, 2.0)])
    assert p == q and hash(p) == hash(q)
    assert len({p, q, TonePoly.constant(1.0)}) == 2
    assert p.__eq__(3.0) is NotImplemented
    assert p != "p"
    assert p.__add__(1.0) is NotImplemented
    with pytest.raises(TypeError):
        p + 1.0


def test_poly_allclose_of_zero_polys():
    assert poly_allclose(TonePoly.zero(), TonePoly.zero())
    assert not poly_allclose(TonePoly.zero(), TonePoly.constant(1e-3))


# ----------------------------------------------------------------------
# ToneMono contract


def test_tone_mono_fields_by_name_and_position():
    m = ToneMono(2.0 - 1j, 3, 1.5)
    assert (m.coeff, m.power, m.freq) == (2.0 - 1j, 3, 1.5)
    assert (m[0], m[1], m[2]) == (2.0 - 1j, 3, 1.5)
    coeff, power, freq = m
    assert (coeff, power, freq) == (2.0 - 1j, 3, 1.5)
    assert repr(m) == "ToneMono(coeff=(2-1j), power=3, freq=1.5)"


def test_tone_mono_is_immutable_and_hashable():
    m = ToneMono(1.0, 0, 2.0)
    for name in ("coeff", "power", "freq"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert hash(m) == hash(ToneMono(1.0, 0, 2.0))
    assert len({m, ToneMono(1.0, 0, 2.0), ToneMono(1.0, 1, 2.0)}) == 2
    # the one difference from the frozen dataclass it replaced
    assert m == (1.0, 0, 2.0)


def test_operation_terms_are_tone_monos(rng):
    p, q = random_poly(rng, 5), random_poly(rng, 4)
    for r in (p * q, p * 2j, -p, p + q, p - q, p.integrate_from_zero(), p.derivative(),
              p.secular_part(), TonePoly.exponential(2.0, 3.0, 1), TonePoly.constant(1.5)):
        assert all(type(m) is ToneMono for m in r.terms)
        assert r.terms == tuple(ToneMono(m.coeff, m.power, m.freq) for m in r.terms)
    assert TonePoly.exponential(2.0, 3.0, 1).terms == (ToneMono(3.0 + 0j, 1, 2.0),)
    assert (TonePoly.exponential(1.0) * TonePoly.exponential(2.0, power=2)).terms == (
        ToneMono(1.0 + 0j, 2, 3.0),)


# ----------------------------------------------------------------------
# reference route of one-term integrals and derivatives


def reference_integrate(p):
    """``TonePoly.integrate_from_zero`` as it was before one-term polynomials
    skipped the canonicalizer, kept verbatim as the reference."""
    out = []
    for coeff, power, freq in p.terms:
        if freq == 0.0:
            out.append((coeff / (power + 1), power + 1, 0.0))
            continue
        osc, const = _integral_table(power, freq)
        for c, k in osc:
            out.append((coeff * c, k, freq))
        out.append((coeff * const, 0, 0.0))
    return TonePoly(out)


def reference_derivative(p):
    """``TonePoly.derivative`` as it was before one-term polynomials skipped
    the canonicalizer, kept verbatim as the reference."""
    out = []
    for coeff, power, freq in p.terms:
        if power >= 1:
            out.append((coeff * power, power - 1, freq))
        if freq != 0.0:
            out.append((coeff * 1j * freq, power, freq))
    return TonePoly(out)


def bits(p):
    """Terms of ``p`` with every float as its exact hex form (signed zeros
    included) and every field's type."""
    return [(type(c), c.real.hex(), c.imag.hex(), type(k), k, type(f), f.hex())
            for c, k, f in p.terms]


def outcome(op, p):
    try:
        return bits(op(p))
    except PowerCapError as exc:
        return ("PowerCapError", str(exc))


ONE_TERM_FREQS = [0.0, 1.0, -1.0, 2.5, -0.3, 1.5 * TOL_ZERO, -1.5 * TOL_ZERO,
                  TOL_ZERO * (1 + 1e-12), -TOL_ZERO * (1 + 1e-12), 1e3, -1e3, 1e6]
ONE_TERM_COEFFS = [1.0, -1.0, 1j, -1j, 2.0 - 3.0j, -0.5 + 1e-300j, 1e-200]


@pytest.mark.parametrize("freq", ONE_TERM_FREQS)
def test_one_term_calculus_matches_reference(freq):
    for power in range(POWER_CAP + 1):
        for coeff in ONE_TERM_COEFFS:
            p = TonePoly.exponential(freq, coeff, power)
            assert len(p) == 1
            for op, ref in ((TonePoly.integrate_from_zero, reference_integrate),
                            (TonePoly.derivative, reference_derivative)):
                assert outcome(op, p) == outcome(ref, p), (op.__name__, power, coeff)


def test_one_term_route_edge_cases():
    # the power cap at frequency 0, where the integral raises the power
    top = TonePoly.exponential(0.0, 1.0, POWER_CAP)
    assert outcome(TonePoly.integrate_from_zero, top)[0] == "PowerCapError"
    # large power and frequency: the lowest powers fall below DROP_TOL
    p = TonePoly.exponential(1e3, 1.0, 8)
    assert len(p.integrate_from_zero()) < 8 + 2
    assert bits(p.integrate_from_zero()) == bits(reference_integrate(p))
    # a key just outside TOL_ZERO of 0 keeps its own frequency
    assert {m.freq for m in TonePoly.exponential(1.5 * TOL_ZERO).integrate_from_zero().terms} == {
        0.0, 1.5 * TOL_ZERO}


# ----------------------------------------------------------------------
# products snap their triples as they form them


def raw_product(p, q):
    """``p * q`` as it was before products snapped their own triples: the
    raw triples handed to the constructor."""
    return TonePoly([(c1 * c2, p1 + p2, f1 + f2)
                     for c1, p1, f1 in p.terms for c2, p2, f2 in q.terms])


def test_product_equals_the_constructor_on_its_raw_triples(rng):
    for trial in range(200):
        p = TonePoly(edge_terms(rng, int(rng.integers(0, 8))))
        q = TonePoly(edge_terms(rng, int(rng.integers(0, 8))))
        assert bits(p * q) == bits(raw_product(p, q)), trial


T = TOL_ZERO
PRODUCT_EDGES = {
    # sums within TOL_ZERO of 0, of either sign, snap to +0.0
    "near_zero_sums": ([(1.0, 0, 1.0), (2j, 1, -1.0)], [(1.0, 0, -1.0 + 0.5 * T), (3.0, 0, 1.0 - 0.5 * T)],
                       [(-2.0 + 0.5 * T, 1), (0.0, 0), (0.0, 1), (2.0 - 0.5 * T, 0)]),
    # (1.0, 1) and (1.0 + 0.6 T, 0) fall in one cluster: the regroup branch
    "regroup": ([(1.0, 0, 0.0), (1.0, 0, 1.0)], [(1.0, 0, 1.0 + 0.6 * T), (1.0, 1, 0.0)],
                [(0.0, 1), (1.0, 0), (1.0, 1), (2.0 + 0.6 * T, 0)]),
    # 1e-163 ** 2 underflows to 0 at frequency 1.0, so the product at
    # 1.0 + 0.6 T is its cluster's smallest member
    "underflow": ([(1e-150, 0, 0.0), (1e-163, 0, 1.0)], [(1e-150, 0, 1.0 + 0.6 * T), (1e-163, 0, 0.0)],
                  [(0.0, 0), (1.0 + 0.6 * T, 0), (2.0 + 0.6 * T, 0)]),
}


@pytest.mark.parametrize("case", PRODUCT_EDGES)
def test_product_edge_cases_match_the_raw_triples(case):
    left, right, keys = PRODUCT_EDGES[case]
    p = TonePoly([ToneMono(complex(c), k, f) for c, k, f in left])
    q = TonePoly([ToneMono(complex(c), k, f) for c, k, f in right])
    assert len(p) == len(q) == 2
    for a, b in ((p, q), (q, p)):
        got = a * b
        assert bits(got) == bits(raw_product(a, b))
        assert [(m.freq, m.power) for m in got.terms] == keys
