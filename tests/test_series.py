import math
import warnings

import numpy as np
import pytest

from effham import series, tones
from effham import (
    DimensionMismatchError,
    MultiToneHamiltonian,
    OperatorSeries,
    OperatorValueError,
    SeriesOverflowError,
    TOL_ZERO,
    TermBudgetError,
    ToneMono,
    TonePoly,
    dyson_truncated,
    heff_n_timedep,
    heff_secular,
    series_residual,
    sigma_plus,
    sigma_x,
    sigma_z,
)


def two_entry_series():
    return OperatorSeries(
        2,
        [
            (sigma_x(), TonePoly.exponential(2.0)),
            (sigma_z(), TonePoly.constant(0.5)),
        ],
    )


def test_evaluate_matches_manual():
    S = two_entry_series()
    t = 0.7
    expected = np.exp(2j * t) * sigma_x() + 0.5 * sigma_z()
    assert np.allclose(S.evaluate(t), expected, atol=1e-14)


def test_evaluate_grid_matches_pointwise():
    S = two_entry_series()
    ts = np.linspace(0, 3, 9)
    grid = S.evaluate_grid(ts)
    assert grid.shape == (9, 2, 2)
    for i, t in enumerate(ts):
        assert np.allclose(grid[i], S.evaluate(float(t)))


def test_keys_keep_scaled_copies_apart():
    # one key per (frequency, power), whatever the matrices have in common
    entries = [
        (sigma_x(), TonePoly.exponential(1.0)),
        (2.0 * sigma_x(), TonePoly.exponential(3.0)),
        (1j * sigma_x(), TonePoly.constant(1.0)),
    ]
    S = OperatorSeries(2, entries)
    assert S.term_count == len(S.entries) == 3
    for t in (0.0, 0.4, 2.3):
        expected = sum(p(t) * A for A, p in entries)
        assert np.allclose(S.evaluate(t), expected, atol=1e-14)


def random_series(rng, dim, keys):
    # frequencies from a small lattice plus sub-tolerance jitter, so that
    # sums land on shared and near-shared keys
    entries = []
    for _ in range(keys):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        freq = float(rng.integers(-3, 4)) * 0.5 + float(rng.uniform(-0.3, 0.3)) * TOL_ZERO
        entries.append((A, TonePoly.exponential(freq, power=int(rng.integers(0, 3)))))
    return OperatorSeries(dim, entries)


def assert_canonical(S):
    assert S.freqs.shape == S.powers.shape == (S.term_count,)
    assert S.coeffs.shape == (S.term_count, S.dim, S.dim)
    keys = list(zip(S.freqs.tolist(), S.powers.tolist()))
    assert keys == sorted(set(keys))
    for k in set(S.powers.tolist()):
        f = S.freqs[S.powers == k]
        assert np.all(np.diff(f) > TOL_ZERO)
    assert np.all(np.linalg.norm(S.coeffs, axis=(1, 2)) > 0)


def test_operations_keep_canonical_form(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        A = random_series(rng, dim, int(rng.integers(1, 6)))
        B = random_series(rng, dim, int(rng.integers(1, 6)))
        for S in (A, B, A + B, A * B, A.integrate_from_zero(), A.derivative(),
                  (A * B).integrate_from_zero().derivative(), A + A.scale(-1.0)):
            assert_canonical(S)
        # clustering moves a frequency by at most TOL_ZERO
        for t in (0.3, 1.7):
            assert np.allclose((A + B).evaluate(t), A.evaluate(t) + B.evaluate(t), atol=1e-7)
            assert np.allclose((A * B).evaluate(t), A.evaluate(t) @ B.evaluate(t), atol=1e-7)


def test_zero_entries_dropped():
    S = OperatorSeries(2, [(np.zeros((2, 2)), TonePoly.constant(1.0)),
                           (sigma_x(), TonePoly.zero())])
    assert S.is_zero


def test_dimension_checked():
    with pytest.raises(DimensionMismatchError):
        OperatorSeries(3, [(sigma_x(), TonePoly.constant(1.0))])
    with pytest.raises(DimensionMismatchError):
        two_entry_series() + OperatorSeries.zero(3)
    with pytest.raises(DimensionMismatchError):
        two_entry_series() * OperatorSeries.zero(3)


def test_scale_by_zero_is_the_zero_series():
    S = two_entry_series().scale(0)
    assert S.is_zero and S.dim == 2


def test_product_is_pointwise_operator_product(rng):
    A = two_entry_series()
    B = OperatorSeries(2, [(sigma_z(), TonePoly.exponential(-2.0))])
    prod = A * B
    for t in rng.uniform(0, 4, size=5):
        assert np.allclose(prod.evaluate(t), A.evaluate(t) @ B.evaluate(t), atol=1e-13)


def test_integral_and_derivative_roundtrip(rng):
    S = two_entry_series()
    back = S.integrate_from_zero().derivative()
    r, scale = series_residual(S, back)
    assert r <= 1e-13 * scale
    assert np.allclose(S.integrate_from_zero().evaluate(0.0), 0.0)


def test_constant_part_and_growth_flag():
    S = OperatorSeries(
        2,
        [
            (sigma_z(), TonePoly.constant(0.25) + TonePoly.exponential(4.0)),
            (sigma_x(), TonePoly((ToneMono(1.0, 1, 0.0),))),
        ],
    )
    assert np.allclose(S.constant_part(), 0.25 * sigma_z())
    assert S.has_secular_growth()
    assert not S.secular_series().is_zero


def test_monomial_table_accumulates_across_entries():
    S = OperatorSeries(
        2,
        [
            (sigma_x(), TonePoly.exponential(1.0, coeff=2.0)),
            (sigma_z(), TonePoly.exponential(1.0)),
        ],
    )
    table = S.monomial_table()
    assert set(table) == {(1.0, 0)}
    assert np.allclose(table[(1.0, 0)], 2.0 * sigma_x() + sigma_z())


def test_series_residual_detects_difference():
    A = two_entry_series()
    r, scale = series_residual(A, A)
    assert r == 0.0
    B = A + OperatorSeries(2, [(sigma_x(), TonePoly.constant(1e-3))])
    r, scale = series_residual(A, B)
    assert r > 1e-4 * scale


def test_term_budget_guard(monkeypatch):
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "3")
    with pytest.raises(TermBudgetError):
        OperatorSeries(
            2, [(sigma_x(), TonePoly.exponential(float(k))) for k in range(1, 5)]
        )


def test_term_budget_guard_on_product(monkeypatch):
    A = OperatorSeries(
        2, [(sigma_x(), TonePoly.exponential(float(k))) for k in range(1, 5)]
    )
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "3")
    with pytest.raises(TermBudgetError):
        _ = A * A


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_term_budget_rejects_bad_value(monkeypatch, raw):
    monkeypatch.setenv("EFFHAM_MAX_TERMS", raw)
    with pytest.raises(TermBudgetError, match=repr(raw)):
        two_entry_series()


# ----------------------------------------------------------------------
# exact key grouping of integrals and derivatives


def reference_termwise(S, op):
    """The route exact grouping replaced: every output monomial re-clustered
    through ``_key_poly`` and the key index of ``_keyed_index``, kept
    verbatim as the reference."""
    freqs, powers, mats = [], [], []
    for f, k, C in zip(S.freqs, S.powers, S.coeffs):
        for m in op(TonePoly.exponential(f, 1.0, k)).terms:
            freqs.append(m.freq)
            powers.append(m.power)
            mats.append(m.coeff * C)
    return OperatorSeries._of(S.dim, *series._gather(S.dim, freqs, powers, mats))


def reference_sum_keys(dim, key_freqs, key_powers, index, mats):
    """The grouping the flat scatter replaced, one ``np.add.at`` on the 2-D
    ``(K, d * d)`` coefficients, kept verbatim as the reference."""
    series._check_budget(len(key_freqs), "series keys")
    coeffs = np.zeros((len(key_freqs), dim * dim), dtype=complex)
    # an overflow shows as a norm that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(coeffs, index, np.reshape(mats, (-1, dim * dim)))
        norms = np.linalg.norm(coeffs, axis=1)
    top = norms.max(initial=0.0)
    if not top < np.inf:
        # squared entries overflow: take the norms of the coefficients
        # divided by their largest real or imaginary part, if all are finite
        if not np.isfinite(coeffs).all():
            raise SeriesOverflowError(series._NOT_FINITE)
        norms = np.linalg.norm(coeffs / np.abs(coeffs.view(float)).max(), axis=1)
        top = norms.max()
    keep = norms > tones.DROP_TOL * top
    return key_freqs[keep], key_powers[keep], coeffs[keep].reshape(-1, dim, dim)


def grouping_case(rng, dim, keys, monomials, scale=1.0):
    """Keys, an index with repeats that leaves keys empty when there are
    fewer monomials than keys, and complex matrices of mixed magnitudes."""
    index = rng.integers(0, keys, monomials) if keys else np.zeros(0, dtype=np.intp)
    mats = (rng.standard_normal((monomials, dim, dim))
            + 1j * rng.standard_normal((monomials, dim, dim)))
    mats *= scale * 10.0 ** rng.integers(-6, 3, (monomials, 1, 1))
    return (np.sort(rng.uniform(-5, 5, keys)), rng.integers(0, 6, keys), index, mats)


def assert_same_grouping(dim, *case):
    got = series._sum_keys(dim, *case)
    want = reference_sum_keys(dim, *case)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 10])
def test_flat_scatter_groups_as_the_2d_add_at(rng, dim):
    for keys, monomials in [(1, 1), (5, 3), (8, 8), (20, 42), (154, 420), (4, 0), (0, 0)]:
        case = grouping_case(rng, dim, keys, monomials)
        freqs, powers, coeffs = assert_same_grouping(dim, *case)
        assert len(freqs) == len(np.unique(case[2]))  # keys with no monomial are dropped
    # the list of matrices the constructor passes, and an int index as
    # _keyed_index gives it
    _, _, index, mats = grouping_case(rng, dim, 6, 30)
    assert_same_grouping(dim, np.arange(6.0), np.zeros(6, dtype=int), index.tolist(), list(mats))


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_flat_scatter_keeps_the_drop_the_rescaled_norms_and_the_overflow(rng, dim):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # key 1 cancels below DROP_TOL of key 0, key 2 exactly
    mats = np.stack([A, A, -A * (1 + 2.0 ** -50), 1e-3 * A, -1e-3 * A])
    index = np.array([0, 1, 1, 2, 2])
    freqs, _, _ = assert_same_grouping(dim, np.arange(3.0), np.zeros(3, dtype=int), index, mats)
    assert freqs.tolist() == [0.0]
    # entries whose squares overflow take the rescaled norms
    case = grouping_case(rng, dim, 10, 40, scale=1e200)
    with np.errstate(over="ignore"):
        assert not np.linalg.norm(case[3].reshape(len(case[3]), -1), axis=1).max() < np.inf
    assert_same_grouping(dim, *case)
    # a sum past the float range raises, in both
    big = np.full((2, dim, dim), 1e308 + 1e308j)
    for route in (series._sum_keys, reference_sum_keys):
        with pytest.raises(SeriesOverflowError):
            route(dim, np.zeros(1), np.zeros(1, dtype=int), np.zeros(2, dtype=np.intp), big)


def assert_identical(S, R):
    for name in ("freqs", "powers", "coeffs"):
        a, b = getattr(S, name), getattr(R, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_integral_and_derivative_match_reference_route(rng):
    near = 1.0 + 1.5 * TOL_ZERO
    cases = [random_series(rng, int(rng.integers(1, 4)), int(rng.integers(1, 12)))
             for _ in range(20)]
    cases += [
        # keys just over TOL_ZERO apart, at 1.0 and around 0
        OperatorSeries(2, [(sigma_x(), TonePoly.exponential(1.0, power=2)),
                           (sigma_z(), TonePoly.exponential(near, power=1)),
                           (sigma_z(), TonePoly.exponential(near)),
                           (sigma_x(), TonePoly.exponential(1.5 * TOL_ZERO, power=1)),
                           (sigma_z(), TonePoly.constant(0.5))]),
        OperatorSeries.zero(3),
    ]
    for S in cases:
        assert_identical(S.integrate_from_zero(),
                         reference_termwise(S, TonePoly.integrate_from_zero))
        assert_identical(S.derivative(), reference_termwise(S, TonePoly.derivative))
    assert cases[-2].term_count == 5
    assert cases[-1].integrate_from_zero().coeffs.shape == (0, 3, 3)


def test_integral_keeps_the_term_budget(monkeypatch):
    S = OperatorSeries(2, [(sigma_x(), TonePoly.exponential(1.0, power=2))])
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "3")
    with pytest.raises(TermBudgetError, match="series keys"):
        S.integrate_from_zero()


def test_canonical_keys_are_not_canonicalized_again(rng, monkeypatch):
    # a series' keys are canonical: its integral and derivative rebuild none
    # of them, and a product canonicalizes only the product of its key sets
    S = random_series(rng, 3, 12)
    T = random_series(rng, 3, 9)
    assert S.term_count > 1 and T.term_count > 1
    calls = []
    canonicalize = tones._canonicalize

    def counting(*args):
        calls.append(1)
        return canonicalize(*args)

    monkeypatch.setattr(tones, "_canonicalize", counting)
    for op in (OperatorSeries.integrate_from_zero, OperatorSeries.derivative):
        calls.clear()
        op(S)
        assert len(calls) == 0, op.__name__
    calls.clear()
    S * T
    assert len(calls) == 1


def test_integrals_through_a_table_equal_fresh_ones(rng):
    # a table filled by one series serves another that shares its keys, and
    # what it returns is bit for bit what a fresh call computes
    op = OperatorSeries.integrate_from_zero
    for _ in range(20):
        S = random_series(rng, 3, int(rng.integers(1, 12)))
        T = random_series(rng, 3, int(rng.integers(1, 12)))
        table = {}
        assert_identical(op(S, table=table), op(S))
        assert set(table) == set(zip(S.freqs.tolist(), S.powers.tolist()))
        filled = dict(table)
        assert_identical(op(T, table=table), op(T))
        assert_identical(op(S, table=table), op(S))
        assert all(table[key] is filled[key] for key in filled)


def test_a_table_maps_each_key_once(rng, monkeypatch):
    S = random_series(rng, 2, 10)
    calls = []
    integrate = TonePoly.integrate_from_zero

    def counting(p):
        calls.append(p.terms[0][1:])
        return integrate(p)

    monkeypatch.setattr(TonePoly, "integrate_from_zero", counting)
    table = {}
    S.integrate_from_zero(table=table)
    S.scale(2.0).integrate_from_zero(table=table)
    assert len(calls) == S.term_count == len(set(calls))
    assert table[(float(S.freqs[0]), int(S.powers[0]))] == integrate(
        TonePoly.exponential(S.freqs[0], 1.0, S.powers[0])).terms


def test_series_is_immutable_and_shows_its_size():
    S = two_entry_series()
    with pytest.raises(AttributeError, match="immutable"):
        S.dim = 3
    assert repr(S) == "OperatorSeries(dim=2, keys=2)"


def test_series_algebra_refuses_other_operands():
    S = two_entry_series()
    with pytest.raises(TypeError):
        S + 1
    with pytest.raises(TypeError):
        S * sigma_x()
    assert S.__add__(1) is NotImplemented
    assert S.__mul__(TonePoly.constant(1.0)) is NotImplemented


@pytest.mark.parametrize("coupling", [1e150, 1e155, 1e300])
def test_large_finite_coefficients_keep_their_keys(coupling):
    # above about 1.34e154 a Frobenius norm overflows, which once dropped
    # every key; the drop rule is relative, so scaling changes no key
    S = MultiToneHamiltonian([(coupling * sigma_plus(), 1.0)]).to_operator_series()
    assert S.term_count == 2
    assert np.array_equal(S.coeffs, coupling * MultiToneHamiltonian(
        [(sigma_plus(), 1.0)]).to_operator_series().coeffs)


def test_drop_rule_is_scale_free_above_the_norm_overflow():
    # one key far below DROP_TOL of the largest, one just above it
    entries = [(sigma_x(), TonePoly.exponential(1.0)),
               (1e-16 * sigma_z(), TonePoly.exponential(2.0)),
               (1e-13 * sigma_z(), TonePoly.exponential(3.0))]
    small = OperatorSeries(2, entries)
    large = OperatorSeries(2, [(1e300 * A, p) for A, p in entries])
    assert small.freqs.tolist() == large.freqs.tolist() == [1.0, 3.0]


def test_order_two_of_a_coupling_whose_square_overflows_the_norm():
    # 1e80 ** 2 entries are finite, but their squares are not
    H = MultiToneHamiltonian([(sigma_plus(), 1.0), (sigma_z(), 2.3)])
    big = MultiToneHamiltonian([(1e80 * sigma_plus(), 1.0), (1e80 * sigma_z(), 2.3)])
    S, T = heff_n_timedep(H, 2), heff_n_timedep(big, 2)
    assert T.freqs.tolist() == S.freqs.tolist() and T.powers.tolist() == S.powers.tolist()
    assert np.allclose(T.coeffs / 1e160, S.coeffs, rtol=1e-13, atol=0)


@pytest.mark.parametrize("tones", [[(sigma_plus(), 1.0)], [(sigma_x(), 1.0), (sigma_z(), 2.0)]],
                         ids=["one_tone", "opposite_infinities"])
def test_non_finite_coefficient_raises_the_guard(tones):
    # a coupling of 1e200 makes every order-2 product infinite, which once
    # gave zero series and the identity propagator; with two tones, +inf
    # and -inf meet in one key, which numpy would warn about
    H = MultiToneHamiltonian([(1e200 * h, w) for h, w in tones])
    with pytest.raises(SeriesOverflowError, match="not finite"):
        heff_secular(H, (2, 3))
    with pytest.raises(SeriesOverflowError, match="not finite"):
        dyson_truncated(H, 2, 1.0)


def test_non_finite_coefficient_of_a_sum_raises_the_guard():
    inf = OperatorSeries._of(2, np.array([1.0]), np.array([0]),
                             np.array([[[0, np.inf], [0, 0]]], dtype=complex))
    with pytest.raises(SeriesOverflowError, match="a series coefficient is not finite"):
        inf + two_entry_series().scale(1e-3)


def test_scaling_out_of_the_float_range_raises_the_guard():
    # 1e10 * 1e300 overflows; the guard speaks before the series is used
    S = MultiToneHamiltonian([(1e10 * sigma_plus(), 1.0)]).to_operator_series()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesOverflowError, match="^a series coefficient is not finite"):
            S.scale(1e300)
        with pytest.raises(SeriesOverflowError, match="not finite"):
            S.scale(complex(0.0, -1e300))
        with pytest.raises(SeriesOverflowError, match="not finite"):
            S.scale(math.inf)
        assert np.array_equal(S.scale(1e297).coeffs, S.coeffs * 1e297)


def test_unit_scales_keep_every_coefficient_finite():
    # the largest finite entries, scaled by the factors the builders use
    big = np.finfo(float).max
    S = OperatorSeries._of(2, np.array([1.0]), np.array([0]),
                           np.array([[[complex(big, -big), 0], [big, 1j * big]]]))
    for z in (complex(0.0, -1.0), -1.0, 1.0, 0.5j):
        assert np.isfinite(S.scale(z).coeffs).all()


def test_an_infinite_entry_matrix_is_refused_before_it_is_used():
    # a NaN entry is refused by the same rule, not taken for an overflow
    A = np.array([[0, np.inf], [0, 0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorValueError, match="^series entry has non-finite entries$"):
            OperatorSeries(2, [(A, TonePoly.exponential(1.0))])
        with pytest.raises(OperatorValueError, match="non-finite"):
            OperatorSeries.constant(A.T)
        with pytest.raises(OperatorValueError, match="^series entry has non-finite entries$"):
            OperatorSeries.constant(np.full((2, 2), np.nan))
        # the shape is checked first
        with pytest.raises(DimensionMismatchError):
            OperatorSeries(2, [(np.full((3, 3), np.nan), TonePoly.constant(1.0))])
