import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import effham.builder
from effham import (
    MAX_ORDER,
    FrequencyConditionError,
    MultiToneHamiltonian,
    OperatorSeries,
    OperatorValueError,
    TermBudgetError,
    annihilate,
    commutator,
    create,
    dyson_term,
    dyson_terms,
    dyson_truncated,
    frequency_report,
    heff2_rwa,
    heff2_timedep,
    heff3_timedep,
    heff_n_timedep,
    heff_secular,
    hermiticity_defect,
    load_model,
    make_model,
    quad_oracle,
    series_residual,
    sigma_plus,
    sigma_z,
    tensor_product,
    unitarity_defect,
)
from conftest import random_generic

SCALAR = make_model("scalar_single_tone")  # h = [1], omega = 1
NONCOMM = make_model("noncommuting_two_tone")


def single_tone(h, omega):
    return MultiToneHamiltonian([(h, omega)])


# ----------------------------------------------------------------------
# second order


def test_heff2_scalar_closed_form():
    # series equals -2i g^2/w * sin(2wt); frozen at w = g = 1, t = pi/4
    value = heff2_timedep(SCALAR).evaluate(np.pi / 4)
    assert np.allclose(value, [[-2j]], atol=1e-14)


def test_heff2_vanishes_at_zero():
    for name in ("scalar_single_tone", "noncommuting_two_tone", "jc_detuned"):
        S = heff2_timedep(make_model(name))
        assert np.allclose(S.evaluate(0.0), 0.0, atol=1e-14)


def test_heff2_secular_single_tone_commutator():
    H = single_tone(sigma_plus(), 5.0)
    res = heff_secular(H, 2)
    assert np.allclose(res.secular, sigma_z() / 5.0, atol=1e-15)
    assert hermiticity_defect(res.secular) < 1e-13


def test_heff2_rwa_jc_structure():
    # direct commutator oracle: (g^2/Delta) (sp sm x a adag - sm sp x adag a)
    g, delta, nc = 0.05, 1.0, 3
    h = g * tensor_product(sigma_plus(), annihilate(nc))
    H = single_tone(h, delta)
    expected = (g**2 / delta) * (
        tensor_product(sigma_plus() @ sigma_plus().conj().T, annihilate(nc) @ create(nc))
        - tensor_product(sigma_plus().conj().T @ sigma_plus(), create(nc) @ annihilate(nc))
    )
    assert np.allclose(heff2_rwa(H), expected, atol=1e-15)
    assert np.allclose(heff2_rwa(H), commutator(h, h.conj().T) / delta, atol=1e-15)


def test_heff2_rwa_scalar_is_zero():
    assert np.allclose(heff2_rwa(SCALAR), [[0.0]])


def test_heff2_rwa_rejects_degenerate_frequencies():
    H = MultiToneHamiltonian([(sigma_plus(), 3.0), (sigma_z(), 3.0)])
    with pytest.raises(FrequencyConditionError):
        heff2_rwa(H)


def test_heff2_secular_matches_rwa_when_distinct():
    for name in ("jc_detuned", "raman_lambda", "noncommuting_two_tone"):
        H = make_model(name)
        assert frequency_report(H).passes
        gap = np.linalg.norm(heff_secular(H, 2).secular - heff2_rwa(H))
        assert gap < 1e-12


# ----------------------------------------------------------------------
# third order


def test_heff3_vanishes_at_zero():
    assert np.allclose(heff3_timedep(NONCOMM).evaluate(0.0), 0.0, atol=1e-14)


def test_heff3_scalar_matches_quadrature():
    t = 0.9
    closed = heff3_timedep(SCALAR).evaluate(t)
    ref = quad_oracle(SCALAR, 3, t, 1e-10)
    assert np.linalg.norm(closed - ref) < 1e-9


def test_heff3_noncommuting_time_dependent_defect():
    # frozen via the quadrature + defect oracle; the raw series is visibly
    # non-Hermitian at generic times while its secular part stays clean
    value = heff3_timedep(NONCOMM).evaluate(0.3)
    assert hermiticity_defect(value) == pytest.approx(3.9336e-4, rel=1e-3)
    assert hermiticity_defect(value) > 1e-4


# ----------------------------------------------------------------------
# general order


def test_heff_n_matches_low_order_builders(rng):
    for H in (SCALAR, NONCOMM):
        S2 = heff_n_timedep(H, 2)
        S3 = heff_n_timedep(H, 3)
        D2 = heff2_timedep(H)
        D3 = heff3_timedep(H)
        for t in rng.uniform(0, 3, size=20):
            assert np.linalg.norm(S2.evaluate(t) - D2.evaluate(t)) < 1e-12
            assert np.linalg.norm(S3.evaluate(t) - D3.evaluate(t)) < 1e-12


def test_heff_n_order4_scalar_matches_quadrature():
    closed = heff_n_timedep(SCALAR, 4).evaluate(0.7)
    ref = quad_oracle(SCALAR, 4, 0.7, 1e-10)
    assert np.linalg.norm(closed - ref) < 1e-8


def test_heff_n_rejects_bad_order():
    with pytest.raises(OperatorValueError):
        heff_n_timedep(SCALAR, 1)
    with pytest.raises(OperatorValueError):
        heff_n_timedep(SCALAR, 7)


def test_heff_n_scaling_homogeneity():
    # coefficient-level check with an exactly representable factor
    lam = 0.5
    for n in (2, 3, 4):
        a = heff_n_timedep(NONCOMM.scaled(lam), n)
        b = heff_n_timedep(NONCOMM, n).scale(lam**n)
        r, scale = series_residual(a, b)
        assert r <= 1e-14 * scale


def test_zero_model_gives_zero_series():
    H = MultiToneHamiltonian([(np.zeros((2, 2), dtype=complex), 1.0)])
    for n in (2, 3):
        assert heff_n_timedep(H, n).is_zero
    assert np.allclose(dyson_truncated(H, 3, 1.7), np.eye(2))


def test_term_budget_guard_applies(monkeypatch):
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "50")
    with pytest.raises(TermBudgetError):
        heff_n_timedep(NONCOMM, 4)


# ----------------------------------------------------------------------
# secular extraction


def test_secular_result_fields():
    res = heff_secular(NONCOMM, 3)
    assert res.order == 3
    assert res.secular.shape == (2, 2)
    assert res.max_hermiticity_defect_on_grid > 1e-3
    assert hermiticity_defect(res.secular) < 1e-10
    assert not res.secular_growth_flag


def test_secular_scalar_model_is_zero():
    assert np.allclose(heff_secular(SCALAR, 2).secular, [[0.0]])


def test_secular_growth_appears_at_fourth_order():
    # one carrier: no odd signed sum of it vanishes, so orders 3 and 5 have
    # no zero-frequency content at all; tone/conjugate pairs make growing
    # terms at orders 4 and 6
    jc = make_model("jc_detuned")
    assert not heff_secular(jc, 2).secular_growth_flag
    for n in (3, 5):
        res = heff_secular(jc, n)
        assert np.array_equal(res.secular, np.zeros((jc.dim, jc.dim)))
        assert not res.secular_growth_flag
    for n in (4, 6):
        assert heff_secular(jc, n).secular_growth_flag


def test_no_secular_growth_from_rounding_residue():
    # growing terms of a commuting model cancel exactly; their rounding
    # residue must be dropped, not flagged
    diag = make_model("commuting_diag")
    for n in (4, 5, 6):
        assert not heff_secular(diag, n).secular_growth_flag


def test_secular_third_order_hermitian_for_hermitian_tones(rng):
    # every tone operator Hermitian: integration constants cancel pairwise
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h1 = (m + m.conj().T) / 2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h2 = (m + m.conj().T) / 2
        H = MultiToneHamiltonian([(0.2 * h1, 1.3), (0.2 * h2, 4.1)])
        assert hermiticity_defect(heff_secular(H, 3).secular) < 1e-12


def test_secular_third_order_hermitian_for_single_transition_tone(rng):
    # h = g |i><j| (h^2 = 0): the constant-born terms combine Hermitianly
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        i, j = rng.choice(dim, size=2, replace=False)
        h = np.zeros((dim, dim), dtype=complex)
        h[i, j] = 0.3 * (rng.normal() + 1j * rng.normal())
        H = single_tone(h, float(rng.uniform(0.5, 8.0)))
        assert hermiticity_defect(heff_secular(H, 3).secular) < 1e-12


def test_secular_third_order_defect_nonzero_for_raman():
    # the zero-frequency, power-0 part of the lower-limit series (the one
    # that vanishes at t = 0) is not Hermitian for the two-transition model,
    # although its carriers are distinct: the lower-limit constants pair a
    # tone with its conjugate at third order. heff_secular does not read
    # this part; see test_secular_third_order_hermitian_generic_tones.
    constant = heff_n_timedep(make_model("raman_lambda"), 3).constant_part()
    assert hermiticity_defect(constant) == pytest.approx(1.923e-4, rel=1e-2)


def test_secular_resonant_triple_hermitian():
    h1 = np.array([[0, 0.3], [0.1, 0]], dtype=complex)
    h2 = np.array([[0.2, 0], [0.4, -0.1]], dtype=complex)
    H = MultiToneHamiltonian([(h1, 2.0), (h2, 4.0)])  # 2 + 2 - 4 = 0 exactly
    rep = frequency_report(H)
    assert rep.passes
    assert any(s.klass == "zero" for s in rep.three_sum_classes)
    assert hermiticity_defect(heff_secular(H, 3).secular) < 1e-12
    # a vanishing three-sum is what lets zero-frequency terms grow at order 5
    assert heff_secular(H, 5).secular_growth_flag


def test_secular_third_order_hermitian_generic_tones(rng):
    # generic non-Hermitian tones at w, 2w, 3.7w: w + w - 2w = 0 is a
    # resonant three-sum, so the indefinite-integral frame keeps a nonzero
    # secular part, and it is Hermitian; the lower-limit series' constant
    # part of the same models is not
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        omega = float(rng.uniform(0.5, 3.0))
        H = MultiToneHamiltonian(
            [(random_generic(rng, dim, 0.3), k * omega) for k in (1.0, 2.0, 3.7)]
        )
        assert frequency_report(H).passes
        res = heff_secular(H, 3)
        assert np.abs(res.secular).max() > 1e-4
        assert hermiticity_defect(res.secular) < 1e-12
        assert not res.secular_growth_flag
        assert hermiticity_defect(heff_n_timedep(H, 3).constant_part()) > 1e-4


# ----------------------------------------------------------------------
# time-ordered propagator terms


def test_dyson_first_order_scalar():
    # antiderivative oracle: U_1 = -i (2g/w) sin(wt); zero at w=2, t=pi/2
    H = make_model("scalar_single_tone", g=1.0, omega=2.0)
    value = dyson_term(H, 1).evaluate(np.pi / 2)
    assert np.allclose(value, [[0.0]], atol=1e-14)
    value = dyson_term(H, 1).evaluate(0.4)
    assert np.allclose(value, [[-1j * np.sin(0.8)]], atol=1e-14)


def test_dyson_terms_vanish_at_zero():
    for n in range(1, 5):
        assert np.allclose(dyson_term(NONCOMM, n).evaluate(0.0), 0.0, atol=1e-14)


def test_dyson_recursion_identity(rng):
    # d/dt U_n = (1/i) H(t) U_(n-1)
    S = NONCOMM.to_operator_series()
    for n in (2, 3, 4):
        lhs = dyson_term(NONCOMM, n).derivative()
        rhs = (S * dyson_term(NONCOMM, n - 1)).scale(-1j)
        for t in rng.uniform(0, 2, size=20):
            a, b = lhs.evaluate(t), rhs.evaluate(t)
            assert np.linalg.norm(a - b) <= 1e-11 * max(1.0, np.linalg.norm(a))


def generic_qutrit_three_tone():
    rng = np.random.default_rng(31)
    tones = []
    for omega in (1.3, 2.9, 4.7):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tones.append((0.3 * h / np.linalg.norm(h), omega))
    return MultiToneHamiltonian(tones)


def test_derivative_identity_with_effective_orders():
    # order-n effective series equals i * d/dt of the order-n propagator term
    for H in (SCALAR, NONCOMM, make_model("raman_lambda"), generic_qutrit_three_tone()):
        for n in (2, 3, 4, 5):
            a = heff_n_timedep(H, n)
            b = dyson_term(H, n).derivative().scale(1j)
            r, scale = series_residual(a, b)
            assert r <= 1e-11 * scale


def test_derivative_identity_at_top_order():
    a = heff_n_timedep(NONCOMM, 6)
    b = dyson_term(NONCOMM, 6).derivative().scale(1j)
    r, scale = series_residual(a, b)
    assert r <= 1e-11 * scale


def test_dyson_truncated_identity_at_zero():
    assert np.allclose(dyson_truncated(NONCOMM, 4, 0.0), np.eye(2))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True, "1.0"])
def test_dyson_truncated_refuses_non_finite_time(t):
    with pytest.raises(OperatorValueError, match="finite"):
        dyson_truncated(NONCOMM, 2, t)


def test_dyson_truncated_nonunitary_at_generic_time():
    assert unitarity_defect(dyson_truncated(SCALAR, 2, 0.8)) > 1e-3


def test_dyson_truncated_small_coupling_nearly_unitary():
    H = make_model("scalar_single_tone", g=1e-3)
    assert unitarity_defect(dyson_truncated(H, 4, 1.0)) < 1e-11


# ----------------------------------------------------------------------
# the one Dyson recursion against the hand-written nested products it replaced

DEMO_MODELS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "models"


def _reference_nested_product(S, depth, indefinite=False):
    # S * int(S * int(... S)) with `depth` factors, as the builder wrote it out
    acc = S
    for _ in range(depth - 1):
        integral = acc.integrate_from_zero()
        if indefinite:
            keep = (integral.freqs != 0.0) | (integral.powers != 0)
            integral = OperatorSeries._of(integral.dim, integral.freqs[keep],
                                          integral.powers[keep], integral.coeffs[keep])
        acc = S * integral
    return acc


def _reference_inv_i_power(k):
    out = 1 + 0j
    for _ in range(k):
        out *= -1j
    return out


def _reference_dyson_term(S, n):
    acc = S.integrate_from_zero()
    for _ in range(n - 1):
        acc = (S * acc).integrate_from_zero()
    return acc.scale(_reference_inv_i_power(n))


def _generic_three_tone(seed):
    rng = np.random.default_rng(seed)
    return MultiToneHamiltonian([(random_generic(rng, 3, 0.3), float(rng.uniform(0.5, 8.0)))
                                 for _ in range(3)])


RECURSION_MODELS = (
    [pytest.param(lambda name=name: make_model(name), id=name)
     for name in ("jc_detuned", "raman_lambda", "commuting_diag",
                  "noncommuting_two_tone", "scalar_single_tone")]
    + [pytest.param(lambda path=path: load_model(path), id=path.name)
       for path in sorted(DEMO_MODELS.glob("*.ham"))]
    + [pytest.param(lambda seed=seed: _generic_three_tone(seed), id=f"generic3-{seed}")
       for seed in (3, 17, 29)]
)


def _assert_same_series(a, b):
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.powers, b.powers)
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("make", RECURSION_MODELS)
def test_recursion_matches_nested_products(make):
    H = make()
    S = H.to_operator_series()
    top = 5 if len(H.tones) >= 3 else MAX_ORDER
    terms = dyson_terms(H, top)
    assert len(terms) == top
    for k, U in enumerate(terms, start=1):
        _assert_same_series(U, _reference_dyson_term(S, k))
        _assert_same_series(dyson_term(H, k), U)
    for n in range(2, top + 1):
        _assert_same_series(heff_n_timedep(H, n),
                            _reference_nested_product(S, n).scale(_reference_inv_i_power(n - 1)))
        averaged = _reference_nested_product(S, n, indefinite=True)
        averaged = averaged.scale(_reference_inv_i_power(n - 1))
        result = heff_secular(H, n, time_grid=np.linspace(0.0, 1.0, 3))
        assert np.array_equal(result.secular, averaged.constant_part())
        assert result.secular_growth_flag == averaged.has_secular_growth()


# ----------------------------------------------------------------------
# heff_secular over a tuple of orders: one definite and one indefinite chain

ZOO_AND_DEMOS = [p for p in RECURSION_MODELS if not p.id.startswith("generic")]


def _assert_same_result(a, b):
    assert a.order == b.order
    _assert_same_series(a.series, b.series)
    assert np.array_equal(a.secular, b.secular)
    assert a.secular_growth_flag == b.secular_growth_flag
    assert a.max_hermiticity_defect_on_grid == b.max_hermiticity_defect_on_grid
    assert np.array_equal(a.grid_values, b.grid_values)
    assert np.array_equal(a.hermiticity_defect_grid, b.hermiticity_defect_grid)
    assert len(a.dyson_terms) == len(b.dyson_terms) == a.order
    for U, V in zip(a.dyson_terms, b.dyson_terms):
        _assert_same_series(U, V)


@pytest.mark.parametrize("orders", [(2, 3), (2, 3, 4), (4,), (2, 3, 4, 5, 6), (3, 2, 3)],
                         ids=lambda orders: ",".join(map(str, orders)))
@pytest.mark.parametrize("make", ZOO_AND_DEMOS)
def test_secular_tuple_form_equals_the_scalar_calls(make, orders):
    H = make()
    results = heff_secular(H, orders)
    assert list(results) == sorted(set(orders))
    for n, result in results.items():
        _assert_same_result(result, heff_secular(H, n))
        _assert_same_series(result.series, heff_n_timedep(H, n))
    assert heff_secular(H, list(orders)).keys() == results.keys()


@pytest.mark.parametrize("make", ZOO_AND_DEMOS)
def test_secular_dyson_terms_equal_dyson_terms(make):
    H = make()
    results = heff_secular(H, (2, 3, 4, 5, 6))
    top = results[6].dyson_terms
    for n, result in results.items():
        assert len(result.dyson_terms) == n
        assert all(U is V for U, V in zip(result.dyson_terms, top))  # shared prefixes
        for U, V in zip(result.dyson_terms, dyson_terms(H, n)):
            _assert_same_series(U, V)


def test_secular_tuple_form_passes_grid_and_tol_zero_to_every_order():
    ts = np.linspace(0.0, 3.0, 5)
    results = heff_secular(NONCOMM, (2, 4), tol_zero=1e-6, time_grid=ts)
    for n, result in results.items():
        _assert_same_result(result, heff_secular(NONCOMM, n, tol_zero=1e-6, time_grid=ts))
        assert result.grid_values.shape == (5, 2, 2)


@pytest.mark.parametrize("order", [2.7, 2.0, True, np.float64(3.0), "3", None])
def test_non_integer_orders_are_rejected(order):
    with pytest.raises(OperatorValueError):
        heff_secular(SCALAR, order)
    with pytest.raises(OperatorValueError):
        heff_secular(SCALAR, (2, order))
    with pytest.raises(OperatorValueError):
        heff_n_timedep(SCALAR, order)
    with pytest.raises(OperatorValueError):
        dyson_terms(SCALAR, order)


def test_numpy_integer_orders_are_accepted():
    _assert_same_result(heff_secular(SCALAR, np.int64(3)), heff_secular(SCALAR, 3))
    assert list(heff_secular(SCALAR, (np.int32(2), 3))) == [2, 3]


@pytest.mark.parametrize("orders", [(), (1, 2), (2, 7)])
def test_secular_tuple_form_rejects_bad_order_lists(orders):
    with pytest.raises(OperatorValueError):
        heff_secular(SCALAR, orders)


@pytest.mark.parametrize("grid", [
    np.zeros((3, 2)), 0.5, [0.0, np.nan, 1.0], [0.0, np.inf], [[0.0, 1.0]],
    [False, True], ["0.0", "0.5"], [0.5, True], [10**400], [Fraction(1, 2), True],
])
def test_secular_rejects_bad_time_grids(grid):
    with pytest.raises(OperatorValueError):
        heff_secular(SCALAR, 2, time_grid=grid)
    with pytest.raises(OperatorValueError):
        heff_secular(SCALAR, (2, 3), time_grid=grid)


def test_secular_takes_a_time_grid_of_fractions_as_the_floats_they_equal():
    _assert_same_result(heff_secular(NONCOMM, 2, time_grid=[Fraction(1, 2)]),
                        heff_secular(NONCOMM, 2, time_grid=[0.5]))


@pytest.mark.parametrize("tol_zero", [-1.0, float("nan"), float("inf"), True, "1e-9"])
def test_heff_secular_rejects_bad_tol_zero_before_any_build(tol_zero, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(effham.builder, "_chain", no_build)
    with pytest.raises(OperatorValueError, match="tol_zero must be a finite real number >= 0"):
        heff_secular(NONCOMM, 2, tol_zero=tol_zero)
    with pytest.raises(OperatorValueError, match="tol_zero must be a finite real number >= 0"):
        heff_secular(NONCOMM, (2, 3), tol_zero=tol_zero)


# ----------------------------------------------------------------------
# a build does each key's scalar work once

ZOO_ONLY = [p for p in ZOO_AND_DEMOS if not p.id.endswith(".ham")]


@pytest.mark.parametrize("make", ZOO_ONLY)
def test_dyson_builders_take_the_model_or_its_series(make):
    H = make()
    S = H.to_operator_series()
    terms = dyson_terms(S, MAX_ORDER)
    for n in range(1, MAX_ORDER + 1):
        _assert_same_series(dyson_term(S, n), dyson_term(H, n))
        _assert_same_series(terms[n - 1], dyson_term(H, n))


def test_heff_n_converts_the_model_once(monkeypatch):
    calls = []
    convert = MultiToneHamiltonian.to_operator_series

    def counting(self):
        calls.append(self)
        return convert(self)

    monkeypatch.setattr(MultiToneHamiltonian, "to_operator_series", counting)
    for n in range(2, MAX_ORDER + 1):
        calls.clear()
        heff_n_timedep(NONCOMM, n)
        assert calls == [NONCOMM]


@pytest.mark.parametrize("make", ZOO_ONLY)
def test_a_build_integrates_each_distinct_key_once(make, monkeypatch):
    # heff_secular's definite and indefinite chains share one by-parts
    # table, and no table outlives its build
    H = make()
    S = H.to_operator_series()
    keys, integrals = set(), []
    integrate = OperatorSeries.integrate_from_zero
    by_parts = effham.tones.TonePoly.integrate_from_zero

    def spying(self, table=None):
        keys.update(zip(self.freqs.tolist(), self.powers.tolist()))
        return integrate(self, table=table)

    def counting(p):
        integrals.append(p.terms[0][1:])
        return by_parts(p)

    monkeypatch.setattr(OperatorSeries, "integrate_from_zero", spying)
    monkeypatch.setattr(effham.tones.TonePoly, "integrate_from_zero", counting)
    for _ in range(2):
        keys.clear()
        integrals.clear()
        heff_secular(H, (2, 3, 4, 5, 6))
        assert len(integrals) == len(keys)
        assert {(f, k) for k, f in integrals} == keys
    integrals.clear()
    dyson_terms(S, 4)
    dyson_terms(S, 4)
    assert len(integrals) == 2 * len(set(integrals))
