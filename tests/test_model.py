import math
import re
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from effham import (
    ZOO_NAMES,
    DimensionMismatchError,
    MultiToneHamiltonian,
    OperatorValueError,
    commutation_probe,
    frequency_report,
    hermiticity_defect,
    make_model,
    sigma_plus,
    sigma_x,
    sigma_z,
)


def scalar_two_tone():
    return MultiToneHamiltonian([
        (np.array([[2.0]], dtype=complex), 3.0),
        (np.array([[1.0]], dtype=complex), 7.0),
    ])


# ----------------------------------------------------------------------
# construction and evaluation


def test_requires_positive_frequency():
    for omega in (-1.0, 0.0, True, "1.0"):
        with pytest.raises(OperatorValueError):
            MultiToneHamiltonian([(sigma_plus(), omega)])


@pytest.mark.parametrize("omega", [math.inf, 1e308, math.nextafter(math.inf, 0) / 5])
def test_refuses_carrier_whose_sums_overflow(omega):
    # the builders and the frequency report sum up to MAX_ORDER carriers
    match = "overflow" if math.isfinite(omega) else "finite real number > 0, got inf"
    with pytest.raises(OperatorValueError, match=match):
        MultiToneHamiltonian([(sigma_x(), omega)])


def test_accepts_largest_carrier_whose_sums_stay_finite():
    omega = math.nextafter(math.inf, 0) / 8
    H = MultiToneHamiltonian([(sigma_x(), omega)])
    assert all(math.isfinite(s.value) for s in frequency_report(H).three_sum_classes)


def test_accepts_couplings_whose_samples_stay_finite():
    # h + h^dag reaches the largest float exactly, and a sample stays below it
    H = MultiToneHamiltonian([(math.nextafter(math.inf, 0) / 2 * sigma_x(), 1.0)])
    assert np.isfinite(H.evaluate_grid(np.linspace(0.0, 7.0, 29))).all()
    assert np.isfinite(MultiToneHamiltonian([(1e300 * sigma_x(), 1.0)]).evaluate(0.0)).all()


@pytest.mark.parametrize("tones", [
    [(1e308 * sigma_x(), 1.0)],
    [(math.nextafter(math.nextafter(math.inf, 0) / 2, math.inf) * sigma_x(), 1.0)],
    [(0.9e308 * sigma_plus(), 1.0), (0.9e308 * sigma_plus(), 2.0)],
])
def test_refuses_couplings_whose_samples_overflow(tones):
    # under the warnings-as-errors filter, so no numpy warning comes first
    with pytest.raises(OperatorValueError, match="^the couplings are so large that a sample of H "
                                                 "is not finite$"):
        MultiToneHamiltonian(tones)


def test_requires_nonempty_tones():
    with pytest.raises(OperatorValueError):
        MultiToneHamiltonian([])


def test_requires_matching_dimensions():
    with pytest.raises(DimensionMismatchError):
        MultiToneHamiltonian([(sigma_plus(), 1.0), (np.eye(3), 2.0)])


def test_evaluate_at_zero_phase():
    H = MultiToneHamiltonian([(sigma_plus(), 5.0)])
    assert np.allclose(H.evaluate(0.0), sigma_x())


def test_evaluate_at_half_period():
    omega = 3.7
    H = MultiToneHamiltonian([(sigma_plus(), omega)])
    assert np.allclose(H.evaluate(np.pi / omega), -sigma_x(), atol=1e-14)


def test_evaluate_scalar_two_tone():
    # direct scalar evaluation oracle
    H = scalar_two_tone()
    t = 0.4
    expected = 2 * 2 * np.cos(3.0 * t) + 2 * np.cos(7.0 * t)
    assert np.allclose(H.evaluate(t), [[expected]])


def test_evaluate_always_hermitian(rng):
    for _ in range(4):
        dim = int(rng.integers(1, 7))
        tones = [
            (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
             float(rng.uniform(0.5, 10)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        H = MultiToneHamiltonian(tones)
        for t in rng.uniform(0, 20, size=100):
            assert hermiticity_defect(H.evaluate(float(t))) < 1e-13


def test_evaluate_grid_matches_evaluate(rng):
    H = scalar_two_tone()
    ts = rng.uniform(0, 5, size=8)
    grid = H.evaluate_grid(ts)
    for i, t in enumerate(ts):
        assert np.allclose(grid[i], H.evaluate(float(t)))


def test_every_grid_sample_is_exactly_hermitian():
    # a real combination of Hermitian matrices: no rounding breaks the symmetry
    rng = np.random.default_rng(25)
    models = [make_model(name) for name in ZOO_NAMES]
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        models.append(MultiToneHamiltonian([
            (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
             float(rng.uniform(0.5, 10)))
            for _ in range(int(rng.integers(1, 4)))
        ]))
    ts = rng.uniform(0, 20, size=2000)
    for H in models:
        A = H.evaluate_grid(ts)
        assert np.array_equal(A, A.conj().transpose(0, 2, 1)), H
        for t in ts[:20]:
            B = H.evaluate(t)
            assert np.array_equal(B, B.conj().T), H


@pytest.mark.parametrize("ts", [0.4, np.linspace(0, 2, 5), np.linspace(0, 2, 5)[:, None],
                                np.linspace(0, 2, 5)[None, :], np.array([])],
                         ids=["0d", "n", "n_1", "1_n", "empty"])
def test_model_and_series_read_times_alike(ts):
    # any array of times is flattened, one sample per time
    H = MultiToneHamiltonian([(sigma_plus(), 5.0), (0.3 * sigma_z(), 12.0)])
    S = H.to_operator_series()
    shape = (np.size(ts), 2, 2)
    assert H.evaluate_grid(ts).shape == shape
    assert S.evaluate_grid(ts).shape == shape


def test_evaluate_is_the_one_row_grid(rng):
    H = MultiToneHamiltonian([(sigma_plus(), 5.0), (0.3 * sigma_z(), 12.0)])
    S = H.to_operator_series()
    for t in rng.uniform(0, 10, size=10):
        assert np.array_equal(H.evaluate(t), H.evaluate_grid(t)[0])
        assert np.array_equal(H.evaluate(t), H.evaluate_grid([t])[0])
        assert np.array_equal(S.evaluate(t), S.evaluate_grid(t)[0])


def test_model_is_immutable_and_shows_its_carriers():
    H = MultiToneHamiltonian([(sigma_plus(), 2.0), (sigma_z(), 3.5)])
    with pytest.raises(AttributeError, match="immutable"):
        H.dim = 3
    assert repr(H) == "MultiToneHamiltonian(dim=2, omegas=[2, 3.5])"


# ----------------------------------------------------------------------
# operator series form


def test_series_has_two_entries_per_tone():
    H = MultiToneHamiltonian([(sigma_plus(), 4.0)])
    S = H.to_operator_series()
    freqs = sorted(m.freq for _, p in S.entries for m in p.terms)
    assert freqs == [-4.0, 4.0]


def test_series_agrees_with_evaluate(rng):
    H = MultiToneHamiltonian([(sigma_plus(), 5.0), (0.3 * sigma_z(), 12.0)])
    S = H.to_operator_series()
    for t in rng.uniform(0, 10, size=50):
        a = H.evaluate(float(t))
        b = S.evaluate(float(t))
        assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(a))


def test_scaled_model():
    H = MultiToneHamiltonian([(sigma_plus(), 2.0)])
    assert np.allclose(H.scaled(0.5).evaluate(0.3), 0.5 * H.evaluate(0.3))


# ----------------------------------------------------------------------
# frequency report


def test_report_single_tone():
    H = MultiToneHamiltonian([(np.array([[1.0 + 0j]]), 1.0)])
    rep = frequency_report(H, gap_min=0.5)
    assert rep.pairwise_distinct
    assert rep.min_pair_gap == np.inf
    values = sorted(s.value for s in rep.three_sum_classes)
    assert values == [-3.0, -1.0, 1.0, 3.0]
    assert all(s.klass == "nonzero" for s in rep.three_sum_classes)
    assert rep.ambiguous_count == 0


def test_report_two_tone_sums():
    H = MultiToneHamiltonian([(np.array([[1.0 + 0j]]), 3.0),
                              (np.array([[1.0 + 0j]]), 7.0)])
    rep = frequency_report(H)
    by_value = {round(s.value, 9): s.klass for s in rep.three_sum_classes}
    assert by_value[-1.0] == "nonzero"   # 3 + 3 - 7
    assert by_value[1.0] == "nonzero"    # 7 - 3 - 3
    assert by_value[7.0] == "nonzero"    # 3 - 3 + 7
    assert rep.passes


def test_report_resonant_triple():
    H = MultiToneHamiltonian([(np.array([[1.0 + 0j]]), 2.0),
                              (np.array([[1.0 + 0j]]), 4.0)])
    rep = frequency_report(H)
    zero_sums = [s for s in rep.three_sum_classes if s.klass == "zero"]
    assert zero_sums  # 2 + 2 - 4 cancels exactly
    assert rep.pairwise_distinct
    assert rep.ambiguous_count == 0


def test_report_degenerate_pair_flagged():
    H = MultiToneHamiltonian([(sigma_plus(), 3.0), (sigma_z(), 3.0)])
    rep = frequency_report(H)
    assert not rep.pairwise_distinct
    assert rep.min_pair_gap == 0.0


def test_report_permutation_invariant():
    a = MultiToneHamiltonian([(sigma_plus(), 3.0), (sigma_z(), 7.0)])
    b = MultiToneHamiltonian([(sigma_z(), 7.0), (sigma_plus(), 3.0)])
    ra = frequency_report(a)
    rb = frequency_report(b)
    assert sorted(round(s.value, 12) for s in ra.three_sum_classes) == sorted(
        round(s.value, 12) for s in rb.three_sum_classes
    )
    assert ra.pairwise_distinct == rb.pairwise_distinct


def reference_three_sums(omegas):
    """Index triples times sign patterns, each multiset kept at its first
    appearance: the enumeration the report must reproduce."""
    seen, out = set(), []
    for triple in combinations_with_replacement(range(len(omegas)), 3):
        for signs in product((1, -1), repeat=3):
            canon = tuple(sorted(zip(triple, signs)))
            if canon not in seen:
                seen.add(canon)
                out.append((triple, signs, sum(s * omegas[i] for i, s in zip(triple, signs))))
    return out


@pytest.mark.parametrize("omegas", [(1.0,), (2.0, 4.0), (1.0, 2.0, 3.0), (0.7, 1.3, 2.9, 4.1),
                                    (3.0, 3.0, 1.5, 4.5), (1.0, 2.0, 3.0, 2.0 + 1e-5)])
def test_report_enumerates_each_multiset_once(omegas):
    H = MultiToneHamiltonian([(np.array([[1.0 + 0j]]), w) for w in omegas])
    got = [(s.indices, s.signs, s.value) for s in frequency_report(H).three_sum_classes]
    assert got == reference_three_sums(omegas)


def test_report_threshold_ordering_enforced():
    H = MultiToneHamiltonian([(sigma_plus(), 3.0)])
    with pytest.raises(OperatorValueError):
        frequency_report(H, tol_zero=1e-2, gap_min=1e-3)


def test_report_ambiguous_band():
    H = MultiToneHamiltonian([(np.array([[1.0 + 0j]]), 2.0),
                              (np.array([[1.0 + 0j]]), 4.0 + 1e-5)])
    rep = frequency_report(H)
    assert rep.ambiguous_count > 0
    assert not rep.passes


# ----------------------------------------------------------------------
# commutation probe


def test_probe_scalar_model_commutes():
    H = scalar_two_tone()
    assert commutation_probe(H, [(0.1, 0.7), (0.3, 1.1)]) == 0.0


def test_probe_diagonal_family_commutes():
    H = MultiToneHamiltonian([
        (np.diag([0.8, 0.3]).astype(complex), 1.0),
        (np.diag([0.2, 0.6]).astype(complex), 2.3),
    ])
    assert commutation_probe(H, [(0.0, 1.0), (0.5, 2.0)]) < 1e-13


def test_probe_noncommuting_model_positive():
    H = MultiToneHamiltonian([(sigma_plus(), 5.0), (sigma_z(), 12.0)])
    assert commutation_probe(H, [(0.1, 0.7), (0.3, 1.1)]) > 0.0


def test_probe_needs_pairs():
    with pytest.raises(OperatorValueError):
        commutation_probe(scalar_two_tone(), [])


class _Unsampled:
    """A model stand-in that fails if it is sampled."""

    def evaluate(self, t):
        raise AssertionError("the model was sampled")


@pytest.mark.parametrize("pairs, message", [
    ([(math.nan, 1.0)], "time pair must be a 1-D array of finite real numbers, got nan"),
    ([(0.1, 0.2), (0.3, math.inf)], "got inf"),
    ([(True, 0.5)], "got a bool"),
    ([0.5], "got shape ()"),
    ([(1.0,)], "time pair must hold two times, got 1"),
    ([(0.1, 0.2), (0.1, 0.2, 0.3)], "time pair must hold two times, got 3"),
])
def test_probe_rejects_bad_pairs_before_sampling(pairs, message):
    # a NaN time once gave 0.0, which reads as "commuting"
    with pytest.raises(OperatorValueError, match=re.escape(message)):
        commutation_probe(_Unsampled(), pairs)


def test_probe_takes_an_array_of_pairs():
    H = MultiToneHamiltonian([(sigma_plus(), 5.0), (sigma_z(), 12.0)])
    pairs = [(0.1, 0.7), (0.3, 1.1)]
    assert commutation_probe(H, np.array(pairs)) == commutation_probe(H, pairs)


@pytest.mark.parametrize("name", ["tol_zero", "gap_min"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, True, "1e-3"])
def test_report_thresholds_must_be_finite_and_nonnegative(name, value):
    H = MultiToneHamiltonian([(sigma_plus(), 3.0)])
    with pytest.raises(OperatorValueError, match=f"{name} must be a finite real number >= 0"):
        frequency_report(H, **{name: value})


def test_report_accepts_zero_tol_zero():
    rep = frequency_report(MultiToneHamiltonian([(sigma_plus(), 3.0)]), tol_zero=0.0)
    assert rep.tol_zero == 0.0 and rep.three_sum_classes
