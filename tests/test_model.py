import math
import pathlib
import re
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from effham import (
    TOL_ZERO,
    ZOO_NAMES,
    DimensionMismatchError,
    MultiToneHamiltonian,
    OperatorValueError,
    commutation_probe,
    frequency_report,
    heff_n_timedep,
    hermiticity_defect,
    make_model,
    quad_oracle,
    sigma_plus,
    sigma_x,
    sigma_z,
)
from effham.dsl import load_model

from conftest import random_generic


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


@pytest.mark.parametrize("omega", [TOL_ZERO, 5e-324])
def test_refuses_carrier_at_or_below_tol_zero(omega):
    # the series would snap such a carrier to frequency 0, the oracles would not
    with pytest.raises(OperatorValueError, match=r"> TOL_ZERO \(1e-09\)"):
        MultiToneHamiltonian([(sigma_x(), omega)])


def test_accepts_smallest_carrier_above_tol_zero():
    omega = np.nextafter(TOL_ZERO, 1)
    assert MultiToneHamiltonian([(sigma_x(), omega)]).omegas == (omega,)


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


def test_refuses_an_empty_tone():
    with pytest.raises(OperatorValueError, match=r"^tone operator must be a square matrix of "
                                                 r"dimension >= 1, got shape \(0, 0\)$"):
        MultiToneHamiltonian([(np.zeros((0, 0)), 1.0)])


def test_a_tone_is_a_copy_the_caller_cannot_change():
    # the caller's matrix stays writable and unshared: writing to it after
    # construction leaves the tones and the sampled rows describing one model
    h = 0.5 * sigma_plus().astype(complex)
    H = MultiToneHamiltonian([(h, 1.0)])
    assert h.flags.writeable and not np.shares_memory(h, H.tones[0].h)
    assert not H.tones[0].h.flags.writeable
    h[0, 1] = 5
    assert H.tones[0].h[0, 1] == 0.5
    assert np.linalg.norm(heff_n_timedep(H, 2).evaluate(1.0) - quad_oracle(H, 2, 1.0, 1e-9)) < 1e-8


def test_accepts_a_tone_whose_last_axis_is_not_contiguous():
    h = (1j * sigma_plus()).T
    assert not h.flags.c_contiguous
    H = MultiToneHamiltonian([(h, 1.0)])
    ref = MultiToneHamiltonian([(np.ascontiguousarray(h), 1.0)])
    ts = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(H.evaluate_grid(ts), ref.evaluate_grid(ts))


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


ROOT = pathlib.Path(__file__).resolve().parent.parent
BUNDLED = ([pytest.param(lambda name=name: make_model(name), id=name) for name in ZOO_NAMES]
           + [pytest.param(lambda path=path: load_model(path), id=path.name)
              for path in sorted((ROOT / "demos" / "models").glob("*.ham"))
              + sorted((ROOT / "tests" / "data").glob("*.ham"))])


def _generic_d6t3():
    rng = np.random.default_rng(6)
    return MultiToneHamiltonian([(random_generic(rng, 6, 0.4), w) for w in (1.3, 2.1, 3.7)])


@pytest.mark.parametrize("make", BUNDLED + [pytest.param(_generic_d6t3, id="d6t3")])
def test_sampling_given_entries_gives_the_dense_doubles(make):
    # the model and its series of orders 1 to 4, at every entry, a random
    # subset, one entry and none
    H = make()
    rng = np.random.default_rng(H.dim)
    ts = np.linspace(0.0, 10.0 / H.min_omega, 1025)
    d2 = H.dim * H.dim
    indexes = [np.arange(d2), np.sort(rng.choice(d2, size=max(1, d2 // 3), replace=False)),
               np.array([d2 - 1]), np.array([], dtype=int)]
    for op in [H, H.to_operator_series()] + [heff_n_timedep(H, n) for n in (2, 3, 4)]:
        dense = op.evaluate_grid(ts).reshape(len(ts), d2)
        for index in indexes:
            values = op.evaluate_grid(ts, index)
            assert values.shape == (len(ts), len(index)) and values.dtype == complex
            assert values.tobytes() == dense[:, index].tobytes()


@pytest.mark.parametrize("make", BUNDLED)
def test_support_is_the_union_of_the_sample_patterns(make):
    H = make()
    ts = np.linspace(0.0, 10.0 / H.min_omega, 1025)
    union = np.any(H.evaluate_grid(ts) != 0, axis=0)
    assert H.support.shape == (H.dim, H.dim) and H.support.dtype == bool
    assert np.array_equal(H.support, union)
    S = H.to_operator_series()
    assert np.array_equal(S.support, np.any(S.evaluate_grid(ts) != 0, axis=0))
    assert np.array_equal(S.support, union)


def test_support_leaves_out_what_no_tone_touches():
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = 0.4
    H = MultiToneHamiltonian([(h, 1.5), (0.2 * np.diag([0.0, 0.0, 1.0]), 2.5)])
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool)
    assert np.array_equal(H.support, expected)
    assert np.array_equal(H.to_operator_series().support, expected)


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
