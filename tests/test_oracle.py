import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from effham import (
    DimensionMismatchError,
    MultiToneHamiltonian,
    OperatorSeries,
    OperatorValueError,
    QuadratureError,
    TonePoly,
    ZOO_NAMES,
    commutation_probe,
    fidelity_distance,
    heff3_timedep,
    heff_n_timedep,
    heff_secular,
    make_model,
    matrix_exponential,
    propagate_exact,
    propagate_series,
    quad_oracle,
    sigma_plus,
    sigma_x,
    sigma_z,
    unitarity_defect,
)
from effham import oracle
from effham.diagnostics import jc_detuned
from effham.dsl import load_model

from conftest import random_generic


# ----------------------------------------------------------------------
# exact propagation


def test_propagate_exact_at_zero_is_identity():
    H = make_model("noncommuting_two_tone")
    res = propagate_exact(H, 0.0, steps=64)
    assert np.array_equal(res.U, np.eye(2))
    assert res.est_error == 0.0


def test_propagate_exact_scalar_closed_form():
    # commuting family: U(t) = exp(-i (2g/w) sin(wt)); at g=1, w=2, t=pi/2 -> [1]
    H = make_model("scalar_single_tone", g=1.0, omega=2.0)
    res = propagate_exact(H, np.pi / 2, steps=2048)
    assert np.allclose(res.U, [[1.0]], atol=1e-10)
    t = 0.73
    res = propagate_exact(H, t, steps=2048)
    assert np.allclose(res.U, [[np.exp(-1j * np.sin(2 * t))]], atol=1e-10)


def test_propagate_exact_error_estimate_order(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    H = MultiToneHamiltonian([(h, 3.0)])
    coarse = propagate_exact(H, 2.0, steps=64)
    fine = propagate_exact(H, 2.0, steps=128)
    # a method of order >= 4 gains at least 8x per halving of the step
    assert coarse.est_error / fine.est_error >= 8.0


def test_propagate_exact_unitarity_bound():
    H = make_model("noncommuting_two_tone")
    res = propagate_exact(H, 3.0, steps=4096)
    assert unitarity_defect(res.U) < max(1e-10, 10 * res.est_error)


def test_propagate_exact_gauge_consistency_for_commuting_family():
    H = make_model("commuting_diag")
    assert commutation_probe(H, [(0.2, 1.4), (0.9, 3.3)]) < 1e-13
    t = 2.5
    # integral of H over [0, t] in closed form for the commuting family
    phase = np.zeros((2, 2), dtype=complex)
    for tone in H.tones:
        phase += tone.h * (np.exp(1j * tone.omega * t) - 1) / (1j * tone.omega)
    phase = phase + phase.conj().T
    expected = matrix_exponential(-1j * phase)
    res = propagate_exact(H, t, steps=4096)
    assert np.linalg.norm(res.U - expected) < 1e-9


def test_propagate_exact_validates_arguments():
    H = make_model("scalar_single_tone")
    with pytest.raises(OperatorValueError):
        propagate_exact(H, 1.0, steps=4)
    with pytest.raises(OperatorValueError):
        propagate_exact(H, -1.0, steps=64)


# Per-step RK4 loop the batched oracle replaced, kept verbatim as the
# reference; its block size only sets how H is sampled, not the result.
_RK4_BLOCK = 8192


def _rk4_reference(grid_eval, dim: int, t: float, steps: int) -> np.ndarray:
    # Classical RK4 on dU/dt = -i H(t) U. H samples for each block of
    # steps are precomputed on the half-step grid in one vectorized call.
    h = t / steps
    U = np.eye(dim, dtype=complex)
    for s0 in range(0, steps, _RK4_BLOCK):
        s1 = min(steps, s0 + _RK4_BLOCK)
        times = h * (s0 + 0.5 * np.arange(2 * (s1 - s0) + 1))
        A = -1j * np.asarray(grid_eval(times))
        for k in range(s1 - s0):
            A0, Am, A1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
            k1 = A0 @ U
            k2 = Am @ (U + (h / 2) * k1)
            k3 = Am @ (U + (h / 2) * k2)
            k4 = A1 @ (U + h * k3)
            U = U + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def _assert_matches_reference(res, op, t, steps):
    coarse = _rk4_reference(op.evaluate_grid, op.dim, t, steps)
    fine = _rk4_reference(op.evaluate_grid, op.dim, t, 2 * steps)
    est_ref = float(np.linalg.norm(coarse - fine))
    assert res.steps == steps
    assert np.linalg.norm(res.U - fine) <= 1e-12 * max(1.0, np.linalg.norm(fine))
    assert abs(res.est_error - est_ref) <= 1e-3 * est_ref + 1e-14


class _CountingOperator:
    """Forwards to a model or series and records the times it is sampled at."""

    def __init__(self, op):
        self.op = op
        self.points = 0
        self.grids = []
        self.times = []

    def __getattr__(self, name):
        return getattr(self.op, name)

    def evaluate_grid(self, ts, *index):
        self.points += len(ts)
        self.grids.append(len(ts))
        self.times.append(np.array(ts, dtype=float))
        return self.op.evaluate_grid(ts, *index)


def test_propagate_exact_matches_reference_loop_generic_tail_block(rng):
    # 1000 coarse steps is not a multiple of the block, so a short tail runs
    H = MultiToneHamiltonian(
        [(random_generic(rng, 6, 0.4), w) for w in (1.3, 2.1, 3.7)]
    )
    assert 1000 % oracle._RK4_BLOCK != 0
    _assert_matches_reference(propagate_exact(H, 1.5, steps=1000), H, 1.5, 1000)


def test_propagate_exact_matches_reference_loop_dense_3x3(rng):
    # one dense sector of 3 levels, multiplied as sums of outer products
    H = MultiToneHamiltonian([(random_generic(rng, 3, 0.4), w) for w in (1.3, 2.1, 3.7)])
    assert _sector_sizes(H, np.linspace(0.0, 1.5, 5)) == [3]
    _assert_matches_reference(propagate_exact(H, 1.5, steps=1000), H, 1.5, 1000)


def test_propagate_exact_matches_reference_loop_jc():
    H = jc_detuned(g=0.05)
    _assert_matches_reference(propagate_exact(H, 50.0, steps=4096), H, 50.0, 4096)


def _sector_sizes(op, ts):
    return sorted(len(s) for s in oracle._sectors(np.any(op.evaluate_grid(ts) != 0, axis=0)))


def test_sectors_of_jc_and_of_a_dense_model(rng):
    ts = np.linspace(0.0, 3.0, 7)
    # jc conserves the excitation number: two lone states, four doublets
    assert _sector_sizes(jc_detuned(g=0.05), ts) == [1, 1, 2, 2, 2, 2]
    assert _sector_sizes(_generic_three_tone(rng), ts) == [6]


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def test_propagate_exact_of_rotated_jc_matches_conjugated_propagator(rng):
    # V H V^dag has one dense sector, so it runs the unsplit path, while jc
    # itself runs split into its sectors; both give V U V^dag and the same
    # step-halving distance
    jc = jc_detuned(g=0.05)
    V = _random_unitary(rng, jc.dim)
    rotated = MultiToneHamiltonian([(V @ tone.h @ V.conj().T, tone.omega) for tone in jc.tones])
    assert _sector_sizes(rotated, np.linspace(0.0, 3.0, 7)) == [jc.dim]
    res = propagate_exact(jc, 50.0, steps=1024)
    rot = propagate_exact(rotated, 50.0, steps=1024)
    assert np.linalg.norm(rot.U - V @ res.U @ V.conj().T) <= 1e-12 * np.linalg.norm(res.U)
    assert abs(rot.est_error - res.est_error) <= 1e-6 * res.est_error


def _two_4x4_sectors(rng):
    h = np.zeros((8, 8), dtype=complex)
    h[:4, :4] = random_generic(rng, 4, 0.4)
    h[4:, 4:] = random_generic(rng, 4, 0.4)
    H = MultiToneHamiltonian([(h, w) for w in (1.3, 2.1)])
    assert _sector_sizes(H, np.linspace(0.0, 1.5, 5)) == [4, 4]
    return H


def _record_splits(monkeypatch):
    """Two lists that get, for every stack the oracles lay out, whether it
    was split: ``scanned`` for an operand with no support, whose stacks are
    split by their own pattern, and ``declared`` for one whose declared
    support decided the split."""
    scanned, declared = [], []
    stack = oracle._SectorStage.stack

    def recording(self, A):
        out = stack(self, A)
        (scanned if self.scan else declared).append(self.valid is not None)
        return out

    monkeypatch.setattr(oracle._SectorStage, "stack", recording)
    return scanned, declared


def test_sector_stage_splits_jc_only_into_sectors_up_to_3x3(rng):
    ts = np.linspace(0.0, 1.5, 9)
    for H, split in [(jc_detuned(g=0.05), True), (_two_4x4_sectors(rng), False),
                     (_generic_three_tone(rng), False)]:
        A = np.ascontiguousarray(H.evaluate_grid(ts))
        sectors = oracle._SectorStage(_NoSupport(H))
        stack = sectors.stack(A)
        assert (stack is not A) == split
        # the declared support gives the same stack from the entries it samples
        declared = oracle._SectorStage(H)
        assert declared.stack(declared.sample(ts)).tobytes() == stack.tobytes()
        if split:
            # the doublets only: levels 4 and 5 are idle and left out
            assert stack.shape == (len(ts), 4, 2, 2)
            assert np.array_equal(sectors.scatter(stack), A)
        else:
            assert sectors.scatter(stack) is stack


def _jc_with_idle_level():
    # jc with an 11th level that no tone touches
    jc = jc_detuned(g=0.05)
    h = np.zeros((jc.dim + 1, jc.dim + 1), dtype=complex)
    h[:jc.dim, :jc.dim] = jc.tones[0].h
    return MultiToneHamiltonian([(h, jc.tones[0].omega)])


def _idle_levels(op, ts):
    # lone levels with no diagonal entry in any sample
    pattern = np.any(op.evaluate_grid(ts) != 0, axis=0)
    return [s[0] for s in oracle._sectors(pattern) if len(s) == 1 and not pattern[s[0], s[0]]]


def test_propagate_exact_leaves_idle_levels_of_jc_at_the_identity():
    ts = np.linspace(0.0, 3.0, 7)
    jc, padded = jc_detuned(g=0.05), _jc_with_idle_level()
    assert _idle_levels(jc, ts) == [4, 5]
    assert _idle_levels(padded, ts) == [4, 5, 10]
    res = propagate_exact(jc, 50.0, steps=1024)
    pad = propagate_exact(padded, 50.0, steps=1024)
    for op, U in ((jc, res.U), (padded, pad.U)):
        idle = _idle_levels(op, ts)
        identity = np.eye(op.dim)
        assert np.array_equal(U[idle], identity[idle])
        assert np.array_equal(U[:, idle], identity[:, idle])
    # the same 4 sectors run either way
    assert np.array_equal(pad.U[:jc.dim, :jc.dim], res.U)
    assert abs(pad.est_error - res.est_error) <= 1e-14 * res.est_error
    _assert_matches_reference(pad, padded, 50.0, 1024)


class _DetunedLoneLevel:
    """A driven pair of levels and a lone level of constant energy ``eps``."""

    dim = 3
    max_omega = 1.3

    def __init__(self, eps):
        self.eps = eps

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        H = np.zeros((len(ts), 3, 3), dtype=complex)
        H[:, 0, 1] = H[:, 1, 0] = 0.4 * np.cos(1.3 * ts)
        H[:, 2, 2] = self.eps
        return H


@pytest.mark.parametrize("eps", [0.0, 0.7])
def test_a_lone_level_with_a_diagonal_entry_is_kept(eps):
    op = _DetunedLoneLevel(eps)
    stack = oracle._SectorStage(op).stack(op.evaluate_grid(np.linspace(0.0, 1.0, 5)))
    assert stack.shape == (5, 1 if eps == 0.0 else 2, 2, 2)
    t = 3.0
    res = propagate_exact(op, t, steps=512)
    assert res.est_error > 0.0
    assert abs(res.U[2, 2] - np.exp(-1j * eps * t)) <= res.est_error
    _assert_matches_reference(res, op, t, 512)


def test_the_padding_of_a_sector_stack_is_zero_on_either_route():
    # a lone level 0 with a diagonal entry, and a pair: the padding of the
    # lone level's sector reads entry (0, 0) on the scanned route and the
    # first sampled entry on the declared one, neither of them zero
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0], h[1, 2] = 0.3, 0.4
    H = MultiToneHamiltonian([(h, 1.3)])
    ts = np.linspace(0.0, 1.0, 5)
    for op in (H, _NoSupport(H)):
        sectors = oracle._SectorStage(op)
        stack = sectors.stack(sectors.sample(ts))
        assert stack.shape == (5, 2, 2, 2) and not stack[:, ~sectors.valid].any()
        assert np.array_equal(sectors.scatter(stack), H.evaluate_grid(ts))
        _assert_matches_reference(propagate_exact(op, 3.0, steps=512), op, 3.0, 512)


class _Zero:
    """A grid function that is zero at every time."""

    dim = 4
    max_omega = 1.0

    def evaluate_grid(self, ts):
        return np.zeros((len(ts), 4, 4))


class _SwitchedIdleCoupling(_Zero):
    """Zero until ``t_on``, then a coupling of levels 0 and 1."""

    def __init__(self, t_on):
        self.t_on = t_on

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        H = np.zeros((len(ts), 4, 4), dtype=complex)
        H[:, 0, 1] = H[:, 1, 0] = 0.4 * np.cos(ts) * (ts >= self.t_on)
        return H


def test_oracles_of_a_vanishing_block_give_the_identity_and_zero():
    # every level idle: the stack has no sectors
    assert oracle._SectorStage(_Zero()).stack(np.zeros((2, 4, 4))).shape == (2, 0, 1, 1)
    res = propagate_exact(_Zero(), 2.0, steps=3 * oracle._RK4_BLOCK)
    assert np.array_equal(res.U, np.eye(4)) and res.est_error == 0.0
    for val in quad_oracle(_Zero(), (2, 3, 6), [1.0, 2.0], 1e-9).values():
        assert val.shape == (2, 4, 4) and not val.any()
    # the first block vanishes, the later ones couple levels 0 and 1
    steps, t = 3 * oracle._RK4_BLOCK, 2.0
    op = _SwitchedIdleCoupling(t_on=1.1 * t / 3)
    res = propagate_exact(op, t, steps=steps)
    assert np.array_equal(res.U[2:], np.eye(4)[2:])
    assert np.array_equal(res.U[:, 2:], np.eye(4)[:, 2:])
    _assert_matches_reference(res, op, t, steps)


def test_propagate_exact_runs_sectors_larger_than_3x3_unsplit(rng, monkeypatch):
    # a padded stack of 4x4 sectors would cost one np.matmul per sector:
    # the declared support runs unsplit with no scan, the same operand with
    # no support is scanned and runs unsplit
    H = _two_4x4_sectors(rng)
    scanned, declared = _record_splits(monkeypatch)
    res = propagate_exact(H, 1.5, steps=300)
    assert not scanned and declared and not any(declared)
    _assert_matches_reference(res, H, 1.5, 300)
    declared.clear()
    ref = propagate_exact(_NoSupport(H), 1.5, steps=300)
    assert not declared and scanned and not any(scanned)
    assert res.U.tobytes() == ref.U.tobytes() and res.est_error == ref.est_error


class _SwitchedCoupling:
    """Two detuned pairs of levels whose coupling is off until ``t_on``."""

    dim = 4
    max_omega = 1.7

    def __init__(self, t_on):
        self.t_on = t_on

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        H = np.zeros((len(ts), 4, 4), dtype=complex)
        H[:, range(4), range(4)] = [0.3, -0.2, 0.5, 0.1]
        on = 0.4 * np.cos(1.7 * ts) * (ts >= self.t_on)
        for i, j in ((0, 1), (2, 3)):
            H[:, i, j] = H[:, j, i] = on
        return H


def test_propagate_exact_matches_reference_loop_when_sectors_change():
    # the first block has four lone levels; from the second block on the
    # coupling joins them into two pairs, so the sectors are found again
    steps, t = 3 * oracle._RK4_BLOCK, 2.0
    op = _SwitchedCoupling(t_on=1.1 * t / 3)
    assert _sector_sizes(op, [0.0, t / 3]) == [1, 1, 1, 1]
    assert _sector_sizes(op, [0.0, t]) == [2, 2]
    _assert_matches_reference(propagate_exact(op, t, steps=steps), op, t, steps)


def test_propagate_series_matches_reference_loop_nonhermitian(rng):
    S = OperatorSeries.constant(random_generic(rng, 4, 2.0))
    _assert_matches_reference(propagate_series(S, 1.3, steps=300), S, 1.3, 300)


def _generic_three_tone(rng):
    # the model of the tail-block test above
    return MultiToneHamiltonian(
        [(random_generic(rng, 6, 0.4), w) for w in (1.3, 2.1, 3.7)]
    )


@pytest.mark.parametrize("steps", [16, 17, 257, 513])
def test_propagate_exact_matches_reference_loop_odd_tree_and_short_tail(rng, steps):
    # odd numbers of coarse steps per block, and tails of a single step
    H = _generic_three_tone(rng)
    _assert_matches_reference(propagate_exact(H, 1.5, steps=steps), H, 1.5, steps)


class _RealPart:
    """The real part of a model's samples, returned as ``dtype`` (float64
    by default): a grid function whose samples are not complex."""

    def __init__(self, op, dtype=float):
        self.op, self.dtype = op, dtype
        self.dim, self.max_omega = op.dim, op.max_omega

    def evaluate_grid(self, ts):
        return self.op.evaluate_grid(ts).real.astype(self.dtype)


class _CachedSamples:
    """Returns one cached array per distinct time grid, as a memoised grid
    function would, and keeps a pristine copy of each to compare against."""

    def __init__(self, op):
        self.op = op
        self.dim, self.max_omega = op.dim, op.max_omega
        self.cache = {}

    def evaluate_grid(self, ts):
        key = np.asarray(ts, dtype=float).tobytes()
        if key not in self.cache:
            samples = self.op.evaluate_grid(ts)
            self.cache[key] = (samples, samples.copy())
        return self.cache[key][0]


def _oracle_models(rng):
    # split into 2x2 sectors (jc), one dense 3x3 sector (outer-product sums)
    # and one dense 6x6 sector (np.matmul)
    return {"jc": jc_detuned(g=0.05),
            "dense3": MultiToneHamiltonian([(random_generic(rng, 3, 0.4), w)
                                            for w in (1.3, 2.1, 3.7)]),
            "dense6": _generic_three_tone(rng)}


@pytest.mark.parametrize("name", ["jc", "dense3", "dense6"])
def test_propagate_exact_of_real_samples_matches_reference_loop(rng, name):
    op = _RealPart(_oracle_models(rng)[name])
    assert op.evaluate_grid([0.0, 0.7]).dtype == np.float64
    _assert_matches_reference(propagate_exact(op, 1.5, steps=300), op, 1.5, 300)


@pytest.mark.parametrize("name", ["jc", "dense3"])
def test_oracles_never_write_to_the_callers_samples(rng, name):
    H = _oracle_models(rng)[name]
    op = _CachedSamples(H)
    res = propagate_exact(op, 1.5, steps=300)
    vals = quad_oracle(op, (2, 3, 4), _eighths(2.0), 1e-9)
    assert op.cache
    for samples, pristine in op.cache.values():
        assert samples.dtype == complex
        assert samples.tobytes() == pristine.tobytes()
    assert np.array_equal(res.U, propagate_exact(H, 1.5, steps=300).U)
    for n, val in quad_oracle(H, (2, 3, 4), _eighths(2.0), 1e-9).items():
        assert np.array_equal(vals[n], val)


def _rk4_extended(A, h, steps):
    # the reference loop's RK4 step, in extended precision, on given samples
    U = np.eye(A.shape[1], dtype=A.dtype)
    h = np.longdouble(h)
    for k in range(steps):
        A0, Am, A1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1 = A0 @ U
        k2 = Am @ (U + (h / 2) * k1)
        k3 = Am @ (U + (h / 2) * k2)
        k4 = A1 @ (U + h * k3)
        U = U + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is plain double here")
def test_propagate_exact_error_estimate_matches_extended_precision(rng):
    # The step-halving distance of the same samples, both runs computed in
    # extended precision: the double-precision estimate must hold its
    # relative precision although it is about 1e-13 of ||U||.
    H = _generic_three_tone(rng)
    t, steps = 1.5, 1000
    res = propagate_exact(H, t, steps=steps)
    h = t / (2 * steps)
    A = -1j * H.evaluate_grid((h / 2) * np.arange(4 * steps + 1)).astype(np.clongdouble)
    coarse = _rk4_extended(A[::2], 2 * h, steps)
    fine = _rk4_extended(A, h, 2 * steps)
    est = float(np.sqrt(np.sum(np.abs(coarse - fine) ** 2)))
    assert abs(res.est_error - est) <= 1e-4 * est
    assert np.linalg.norm(res.U - fine.astype(complex)) <= 1e-14


@pytest.mark.parametrize("steps", [math.nan, math.inf, 16.9, 64.0, 15, -64,
                                   oracle.MAX_RK4_STEPS + 1])
def test_propagators_reject_bad_steps_before_sampling(steps):
    rule = re.escape(f"integer in [16, {oracle.MAX_RK4_STEPS}], got {steps!r}")
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match=rule):
        propagate_exact(H, 1.0, steps=steps)
    S = _CountingOperator(heff3_timedep(H.op))
    with pytest.raises(OperatorValueError, match=rule):
        propagate_series(S, 1.0, steps=steps)
    assert H.points == 0 and S.points == 0


@pytest.mark.parametrize("t", [1.0, 1e10])
def test_propagators_refuse_a_default_step_count_above_the_cap(t):
    # a carrier of 1e300 asks for a default count of 304 digits at t = 1,
    # and for more than a float holds at t = 1e10
    H = _CountingOperator(MultiToneHamiltonian([(sigma_x(), 1e300)]))
    rule = re.escape(f"steps must be an integer in [16, {oracle.MAX_RK4_STEPS}], got ")
    with pytest.raises(OperatorValueError, match=rule):
        propagate_exact(H, t)
    S = _CountingOperator(H.op.to_operator_series())
    with pytest.raises(OperatorValueError, match=rule):
        propagate_series(S, t)
    assert H.points == 0 and S.points == 0


def test_propagators_accept_a_fraction_time():
    # a Fraction is a numbers.Real; it runs as the float it equals, and
    # each propagator takes its default step count from it
    H = make_model("noncommuting_two_tone")
    S = heff3_timedep(H)
    for propagate, op in ((propagate_exact, H), (propagate_series, S)):
        half, ref = propagate(op, Fraction(1, 64)), propagate(op, 1 / 64)
        assert np.array_equal(half.U, ref.U) and half.est_error == ref.est_error


def test_propagators_accept_numpy_integer_steps():
    H = make_model("noncommuting_two_tone")
    res = propagate_exact(H, 1.0, steps=np.int64(16))
    assert type(res.steps) is int and res.steps == 16
    assert np.array_equal(res.U, propagate_exact(H, 1.0, steps=16).U)


@pytest.mark.parametrize("steps", [16, 300, 1000])
def test_propagate_exact_samples_h_once_for_both_runs(steps):
    # the coarse run reads every other sample of the fine run's grid
    H = _CountingOperator(jc_detuned(g=0.05))
    propagate_exact(H, 3.0, steps=steps)
    assert H.points <= 4 * steps + math.ceil(steps / oracle._RK4_BLOCK)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True, "1.0"])
@pytest.mark.parametrize("steps", [None, 64])
def test_propagators_reject_non_finite_time_before_sampling(t, steps):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match="finite"):
        propagate_exact(H, t, steps=steps)
    S = _CountingOperator(heff3_timedep(H.op))
    with pytest.raises(OperatorValueError, match="finite"):
        propagate_series(S, t, steps=steps)
    assert H.points == 0 and S.points == 0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True, "1.0"])
def test_quad_oracle_rejects_non_finite_time_before_sampling(t):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match="finite"):
        quad_oracle(H, 2, t, 1e-9)
    assert H.points == 0


def test_quad_oracle_takes_a_sequence_of_fractions_as_the_floats_they_equal():
    H = make_model("noncommuting_two_tone")
    got, ref = quad_oracle(H, 2, [Fraction(1, 2)], 1e-9), quad_oracle(H, 2, [0.5], 1e-9)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_quad_oracle_refuses_a_time_too_large_for_a_float_before_sampling():
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match="finite"):
        quad_oracle(H, 2, [10**400], 1e-9)
    assert H.points == 0


@pytest.mark.parametrize("t", [-1.0, -1e-12])
def test_quad_oracle_rejects_negative_scalar_time_before_sampling(t):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match=">= 0"):
        quad_oracle(H, 2, t, 1e-9)
    with pytest.raises(OperatorValueError, match=">= 0"):
        quad_oracle(H, (2, 3), t, 1e-9)
    assert H.points == 0


# ----------------------------------------------------------------------
# series propagation


def test_propagate_series_constant_hermitian_matches_exponential(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    M = (m + m.conj().T) / 2
    S = OperatorSeries.constant(M)
    t = 1.3
    res = propagate_series(S, t, steps=4096)
    assert np.linalg.norm(res.U - matrix_exponential(-1j * M * t)) < 1e-9


def test_propagate_series_zero_series_is_identity():
    S = OperatorSeries.zero(3)
    res = propagate_series(S, 5.0, steps=64)
    assert np.allclose(res.U, np.eye(3), atol=1e-12)


def test_propagate_series_nonhermitian_generator_nonunitary():
    S = heff3_timedep(make_model("noncommuting_two_tone"))
    res = propagate_series(S, 2.0, steps=8192)
    assert unitarity_defect(res.U) > 10 * res.est_error
    assert unitarity_defect(res.U) > 1e-6


# ----------------------------------------------------------------------
# nested quadrature


# Refinement that sampled every level's whole grid and ran every order's
# chain on all of it, kept as the reference (with a fresh sector stage per
# level); the oracle samples only each level's new midpoints and takes the
# highest order at its read-out nodes alone. The reference has its own
# copies of the cumulative Simpson rule and of the batched product, so a
# defect in the oracle's helpers cannot pass unseen.
def _reference_cumulative_simpson(F, h):
    out = np.zeros_like(F)
    out[2::2] = np.cumsum((h / 3.0) * (F[0:-2:2] + 4.0 * F[1:-1:2] + F[2::2]), axis=0)
    out[1::2] = out[0:-2:2] + (h / 12.0) * (5.0 * F[0:-2:2] + 8.0 * F[1:-1:2] - F[2::2])
    return out


def _reference_mul(X, Y):
    # a sum of outer products over the inner index up to 3x3, np.matmul above
    b = X.shape[-1]
    if b > 3:
        return np.matmul(X, Y)
    Z = X[..., :, :1] * Y[..., :1, :]
    for j in range(1, b):
        Z += X[..., :, j:j + 1] * Y[..., j:j + 1, :]
    return Z


def _quad_reference_values(H, orders, T, points, nodes):
    ts = np.linspace(0.0, T, points + 1)
    h = T / points
    sectors = oracle._SectorStage(_NoSupport(H))
    Hs = sectors.stack(H.evaluate_grid(ts))
    A = Hs
    factor = 1 + 0j
    out = {}
    for k in range(2, max(orders) + 1):
        A = _reference_mul(Hs, _reference_cumulative_simpson(A, h))
        factor *= -1j
        if k in orders:
            val = factor * A[nodes]
            out[k] = sectors.scatter(val)
    return out


def _quad_reference(H, n, t, tol, max_points=oracle.MAX_QUAD_POINTS):
    single = not isinstance(n, (tuple, list))
    orders = sorted({int(k) for k in ((n,) if single else n)})
    times, scalar = oracle._check_times(t)

    def result(values):
        if scalar:
            values = {k: None if v is None else v[0] for k, v in values.items()}
        return values[orders[0]] if single else values

    T = float(times.max())
    if T == 0.0:
        return result({k: np.zeros((times.size, H.dim, H.dim), dtype=complex)
                       for k in orders})
    nodes = np.rint(times / T * oracle._BASE_POINTS).astype(int)
    done, prev, changes = {}, {}, {}
    points = oracle._BASE_POINTS
    while points <= max_points:
        vals = _quad_reference_values(H, [k for k in orders if k not in done], T, points,
                                      nodes * (points // oracle._BASE_POINTS))
        for k, val in vals.items():
            if k in prev:
                changes[k] = oracle._change(val, prev[k])
                if changes[k] < tol:
                    done[k] = val
        if len(done) == len(orders):
            return result(done)
        prev = vals
        points *= 2
    best = {k: done[k] if k in done else prev[k] for k in orders}
    missing = [k for k in orders if k not in done]
    why = "; ".join(f"order {k}: last change {changes[k]:.2g} at {points // 2} points"
                    for k in missing)
    raise QuadratureError(
        f"quadrature of order {', '.join(map(str, missing))} did not reach tol={tol} "
        f"within {max_points} points ({why})",
        best=result(best),
    )


DEMO_MODELS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "models"
QUAD_MODELS = (
    [pytest.param(lambda name=name: make_model(name), id=name) for name in ZOO_NAMES]
    + [pytest.param(lambda path=path: load_model(path), id=path.name)
       for path in sorted(DEMO_MODELS.glob("*.ham"))]
)


def _assert_same_values(got, ref):
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref)
        pairs = [(got[k], ref[k]) for k in ref]
    else:
        pairs = [(got, ref)]
    for x, y in pairs:
        assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("make", QUAD_MODELS)
def test_quad_oracle_equals_full_grid_reference(make):
    # the midpoint refinement feeds the chain the same doubles as sampling
    # each level's whole grid did, and the highest order's prefix sums at
    # its nodes are those of its whole cumulative integral, so every value
    # is bit-identical; jc's chain runs split into its sectors, the other
    # models' unsplit. The last read-out set holds node 0 and a repeated time.
    H = make()
    T = 10.0 / H.min_omega
    times = [0.5, 1.0, 2.0, 5.0, T, np.linspace(T / 8, T, 8), [0.0, T / 8, T / 8, T]]
    for n in (2, 3, 4, (2, 3, 4)):
        for t in times:
            _assert_same_values(quad_oracle(H, n, t, 1e-9), _quad_reference(H, n, t, 1e-9))


@pytest.mark.parametrize("max_points", [512, 2048])
@pytest.mark.parametrize("n", [3, (2, 3, 4)])
def test_quad_oracle_budget_error_equals_full_grid_reference(max_points, n):
    H = make_model("commuting_diag")
    for t in (10.0 / H.min_omega, _eighths(10.0 / H.min_omega)):
        with pytest.raises(QuadratureError) as err:
            quad_oracle(H, n, t, 1e-9, max_points=max_points)
        with pytest.raises(QuadratureError) as ref:
            _quad_reference(H, n, t, 1e-9, max_points=max_points)
        assert str(err.value) == str(ref.value)
        _assert_same_values(err.value.best, ref.value.best)


class _MidpointCoupling:
    """Two pairs of levels coupled only away from the nodes of the level-0
    grid on ``[0, T]``: that grid's samples are diagonal, later levels' not."""

    dim = 4
    max_omega = 1.7

    def __init__(self, T):
        self.T = T

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        r = ts / self.T * oracle._BASE_POINTS
        H = np.zeros((len(ts), 4, 4), dtype=complex)
        H[:, range(4), range(4)] = [0.3, -0.2, 0.5, 0.1]
        on = 0.4 * np.cos(1.7 * ts) * (np.abs(r - np.rint(r)) > 0.25)
        for i, j in ((0, 1), (2, 3)):
            H[:, i, j] = H[:, j, i] = on
        return H


def test_quad_oracle_finds_the_sectors_again_when_a_level_couples_them():
    # level 0 splits into four lone levels, level 1 into two pairs
    T = 2.0
    op = _MidpointCoupling(T)
    assert _sector_sizes(op, np.linspace(0.0, T, 257)) == [1, 1, 1, 1]
    assert _sector_sizes(op, np.linspace(0.0, T, 513)) == [2, 2]
    with pytest.raises(QuadratureError) as err:
        quad_oracle(op, (2, 3, 4), _eighths(T), 1e-12, max_points=2048)
    with pytest.raises(QuadratureError) as ref:
        _quad_reference(op, (2, 3, 4), _eighths(T), 1e-12, max_points=2048)
    assert str(err.value) == str(ref.value)
    _assert_same_values(err.value.best, ref.value.best)


def _schedule(levels):
    # points sampled per level: the whole level-0 grid, then the midpoints
    return [oracle._BASE_POINTS + 1] + [oracle._BASE_POINTS * 2 ** (k - 1)
                                        for k in range(1, levels)]


def _finest(grids):
    # intervals of the finest grid reached by a run that sampled ``grids``
    assert grids == _schedule(len(grids))
    return oracle._BASE_POINTS * 2 ** (len(grids) - 1)


@pytest.mark.parametrize("T", [10 / 0.3, 7.77, 1e-6])
def test_quad_oracle_samples_each_grid_point_once(T):
    # a carrier far above the level-0 grid's resolution and a tolerance out
    # of reach run every level up to the cap; H scales with 1 / T
    H = _CountingOperator(MultiToneHamiltonian([(0.5 / T * sigma_plus(), 300.0 / T)]))
    with pytest.raises(QuadratureError):
        quad_oracle(H, (2, 3, 4), T, 1e-12, max_points=4096)
    assert H.grids == _schedule(5)
    for k in range(len(H.times)):
        sampled = np.sort(np.concatenate(H.times[:k + 1]))
        grid = np.linspace(0.0, T, oracle._BASE_POINTS * 2**k + 1)
        assert sampled.tobytes() == grid.tobytes()


def test_quad_oracle_zero_time():
    H = make_model("noncommuting_two_tone")
    assert np.array_equal(quad_oracle(H, 2, 0.0, 1e-9), np.zeros((2, 2)))


def test_quad_oracle_matches_scalar_closed_form():
    H = make_model("scalar_single_tone")
    value = quad_oracle(H, 2, np.pi / 4, 1e-10)
    assert np.allclose(value, [[-2j]], atol=1e-9)


def test_quad_oracle_matches_builder_third_order():
    H = make_model("noncommuting_two_tone")
    closed = heff3_timedep(H).evaluate(0.3)
    assert np.linalg.norm(quad_oracle(H, 3, 0.3, 1e-10) - closed) < 1e-8


def test_quad_oracle_validates_inputs():
    H = make_model("scalar_single_tone")
    with pytest.raises(OperatorValueError):
        quad_oracle(H, 7, 1.0, 1e-9)
    with pytest.raises(OperatorValueError):
        quad_oracle(H, 1, 1.0, 1e-9)
    with pytest.raises(OperatorValueError):
        quad_oracle(H, 2, 1.0, 1e-13)


@pytest.mark.parametrize("tol", [math.nan, math.inf, None, -1.0, 1e-13, True, "1e-9"])
def test_quad_oracle_rejects_bad_tolerance_before_sampling(tol):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError, match="tolerance"):
        quad_oracle(H, 2, 1.0, tol)
    with pytest.raises(OperatorValueError, match="tolerance"):
        quad_oracle(H, (2, 3), [0.5, 1.0], tol)
    assert H.points == 0


@pytest.mark.parametrize("max_points", [100, 256, 511, 2.0, True])
def test_quad_oracle_rejects_impossible_max_points_before_sampling(max_points):
    # convergence needs two levels, 256 and 512 points
    H = _CountingOperator(make_model("raman_lambda"))
    with pytest.raises(OperatorValueError, match="max_points"):
        quad_oracle(H, 2, 1.0, 1e-9, max_points=max_points)
    with pytest.raises(OperatorValueError, match="max_points"):
        quad_oracle(H, (2, 3), [0.5, 1.0], 1e-9, max_points=max_points)
    assert H.points == 0


@pytest.mark.parametrize("max_points", [512, np.int64(512)])
def test_quad_oracle_accepts_two_level_max_points(max_points):
    H = _CountingOperator(make_model("raman_lambda"))
    value = quad_oracle(H, 2, 1.0, 1e-6, max_points=max_points)
    assert np.array_equal(value, quad_oracle(H.op, 2, 1.0, 1e-6))
    assert H.grids == [257, 256]


def test_quad_oracle_budget_error_carries_best_estimate():
    H = make_model("noncommuting_two_tone")
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, 3, 4.0, 1e-12, max_points=512)
    assert err.value.best is not None
    assert err.value.best.shape == (2, 2)


def test_quad_oracle_refuses_a_level_over_the_byte_budget_before_sampling_it(monkeypatch):
    # a budget that admits the 512-point level and not the 1024-point one
    # ends where a 512-point cap ends, with the same best estimate
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    need = 1025 * 4 * oracle._QUAD_BYTES_PER_ENTRY
    monkeypatch.setattr(oracle, "QUAD_BYTE_BUDGET", need - 1)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (2, 3), 4.0, 1e-12)
    assert str(err.value) == (f"quadrature level of 1024 points would take about {need} bytes, "
                              f"over the budget of {need - 1} bytes")
    assert H.grids == [257, 256]
    with pytest.raises(QuadratureError) as cap:
        quad_oracle(H.op, (2, 3), 4.0, 1e-12, max_points=512)
    assert all(np.array_equal(err.value.best[k], cap.value.best[k]) for k in (2, 3))


def test_quad_oracle_budget_counts_the_sector_stack_of_a_declared_split(monkeypatch):
    # jc's support splits into four 2x2 sectors: 16 entries per point, not
    # 100; a budget below the first level samples nothing and has no best
    H = _CountingOperator(jc_detuned())
    monkeypatch.setattr(oracle, "QUAD_BYTE_BUDGET", 1)
    with pytest.raises(QuadratureError, match=f"about {257 * 16 * oracle._QUAD_BYTES_PER_ENTRY} "
                                              "bytes") as err:
        quad_oracle(H, 2, [1.0, 2.0], 1e-9)
    assert err.value.best is None and H.points == 0


def test_quad_oracle_agrees_with_builders_across_orders(rng):
    H = MultiToneHamiltonian([(0.3 * sigma_plus(), 2.0), (0.2 * sigma_z(), 5.5)])
    for n in (2, 3, 4):
        S = heff_n_timedep(H, n)
        for t in (0.5, 2.0):
            assert np.linalg.norm(S.evaluate(t) - quad_oracle(H, n, t, 1e-9)) < 1e-8


def test_quad_oracle_shares_no_code_with_tone_calculus():
    # independence rule: the quadrature path must not import the closed-form
    # machinery, otherwise it stops being a cross-check
    import effham.oracle as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text()
    imports = [ln for ln in source.splitlines() if re.match(r"^(from|import)\s", ln)]
    for line in imports:
        assert "tones" not in line
        assert "series" not in line
        assert "builder" not in line


@pytest.mark.parametrize("name", ["commuting_diag", "scalar_single_tone", "noncommuting_two_tone"])
def test_quad_oracle_tuple_equals_single_order_calls(name):
    H = make_model(name)
    t = 10.0 / H.min_omega
    finest = {}
    singles = {}
    for n in (2, 3, 4):
        probe = _CountingOperator(H)
        singles[n] = quad_oracle(probe, n, t, 1e-9)
        finest[n] = _finest(probe.grids)
    # the orders converge at different levels (2048/4096/4096 points on
    # commuting_diag, 2048/2048/4096 on scalar_single_tone, 1024/1024/512
    # on noncommuting_two_tone), so some are frozen while others refine
    assert len(set(finest.values())) > 1
    probe = _CountingOperator(H)
    both = quad_oracle(probe, (4, 2, 3, 2), t, 1e-9)
    assert sorted(both) == [2, 3, 4]
    for n in (2, 3, 4):
        assert np.array_equal(both[n], singles[n])
    # one sampling of H per level, up to the finest level any order needs
    assert _finest(probe.grids) == max(finest.values())


def test_quad_oracle_tuple_generic_model(rng):
    H = MultiToneHamiltonian([(random_generic(rng, 3, 0.4), w) for w in (1.3, 2.1, 3.7)])
    vals = quad_oracle(H, (2, 4), 1.3, 1e-9)
    assert sorted(vals) == [2, 4]
    for n in (2, 4):
        assert np.array_equal(vals[n], quad_oracle(H, n, 1.3, 1e-9))


def test_quad_oracle_takes_the_builders_top_orders(rng):
    # orders 5 and 6 run the same chain, frozen order by order
    H = MultiToneHamiltonian([(random_generic(rng, 3, 0.4), w) for w in (1.3, 2.1, 3.7)])
    vals = quad_oracle(H, (6, 2, 5), 1.3, 1e-9)
    assert sorted(vals) == [2, 5, 6]
    for n in (2, 5, 6):
        assert np.array_equal(vals[n], quad_oracle(H, n, 1.3, 1e-9))
        assert np.linalg.norm(vals[n] - heff_n_timedep(H, n).evaluate(1.3)) < 1e-8


def test_quad_oracle_tuple_zero_time():
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    vals = quad_oracle(H, (2, 3), 0.0, 1e-9)
    assert sorted(vals) == [2, 3]
    for n in (2, 3):
        assert np.array_equal(vals[n], np.zeros((2, 2)))
    assert H.points == 0


@pytest.mark.parametrize("orders", [(2, 7), (1, 3), (4, 2, 7), ()])
def test_quad_oracle_tuple_rejects_bad_orders_before_sampling(orders):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError):
        quad_oracle(H, orders, 1.0, 1e-9)
    assert H.points == 0


@pytest.mark.parametrize("order", [2.7, 2.0, 3.0, True, None, "3", np.float64(3.0)])
def test_quad_oracle_rejects_non_integer_orders_before_sampling(order):
    H = _CountingOperator(make_model("raman_lambda"))
    with pytest.raises(OperatorValueError, match=re.escape(f"integer in [2, 6], got {order!r}")):
        quad_oracle(H, order, 1.0, 1e-9)
    with pytest.raises(OperatorValueError, match="integer"):
        quad_oracle(H, (2, order), 1.0, 1e-9)
    assert H.points == 0


def test_quad_oracle_accepts_numpy_integer_orders():
    H = make_model("raman_lambda")
    assert np.array_equal(quad_oracle(H, np.int64(3), 1.0, 1e-9), quad_oracle(H, 3, 1.0, 1e-9))
    vals = quad_oracle(H, (np.int32(2), np.int64(4)), 1.0, 1e-9)
    assert sorted(vals) == [2, 4] and all(type(k) is int for k in vals)


def test_quad_oracle_tuple_budget_error_carries_best_estimates():
    # commuting_diag at t = 10 needs 2048 points for order 2 and 4096 for
    # orders 3 and 4, so a cap of 2048 stops orders 3 and 4 only
    H = make_model("commuting_diag")
    t = 10.0 / H.min_omega
    with pytest.raises(QuadratureError, match="order 3, 4") as err:
        quad_oracle(H, (2, 3, 4), t, 1e-9, max_points=2048)
    best = err.value.best
    assert sorted(best) == [2, 3, 4]
    assert np.array_equal(best[2], quad_oracle(H, 2, t, 1e-9, max_points=2048))
    for n in (3, 4):
        with pytest.raises(QuadratureError) as single:
            quad_oracle(H, n, t, 1e-9, max_points=2048)
        assert np.array_equal(best[n], single.value.best)


# times j * T / 8 are even nodes of the level-0 grid on [0, T]
def _eighths(T):
    return [j * T / 8 for j in range(1, 9)]


@pytest.mark.parametrize("n", [2, 3, 4, (2, 3, 4), (4, 2)])
def test_quad_oracle_one_element_list_equals_scalar_call(n):
    H = make_model("noncommuting_two_tone")
    for t in (0.3, 2.0):
        scalar = quad_oracle(H, n, t, 1e-9)
        listed = quad_oracle(H, n, [t], 1e-9)
        if isinstance(n, tuple):
            assert sorted(listed) == sorted(scalar)
            pairs = [(listed[k], scalar[k]) for k in scalar]
        else:
            pairs = [(listed, scalar)]
        for stack, matrix in pairs:
            assert stack.shape == (1, 2, 2)
            assert np.array_equal(stack[0], matrix)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_quad_oracle_times_match_closed_forms(name):
    H = make_model(name)
    T = 10.0 / H.min_omega
    ts = _eighths(T)
    probe = _CountingOperator(H)
    vals = quad_oracle(probe, (2, 3, 4), ts, 1e-9)
    # one sampling of H per level, all times read off the same chain
    assert probe.grids == _schedule(len(probe.grids))
    for n in (2, 3, 4):
        assert vals[n].shape == (8, H.dim, H.dim)
        closed = heff_n_timedep(H, n)
        for t, val in zip(ts, vals[n]):
            assert np.linalg.norm(val - closed.evaluate(t)) < 1e-8
    single = quad_oracle(H, 3, ts, 1e-9)
    assert single.shape == (8, H.dim, H.dim)


@pytest.mark.parametrize("name", ["jc", "dense3", "dense6"])
def test_quad_oracle_of_real_samples_equals_complex_samples(rng, name):
    H = _oracle_models(rng)[name]
    ts = _eighths(2.0)
    real = quad_oracle(_RealPart(H), (2, 3, 4), ts, 1e-9)
    cast = quad_oracle(_RealPart(H, complex), (2, 3, 4), ts, 1e-9)
    for n in (2, 3, 4):
        assert np.array_equal(real[n], cast[n])


def test_quad_oracle_of_rotated_jc_matches_conjugated_values(rng):
    # jc runs its chain on 2x2 sectors, V H V^dag (one dense sector) on
    # whole 10x10 matrices; both refine to the same grids, so their values
    # differ by rounding only, and jc's are exactly zero off its sectors
    jc = jc_detuned(g=0.05)
    V = _random_unitary(rng, jc.dim)
    rotated = MultiToneHamiltonian([(V @ tone.h @ V.conj().T, tone.omega) for tone in jc.tones])
    ts = np.linspace(0.0, 3.0, 7)
    assert _sector_sizes(jc, ts) == [1, 1, 2, 2, 2, 2]
    assert _sector_sizes(rotated, ts) == [jc.dim]
    in_sector = np.zeros((jc.dim, jc.dim), dtype=bool)
    for s in oracle._sectors(np.any(jc.evaluate_grid(ts) != 0, axis=0)):
        in_sector[np.ix_(s, s)] = True
    times = _eighths(6.0)
    probe, rot_probe = _CountingOperator(jc), _CountingOperator(rotated)
    vals = quad_oracle(probe, (2, 3, 4), times, 1e-9)
    rot = quad_oracle(rot_probe, (2, 3, 4), times, 1e-9)
    assert probe.grids == rot_probe.grids
    for n in (2, 3, 4):
        assert not vals[n][:, ~in_sector].any()
        assert vals[n][:, in_sector].any()
        conjugated = V @ vals[n] @ V.conj().T
        assert np.linalg.norm(rot[n] - conjugated) <= 1e-12 * np.linalg.norm(vals[n])


def test_quad_oracle_of_jc_is_zero_on_its_idle_levels():
    jc = jc_detuned(g=0.05)
    idle = _idle_levels(jc, np.linspace(0.0, 3.0, 7))
    vals = quad_oracle(jc, (2, 3, 4, 5, 6), _eighths(5.0), 1e-9)
    for n, val in vals.items():
        assert not val[:, idle].any() and not val[:, :, idle].any()
        assert val.any()


class _InfiniteAfter:
    """A 1-level grid function that returns ``inf`` itself (no numpy
    overflow) at every time in ``bad(ts)``, and 1 elsewhere."""

    dim = 1

    def __init__(self, bad):
        self.bad = bad
        self.points = 0

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        self.points += len(ts)
        return np.where(self.bad(ts), np.inf, 1.0)[:, None, None]


def test_quad_oracle_refuses_non_finite_samples_at_the_level_that_meets_them():
    # on the level-0 grid: refused before any chain, at the first such time
    op = _InfiniteAfter(lambda ts: ts > 0.5)
    with pytest.raises(OperatorValueError, match=r"not finite at quadrature time 0\.50390625$"):
        quad_oracle(op, 2, 1.0, 1e-9)
    assert op.points <= oracle._BASE_POINTS + 1
    # only on the new midpoints of level 1: refused there
    op = _InfiniteAfter(lambda ts: np.abs(ts * 256 - np.rint(ts * 256)) > 0.25)
    with pytest.raises(OperatorValueError, match=r"time 0\.001953125$"):
        quad_oracle(op, (2, 3), 1.0, 1e-9)
    assert op.points == 2 * oracle._BASE_POINTS + 1


def test_quad_oracle_runs_sectors_larger_than_3x3_unsplit(rng, monkeypatch):
    # unsplit with no scan on the declared support, scanned with none
    H = _two_4x4_sectors(rng)
    scanned, declared = _record_splits(monkeypatch)
    ts = _eighths(1.5)
    vals = quad_oracle(H, (2, 3, 4), ts, 1e-9)
    assert not scanned and declared and not any(declared)
    declared.clear()
    ref = quad_oracle(_NoSupport(H), (2, 3, 4), ts, 1e-9)
    assert not declared and scanned and not any(scanned)
    for n in (2, 3, 4):
        assert vals[n].tobytes() == ref[n].tobytes()
        closed = heff_n_timedep(H, n)
        for t, val in zip(ts, vals[n]):
            assert np.linalg.norm(val - closed.evaluate(t)) < 1e-8


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_small_product_matches_matmul(rng, b):
    # the shapes the oracles pass: single blocks, stacks of samples, stacks
    # of samples split into sectors, and strided views of such a stack
    def stack(*shape):
        return rng.normal(size=shape + (b, b)) + 1j * rng.normal(size=shape + (b, b))

    A = stack(9, 4)
    for X, Y in [(stack(), stack()), (stack(9), stack(9)), (stack(9, 4), stack(9, 4)),
                 (A[1::2], A[:-1:2])]:
        ref = np.matmul(X, Y)
        Z = oracle._mul(X, Y)
        assert Z.shape == ref.shape
        assert np.linalg.norm(Z - ref) <= 1e-15 * np.linalg.norm(ref)


def test_quad_oracle_budget_error_states_the_last_change():
    # commuting_diag at t = 10 needs 4096 points for orders 3 and 4
    H = make_model("commuting_diag")
    tol = 1e-9
    with pytest.raises(QuadratureError, match="order 3, 4") as err:
        quad_oracle(H, (2, 3, 4), 10.0 / H.min_omega, tol, max_points=2048)
    stated = re.findall(r"order (\d): last change (\S+) at (\d+) points", str(err.value))
    assert [int(k) for k, _, _ in stated] == [3, 4]
    for _, change, points in stated:
        assert float(change) > tol
        assert int(points) == 2048


@pytest.mark.parametrize("ts", [
    [], [0.3, 1.0], [1.0 / 256, 1.0], [-0.5, 1.0], [-1.0], [0.5, math.nan], [[0.5, 1.0]],
    [False, True], ["0.5", "1.0"], [0.5, True],
])
def test_quad_oracle_rejects_bad_times_before_sampling(ts):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError):
        quad_oracle(H, 2, ts, 1e-9)
    with pytest.raises(OperatorValueError):
        quad_oracle(H, (2, 3), ts, 1e-9)
    assert H.points == 0


def test_quad_oracle_accepts_nodes_within_rounding():
    # 0.1 * 3 is 0.30000000000000004, 2 * T / 8 only to rounding
    H = make_model("noncommuting_two_tone")
    T = 1.2
    vals = quad_oracle(H, 2, [0.1 * 3, T], 1e-9)
    assert vals.shape == (2, 2, 2)


def test_quad_oracle_zero_in_list_gives_zero_matrix():
    H = make_model("raman_lambda")
    vals = quad_oracle(H, (2, 3, 4), [0.0, 1.0, 0.5, 0.0], 1e-9)
    for n in (2, 3, 4):
        assert np.array_equal(vals[n][0], np.zeros((3, 3)))
        assert np.array_equal(vals[n][3], np.zeros((3, 3)))
        assert np.linalg.norm(vals[n][1]) > 0


def test_quad_oracle_all_zero_times():
    H = _CountingOperator(make_model("raman_lambda"))
    assert np.array_equal(quad_oracle(H, 2, [0.0, 0.0], 1e-9), np.zeros((2, 3, 3)))
    vals = quad_oracle(H, (2, 4), [0.0], 1e-9)
    assert sorted(vals) == [2, 4]
    for n in (2, 4):
        assert np.array_equal(vals[n], np.zeros((1, 3, 3)))
    assert H.points == 0


def test_quad_oracle_times_budget_error_carries_stacks():
    H = make_model("commuting_diag")
    ts = _eighths(10.0 / H.min_omega)
    with pytest.raises(QuadratureError, match="order 3, 4") as err:
        quad_oracle(H, (2, 3, 4), ts, 1e-9, max_points=2048)
    best = err.value.best
    assert sorted(best) == [2, 3, 4]
    for n in (2, 3, 4):
        assert best[n].shape == (8, 2, 2)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, 3, ts, 1e-9, max_points=512)
    assert err.value.best.shape == (8, 2, 2)


# ----------------------------------------------------------------------
# fidelity distance


def test_fidelity_distance_values():
    assert fidelity_distance(np.eye(2), np.eye(2)) == 0.0
    assert fidelity_distance(np.eye(2), -np.eye(2)) == pytest.approx(2.0)


def test_fidelity_distance_triangle_inequality(rng):
    for _ in range(20):
        A, B, C = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        ab = fidelity_distance(A, B)
        bc = fidelity_distance(B, C)
        ac = fidelity_distance(A, C)
        assert ac <= ab + bc + 1e-12


def test_fidelity_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        fidelity_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("U, V, shape", [
    (1.0, 2.0, "()"),
    (np.zeros((0, 0)), np.zeros((0, 0)), "(0, 0)"),
    (np.zeros((2, 3)), np.ones((2, 3)), "(2, 3)"),
])
def test_fidelity_distance_refuses_anything_but_square_matrices(U, V, shape):
    with pytest.raises(OperatorValueError, match=re.escape(f"got shape {shape}")):
        fidelity_distance(U, V)


def test_fidelity_distance_passes_non_finite_entries_through():
    assert math.isnan(fidelity_distance(np.full((2, 2), math.nan), np.eye(2)))


class _CouplingInfiniteAfter:
    """A grid function whose coupling of levels ``dim - 2`` and ``dim - 1``
    is ``inf`` itself (no numpy overflow) after t = 0.5; it duck-types both
    a model (``max_omega``) and a series (``freqs``). At ``dim`` 2 the
    block runs unsplit; at ``dim`` 4, with levels 0 and 1 coupled too, it
    splits into two 2x2 sectors."""

    max_omega = 1.0
    freqs = np.array([1.0])

    def __init__(self, dim):
        self.dim = dim

    def evaluate_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((len(ts), self.dim, self.dim), dtype=complex)
        out[:, 0, 1] = out[:, 1, 0] = 1.0
        out[:, -2, -1] = out[:, -1, -2] = np.where(ts > 0.5, np.inf, 1.0)
        return out


@pytest.mark.parametrize("dim", [2, 4], ids=["unsplit", "split"])
@pytest.mark.parametrize("propagate", [propagate_exact, propagate_series])
def test_rk4_refuses_non_finite_samples_at_the_first_such_time(propagate, dim):
    # once the NaNs of inf * 0 flowed into U, with est_error nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorValueError,
                           match=r"^H is not finite at propagation time 0\.50390625$"):
            propagate(_CouplingInfiniteAfter(dim), 1.0, steps=64)


def test_quad_oracle_keys_its_values_in_ascending_order():
    # order 6 converges first here, and once came first in the dict
    H = make_model("noncommuting_two_tone")
    assert list(quad_oracle(H, (2, 3, 4, 5, 6), 5.0, 1e-9)) == [2, 3, 4, 5, 6]
    assert list(quad_oracle(H, (6, 2, 4), [2.5, 5.0], 1e-9)) == [2, 4, 6]
    # commuting_diag at t = 10 stops orders 3 and 4 at a cap of 2048 points
    H = make_model("commuting_diag")
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (4, 2, 3), 10.0 / H.min_omega, 1e-9, max_points=2048)
    assert list(err.value.best) == [2, 3, 4]


# ----------------------------------------------------------------------
# the sector split from a declared support


class _NoSupport:
    """The same operand behind a grid function that declares no support,
    so the oracles take the split from its samples."""

    def __init__(self, op):
        self.op, self.dim = op, op.dim
        self.max_omega = getattr(op, "max_omega", None)
        self.freqs = getattr(op, "freqs", None)

    def evaluate_grid(self, ts):
        return self.op.evaluate_grid(ts)


class _RecordingIndex(_CountingOperator):
    """Counts the points, as its base does, and records each ``index``."""

    def __init__(self, op):
        super().__init__(op)
        self.indexes = []

    def evaluate_grid(self, ts, *index):
        self.indexes.append(index[0] if index else None)
        return super().evaluate_grid(ts, *index)


def _jc_secular():
    return OperatorSeries.constant(heff_secular(jc_detuned(g=0.05), 2).secular)


SUPPORTED = {
    "jc": lambda: jc_detuned(g=0.05),
    "commuting_diag": lambda: make_model("commuting_diag"),
    "qubit_cavity": lambda: load_model(pathlib.Path(__file__).parent / "data" / "qubit_cavity.ham"),
    "jc_secular": _jc_secular,
}


@pytest.mark.parametrize("name", SUPPORTED)
def test_support_and_sampled_routes_give_the_same_bits(name, monkeypatch):
    op = SUPPORTED[name]()
    assert oracle._SectorStage(op).index is not None
    propagate = propagate_series if isinstance(op, OperatorSeries) else propagate_exact
    scanned, declared = _record_splits(monkeypatch)
    # 1000 coarse steps: three whole blocks and a shorter tail
    t, steps = 30.0, 1000
    probe = _RecordingIndex(op)
    res = propagate(probe, t, steps=steps)
    assert not scanned and declared and all(declared)  # no pattern scan
    ref = propagate(_NoSupport(op), t, steps=steps)
    assert scanned and all(scanned)
    assert res.U.tobytes() == ref.U.tobytes() and res.est_error == ref.est_error
    assert len(probe.indexes) == math.ceil(steps / oracle._RK4_BLOCK)
    assert all(index is probe.indexes[0] for index in probe.indexes)
    assert probe.points <= 4 * steps + math.ceil(steps / oracle._RK4_BLOCK)
    # the quadrature's levels, sampled at the sector entries only
    scanned.clear()
    probe = _RecordingIndex(op)
    vals = quad_oracle(probe, (2, 3, 4), _eighths(3.0), 1e-9)
    assert not scanned and len(probe.indexes) > 1
    assert all(index is probe.indexes[0] for index in probe.indexes)
    ref_probe = _CountingOperator(_NoSupport(op))
    ref = quad_oracle(ref_probe, (2, 3, 4), _eighths(3.0), 1e-9)
    assert scanned and all(scanned) and probe.grids == ref_probe.grids
    for n in (2, 3, 4):
        assert vals[n].tobytes() == ref[n].tobytes()


def test_a_support_that_does_not_split_runs_unsplit_without_a_scan(rng, monkeypatch):
    # one sector, or sectors larger than 3x3: the support decides once that
    # every block and level runs unsplit, no stack is scanned, and the
    # index is never passed
    scanned, declared = _record_splits(monkeypatch)
    for op in (make_model("raman_lambda"), _two_4x4_sectors(rng), make_model("scalar_single_tone")):
        stage = oracle._SectorStage(op)
        assert stage.index is None and stage.valid is None and not stage.scan
        probe = _RecordingIndex(op)
        propagate_exact(probe, 1.0, steps=300)
        quad_oracle(probe, 2, 1.0, 1e-9)
        assert probe.indexes and not any(index is not None for index in probe.indexes)
    assert not scanned and declared and not any(declared)


def test_the_support_route_refuses_non_finite_samples_at_the_first_such_time():
    # t * omega overflows to inf within the run: cos and sin of it are NaN,
    # and every entry is, the supported ones and the others alike
    H = MultiToneHamiltonian([(np.diag([0.3, -0.2]), 10.0)])
    S = OperatorSeries(2, [(np.diag([1.0, 0.0]), TonePoly.exponential(0.0, power=5)),
                           (np.diag([0.0, 0.5]), TonePoly.constant(1.0))])
    for op in (H, S):
        assert oracle._SectorStage(op).index is not None
    for propagate, op, t in ((propagate_exact, H, 1e308), (propagate_series, S, 1e70)):
        # sampling overflows, on either route, before the oracle sees it
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OperatorValueError, match="not finite at propagation") as err:
                propagate(op, t, steps=16)
            with pytest.raises(OperatorValueError) as ref:
                propagate(_NoSupport(op), t, steps=16)
        assert str(err.value) == str(ref.value)


def test_quad_oracle_stops_at_the_first_level_whose_chain_is_not_finite():
    # the samples are finite, the nested chain overflows: order 3 at the
    # first level, order 2's change at the second; no finer grid helps
    H, H2 = (_CountingOperator(make_model("raman_lambda")) for _ in range(2))
    ts = np.linspace(1e300 / 8, 1e300, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"^quadrature of order 3 is not finite "
                                                  r"at 256 points \(order 3: values not finite\)$") as err:
            quad_oracle(H, (2, 3), ts, 1e-9)
        with pytest.raises(QuadratureError, match=r"^quadrature of order 2 is not finite at 512 "
                                                  r"points \(order 2: last change inf\)$"):
            quad_oracle(H2, 2, ts, 1e-9)
    assert H.points == oracle._BASE_POINTS + 1
    assert H2.points == 2 * oracle._BASE_POINTS + 1
    best = err.value.best
    assert sorted(best) == [2, 3] and all(v.shape == (8, 3, 3) for v in best.values())
    assert np.isfinite(best[2]).all() and not np.isfinite(best[3]).all()
