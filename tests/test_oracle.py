import math
import pathlib
import re
import tracemalloc
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
from effham import errors, oracle
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


class _NoSupport:
    """The same operand behind a grid function that declares no support,
    so the oracles run it unsplit."""

    def __init__(self, op):
        self.op, self.dim = op, op.dim
        self.max_omega = getattr(op, "max_omega", None)
        self.freqs = getattr(op, "freqs", None)

    def evaluate_grid(self, ts):
        return self.op.evaluate_grid(ts)


class _WithSupport(_NoSupport):
    """The same operand declaring ``support``: asked for the flat positions
    ``index``, it returns those columns of its whole samples."""

    def __init__(self, op, support):
        super().__init__(op)
        self.support = np.asarray(support, dtype=bool)

    def evaluate_grid(self, ts, *index):
        samples = self.op.evaluate_grid(ts)
        return samples if not index else samples.reshape(len(samples), -1)[:, index[0]]


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
    """A list that gets, for every stack the oracles lay out, whether its
    operand's declared support split it."""
    splits = []
    stack = oracle._SectorStage.stack

    def recording(self, A):
        splits.append(self.valid is not None)
        return stack(self, A)

    monkeypatch.setattr(oracle._SectorStage, "stack", recording)
    return splits


def test_sector_stage_splits_jc_only_into_sectors_up_to_3x3(rng):
    ts = np.linspace(0.0, 1.5, 9)
    for H, split in [(jc_detuned(g=0.05), True), (_two_4x4_sectors(rng), False),
                     (_generic_three_tone(rng), False)]:
        A = np.ascontiguousarray(H.evaluate_grid(ts))
        sectors = oracle._SectorStage(H)
        assert (sectors.valid is not None) == split
        stack = sectors.stack(sectors.sample(ts))
        if split:
            # the doublets only: levels 4 and 5 are idle and left out
            assert stack.shape == (len(ts), 4, 2, 2)
            assert np.array_equal(sectors.scatter(stack), A)
        else:
            assert np.array_equal(stack, A) and sectors.scatter(stack) is stack
        # an operand that declares no support runs unsplit
        bare = oracle._SectorStage(_NoSupport(H))
        assert bare.valid is None and bare.index is None and bare.stack(A) is A


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
    """A driven pair of levels and a lone level of constant energy ``eps``;
    its support holds the lone level's diagonal entry when ``eps`` is not 0."""

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
    support = [[False, True, False], [True, False, False], [False, False, eps != 0.0]]
    op = _WithSupport(_DetunedLoneLevel(eps), support)
    sectors = oracle._SectorStage(op)
    stack = sectors.stack(sectors.sample(np.linspace(0.0, 1.0, 5)))
    assert stack.shape == (5, 1 if eps == 0.0 else 2, 2, 2)
    t = 3.0
    res = propagate_exact(op, t, steps=512)
    assert res.est_error > 0.0
    assert abs(res.U[2, 2] - np.exp(-1j * eps * t)) <= res.est_error
    _assert_matches_reference(res, op, t, 512)


def test_the_padding_of_a_sector_stack_is_zero():
    # a lone level 0 with a diagonal entry, and a pair: the padding of the
    # lone level's sector reads the first sampled entry, (0, 0), which is
    # not zero
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0], h[1, 2] = 0.3, 0.4
    H = MultiToneHamiltonian([(h, 1.3)])
    ts = np.linspace(0.0, 1.0, 5)
    sectors = oracle._SectorStage(H)
    stack = sectors.stack(sectors.sample(ts))
    assert stack.shape == (5, 2, 2, 2) and not stack[:, ~sectors.valid].any()
    assert np.array_equal(sectors.scatter(stack), H.evaluate_grid(ts))
    _assert_matches_reference(propagate_exact(H, 3.0, steps=512), H, 3.0, 512)
    vals = quad_oracle(H, (2, 3), [1.0, 3.0], 1e-9)
    ref = quad_oracle(_NoSupport(H), (2, 3), [1.0, 3.0], 1e-9)
    for n in (2, 3):
        assert np.linalg.norm(vals[n] - ref[n]) <= 1e-13 * np.linalg.norm(ref[n])


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
    # every level idle in an empty support: the stack has no sectors
    zero = _WithSupport(_Zero(), np.zeros((4, 4)))
    assert oracle._SectorStage(zero).stack(zero.evaluate_grid([0.0, 1.0], [])).shape == (2, 0, 1, 1)
    for op in (zero, _Zero()):
        res = propagate_exact(op, 2.0, steps=3 * oracle._RK4_BLOCK)
        assert np.array_equal(res.U, np.eye(4)) and res.est_error == 0.0
        for val in quad_oracle(op, (2, 3, 6), [1.0, 2.0], 1e-9).values():
            assert val.shape == (2, 4, 4) and not val.any()
    # the first block vanishes, the later ones couple levels 0 and 1, the
    # one sector of the support
    steps, t = 3 * oracle._RK4_BLOCK, 2.0
    coupling = np.zeros((4, 4), dtype=bool)
    coupling[0, 1] = coupling[1, 0] = True
    op = _WithSupport(_SwitchedIdleCoupling(t_on=1.1 * t / 3), coupling)
    res = propagate_exact(op, t, steps=steps)
    assert np.array_equal(res.U[2:], np.eye(4)[2:])
    assert np.array_equal(res.U[:, 2:], np.eye(4)[:, 2:])
    _assert_matches_reference(res, op, t, steps)


def test_propagate_exact_runs_sectors_larger_than_3x3_unsplit(rng, monkeypatch):
    # a padded stack of 4x4 sectors would cost one np.matmul per sector:
    # the declared support runs unsplit, as the same operand with none does
    H = _two_4x4_sectors(rng)
    splits = _record_splits(monkeypatch)
    res = propagate_exact(H, 1.5, steps=300)
    assert splits and not any(splits)
    _assert_matches_reference(res, H, 1.5, 300)
    ref = propagate_exact(_NoSupport(H), 1.5, steps=300)
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


def test_propagate_exact_matches_reference_loop_when_the_samples_fill_the_support_late():
    # the first block's samples are diagonal; from the second block on the
    # coupling joins the levels into the two pairs of the declared support,
    # which splits every block alike
    steps, t = 3 * oracle._RK4_BLOCK, 2.0
    op = _SwitchedCoupling(t_on=1.1 * t / 3)
    assert _sector_sizes(op, [0.0, t / 3]) == [1, 1, 1, 1]
    assert _sector_sizes(op, [0.0, t]) == [2, 2]
    op = _WithSupport(op, np.any(op.evaluate_grid([0.0, t]) != 0, axis=0))
    assert oracle._SectorStage(op).valid.shape == (2, 2, 2)
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
    """Returns one cached array per distinct time grid and index, as a
    memoised grid function would, and keeps a pristine copy of each to
    compare against; it declares the support of ``op``."""

    def __init__(self, op):
        self.op = op
        self.dim, self.max_omega, self.support = op.dim, op.max_omega, op.support
        self.cache = {}

    def evaluate_grid(self, ts, *index):
        key = (np.asarray(ts, dtype=float).tobytes(),) + tuple(i.tobytes() for i in index)
        if key not in self.cache:
            samples = self.op.evaluate_grid(ts, *index)
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


def test_panel_rule_integrates_polynomials_to_the_rounding_floor():
    # the p + 1 Chebyshev-Lobatto nodes of [0, 1], ascending, ends exact,
    # and a running integral exact for every degree up to p
    u, W = oracle._NODES, oracle._PANEL
    p = len(u) - 1
    assert u[0] == 0.0 and u[-1] == 1.0 and np.all(np.diff(u) > 0)
    assert np.abs(u - (1 - np.cos(np.pi * np.arange(p + 1) / p)) / 2).max() <= 2e-16
    assert not W[0].any()
    for k in range(p + 1):
        assert np.abs(W @ u**k - u**(k + 1) / (k + 1)).max() <= 1e-15


def _admit(monkeypatch, H, points):
    # a byte budget that admits a quadrature level of ``points`` nodes of
    # H's stack and refuses one of twice as many
    monkeypatch.setattr(errors, "BYTE_BUDGET", points * oracle._SectorStage(H).node_bytes)


def test_quad_oracle_cuts_each_gap_between_times_into_equal_panels(monkeypatch):
    # a carrier far above the first levels' resolution runs every level up
    # to the budget; the panel edges are 0 and the times, each level halves
    # the panels of the one before, and every time is the last node of a panel
    T = 7.77
    times = [T, T / 3, T / 3, 0.0]
    H = _CountingOperator(MultiToneHamiltonian([(0.5 / T * sigma_plus(), 300.0 / T)]))
    _admit(monkeypatch, H, 2 * 17 * 8)
    with pytest.raises(QuadratureError, match="a level of 544 points"):
        quad_oracle(H, (2, 3, 4), times, 1e-12)
    assert H.grids == [2 * 17 * 2**level for level in range(4)]
    u = oracle._NODES
    for level, ts in enumerate(H.times):
        panels = ts.reshape(-1, len(u))
        left, right = panels[:, 0], panels[:, -1]
        assert left[0] == 0.0 and np.array_equal(left[1:], right[:-1])
        edges = right[2**level - 1::2**level]
        assert edges.tolist() == [T / 3, T]
        widths = right - left
        per_gap = widths.reshape(2, -1)
        assert np.allclose(per_gap, per_gap[:, :1], rtol=1e-13, atol=0)
        assert np.allclose(panels, left[:, None] + widths[:, None] * u, rtol=1e-15, atol=0)


def _quad_reference(H, n, t, tol):
    # the panel rule written out plainly: each level's panels built gap by
    # gap, H sampled whole (no sectors), and every order's nested chain
    # integrated one panel at a time with the panel matrix
    single = not isinstance(n, (tuple, list))
    orders = sorted({int(k) for k in ((n,) if single else n)})
    times, scalar = oracle._check_times(t)

    def result(values):
        if scalar:
            values = {k: v[0] for k, v in values.items()}
        return values[orders[0]] if single else values

    zeros = np.zeros((times.size, H.dim, H.dim), dtype=complex)
    ends = sorted({float(x) for x in times if x > 0})
    if not ends:
        return result({k: zeros for k in orders})
    u, W = oracle._NODES, oracle._PANEL
    # the byte budget projects the oracle's stack and sampling per node
    sectors = oracle._SectorStage(H)
    done, prev, changes = {}, {}, {}
    panels, last = 1, None
    while True:
        points = len(ends) * panels * len(u)
        need = points * sectors.node_bytes
        if need > errors.BYTE_BUDGET:
            break
        left, start = [], 0.0
        for end in ends:
            left += [start + (end - start) * j / panels for j in range(panels)]
            start = end
        right = left[1:] + [ends[-1]]
        nodes = np.array([[a + (b - a) * x for x in u[:-1]] + [b] for a, b in zip(left, right)])
        Hs = H.evaluate_grid(nodes.ravel()).reshape(nodes.shape + (H.dim, H.dim))
        A, vals = Hs, {}
        for k in range(2, max(orders) + 1):
            I, offset = np.empty_like(A), 0.0
            for m in range(len(left)):
                I[m] = offset + (right[m] - left[m]) * np.einsum("ij,jab->iab", W, A[m])
                offset = I[m, -1]
            A = Hs @ I
            val = zeros.copy()
            for i, x in enumerate(times):
                if x > 0:
                    val[i] = (-1j) ** (k - 1) * A[(ends.index(x) + 1) * panels - 1, -1]
            vals[k] = val
        for k in orders:
            if k in done:
                continue
            if k in prev:
                changes[k] = max(np.linalg.norm(v - p) for v, p in zip(vals[k], prev[k]))
                if changes[k] < tol:
                    done[k] = vals[k]
        if len(done) == len(orders):
            return result(done)
        prev, last = vals, points
        panels *= 2
    missing = [k for k in orders if k not in done]
    why = "; ".join(f"order {k}: last change {changes[k]:.2g} at {last} points"
                    for k in missing if k in changes)
    raise QuadratureError(
        f"quadrature of order {', '.join(map(str, missing))} did not reach tol={tol}"
        + (f" ({why})" if why else "")
        + f": a level of {points} points would take about {need} bytes, "
        f"over the budget of {errors.BYTE_BUDGET} bytes",
        best=result({k: done[k] if k in done else prev[k] for k in orders}) if prev else None,
    )


DEMO_MODELS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "models"
QUAD_MODELS = (
    [pytest.param(lambda name=name: make_model(name), id=name) for name in ZOO_NAMES]
    + [pytest.param(lambda path=path: load_model(path), id=path.name)
       for path in sorted(DEMO_MODELS.glob("*.ham"))]
)


def _assert_close_values(got, ref, rtol=1e-12):
    if isinstance(ref, dict):
        assert list(got) == sorted(ref)
        pairs = [(got[k], ref[k]) for k in ref]
    else:
        pairs = [(got, ref)]
    for x, y in pairs:
        assert x.shape == y.shape
        assert np.linalg.norm(x - y) <= rtol * max(1.0, np.linalg.norm(y))


@pytest.mark.parametrize("make", QUAD_MODELS)
def test_quad_oracle_equals_full_grid_reference(make):
    # the batched panels, the cumulative offset and (on jc) the sector split
    # give the values of the plain panel-by-panel rule up to rounding, at one
    # time, at several, and at a list holding 0 and a repeated time
    H = make()
    T = 10.0 / H.min_omega
    times = [0.5, 1.0, 2.0, 5.0, T, np.linspace(T / 8, T, 8), [0.0, T / 8, T / 8, T]]
    for n in (2, 3, 4, (2, 3, 4)):
        for t in times:
            _assert_close_values(quad_oracle(H, n, t, 1e-9), _quad_reference(H, n, t, 1e-9))


@pytest.mark.parametrize("max_points", [512, 2048])
@pytest.mark.parametrize("n", [3, (2, 3, 4)])
def test_quad_oracle_budget_error_equals_full_grid_reference(monkeypatch, max_points, n):
    # a carrier of 3000 / T runs every level up to a budget of max_points
    # nodes; the message names the same last changes, levels and bytes, and
    # best holds the same estimates
    T = 7.77
    H = MultiToneHamiltonian([(0.5 / T * sigma_plus(), 3000.0 / T)])
    _admit(monkeypatch, H, max_points)
    for t in (T, _eighths(T)):
        with pytest.raises(QuadratureError) as err:
            quad_oracle(H, n, t, 1e-9)
        with pytest.raises(QuadratureError) as ref:
            _quad_reference(H, n, t, 1e-9)
        assert str(err.value) == str(ref.value)
        _assert_close_values(err.value.best, ref.value.best)


@pytest.mark.parametrize("T", [10 / 0.3, 7.77, 1e-6])
def test_quad_oracle_is_invariant_under_a_change_of_time_unit(T):
    # H(t) = h(t / T) / T: every order's value is 1 / T times that of the
    # T = 1 run, so at a tolerance of tol / T each level samples that run's
    # nodes scaled by T and the same levels run
    def scaled(T):
        return _CountingOperator(MultiToneHamiltonian([(0.5 / T * sigma_plus(), 300.0 / T),
                                                       (0.2 / T * sigma_z(), 7.0 / T)]))

    unit, H = scaled(1.0), scaled(T)
    ts = [T / 3, T, T / 3, 0.0]
    ref = quad_oracle(unit, (2, 3, 4), [1 / 3, 1.0, 1 / 3, 0.0], 1e-10)
    got = quad_oracle(H, (2, 3, 4), ts, 1e-10 / T)
    assert H.grids == unit.grids
    for a, b in zip(H.times, unit.times):
        assert np.abs(a / T - b).max() <= 4e-16
    for k in (2, 3, 4):
        assert np.linalg.norm(T * got[k] - ref[k]) <= 1e-11 * np.linalg.norm(ref[k])


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


def test_quad_oracle_budget_error_carries_best_estimate(monkeypatch):
    # order 3 needs five levels here; a budget of two stops it
    H = make_model("noncommuting_two_tone")
    _admit(monkeypatch, H, 34)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, 3, 4.0, 1e-12)
    assert err.value.best is not None
    assert err.value.best.shape == (2, 2)


def test_quad_oracle_refuses_a_level_over_the_byte_budget_before_sampling_it(monkeypatch):
    # a budget one byte short of the 68-point level samples the 17- and
    # 34-point levels only and ends where the smallest budget that admits
    # 34 points ends, with the same message and best estimate; a budget of
    # exactly the 68-point level's bytes samples it
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    need = 68 * oracle._SectorStage(H).node_bytes
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (2, 3), 4.0, 1e-12)
    assert re.fullmatch(r"quadrature of order 2, 3 did not reach tol=1e-12 "
                        r"\(order 2: last change \S+ at 34 points; "
                        r"order 3: last change \S+ at 34 points\): "
                        rf"a level of 68 points would take about {need} bytes, "
                        rf"over the budget of {need - 1} bytes", str(err.value))
    assert H.grids == [17, 34]
    _admit(monkeypatch, H, 34)
    with pytest.raises(QuadratureError) as least:
        quad_oracle(H.op, (2, 3), 4.0, 1e-12)
    assert str(least.value) == str(err.value).replace(f"{need - 1} bytes", f"{need // 2} bytes")
    assert all(np.array_equal(err.value.best[k], least.value.best[k]) for k in (2, 3))
    monkeypatch.setattr(errors, "BYTE_BUDGET", need)
    with pytest.raises(QuadratureError, match="a level of 136 points"):
        quad_oracle(H, (2, 3), 4.0, 1e-12)
    assert H.grids == [17, 34, 17, 34, 68]


def test_quad_oracle_budget_refusal_names_each_unconverged_order():
    # a dense 2x2 tone at carrier 1e7: no level the default budget admits
    # resolves t = 1 to 1e-12, and the one refusal states each order's last
    # change at the last finished level, then the level it refuses, its
    # bytes and the budget; best holds the last finished level's values
    H = MultiToneHamiltonian([(0.5 * sigma_plus(), 1e7)])
    per_node = 4 * oracle._QUAD_BYTES_PER_ENTRY + 24
    assert oracle._SectorStage(H).node_bytes == per_node
    points = 17
    while points * per_node <= errors.BYTE_BUDGET:
        points *= 2
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (2, 3), 1.0, 1e-12)
    stated = re.fullmatch(r"quadrature of order 2, 3 did not reach tol=1e-12 "
                          r"\(order 2: last change (\S+) at (\d+) points; "
                          r"order 3: last change (\S+) at (\d+) points\): "
                          rf"a level of {points} points would take about {points * per_node} "
                          rf"bytes, over the budget of {errors.BYTE_BUDGET} bytes",
                          str(err.value))
    assert stated is not None
    assert all(float(change) > 1e-12 for change in stated.groups()[::2])
    assert all(int(nodes) == points // 2 for nodes in stated.groups()[1::2])
    assert sorted(err.value.best) == [2, 3]
    assert all(v.shape == (2, 2) and np.isfinite(v).all() for v in err.value.best.values())


def test_quad_oracle_budget_counts_the_sector_stack_of_a_declared_split(monkeypatch):
    # jc's support splits into four 2x2 sectors: 16 entries per point, not
    # 100, besides its one carrier's sampling; a budget below the first
    # level, two panels of 17 nodes, samples nothing and has no best
    H = _CountingOperator(jc_detuned())
    assert len(H.omegas) == 1
    monkeypatch.setattr(errors, "BYTE_BUDGET", 1)
    need = 34 * (16 * oracle._QUAD_BYTES_PER_ENTRY + 24)
    with pytest.raises(QuadratureError, match=f"about {need} bytes") as err:
        quad_oracle(H, 2, [1.0, 2.0], 1e-9)
    assert err.value.best is None and H.points == 0


def test_quad_oracle_budget_counts_a_models_sampling_block(monkeypatch):
    # six carriers on a scalar model: the phases and the cos/sin block of its
    # sampling, 144 bytes per node, outweigh its one stack entry; counted in
    # the projection, they keep the peak up to the refusal within the budget
    H = MultiToneHamiltonian([(np.array([[0.1 * (k + 1)]]), 1e7 * (1 + 0.13 * k))
                              for k in range(6)])
    assert oracle._SectorStage(H).node_bytes == oracle._QUAD_BYTES_PER_ENTRY + 6 * 24
    budget = 16 << 20
    monkeypatch.setattr(errors, "BYTE_BUDGET", budget)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=f"over the budget of {budget} bytes"):
            quad_oracle(H, (2, 3, 4, 5, 6), 1.0, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


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


def _levels(grids):
    # levels run by a call at one time that sampled ``grids``
    assert grids == [17 * 2**level for level in range(len(grids))]
    return len(grids)


@pytest.mark.parametrize("name", ["commuting_diag", "scalar_single_tone", "noncommuting_two_tone"])
def test_quad_oracle_tuple_equals_single_order_calls(name):
    H = make_model(name)
    t = 10.0 / H.min_omega
    levels = {}
    singles = {}
    for n in (2, 3, 4):
        probe = _CountingOperator(H)
        singles[n] = quad_oracle(probe, n, t, 1e-9)
        levels[n] = _levels(probe.grids)
    # the orders converge at different levels (3/4/4 on commuting_diag,
    # 2/3/4 on scalar_single_tone, 3/4/4 on noncommuting_two_tone), so some
    # are frozen while others refine
    assert len(set(levels.values())) > 1
    probe = _CountingOperator(H)
    both = quad_oracle(probe, (4, 2, 3, 2), t, 1e-9)
    assert sorted(both) == [2, 3, 4]
    for n in (2, 3, 4):
        assert np.array_equal(both[n], singles[n])
    # one sampling of H per level, up to the finest level any order needs
    assert _levels(probe.grids) == max(levels.values())


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


def test_quad_oracle_tuple_budget_error_carries_best_estimates(monkeypatch):
    # commuting_diag at t = 10 needs 68 points for order 2 and 136 for
    # orders 3 and 4, so a budget of 68 points stops orders 3 and 4 only
    H = make_model("commuting_diag")
    t = 10.0 / H.min_omega
    _admit(monkeypatch, H, 68)
    with pytest.raises(QuadratureError, match="order 3, 4") as err:
        quad_oracle(H, (2, 3, 4), t, 1e-9)
    best = err.value.best
    assert sorted(best) == [2, 3, 4]
    assert np.array_equal(best[2], quad_oracle(H, 2, t, 1e-9))
    for n in (3, 4):
        with pytest.raises(QuadratureError) as single:
            quad_oracle(H, n, t, 1e-9)
        assert np.array_equal(best[n], single.value.best)


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
    assert probe.grids == [8 * 17 * 2**level for level in range(len(probe.grids))]
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
    # on the level-0 panel: refused before any chain, at the first such node
    first = float(oracle._NODES[oracle._NODES > 0.5][0])
    op = _InfiniteAfter(lambda ts: ts > 0.5)
    with pytest.raises(OperatorValueError, match=re.escape(f"not finite at quadrature time {first!r}")):
        quad_oracle(op, 2, 1.0, 1e-9)
    assert op.points == 17
    # between 0.5 and level 0's next node: refused at level 1, whose second
    # panel starts at 0.5
    window = (0.5, first)
    op = _InfiniteAfter(lambda ts: (ts > window[0]) & (ts < window[1]))
    with pytest.raises(OperatorValueError, match=re.escape(f"time {0.5 + 0.5 * float(oracle._NODES[1])!r}")):
        quad_oracle(op, (2, 3), 1.0, 1e-9)
    assert op.points == 17 + 34


def test_quad_oracle_runs_sectors_larger_than_3x3_unsplit(rng, monkeypatch):
    # unsplit on the declared support, as the same operand with none runs
    H = _two_4x4_sectors(rng)
    splits = _record_splits(monkeypatch)
    ts = _eighths(1.5)
    vals = quad_oracle(H, (2, 3, 4), ts, 1e-9)
    assert splits and not any(splits)
    ref = quad_oracle(_NoSupport(H), (2, 3, 4), ts, 1e-9)
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


def test_quad_oracle_budget_error_states_the_last_change(monkeypatch):
    # commuting_diag at t = 10 needs 136 points for orders 3 and 4
    H = make_model("commuting_diag")
    tol = 1e-9
    _admit(monkeypatch, H, 68)
    with pytest.raises(QuadratureError, match="order 3, 4") as err:
        quad_oracle(H, (2, 3, 4), 10.0 / H.min_omega, tol)
    stated = re.findall(r"order (\d): last change (\S+) at (\d+) points", str(err.value))
    assert [int(k) for k, _, _ in stated] == [3, 4]
    for _, change, points in stated:
        assert float(change) > tol
        assert int(points) == 68
    # a budget that admits one level measures no change; best is that level's
    _admit(monkeypatch, H, 17)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (2, 3), 1.0, tol)
    budget = errors.BYTE_BUDGET
    assert str(err.value) == ("quadrature of order 2, 3 did not reach tol=1e-09: a level of 34 "
                              f"points would take about {2 * budget} bytes, "
                              f"over the budget of {budget} bytes")
    assert sorted(err.value.best) == [2, 3]


@pytest.mark.parametrize("ts", [
    [], [-0.5, 1.0], [-1.0], [0.5, math.nan], [[0.5, 1.0]], [False, True], ["0.5", "1.0"],
    [0.5, True], [0.5, math.inf], [0.5, 1j],
])
def test_quad_oracle_rejects_bad_times_before_sampling(ts):
    H = _CountingOperator(make_model("noncommuting_two_tone"))
    with pytest.raises(OperatorValueError):
        quad_oracle(H, 2, ts, 1e-9)
    with pytest.raises(OperatorValueError):
        quad_oracle(H, (2, 3), ts, 1e-9)
    assert H.points == 0


@pytest.mark.parametrize("name", ["jc", "dense3"])
def test_quad_oracle_reads_any_list_of_times(rng, name):
    # every time is a panel edge, so any list is read at its own times; an
    # unsorted list or one with a repeated time gives the values of the
    # sorted list at each of its times
    H = _oracle_models(rng)[name]
    ts = [0.3, 1.7, math.pi, 4.2, 7.77]
    vals = quad_oracle(H, (2, 3, 4, 5, 6), ts, 1e-9)
    for n, val in vals.items():
        closed = heff_n_timedep(H, n).evaluate_grid(ts)
        assert np.linalg.norm(val - closed, axis=(1, 2)).max() <= 1e-11
    shuffled = [4.2, 0.3, 7.77, 4.2, math.pi, 1.7, 0.3]
    other = quad_oracle(H, (2, 3, 4, 5, 6), shuffled, 1e-9)
    for n, val in other.items():
        assert np.array_equal(val, vals[n][[ts.index(t) for t in shuffled]])


def test_quad_oracle_accepts_nodes_within_rounding():
    # 0.1 * 3 is 0.30000000000000004: two distinct times 5.6e-17 apart make
    # a gap of that width, and the values on either side of it agree
    H = make_model("noncommuting_two_tone")
    vals = quad_oracle(H, (2, 3), [0.3, 0.1 * 3, 1.2], 1e-9)
    alone = quad_oracle(H, (2, 3), [0.3, 1.2], 1e-9)
    for k in (2, 3):
        assert vals[k].shape == (3, 2, 2)
        assert np.linalg.norm(vals[k][1] - vals[k][0]) <= 1e-14 * np.linalg.norm(vals[k][0])
        _assert_close_values(vals[k][[0, 2]], alone[k], rtol=1e-9)


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


def test_quad_oracle_times_budget_error_carries_stacks(monkeypatch):
    H = make_model("commuting_diag")
    ts = _eighths(10.0 / H.min_omega)
    # a budget of one level: best holds that level's values
    _admit(monkeypatch, H, 8 * 17)
    with pytest.raises(QuadratureError, match="order 2, 3, 4") as err:
        quad_oracle(H, (2, 3, 4), ts, 1e-9)
    best = err.value.best
    assert sorted(best) == [2, 3, 4]
    for n in (2, 3, 4):
        assert best[n].shape == (8, 2, 2)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, 3, ts, 1e-9)
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
    a model (``max_omega``) and a series (``freqs``). It declares no
    support and runs unsplit; at ``dim`` 4, with levels 0 and 1 coupled
    too, the test declares its support, which splits into two 2x2
    sectors."""

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
    op = _CouplingInfiniteAfter(dim)
    if dim == 4:
        op = _WithSupport(op, np.abs(op.evaluate_grid([0.0])[0]) > 0)
        assert oracle._SectorStage(op).valid.shape == (2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorValueError,
                           match=r"^H is not finite at propagation time 0\.50390625$"):
            propagate(op, 1.0, steps=64)


def test_quad_oracle_keys_its_values_in_ascending_order(monkeypatch):
    # order 6 converges first here, and once came first in the dict
    H = make_model("noncommuting_two_tone")
    assert list(quad_oracle(H, (2, 3, 4, 5, 6), 5.0, 1e-9)) == [2, 3, 4, 5, 6]
    assert list(quad_oracle(H, (6, 2, 4), [2.5, 5.0], 1e-9)) == [2, 4, 6]
    # commuting_diag at t = 10 stops orders 3 and 4 at a budget of 68 points
    H = make_model("commuting_diag")
    _admit(monkeypatch, H, 68)
    with pytest.raises(QuadratureError) as err:
        quad_oracle(H, (4, 2, 3), 10.0 / H.min_omega, 1e-9)
    assert list(err.value.best) == [2, 3, 4]


# ----------------------------------------------------------------------
# the sector split from a declared support


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
def test_sector_entries_give_the_bits_of_the_whole_samples(name, monkeypatch):
    # sampling the sector entries alone gives the bits of taking them from
    # the whole samples, block by block and level by level
    op = SUPPORTED[name]()
    assert oracle._SectorStage(op).index is not None
    propagate = propagate_series if isinstance(op, OperatorSeries) else propagate_exact
    splits = _record_splits(monkeypatch)
    # 1000 coarse steps: three whole blocks and a shorter tail
    t, steps = 30.0, 1000
    probe = _RecordingIndex(op)
    res = propagate(probe, t, steps=steps)
    assert splits and all(splits)
    ref = propagate(_WithSupport(op, op.support), t, steps=steps)
    assert res.U.tobytes() == ref.U.tobytes() and res.est_error == ref.est_error
    assert len(probe.indexes) == math.ceil(steps / oracle._RK4_BLOCK)
    assert all(index is probe.indexes[0] for index in probe.indexes)
    assert probe.points <= 4 * steps + math.ceil(steps / oracle._RK4_BLOCK)
    # the quadrature's levels, sampled at the sector entries only
    probe = _RecordingIndex(op)
    vals = quad_oracle(probe, (2, 3, 4), _eighths(3.0), 1e-9)
    assert len(probe.indexes) > 1
    assert all(index is probe.indexes[0] for index in probe.indexes)
    ref_probe = _CountingOperator(_WithSupport(op, op.support))
    ref = quad_oracle(ref_probe, (2, 3, 4), _eighths(3.0), 1e-9)
    assert probe.grids == ref_probe.grids
    for n in (2, 3, 4):
        assert vals[n].tobytes() == ref[n].tobytes()


@pytest.mark.parametrize("name", SUPPORTED)
def test_an_operand_with_no_support_runs_unsplit(name, monkeypatch):
    # no stack is split and no index is passed; the values agree with the
    # split run's to rounding
    op = SUPPORTED[name]()
    propagate = propagate_series if isinstance(op, OperatorSeries) else propagate_exact
    splits = _record_splits(monkeypatch)
    probe = _RecordingIndex(_NoSupport(op))
    res = propagate(probe, 30.0, steps=300)
    vals = quad_oracle(probe, (2, 3, 4), _eighths(3.0), 1e-9)
    assert splits and not any(splits)
    assert probe.indexes and not any(index is not None for index in probe.indexes)
    ref = propagate(op, 30.0, steps=300)
    assert np.linalg.norm(res.U - ref.U) <= 1e-12 * np.linalg.norm(ref.U)
    for n, val in quad_oracle(op, (2, 3, 4), _eighths(3.0), 1e-9).items():
        assert np.linalg.norm(vals[n] - val) <= 1e-12 * max(1.0, np.linalg.norm(val))


def test_a_support_that_does_not_split_runs_unsplit(rng, monkeypatch):
    # one sector, or sectors larger than 3x3: the support decides once that
    # every block and level runs unsplit, and the index is never passed
    splits = _record_splits(monkeypatch)
    for op in (make_model("raman_lambda"), _two_4x4_sectors(rng), make_model("scalar_single_tone")):
        stage = oracle._SectorStage(op)
        assert stage.index is None and stage.valid is None
        probe = _RecordingIndex(op)
        propagate_exact(probe, 1.0, steps=300)
        quad_oracle(probe, 2, 1.0, 1e-9)
        assert probe.indexes and not any(index is not None for index in probe.indexes)
    assert splits and not any(splits)


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
                                                  r"at 136 points \(order 3: values not finite\)$") as err:
            quad_oracle(H, (2, 3), ts, 1e-9)
        with pytest.raises(QuadratureError, match=r"^quadrature of order 2 is not finite at 272 "
                                                  r"points \(order 2: last change inf\)$"):
            quad_oracle(H2, 2, ts, 1e-9)
    assert H.points == 8 * 17
    assert H2.points == 8 * 17 + 2 * 8 * 17
    best = err.value.best
    assert sorted(best) == [2, 3] and all(v.shape == (8, 3, 3) for v in best.values())
    assert np.isfinite(best[2]).all() and not np.isfinite(best[3]).all()
