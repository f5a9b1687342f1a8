"""Independent numerical references for the closed-form builders.

Three tools live here: exact propagation of the Schroedinger equation
under the interaction Hamiltonian, propagation under an arbitrary
operator-valued series (Hermitian or not), and a nested-quadrature
evaluation of the order-n effective term that deliberately shares no code
with the tone calculus. The integrator is a fixed-step classical
Runge-Kutta scheme (order 4) with a step-halving error estimate, chosen
over adaptive black boxes for reproducibility.

Both RK4 runs (``steps`` and ``2 * steps``) proceed block by block. Each
block samples H once on the fine run's half-step grid; the coarse run
reads every other sample. Since the equation is linear, each step is
``U <- (I + D_k) U`` with an increment matrix ``D_k`` that depends on the
samples only, so no Python loop runs per step: the increments of a block
are formed in batched numpy products, and the step maps are multiplied as
a pairwise tree in time order, one batched product per level. A node of
the tree is a run of coarse steps and the fine steps that cover them; it
carries its fine map minus the identity and the difference between its
fine and coarse maps, so that the step-halving estimate is read off that
difference rather than off a subtraction of two nearly equal products.
Each block's node is folded into the running one by the same rule.

Each block is split into invariant sectors: the connected components of
the entries of H that are nonzero in some sample, made symmetric. No
sample couples two sectors, so no step map does either, and the block's
maps are computed on a zero-padded ``(b, b)`` stack of the sectors, ``b``
the largest sector, and scattered back into ``(d, d)``. An idle level, a
lone level with no diagonal entry in any sample, is left out of the
stack: it never moves, so its rows and columns of every step map are
those of the identity, and its quadrature values zero, as the scatter
gives them. One object, ``_SectorStage``, holds the split for a whole run
of either oracle. A model that conserves a quantum number, such as the
excitation number of the Jaynes-Cummings model (dimension 10, sectors 1,
1, 2, 2, 2, 2, the two lone levels idle), then multiplies a stack of four
2x2 blocks instead of 10x10 ones.

The split comes from one of two routes that share the split rule, the
scatter, the finiteness check and the maps. A
:class:`MultiToneHamiltonian` or :class:`OperatorSeries` declares its
``support``, the entries nonzero in some sample. When the support splits,
the stage takes the split from it once per run, and both oracles sample
each RK4 block and each quadrature level's new midpoints at the sector
entries only (``evaluate_grid(ts, index)``), with no pattern scan and no
gather. Any other grid function, and a support that does not split, takes
the sampled route: the stage reads the nonzero pattern of each stack of
samples, which makes the split exact for any grid function, finds the
sectors again only when the pattern changes, and gathers the stack into
them. On a Jaynes-Cummings block of 1025 samples (one BLAS thread)
sampling its 16 sector entries takes about 50 us against 160 us for all
100, and laying them into the stack 22 us against 120 us for the gather;
the run at t = 400 (25,600 steps) peaks at 1.02 MiB in tracemalloc
against 1.85 MiB.

Both oracles refuse samples of H that are not all finite, with
:class:`OperatorValueError` naming the first such time, rather than
return NaNs. The RK4 checks what it multiplies, the sampled sector
entries or the gathered stack. Either holds every nonzero entry, and an
entry outside a support is finite wherever those inside are (a model's is
``0 * cos + 0 * sin``, a series' shares their envelopes). On the
Jaynes-Cummings model the check on the ``(1025, 4, 2, 2)`` stack of a
block takes 37 us, against 166 us on the ``(1025, 10, 10)`` samples (one
BLAS thread). The quadrature checks each level's new samples before its
chain runs.

Blocks up to 3x3 are multiplied as a sum of outer products over the inner
index, not by ``np.matmul``, whose cost per matrix hardly falls below
4x4. On a 2-vCPU VM with one BLAS thread, on stacks of 3072 complex
matrices, ``np.matmul`` took 0.46/0.50/0.50/0.64/1.06 us per matrix at
b = 2/3/4/6/10 and the sum 0.17/0.40/0.69/2.0/10.0 us, both measured on
C-ordered stacks. Every sector stack has time as its fastest axis (the
fancy index that builds it on either route lays it out so), and that
layout is what makes the sum cheap there:
on a C-ordered copy of the same stack the Jaynes-Cummings RK4 at t = 400
(25,600 steps) took 0.27 s instead of 0.18 s. The split pays only with
that cheap product: a block runs unsplit when it has a single sector,
idle levels counted, or a sector larger than 3. Split, sectors 5, 1 took
2.5 times and sectors 4, 4 1.5 times as long as unsplit, since a padded
stack of S sectors costs S products under ``np.matmul``.

The quadrature path (:func:`quad_oracle`) evaluates the interaction
Hamiltonian directly on refined uniform grids and builds the nested
integrals with a fourth-order cumulative Simpson rule, one refinement for
any set of orders 2..6 and any list of times. A cumulative integral and a
product with H keep the sectors of H's samples, so each level's samples go
through the same sector stage as an RK4 block's, with products by
:func:`_mul` either way, and only the values at the read-out times are
scattered back into ``(d, d)``. The Jaynes-Cummings chain then multiplies
2x2 blocks and the dense zoo models of dimension 2 and 3 take the sum of
outer products. The samples are read as complex, so a grid function may
return real ones, and neither oracle writes to them. The cumulative chain
on ``[0, T]``, ``T`` the largest time, holds every time that is an even
node of the 256-interval level-0 grid (``t / T * 256`` an even integer,
e.g. ``j * T / 8``), and every later level keeps those nodes, so all such
times are read off one chain. Values at a time below ``T`` then come from
a grid on ``[0, T]`` rather than ``[0, t]`` and are not bit-identical to
those of a call at that time alone. The quadrature must not touch the
closed-form machinery, since its whole value is independence from it.

The levels share their samples. Node ``2j`` of the grid of ``2p``
intervals and node ``j`` of the grid of ``p`` intervals are the same
double, ``j * fl(T / p)``, since halving is exact, so each level after the
first samples H only at its ``p`` new midpoints and interleaves them with
the kept samples: the stack equals that of sampling the whole grid, and
every level still calls ``evaluate_grid`` once. The refinement then
samples ``256 * 2**k + 1`` points up to level k instead of about twice as
many. The grid ``j * fl(T / p)``, its last node set to ``T``, is numpy's
``linspace`` formula for start 0.0, written out to skip its overhead.
While a level is interleaved, memory holds the previous stack and the new
one. The values are those of sampling each level whole as long as the
grid function returns for each time the same value whatever batch of
more than one time it comes in, as :class:`MultiToneHamiltonian` does;
one whose values depend on the batch may differ in the last bits. A batch
of one time is another case: the model's one-row product may differ in
the last bits from that row of a larger batch, but no level samples
fewer than 256 times.

The highest order is read at its read-out nodes only, so its last step is
taken there alone: its Simpson pair sums are accumulated up to the last
read-out node, the same sequential prefix sums that the whole cumulative
integral takes there, and only the read-out samples of H multiply them,
giving the same doubles as the whole chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    OperatorValueError,
    QuadratureError,
    check_integer,
    check_orders,
    check_real,
    check_times,
)

#: Default sample density: steps per unit of (max carrier) * (time span).
STEPS_PER_UNIT = 4096

#: Largest coarse RK4 step count, given or default, checked before H is
#: sampled. It is far above every count in use: criterion 9 takes up to
#: 102,400 steps, the benchmark's ``exact:jc`` 25,600 and ``exact:d6t3``
#: 8,192. The Jaynes-Cummings model takes about 9 us per coarse step
#: (2-vCPU VM, one BLAS thread), so the cap is about 2.5 minutes of its
#: work; a carrier of 1e300 would ask for a count of 304 digits at t = 1.
MAX_RK4_STEPS = 1 << 24

#: Refinement cap for the nested quadrature (grid points per level).
MAX_QUAD_POINTS = 1 << 21

#: Highest order the nested quadrature evaluates: the builders' top order,
#: written here again so that the oracle imports nothing from them.
MAX_QUAD_ORDER = 6

#: Coarse RK4 steps per block. A block of B coarse steps samples H at
#: ``4B + 1`` points of the fine half-step grid, about ``(4B+1) * d^2 * 16``
#: bytes, and its batched increments, tree levels and their temporaries
#: take a few times ``2B * d^2 * 16`` more. Larger blocks run fewer Python
#: calls per step but leave the cache: on jc_detuned(g=0.05), t = 400,
#: 25,600 coarse steps, one BLAS thread, B = 32/64/128/256/512/1024/8192
#: took 0.79/0.52/0.69/0.73/0.83/1.14/1.48 s (best of 5) at peak RSS
#: 59/60/61/63/68/77/235 MB. B from 64 to 256 ran equally fast within the
#: machine's noise.
_RK4_BLOCK = 256

#: Largest block size that :func:`_mul` multiplies as a sum of outer
#: products instead of by ``np.matmul``: the measured crossover (see the
#: module docstring).
_SMALL_PRODUCT = 3

#: Intervals of the coarsest quadrature grid; each refinement doubles them.
_BASE_POINTS = 256

#: How far, in level-0 intervals, a listed time may sit from its grid node.
_NODE_TOL = 1e-9


@dataclass(frozen=True)
class PropagationResult:
    """Propagator estimate with a step-halving error bound.

    ``U`` is computed at ``2 * steps`` steps; ``est_error`` is the
    Frobenius distance between the ``steps`` and ``2 * steps`` runs. That
    distance is carried through the product of the step maps as a
    difference of its own, so it keeps its relative precision even when
    it is many orders of magnitude below ``||U||``.
    """

    U: np.ndarray
    steps: int
    est_error: float


def default_step_count(max_omega: float, t: float) -> int | float:
    """Default fixed-step count: ``STEPS_PER_UNIT`` per unit of ``max_omega * t``,
    at least 16; ``inf`` if that product overflows a float."""
    units = STEPS_PER_UNIT * max_omega * abs(t)
    return max(16, math.ceil(units)) if units < math.inf else units


def _mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Batched matrix product ``X @ Y``: for blocks up to ``_SMALL_PRODUCT``
    the sum over ``j`` of the outer products ``X[..., :, j] Y[..., j, :]``,
    otherwise ``np.matmul`` (measured costs in the module docstring)."""
    b = X.shape[-1]
    if b > _SMALL_PRODUCT:
        return np.matmul(X, Y)
    Z = X[..., :, :1] * Y[..., :1, :]
    for j in range(1, b):
        Z += X[..., :, j:j + 1] * Y[..., j:j + 1, :]
    return Z


def _increments(A: np.ndarray, h: float) -> np.ndarray:
    """Per-step RK4 increments ``D_k`` for ``dU/dt = A(t) U``, batched.

    ``A`` holds ``2n + 1`` samples on the half-step grid of ``n`` steps of
    size ``h``, along axis 0. One classical RK4 step is ``U <- U + D_k U``
    with ``D_k = (h/6)(A0 + 2 K2 + 2 K3 + K4)``, ``K2 = Am (I + h/2 A0)``,
    ``K3 = Am (I + h/2 K2)`` and ``K4 = A1 (I + h K3)``.
    """
    A0, Am, A1 = A[:-1:2], A[1::2], A[2::2]
    D = _mul(Am, A0)  # K2, then the increment
    D *= h / 2
    D += Am
    K3 = _mul(Am, D)
    K3 *= h / 2
    K3 += Am
    K4 = _mul(A1, K3)
    K4 *= h
    K4 += A1
    D *= 2
    D += A0
    K3 *= 2
    D += K3
    D += K4
    D *= h / 6
    return D


def _join(G1: np.ndarray, E1: np.ndarray, G2: np.ndarray,
          E2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Segment 1 followed by segment 2, batched over leading axes or not.
    # A segment is ``G = F - I``, F its fine map, and ``E = F - C``, C its
    # coarse map. Then F2 F1 = I + G1 + G2 + G2 G1 and
    # F2 F1 - C2 C1 = F2 E1 + E2 C1 = E1 + E2 + G2 E1 + E2 (G1 - E1).
    # Both are kept as differences: G rounds relative to its own size while
    # it is small, and E keeps the cancellation that a subtraction of the
    # coarse and fine products would lose.
    E = _mul(G2, E1)
    E += _mul(E2, G1 - E1)
    E += E1
    E += E2
    G = _mul(G2, G1)
    G += G1
    G += G2
    return G, E


def _block_maps(A: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    # ``(G, E)`` of one block of b coarse steps from its 4b + 1 samples on
    # the fine half-step grid (axis 0; any further leading axes are
    # batched). Coarse step j (size 2h) covers fine steps 2j and 2j + 1, so
    # its fine pair map is (I + Df_{2j+1})(I + Df_{2j}) and its G and E come
    # from the increments alone. The b pairs are then joined pairwise in
    # time order, one batched product per tree level.
    Df = _increments(A, h)
    Df0, Df1 = Df[0::2], Df[1::2]
    G = _mul(Df1, Df0)
    G += Df1
    G += Df0
    E = _increments(A[::2], 2 * h)
    np.subtract(G, E, out=E)
    while len(G) > 1:
        m = len(G) - len(G) % 2
        Gj, Ej = _join(G[0:m:2], E[0:m:2], G[1:m:2], E[1:m:2])
        if m < len(G):
            Gj, Ej = np.concatenate((Gj, G[m:])), np.concatenate((Ej, E[m:]))
        G, E = Gj, Ej
    return G[0], E[0]


def _sectors(pattern: np.ndarray) -> list[np.ndarray]:
    """Invariant sectors of a ``(d, d)`` boolean pattern of nonzero entries.

    A sector is a connected component of ``pattern | pattern.T``, given as
    its sorted indices; sectors are ordered by their first index. Each
    index takes the least label among itself and its neighbours, then the
    label of its label, until no label changes; each index is then
    labelled with the first index of its sector.
    """
    d = len(pattern)
    linked = pattern | pattern.T | np.eye(d, dtype=bool)
    labels = np.arange(d)
    while True:
        new = np.where(linked, labels, d).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            roots = np.flatnonzero(labels == np.arange(d))
            return [np.flatnonzero(labels == r) for r in roots]
        labels = new


def _split(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(rows, cols, valid)`` of the sector stack of a ``(d, d)`` nonzero
    pattern, or ``None`` when it runs unsplit (see :class:`_SectorStage`).

    Each is ``(S, b, b)``: the row and column of ``(d, d)`` that each entry
    of the zero-padded stack of the ``S`` sectors holds, ``b`` the largest,
    and whether it holds one rather than padding.
    """
    sectors = _sectors(pattern)
    b = max(map(len, sectors))
    if len(sectors) == 1 or b > _SMALL_PRODUCT:
        return None
    # an idle level never moves; if all are, the stack has no sectors
    sectors = [s for s in sectors if len(s) > 1 or pattern[s[0], s[0]]]
    index = np.zeros((len(sectors), b), dtype=int)
    valid = np.zeros((len(sectors), b), dtype=bool)
    for k, s in enumerate(sectors):
        index[k, :len(s)] = s
        valid[k, :len(s)] = True
    return (np.broadcast_to(index[:, :, None], (len(sectors), b, b)),
            np.broadcast_to(index[:, None, :], (len(sectors), b, b)),
            valid[:, :, None] & valid[:, None, :])


@functools.lru_cache(maxsize=64)
def _support_split(support: bytes, d: int):
    # the split of a declared (d, d) support, or None: a pure function of
    # it, kept so that an operand whose support does not split pays for the
    # sector search once, not on every call
    pattern = np.frombuffer(support, dtype=bool).reshape(d, d)
    split = _split(pattern)
    if split is None:
        return None
    rows, cols, valid = split
    index = (rows * d + cols)[valid]
    # the column of the sampled entries that each stack entry holds
    column = np.zeros(valid.shape, dtype=np.intp)
    column[valid] = np.arange(len(index))
    for array in (valid, index, column):
        array.setflags(write=False)
    return pattern, split, index, column


class _SectorStage:
    """The invariant-sector split of the successive sample stacks of one
    run, as both oracles take it (see the module docstring).

    A pattern splits when it has more than one sector and none larger than
    ``_SMALL_PRODUCT``, since only then do the sectors take the cheap
    product of :func:`_mul`. The stack of a split is ``(n, S, b, b)``, the
    ``S`` sectors zero-padded to the largest, ``b``, without idle levels
    (lone levels whose diagonal entry is zero in every sample; with no
    sectors left, everything scatters to zeros), and with time as the
    fastest axis (strides ``(16, ...)``). :meth:`scatter` puts values of
    those sectors back into ``(d, d)``, zeros elsewhere.

    With a ``support`` that splits, :attr:`index` holds the flat positions
    ``row * d + col`` of the sector entries and :meth:`stack` lays the
    values sampled there into the stack. Otherwise :attr:`index` is
    ``None``, and :meth:`gather` reads the nonzero pattern of a
    C-contiguous complex ``(n, d, d)`` stack, splits it again only when the
    pattern differs from the last one, and returns a new sector stack, or
    its input unchanged when the pattern does not split, as :meth:`scatter`
    then does too.
    """

    def __init__(self, support=None):
        self.pattern = self.valid = self.index = None
        if support is not None:
            support = np.asarray(support, dtype=bool)
            found = _support_split(support.tobytes(), len(support))
            if found is not None:
                self.pattern, (self.rows, self.cols, self.valid), self.index, self.column = found

    def sample(self, grid_eval, ts) -> np.ndarray:
        # every entry, or the sector entries alone when the support splits
        return grid_eval(ts) if self.index is None else grid_eval(ts, self.index)

    def gather(self, A: np.ndarray) -> np.ndarray:
        d = A.shape[-1]
        pattern = np.any(A.view(A.real.dtype), axis=0).reshape(d, d, 2).any(axis=2)
        if self.pattern is None or not np.array_equal(pattern, self.pattern):
            self.pattern = pattern
            self.rows, self.cols, self.valid = _split(pattern) or (None, None, None)
        if self.valid is None:
            return A
        stack = A[:, self.rows, self.cols]
        stack[:, ~self.valid] = 0
        return stack

    def stack(self, values: np.ndarray) -> np.ndarray:
        # the sector stack of the (n, k) values at ``index``, laid out as
        # the gather lays out its own, by a fancy index over the columns
        stack = np.asarray(values, dtype=complex)[:, self.column]
        stack[:, ~self.valid] = 0
        return stack

    def scatter(self, X: np.ndarray) -> np.ndarray:
        # X is (..., S, b, b); any leading axes are kept
        if self.valid is None:
            return X
        d = len(self.pattern)
        out = np.zeros(X.shape[:-3] + (d, d), dtype=X.dtype)
        out[..., self.rows[self.valid], self.cols[self.valid]] = X[..., self.valid]
        return out


def _not_finite(kind: str, times: np.ndarray, samples: np.ndarray) -> str:
    # axis 0 is time, so the first non-finite entry is at the first such time
    first = np.argwhere(~np.isfinite(samples))[0, 0]
    return f"H is not finite at {kind} time {float(times[first])!r}"


def _rk4_pair(op, t: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    # Fine (``2 * steps``) RK4 map of dU/dt = -i H U and its difference from
    # the coarse (``steps``) map, both fed from one sampling of H per block,
    # each block split into the invariant sectors of the operand's support
    # or of its own samples (see the module docstring).
    h = t / (2 * steps)
    G = E = np.zeros((op.dim, op.dim), dtype=complex)
    sectors = _SectorStage(getattr(op, "support", None))
    for c0 in range(0, steps, _RK4_BLOCK):
        c1 = min(steps, c0 + _RK4_BLOCK)
        times = (h / 2) * (4 * c0 + np.arange(4 * (c1 - c0) + 1))
        A = sectors.sample(op.evaluate_grid, times)
        if sectors.index is not None:
            if not np.isfinite(A).all():
                raise OperatorValueError(_not_finite("propagation", times, A))
            # -i H, in place on a new stack; the samples die here
            A = sectors.stack(A)
            A *= -1j
        else:
            A = np.ascontiguousarray(A, dtype=complex)
            S = sectors.gather(A)
            # a non-finite entry is nonzero, so it lies in a sector (or S is A)
            if not np.isfinite(S).all():
                raise OperatorValueError(_not_finite("propagation", times, A))
            # -i S, in place on a stack the gather made; the caller's samples
            # are never written to, so unsplit ones are scaled into a copy
            A = np.multiply(S, -1j, out=None if S is A else S)
            del S  # the samples are not held while the block's maps are formed
        G, E = _join(G, E, *map(sectors.scatter, _block_maps(A, h)))
    G[np.diag_indices_from(G)] += 1
    return G, E


def _propagate(op, t: float, steps: int | None, max_omega: float) -> PropagationResult:
    t = float(check_real("propagation time", t, 0.0))
    if steps is None:
        steps = default_step_count(max_omega, t)
    steps = check_integer("steps", steps, 16, MAX_RK4_STEPS)
    if t == 0.0:
        return PropagationResult(np.eye(op.dim, dtype=complex), steps, 0.0)
    fine, difference = _rk4_pair(op, t, steps)
    return PropagationResult(fine, steps, float(np.linalg.norm(difference)))


def propagate_exact(H, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i H(t) U`` with U(0) = I under a multi-tone model.

    ``t`` must be a finite real number >= 0, and ``steps``, the coarse
    step count, an integer in ``[16, MAX_RK4_STEPS]``, the default
    :func:`default_step_count` included; both are checked before H is
    sampled, here and in :func:`propagate_series`. A block whose samples
    of H are not all finite raises :class:`OperatorValueError`, naming the
    first such time, before its maps are formed; the check reads the
    sampled sector entries or the gathered stack, either of which holds
    every nonzero entry.
    """
    return _propagate(H, t, steps, H.max_omega)


def propagate_series(S, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i S(t) U`` for an operator-valued series.

    No unitarity is implied: a non-Hermitian S yields a non-unitary U,
    by design.
    """
    max_freq = float(np.abs(S.freqs).max(initial=0.0))
    return _propagate(S, t, steps, max(1.0, max_freq))


def fidelity_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Dimension-normalized Frobenius distance ``||U - V|| / sqrt(dim)``.

    ``U`` and ``V`` must be square matrices of dimension >= 1
    (:class:`OperatorValueError`) and of one shape
    (:class:`DimensionMismatchError`); non-finite entries pass through.
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    for X in (U, V):
        if X.ndim != 2 or X.shape[0] != X.shape[1] or X.size == 0:
            raise OperatorValueError(
                f"fidelity_distance operands must be square matrices of dimension >= 1, "
                f"got shape {X.shape}")
    if U.shape != V.shape:
        raise DimensionMismatchError(
            f"fidelity_distance operands have shapes {U.shape} and {V.shape}"
        )
    return float(np.linalg.norm(U - V)) / math.sqrt(U.shape[0])


def _simpson_pairs(F: np.ndarray, h: float) -> np.ndarray:
    """Simpson integral of uniform samples F (step h, axis 0) over each
    pair of intervals ``[2j, 2j + 2]``."""
    return (h / 3.0) * (F[0:-2:2] + 4.0 * F[1:-1:2] + F[2::2])


def _cumulative_simpson(F: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order cumulative integral of uniform samples F along axis 0.

    Even prefixes use composite Simpson pairs; odd prefixes add the
    integral of the quadratic through the enclosing three samples, which
    keeps the even chain independent of the odd corrections.
    """
    out = np.zeros_like(F)
    out[2::2] = np.cumsum(_simpson_pairs(F, h), axis=0)
    out[1::2] = out[0:-2:2] + (h / 12.0) * (
        5.0 * F[0:-2:2] + 8.0 * F[1:-1:2] - F[2::2]
    )
    return out


def _refined(samples: np.ndarray, midpoints) -> np.ndarray:
    """The ``(2p + 1, d, d)`` sample stack of the next level: the ``p + 1``
    samples of this level on its even rows, the ``p`` new midpoint samples
    on its odd rows."""
    stack = np.empty((2 * len(samples) - 1,) + samples.shape[1:], dtype=complex)
    stack[0::2] = samples
    stack[1::2] = midpoints
    return stack


def _nested_values(Hs: np.ndarray, orders: list[int], h: float,
                   sectors: _SectorStage, nodes: np.ndarray) -> dict[int, np.ndarray]:
    # Order-k values for each k in ``orders`` from one level's samples ``Hs``
    # (complex, step ``h``, never written to), read at the even grid indices
    # ``nodes``: the chain of order k is the first k - 1 steps of the highest
    # order's chain. The chain runs on what ``sectors`` gathers, as the RK4
    # does, and only the read-out nodes are scattered back. The highest
    # order's last step is taken at the nodes alone (module docstring).
    Hs = sectors.gather(Hs) if sectors.index is None else sectors.stack(Hs)
    A = Hs
    factor = 1 + 0j
    out = {}
    top = max(orders)
    for k in range(2, top):
        A = _mul(Hs, _cumulative_simpson(A, h))
        factor *= -1j
        if k in orders:
            out[k] = sectors.scatter(factor * A[nodes])
    # the integral at the even nodes up to the last read-out node
    even = np.zeros((nodes.max() // 2 + 1,) + A.shape[1:], dtype=complex)
    np.cumsum(_simpson_pairs(A[:nodes.max() + 1], h), axis=0, out=even[1:])
    out[top] = sectors.scatter(factor * -1j * _mul(Hs[nodes], even[nodes // 2]))
    return out


def _change(val: np.ndarray, prev: np.ndarray) -> float:
    # largest Frobenius distance between successive values over the times;
    # NaN if any distance is NaN, so that it never counts as converged
    return float(np.max([np.linalg.norm(v - p) for v, p in zip(val, prev)]))


def _check_times(t) -> tuple[np.ndarray, bool]:
    """Times as a 1-D array, and whether ``t`` was one number.

    Every time must be finite and >= 0. A sequence must also be non-empty
    and its times on even nodes of the level-0 grid on ``[0, max(t)]``.
    """
    if np.ndim(t) == 0:
        return np.array([float(check_real("quadrature time", t, 0.0))]), True
    times = check_times("quadrature times", t, 0.0)
    if times.size == 0:
        raise OperatorValueError("quad_oracle needs at least one time")
    T = times.max()
    if T > 0:
        ratio = times / T * _BASE_POINTS
        off = np.abs(ratio - 2.0 * np.rint(ratio / 2.0)) > _NODE_TOL
        if off.any():
            raise OperatorValueError(
                f"quadrature time {times[off][0]} is not an even node of the "
                f"{_BASE_POINTS}-interval grid on [0, {T}]")
    return times, False


def quad_oracle(H, n, t, tol: float,
                max_points: int = MAX_QUAD_POINTS):
    """Order-n effective term by nested grid quadrature, no closed forms.

    Grids are refined by doubling until two successive refinements agree
    to ``tol`` in Frobenius norm. ``n`` is one order, which gives its
    value, or a tuple of orders, which gives ``{order: value}`` keyed in
    ascending order, whatever order the orders converge in. All orders
    share one refinement: each level samples H once and runs one
    nested chain up to the highest order not yet converged, and each order
    is frozen at the level where its own successive values agree, so its
    value is the same as that of a call for that order alone. The last
    step of the highest order is integrated only up to the last read-out
    node and multiplied by H only at the read-out nodes, with the same
    doubles as the whole chain read there. The first
    level samples its 257 grid points; each later level samples only its
    new midpoints and keeps the previous level's samples as its even nodes
    (during the interleave both stacks are held). For a grid function whose
    value at a time depends on the other times in its batch, the values may
    differ in the last bits from sampling each grid whole.

    ``t`` is one time, which gives a ``(d, d)`` matrix per order, or a 1-D
    sequence of times, which gives a ``(len(t), d, d)`` stack per order.
    A sequence runs one refinement on ``[0, T]`` with ``T = max(t)`` and
    reads every time off the same chain; an order is frozen at the level
    where its values agree at every time. Each time must be >= 0 and lie on
    an even node of the level-0 grid, i.e. ``t / T * 256`` must be an even
    integer to within rounding (``j * T / 8`` qualifies), and a time of 0
    gives a zero matrix. The grid then spans ``[0, T]`` and not
    ``[0, t]``, so a value is not bit-identical to that of a call at its
    time alone; a one-element sequence is, since there ``T = t``. Bad
    orders (anything but an integer in 2..6: ``2.0`` and ``True`` are
    refused, numpy integers accepted), tolerances and times raise
    :class:`OperatorValueError` before H is sampled. ``tol`` must be a
    finite real number >= 1e-12: NaN would never agree and run the whole
    refinement, infinity would accept the first level, and ``None`` or a
    ``bool`` is refused as well. ``max_points`` must be an integer >= 512
    (a ``bool`` is refused), since convergence needs the 256- and 512-point
    levels; a smaller cap is refused before H is sampled too. A level whose
    new samples of H are not all finite raises :class:`OperatorValueError`,
    naming the first such time, before its chain runs. Raises
    :class:`QuadratureError` if the refinement cap is reached first; its
    ``best`` holds the best estimate, or for a tuple of orders the best
    estimate of every order, in the shape of the result, and its message
    states, for each order that did not converge, its last successive
    change and the grid it was measured on. It raises one as well, with
    ``best`` set the same way from that level's values, at the first level
    where an order's values, or their change from the level before, are
    not finite, naming those orders and the level: the samples are finite,
    so the nested chain has overflowed, and no finer grid brings it back.
    The chain runs with numpy's overflow and invalid-value warnings off.
    """
    single = not isinstance(n, (tuple, list))
    orders = check_orders((n,) if single else n, MAX_QUAD_ORDER)
    check_real("tolerance", tol, 1e-12)
    max_points = check_integer("max_points", max_points, 2 * _BASE_POINTS)
    times, scalar = _check_times(t)

    def result(values: dict[int, np.ndarray]):
        values = {k: values[k] for k in orders}  # ascending, not in convergence order
        if scalar:
            values = {k: v[0] for k, v in values.items()}
        return values[orders[0]] if single else values

    T = float(times.max())
    if T == 0.0:
        return result({k: np.zeros((times.size, H.dim, H.dim), dtype=complex)
                       for k in orders})
    # level-0 node of each time; a scalar time is the last node
    nodes = np.rint(times / T * _BASE_POINTS).astype(int)
    done: dict[int, np.ndarray] = {}
    prev: dict[int, np.ndarray] = {}
    changes: dict[int, float] = {}
    samples = None
    sectors = _SectorStage(getattr(H, "support", None))
    points = _BASE_POINTS
    while points <= max_points:
        # node 2j of this level's grid is node j of the last one, the same
        # double, so only the midpoints are new
        ts = np.arange(points + 1) * (T / points)
        ts[-1] = T
        new_ts = ts if samples is None else ts[1::2]
        new = sectors.sample(H.evaluate_grid, new_ts)
        if not np.isfinite(new).all():
            raise OperatorValueError(_not_finite("quadrature", new_ts, new))
        if samples is None:
            samples = np.ascontiguousarray(new, dtype=complex)
        else:
            samples = _refined(samples, new)
        # the samples are finite, so a value or a change that is not is an
        # overflow of the nested chain, which no finer grid brings back;
        # values that are not finite make their change so as well
        overflow = {}
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _nested_values(samples, [k for k in orders if k not in done], T / points,
                                  sectors, nodes * (points // _BASE_POINTS))
            for k, val in vals.items():
                if k in prev:
                    changes[k] = _change(val, prev[k])
                    if changes[k] < tol:
                        done[k] = val
                    elif not changes[k] < math.inf:
                        overflow[k] = f"last change {changes[k]:.2g}"
                elif not np.isfinite(val).all():
                    overflow[k] = "values not finite"
        if overflow:
            why = "; ".join(f"order {k}: {reason}" for k, reason in overflow.items())
            raise QuadratureError(
                f"quadrature of order {', '.join(map(str, overflow))} is not finite "
                f"at {points} points ({why})",
                best=result({k: done[k] if k in done else vals[k] for k in orders}),
            )
        if len(done) == len(orders):
            return result(done)
        prev = vals
        points *= 2
    best = {k: done[k] if k in done else prev[k] for k in orders}
    # an order not done ran at every level, so its last change is the finest's
    missing = [k for k in orders if k not in done]
    why = "; ".join(f"order {k}: last change {changes[k]:.2g} at {points // 2} points"
                    for k in missing)
    raise QuadratureError(
        f"quadrature of order {', '.join(map(str, missing))} did not reach tol={tol} "
        f"within {max_points} points ({why})",
        best=result(best),
    )
