"""Independent numerical references for the closed-form builders.

Three tools live here: exact propagation of the Schroedinger equation
under the interaction Hamiltonian, propagation under an arbitrary
operator-valued series (Hermitian or not), and a nested-quadrature
evaluation of the order-n effective term that deliberately shares no code
with the tone calculus. The integrator is a fixed-step classical
Runge-Kutta scheme (order 4) with a step-halving error estimate, chosen
over adaptive black boxes for reproducibility. Its result is the
Richardson read-out of its two runs: with C the coarse map (``steps``)
and F the fine one (``2 * steps``), ``F + (F - C) / 15`` cancels the
leading ``h**4`` term of the error, so the read-out is of order 5, at no
extra sample of H (Richardson, Phil. Trans. R. Soc. A 210, 307 (1911);
Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.4). On
``jc_detuned(g=0.05)`` at t = 400, against 51,200 coarse steps, its error
falls 32 times at each halving of the step from 3,200 to 12,800 steps.

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
the entries of H's declared ``support``, made symmetric. No sample couples
two sectors, so no step map does either, and the block's maps are computed
on a zero-padded ``(b, b)`` stack of the sectors, ``b`` the largest sector,
and scattered back into ``(d, d)``. An idle level, a lone level with no
diagonal entry in the support, is left out of the stack: it never moves, so
its rows and columns of every step map are those of the identity, and its
quadrature values zero, as the scatter gives them. One object,
``_SectorStage``, holds the split for a whole run of either oracle. A model
that conserves a quantum number, such as the excitation number of the
Jaynes-Cummings model (dimension 10, sectors 1, 1, 2, 2, 2, 2, the two lone
levels idle), then multiplies a stack of four 2x2 blocks instead of 10x10
ones.

A :class:`MultiToneHamiltonian` or :class:`OperatorSeries` declares its
``support``, the entries nonzero in some sample, and the support decides
the split once per run, split or not. When it splits, both oracles sample
each RK4 block and each quadrature level at the sector entries only
(``evaluate_grid(ts, index)``); when it does not, they sample every entry
and run unsplit. Neither reads which entries of the samples are nonzero, so
a model whose samples cancel on an entry of its support runs as its
support splits. A grid function that declares no support runs unsplit.
The stack is one fancy index over the sampled columns, and the scatter
writes the flat positions ``row * d + col`` back. On a Jaynes-Cummings block of 1025 samples (one
BLAS thread) sampling its 16 sector entries takes about 50 us against 160
us for all 100, and laying them into the stack 20 us; the run at t = 400
(25,600 steps) peaks at 1.02 MiB in tracemalloc against 1.85 MiB for
stacking the whole samples.

Both oracles refuse samples of H that are not all finite, with
:class:`OperatorValueError` naming the first such time, rather than
return NaNs; one helper makes the check for both. The RK4 checks the
stack it multiplies, after stacking. The stack holds every sampled nonzero
entry, and an entry outside a support is finite wherever those inside are
(a model's is ``0 * cos + 0 * sin``, a series' shares their envelopes). On
the Jaynes-Cummings model the check on the ``(1025, 4, 2, 2)`` stack of a
block takes 37 us, against 166 us on the ``(1025, 10, 10)`` samples (one
BLAS thread). The quadrature checks each level's samples before its chain
runs.

Blocks up to 3x3 are multiplied as a sum of outer products over the inner
index, not by ``np.matmul``, whose cost per matrix hardly falls below
4x4. On a 2-vCPU VM with one BLAS thread, on stacks of 3072 complex
matrices, ``np.matmul`` took 0.46/0.50/0.50/0.64/1.06 us per matrix at
b = 2/3/4/6/10 and the sum 0.17/0.40/0.69/2.0/10.0 us, both measured on
C-ordered stacks. Every sector stack has time as its fastest axis (the
one fancy index that builds it lays it out so), and that layout is what
makes the sum cheap there: on a C-ordered copy of the same stack the
Jaynes-Cummings RK4 at t = 400 (25,600 steps) took 0.27 s instead of
0.18 s. The split pays only with that cheap product: a support runs
unsplit when it has a single sector, idle levels counted, or a sector
larger than 3. Split, sectors 5, 1 took 2.5 times and sectors 4, 4 1.5
times as long as unsplit, since a padded stack of S sectors costs S
products under ``np.matmul``.

The quadrature path (:func:`quad_oracle`) evaluates the interaction
Hamiltonian directly at the nodes of Chebyshev panels and builds the nested
integrals with one spectral rule (Clenshaw & Curtis, Numer. Math. 2, 197
(1960); Greengard, SIAM J. Numer. Anal. 28, 1071 (1991)), for any set of
orders 2..6 and any list of times. The panel edges are 0 and every distinct
read-out time; level L cuts each gap between them into ``2**L`` equal
panels, and each panel takes the 17 Chebyshev-Lobatto nodes of degree 16.
One ``17 x 17`` matrix, built once from the Chebyshev integration
recurrence with numpy alone, gives the running integral of a panel's
samples from its start to each of its nodes, exact for polynomials of
degree 16; the panel totals are carried across as a cumulative offset.
Every read-out time is the last node of a panel, so each time is read at
itself, and all of them off one chain: a value depends on the whole list
of distinct times, not on its order or repeats, and is not bit-identical
to that of a call at its time alone. The samples are smooth, so the error
falls geometrically with the panel width: on the zoo models of dimension up
to 8 at orders 2..6 and t = 0.5, 1, 2 and 5, the values agree with the
closed forms to 3.8e-13 relative at tolerance 1e-9.

A cumulative integral and a product with H keep the sectors of H's
samples, so each level's samples go through the same sector stage as an
RK4 block's, with products by :func:`_mul` either way, and only the values
at the read-out times are scattered back into ``(d, d)``. The
Jaynes-Cummings chain then multiplies 2x2 blocks and the dense zoo models
of dimension 2 and 3 take the sum of outer products. The running integral
is one ``np.matmul`` over the nodes of every panel at once, which on a
sector stack (time its fastest axis) is a BLAS product per stack entry.
The samples are read as complex, so a grid function may return real ones,
and neither oracle writes to them. Each level samples H anew, in one
``evaluate_grid`` call: the nodes of a panel are not those of its halves.
The quadrature must not touch the closed-form machinery, since its whole
value is independence from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (
    DimensionMismatchError,
    OperatorValueError,
    QuadratureError,
    check_integer,
    check_orders,
    check_real,
    check_times,
)

#: Default sample density: coarse steps per unit of (max carrier) * (time
#: span). With the Richardson read-out, 256 keeps the accuracy of the former
#: default of 4096 at a sixteenth of the steps. On a seeded generic model of
#: dimension 6 with 3 tones at t = 2 / max_omega, against 131,072 steps
#: (2-vCPU VM, one BLAS thread, best of 5):
#:
#:   steps                time     error of F   error of read-out
#:   8,192 (4096/unit)    63 ms    1.1e-16      1.1e-16
#:   512 (256/unit)       4.7 ms   4.4e-16      1.3e-16
#:
#: where ``est_error`` reads 6.0e-15 at 512 steps. On the 5 zoo models at
#: t = 1 and t = 10, against 4 times the former default, the read-out at 256
#: erred by at most 8.5e-15 and 5.6e-14 (``scalar_single_tone``, whose
#: ``||H|| = 2`` exceeds its carrier), F alone by up to 2.0e-12, and
#: ``est_error`` was never below the read-out's error.
STEPS_PER_UNIT = 256

#: Largest coarse RK4 step count, given or default, checked before H is
#: sampled. It is far above every count in use: criterion 9 takes up to
#: 102,400 steps, the benchmark's ``exact:jc`` 25,600 and ``exact:d6t3``
#: 512. The Jaynes-Cummings model takes about 9 us per coarse step
#: (2-vCPU VM, one BLAS thread), so the cap is about 2.5 minutes of its
#: work; a carrier of 1e300 would ask for a count of 303 digits at t = 1.
MAX_RK4_STEPS = 1 << 24

#: Projected peak bytes of a quadrature level per node and per entry of its
#: stack (``d * d`` unless a declared support splits, the sector stack's
#: ``S * b * b`` then): the largest tracemalloc peak per node and entry
#: measured at 8,704 and 34,816 nodes, orders 2..6, 96.9 B, rounded up. That
#: is jc_detuned (four 2x2 sectors); a model of two 3x3 blocks took 96.7 B,
#: dense models 82-85 B at d = 3 and 64 B at d = 6, and every model 48-81 B
#: at order 2 alone.
_QUAD_BYTES_PER_ENTRY = 100

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

#: Polynomial degree p of a quadrature panel, which takes the p + 1
#: Chebyshev-Lobatto nodes.
_PANEL_DEGREE = 16

#: Largest block size that :func:`_mul` multiplies as a sum of outer
#: products instead of by ``np.matmul``: the measured crossover (see the
#: module docstring).
_SMALL_PRODUCT = 3

@dataclass(frozen=True)
class PropagationResult:
    """Propagator estimate with a step-halving error bound.

    ``U`` is the Richardson read-out ``F + (F - C) / 15`` of the ``2 *
    steps`` run F and the ``steps`` run C, of order 5. ``est_error`` is
    the Frobenius distance ``||F - C||`` between the two runs. That
    distance is carried through the product of the step maps as a
    difference of its own, so it keeps its relative precision even when
    it is many orders of magnitude below ``||U||``. It estimates the error
    of C, so once the step is small enough that the ``h**4`` term leads
    (the asymptotic regime) it is a conservative bound on the error of
    ``U``, which that term no longer enters.
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


def _sectors(mask: np.ndarray) -> list[np.ndarray]:
    """Invariant sectors of a ``(d, d)`` boolean mask of nonzero entries.

    A sector is a connected component of ``mask | mask.T``, given as
    its sorted indices; sectors are ordered by their first index. Each
    index takes the least label among itself and its neighbours, then the
    label of its label, until no label changes; each index is then
    labelled with the first index of its sector.
    """
    d = len(mask)
    linked = mask | mask.T | np.eye(d, dtype=bool)
    labels = np.arange(d)
    while True:
        new = np.where(linked, labels, d).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            roots = np.flatnonzero(labels == np.arange(d))
            return [np.flatnonzero(labels == r) for r in roots]
        labels = new


@functools.lru_cache(maxsize=64)
def _support_split(support: bytes, d: int):
    # ``(valid, index, columns)`` of a declared (d, d) support, all None when
    # it does not split (see :class:`_SectorStage`): a pure function of it,
    # kept so that an operand pays for the sector search once. ``valid`` is
    # (S, b, b), whether each entry of the zero-padded stack of the S
    # sectors, b the largest, holds one rather than padding; ``index`` holds
    # the flat positions ``row * d + col`` that are sampled, and ``columns``
    # the column of those samples that each stack entry holds.
    mask = np.frombuffer(support, dtype=bool).reshape(d, d)
    sectors = _sectors(mask)
    b = max(map(len, sectors))
    if len(sectors) == 1 or b > _SMALL_PRODUCT:
        return None, None, None
    # an idle level never moves; if all are, the stack has no sectors
    sectors = [s for s in sectors if len(s) > 1 or mask[s[0], s[0]]]
    rows = np.zeros((len(sectors), b), dtype=int)
    held = np.zeros((len(sectors), b), dtype=bool)
    for k, s in enumerate(sectors):
        rows[k, :len(s)] = s
        held[k, :len(s)] = True
    valid = held[:, :, None] & held[:, None, :]
    index = (rows[:, :, None] * d + rows[:, None, :])[valid]
    columns = np.zeros(valid.shape, dtype=np.intp)
    columns[valid] = np.arange(len(index))
    for array in (valid, index, columns):
        array.setflags(write=False)
    return valid, index, columns


class _SectorStage:
    """The invariant-sector split of the sample stacks of one run of either
    oracle on the operand ``op`` (see the module docstring).

    A declared ``support`` decides the split once per run. It splits when
    it has more than one sector and none larger than ``_SMALL_PRODUCT``,
    since only then do the sectors take the cheap product of :func:`_mul`.
    The stack of a split is ``(n, S, b, b)``, the ``S`` sectors zero-padded
    to the largest, ``b``, without idle levels (lone levels with no
    diagonal entry in the support; with no sectors left, everything scatters
    to zeros), and with time as the fastest axis (strides ``(16, ...)``).
    :meth:`sample` then takes the flat positions ``row * d + col`` of the
    sector entries alone, :attr:`index`, :meth:`stack` lays those ``(n,
    len(index))`` samples, read as complex, into the sector stack by one
    fancy index, and :meth:`scatter` writes values of the sectors back to
    their flat positions in ``(d, d)``, zeros elsewhere. A support that
    does not split, or an operand that declares none, runs unsplit:
    :meth:`sample` takes every entry, :meth:`stack` returns the C-contiguous
    complex samples, the input itself if it is one, and :meth:`scatter` its
    input.
    """

    def __init__(self, op):
        self.evaluate_grid, self.dim = op.evaluate_grid, op.dim
        support = getattr(op, "support", None)
        self.valid = self.index = self.columns = None
        if support is not None:
            self.valid, self.index, self.columns = _support_split(
                np.asarray(support, dtype=bool).tobytes(), self.dim)
        # projected peak bytes per quadrature node: the stack's entries, and
        # what the operand's own sampling holds, if it states that
        entries = self.dim * self.dim if self.index is None else self.valid.size
        self.node_bytes = entries * _QUAD_BYTES_PER_ENTRY + getattr(op, "_sample_bytes", 0)

    def sample(self, ts) -> np.ndarray:
        return self.evaluate_grid(ts) if self.index is None else self.evaluate_grid(ts, self.index)

    def stack(self, A) -> np.ndarray:
        A = np.ascontiguousarray(A, dtype=complex)
        if self.valid is None:
            return A
        stack = A[:, self.columns]
        stack[:, ~self.valid] = 0
        return stack

    def scatter(self, X: np.ndarray) -> np.ndarray:
        # X is (..., S, b, b); any leading axes are kept
        if self.valid is None:
            return X
        out = np.zeros(X.shape[:-3] + (self.dim * self.dim,), dtype=X.dtype)
        out[..., self.index] = X[..., self.valid]
        return out.reshape(X.shape[:-3] + (self.dim, self.dim))


def _check_finite(kind: str, times: np.ndarray, samples: np.ndarray) -> None:
    # axis 0 is time, so the first non-finite entry is at the first such time
    if not np.isfinite(samples).all():
        first = np.argwhere(~np.isfinite(samples))[0, 0]
        raise OperatorValueError(f"H is not finite at {kind} time {float(times[first])!r}")


def _rk4_pair(op, t: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    # Fine (``2 * steps``) RK4 map of dU/dt = -i H U and its difference from
    # the coarse (``steps``) map, both fed from one sampling of H per block,
    # each block split into the invariant sectors of the operand's support
    # (see the module docstring).
    h = t / (2 * steps)
    G = E = np.zeros((op.dim, op.dim), dtype=complex)
    sectors = _SectorStage(op)
    for c0 in range(0, steps, _RK4_BLOCK):
        c1 = min(steps, c0 + _RK4_BLOCK)
        times = (h / 2) * (4 * c0 + np.arange(4 * (c1 - c0) + 1))
        A = sectors.sample(times)
        S = sectors.stack(A)
        # a non-finite entry is nonzero, so it lies in the stack
        _check_finite("propagation", times, S)
        # -i H, in place on a stack the stage made; the caller's samples are
        # never written to, so unsplit ones are scaled into a copy
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
    return PropagationResult(fine + difference / 15, steps, float(np.linalg.norm(difference)))


def propagate_exact(H, t: float, steps: int | None = None) -> PropagationResult:
    """Integrate ``dU/dt = -i H(t) U`` with U(0) = I under a multi-tone model.

    ``t`` must be a finite real number >= 0, and ``steps``, the coarse
    step count, an integer in ``[16, MAX_RK4_STEPS]``, the default
    :func:`default_step_count` included; both are checked before H is
    sampled, here and in :func:`propagate_series`. A block whose samples
    of H are not all finite raises :class:`OperatorValueError`, naming the
    first such time, before its maps are formed; the check reads the stack
    the block is multiplied on, which holds every nonzero entry. A declared
    ``support`` of H decides the split into sectors, split or not; a grid
    function with none runs unsplit (module docstring).
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


def _panel_rule(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``p + 1`` Chebyshev-Lobatto nodes ``u`` of ``[0, 1]``, ascending,
    and the ``(p + 1, p + 1)`` matrix ``W`` with ``W @ f`` the integral from
    0 to each node of the degree-p interpolant of the samples ``f``.

    The samples go to Chebyshev coefficients ``a_k`` by a discrete cosine
    transform, the antiderivative's are ``(a_{k-1} - a_{k+1}) / 2k`` (with
    ``a_0`` counted twice for ``k = 1``) plus the constant that makes it
    vanish at the first node, and those are evaluated at the nodes.
    """
    theta = np.pi * np.arange(p, -1, -1) / p  # nodes cos(theta) of [-1, 1], ascending
    T = np.cos(np.outer(theta, np.arange(p + 2)))  # T_k at each node, k = 0..p+1
    a = np.zeros((p + 3, p + 1))
    a[:p + 1] = T[:, :p + 1].T * (2.0 / p)
    a[:, [0, p]] *= 0.5
    a[[0, p]] *= 0.5
    b = np.zeros((p + 2, p + 1))
    b[1:] = (a[:-2] - a[2:]) / (2.0 * np.arange(1, p + 2))[:, None]
    b[1] += a[0] / 2
    b[0] = -T[0, 1:] @ b[1:]  # T_k(-1) = (-1)^k
    W = (T @ b) / 2  # on [0, 1]
    W[0] = 0.0
    return np.sin(np.pi * np.arange(p + 1) / (2 * p)) ** 2, W


_NODES, _PANEL = _panel_rule(_PANEL_DEGREE)


def _running_integral(F: np.ndarray, widths: np.ndarray) -> np.ndarray:
    # Integral from 0 to every node of samples F, (M, p + 1, ...) on M panels
    # of the given widths (never written to): each panel's running integral
    # is one product with _PANEL over its nodes, and the panel totals are
    # carried across as a cumulative offset.
    I = np.moveaxis(np.matmul(np.moveaxis(F, (0, 1), (-2, -1)), _PANEL.T), (-2, -1), (0, 1))
    I *= widths.reshape((-1,) + (1,) * (I.ndim - 1))
    I[1:] += np.cumsum(I[:-1, -1], axis=0)[:, None]
    return I


def _nested_values(Hs: np.ndarray, orders: list[int], widths: np.ndarray,
                   sectors: _SectorStage, at) -> dict[int, np.ndarray]:
    # Order-k values for each k in ``orders`` from one level's sector stack
    # ``Hs`` (M panels of p + 1 nodes, never written to), read at the nodes
    # ``at``: the chain of order k is the first k - 1 steps of the highest
    # order's chain. Only the read-out nodes are scattered back.
    A = Hs
    factor = 1 + 0j
    out = {}
    for k in range(2, max(orders) + 1):
        A = _mul(Hs, _running_integral(A, widths))
        factor *= -1j
        if k in orders:
            out[k] = sectors.scatter(factor * A[at])
    return out


def _change(val: np.ndarray, prev: np.ndarray) -> float:
    # largest Frobenius distance between successive values over the times;
    # NaN if any distance is NaN, so that it never counts as converged
    return float(np.max([np.linalg.norm(v - p) for v, p in zip(val, prev)]))


def _check_times(t) -> tuple[np.ndarray, bool]:
    """Times as a 1-D array, and whether ``t`` was one number.

    Every time must be finite and >= 0, and a sequence non-empty.
    """
    if np.ndim(t) == 0:
        return np.array([float(check_real("quadrature time", t, 0.0))]), True
    times = check_times("quadrature times", t, 0.0)
    if times.size == 0:
        raise OperatorValueError("quad_oracle needs at least one time")
    return times, False


def quad_oracle(H, n, t, tol: float):
    """Order-n effective term by nested quadrature on Chebyshev panels, no
    closed forms.

    The panel edges are 0 and every distinct time; level L cuts each gap
    between them into ``2**L`` equal panels of 17 Chebyshev-Lobatto nodes
    (module docstring), and the levels run until two successive ones agree
    to ``tol`` in Frobenius norm. ``n`` is one order, which gives its value,
    or a tuple of orders, which gives ``{order: value}`` keyed in ascending
    order, whatever order the orders converge in. All orders share one
    refinement: each level samples H once, in one ``evaluate_grid`` call,
    and runs one nested chain up to the highest order not yet converged,
    and each order is frozen at the level where its own successive values
    agree, so its value is the same as that of a call for that order alone.

    ``t`` is one time, which gives a ``(d, d)`` matrix per order, or a 1-D
    sequence of times, which gives a ``(len(t), d, d)`` stack per order.
    Each time must be >= 0, in any order and with repeats, and a time of 0
    gives a zero matrix. Every time is the end of a panel and is read off
    the same chain; an order is frozen at the level where its values agree
    at every time. A value depends on the distinct times of the list, so it
    is not bit-identical to that of a call at its time alone; a one-element
    sequence is. Bad orders (anything but an integer in 2..6: ``2.0`` and
    ``True`` are refused, numpy integers accepted), tolerances and times
    raise :class:`OperatorValueError` before H is sampled. ``tol`` must be
    a finite real number >= 1e-12: NaN would never agree and run every
    level, infinity would accept the first, and ``None`` or a ``bool`` is
    refused as well. A level whose samples of H are not all finite raises
    :class:`OperatorValueError`, naming the first such time, before its
    chain runs.

    One budget ends a refinement that has not converged. Before a level is
    sampled, its peak bytes are projected as ``nodes * (entries *
    _QUAD_BYTES_PER_ENTRY + sample)``, with ``entries`` the stack's per node
    (``d * d``, or the sector stack's when a declared support splits) and
    ``sample`` the bytes per node the operand's own sampling holds, as its
    ``_sample_bytes`` states (a model's ``(n, M)`` phases and ``(n, 2M)``
    cos/sin block, 24 B per carrier; 0 for an operand that states none);
    past ``errors.BYTE_BUDGET`` it raises :class:`QuadratureError`. Its
    message states, for each order that did not converge, its last
    successive change and the nodes of the level it was measured on, then
    the tolerance, the refused level's nodes, the projection and the
    budget; its ``best`` holds the last finished level's estimate (``None``
    before the first), or for a tuple of orders every order's, in the shape
    of the result. It raises one as well, with ``best`` set the same way
    from that level's values, at the first level where an order's values,
    or their change from the level before, are not finite, naming those
    orders and the level: the samples are finite, so the nested chain has
    overflowed, and no finer level brings it back. The chain runs with
    numpy's overflow and invalid-value warnings off. As in the RK4, a
    declared ``support`` of H decides the split into sectors, split or not,
    and a grid function with none runs unsplit.
    """
    single = not isinstance(n, (tuple, list))
    orders = check_orders((n,) if single else n, MAX_QUAD_ORDER)
    check_real("tolerance", tol, 1e-12)
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
    # the panel edges: 0 and every distinct time, each time the end of its gap
    ordered = np.sort(times)
    ends = ordered[np.diff(ordered, prepend=0.0) > 0]
    starts = np.concatenate(([0.0], ends[:-1]))
    gap = np.searchsorted(ends, times)
    positive = times > 0
    done: dict[int, np.ndarray] = {}
    prev: dict[int, np.ndarray] = {}
    changes: dict[int, float] = {}
    sectors = _SectorStage(H)

    panels = 1  # per gap
    while True:
        points = len(ends) * panels * len(_NODES)
        need = points * sectors.node_bytes
        if need > errors.BYTE_BUDGET:
            # an order not done ran at every level, so its last change is
            # that of the last finished level, of half this level's nodes
            missing = [k for k in orders if k not in done]
            why = "; ".join(f"order {k}: last change {changes[k]:.2g} at {points // 2} points"
                            for k in missing if k in changes)
            raise QuadratureError(
                f"quadrature of order {', '.join(map(str, missing))} did not reach tol={tol}"
                + (f" ({why})" if why else "")
                + f": a level of {points} points would take about {need} bytes, "
                f"over the budget of {errors.BYTE_BUDGET} bytes",
                best=result({**prev, **done}) if prev else None,
            )
        left = (starts[:, None] + (ends - starts)[:, None] * (np.arange(panels) / panels)).ravel()
        right = np.append(left[1:], T)
        ts = left[:, None] + (right - left)[:, None] * _NODES
        ts[:, -1] = right
        new = sectors.sample(ts.ravel())
        _check_finite("quadrature", ts.ravel(), new)
        Hs = sectors.stack(new)
        # a time is the last node of its gap's last panel; 0 is the first node
        at = (np.where(positive, (gap + 1) * panels - 1, 0), np.where(positive, len(_NODES) - 1, 0))
        # the samples are finite, so a value or a change that is not is an
        # overflow of the nested chain, which no finer level brings back;
        # values that are not finite make their change so as well
        overflow = {}
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _nested_values(Hs.reshape(ts.shape + Hs.shape[1:]),
                                  [k for k in orders if k not in done], right - left, sectors, at)
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
                best=result({**vals, **done}),
            )
        if len(done) == len(orders):
            return result(done)
        prev = vals
        panels *= 2
