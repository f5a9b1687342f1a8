"""Dense complex operator algebra.

Operators are plain ``numpy.ndarray`` square matrices of ``complex128``.
All functions here are pure: inputs are never mutated and results are
freshly allocated. Ladder operators follow the truncated-Fock convention
(the top level has no upward coupling), so ``commutator(a, adag)`` deviates
from the identity in the last diagonal entry, as expected for a finite
truncation.

Every constructor takes ``dim`` as an integer in ``[1, MAX_DIMENSION]``,
``[2, MAX_DIMENSION]`` for the Pauli family, and ``projector`` its indices
in ``[0, dim - 1]``; the rule is :func:`errors.check_integer`, so another
value raises :class:`OperatorValueError`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionCapError, DimensionMismatchError, OperatorValueError, check_integer

#: Hard cap on constructed matrix dimension (desk-scale guarantee).
MAX_DIMENSION = 4096

Operator = np.ndarray


def _dim(dim, low: int = 1) -> int:
    # the dimension rule of every constructor: an integer in [low, MAX_DIMENSION]
    return check_integer("dim", dim, low, MAX_DIMENSION)


def as_operator(entries, name: str = "operator") -> Operator:
    """A fresh C-ordered complex copy of ``entries``: a square matrix of
    dimension >= 1 with finite entries.

    Raises :class:`OperatorValueError` for any other layout or for
    non-finite entries. The copy shares no memory with ``entries``, so
    later writes to either do not reach the other.
    """
    A = np.array(entries, dtype=complex, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise OperatorValueError(
            f"{name} must be a square matrix of dimension >= 1, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise OperatorValueError(f"{name} has non-finite entries")
    return A


def identity(dim: int) -> Operator:
    return np.eye(_dim(dim), dtype=complex)


def zero(dim: int) -> Operator:
    return np.zeros((_dim(dim),) * 2, dtype=complex)


def adjoint(A: Operator) -> Operator:
    """Conjugate transpose."""
    return np.asarray(A, dtype=complex).conj().T.copy()


def commutator(A: Operator, B: Operator) -> Operator:
    """``A @ B - B @ A``; operands must share a dimension."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise DimensionMismatchError(
            f"commutator operands have shapes {A.shape} and {B.shape}"
        )
    return A @ B - B @ A


def tensor_product(A: Operator, B: Operator) -> Operator:
    """Kronecker product, capped at ``MAX_DIMENSION``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape[0] * B.shape[0] > MAX_DIMENSION:
        raise DimensionCapError(
            f"tensor product dimension {A.shape[0] * B.shape[0]} exceeds cap {MAX_DIMENSION}"
        )
    return np.kron(A, B)


def frobenius_norm(A: Operator) -> float:
    """sqrt(sum |a_ij|^2); zero iff A is the zero matrix."""
    return float(np.linalg.norm(np.asarray(A)))


def matrix_exponential(A: Operator) -> Operator:
    """Matrix exponential with backward-error-controlled accuracy.

    Delegates to ``scipy.linalg.expm`` (scaling-and-squaring with Pade
    approximants); for anti-Hermitian input the result is unitary to well
    below 1e-12 in Frobenius norm for norms up to ~1e2. ``scipy.linalg``
    is imported here, on the first call, and not when ``effham`` is
    imported: it takes about half the start-up time of a process, and
    nothing else in the package uses it.
    """
    from scipy.linalg import expm

    A = as_operator(A)
    return expm(A)


def annihilate(dim: int) -> Operator:
    """Truncated-Fock lowering operator: ``a[n-1, n] = sqrt(n)``."""
    return np.diag(np.sqrt(np.arange(1.0, _dim(dim))), 1).astype(complex)


def create(dim: int) -> Operator:
    return adjoint(annihilate(dim))


def projector(dim: int, i: int, j: int) -> Operator:
    """|i><j| on a ``dim``-level space; ``i`` and ``j`` are in ``[0, dim - 1]``."""
    dim = _dim(dim)
    P = zero(dim)
    P[check_integer("i", i, 0, dim - 1), check_integer("j", j, 0, dim - 1)] = 1.0
    return P


def _pauli(dim: int, block: np.ndarray) -> Operator:
    # Embed the 2x2 block on the first two levels; zero elsewhere.
    M = zero(_dim(dim, 2))
    M[:2, :2] = block
    return M


def sigma_x(dim: int = 2) -> Operator:
    return _pauli(dim, np.array([[0, 1], [1, 0]], dtype=complex))


def sigma_y(dim: int = 2) -> Operator:
    return _pauli(dim, np.array([[0, -1j], [1j, 0]], dtype=complex))


def sigma_z(dim: int = 2) -> Operator:
    return _pauli(dim, np.array([[1, 0], [0, -1]], dtype=complex))


def sigma_plus(dim: int = 2) -> Operator:
    return _pauli(dim, np.array([[0, 1], [0, 0]], dtype=complex))


def sigma_minus(dim: int = 2) -> Operator:
    return _pauli(dim, np.array([[0, 0], [1, 0]], dtype=complex))


_STANDARD_KINDS = {
    "identity": identity,
    "annihilate": annihilate,
    "create": create,
    "sigma_x": sigma_x,
    "sigma_y": sigma_y,
    "sigma_z": sigma_z,
    "sigma_plus": sigma_plus,
    "sigma_minus": sigma_minus,
    "projector": projector,
}


def standard_operator(kind: str, dim: int, i: int | None = None, j: int | None = None) -> Operator:
    """Named constructor for the standard model-zoo matrices.

    ``kind`` is one of ``identity``, ``annihilate``, ``create``,
    ``sigma_x``, ``sigma_y``, ``sigma_z``, ``sigma_plus``, ``sigma_minus``
    or ``projector`` (which takes the extra indices ``i``, ``j``).
    """
    try:
        factory = _STANDARD_KINDS[kind]
    except KeyError:
        raise OperatorValueError(f"unknown operator kind {kind!r}") from None
    return factory(dim, i, j) if kind == "projector" else factory(dim)
