"""Defect metrics used throughout the diagnostics.

Both metrics take one matrix, which gives a float, or a ``(..., d, d)``
stack, which gives an array of the leading shape with one defect per
matrix.
"""

from __future__ import annotations

import numpy as np


def _fro(X: np.ndarray):
    # Frobenius norm over the last two axes
    if X.ndim == 2:
        return float(np.linalg.norm(X))
    return np.linalg.norm(X, axis=(-2, -1))


def _dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def hermiticity_defect(A: np.ndarray):
    """``||A - A^dag|| / max(1, ||A||)``; zero iff A is Hermitian.

    The ``max(1, .)`` normalization keeps the metric stable for
    near-zero operators.
    """
    A = np.asarray(A, dtype=complex)
    out = _fro(A - _dagger(A)) / np.maximum(1.0, _fro(A))
    return float(out) if A.ndim == 2 else out


def unitarity_defect(U: np.ndarray):
    """``||U^dag U - I||`` in Frobenius norm; zero iff U is an isometry."""
    U = np.asarray(U, dtype=complex)
    return _fro(_dagger(U) @ U - np.eye(U.shape[-1]))
