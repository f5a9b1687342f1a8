"""Defect metrics used throughout the diagnostics.

Both metrics take one matrix, which gives a float, or a ``(..., d, d)``
stack, which gives an array of the leading shape with one defect per
matrix.
"""

from __future__ import annotations

import numpy as np


def _fro(X: np.ndarray):
    # Frobenius norm over the last two axes. numpy squares every entry, so a
    # norm that fits a float reads inf once an entry passes about 1e154:
    # there the norm of X over its largest real or imaginary part is scaled
    # back, where every entry of the matrix is finite.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(X) if X.ndim == 2 else np.linalg.norm(X, axis=(-2, -1))
        if not np.isfinite(norm).all():
            redo = ~np.isfinite(norm) & np.isfinite(X).all(axis=(-2, -1))
            norm, big = np.array(norm), X[redo]
            part = np.maximum(abs(big.real), abs(big.imag)).max(axis=(-2, -1), keepdims=True)
            norm[redo] = np.linalg.norm(big / part, axis=(-2, -1)) * part[:, 0, 0]
    return float(norm) if X.ndim == 2 else norm


def _dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def hermiticity_defect(A: np.ndarray):
    """``||A - A^dag|| / max(1, ||A||)``; zero iff A is Hermitian.

    The ``max(1, .)`` normalization keeps the metric stable for
    near-zero operators.
    """
    A = np.asarray(A, dtype=complex)
    # an infinite entry makes inf - inf, read as nan without a warning
    with np.errstate(invalid="ignore"):
        out = _fro(A - _dagger(A)) / np.maximum(1.0, _fro(A))
    return float(out) if A.ndim == 2 else out


def unitarity_defect(U: np.ndarray):
    """``||U^dag U - I||`` in Frobenius norm; zero iff U is an isometry.

    A finite U whose defect is past the float range reads ``inf``.
    """
    U = np.asarray(U, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        D = _dagger(U) @ U - np.eye(U.shape[-1])
    # Of a finite U, an entry of the product that is not finite overflowed (a
    # complex product of inf and 0 reads nan). Each term of an entry is at most
    # the larger of two diagonal entries, which are sums of squares, so one of
    # those is past the float range, and so is the defect.
    finite = np.isfinite(U).all(axis=(-2, -1))[..., None, None]
    return _fro(np.where(finite & ~np.isfinite(D), np.inf, D))
