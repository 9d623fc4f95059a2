"""Symmetric eigendecomposition of the K-FAC factors.

Everything is float64 and O(n^3); sizes stay in the hundreds-to-thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

SYM_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op}: matrix must be square, got {a.shape}")
    scale = float(np.linalg.norm(a))
    asym = float(np.linalg.norm(a - a.T))
    if asym > SYM_TOL * max(scale, 1.0):
        raise ShapeError(f"{op}: matrix asymmetry {asym:.3e} exceeds {SYM_TOL:.0e} relative")


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending, Q orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(m) -> SymmetricEigen:
    """Eigendecomposition of a symmetric matrix (LAPACK eigh)."""
    a = _as_matrix(m)
    _require_symmetric(a, "sym_eig")
    w, q = np.linalg.eigh((a + a.T) / 2.0)
    return SymmetricEigen(eigenvalues=w, eigenvectors=q)
