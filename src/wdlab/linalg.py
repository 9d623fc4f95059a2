"""Dense symmetric linear algebra: eigendecomposition, damped inverses,
norms.

Everything is float64 and O(n^3); sizes stay in the hundreds-to-thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

SYM_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix has non-finite entries")
    return a


def _require_square(a: np.ndarray, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op}: matrix must be square, got {a.shape}")


def _require_symmetric(a: np.ndarray, op: str) -> None:
    _require_square(a, op)
    scale = float(np.linalg.norm(a))
    asym = float(np.linalg.norm(a - a.T))
    if asym > SYM_TOL * max(scale, 1.0):
        raise ShapeError(f"{op}: matrix asymmetry {asym:.3e} exceeds {SYM_TOL:.0e} relative")


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending, Q orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


def sym_eig(m) -> SymmetricEigen:
    """Eigendecomposition of a symmetric matrix (LAPACK eigh)."""
    a = _as_matrix(m)
    _require_symmetric(a, "sym_eig")
    w, q = np.linalg.eigh((a + a.T) / 2.0)
    return SymmetricEigen(eigenvalues=w, eigenvectors=q)


def damped_inverse(m, lam: float) -> np.ndarray:
    """(M + lam*I)^-1 for symmetric PSD M, lam > 0.

    PSD is enforced up to -1e-8 * ||M||_F on the smallest eigenvalue; the
    result is symmetrized to kill round-off asymmetry.
    """
    if lam <= 0.0:
        raise DomainError(f"damping must be positive, got {lam}")
    a = _as_matrix(m)
    eig = sym_eig(a)
    floor = -1e-8 * float(np.linalg.norm(a))
    if eig.eigenvalues[0] < floor:
        raise DomainError(
            f"matrix is not PSD: min eigenvalue {eig.eigenvalues[0]:.3e} below {floor:.3e}"
        )
    q = eig.eigenvectors
    inv = (q / (eig.eigenvalues + lam)) @ q.T
    return (inv + inv.T) / 2.0


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries."""
    a = np.asarray(m, dtype=np.float64)
    return float(np.sum(a * a))


def trace(m) -> float:
    a = _as_matrix(m)
    _require_square(a, "trace")
    return float(np.trace(a))
