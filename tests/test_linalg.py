"""Dense linear algebra against independent oracles.

The reference Kronecker preconditioner in tests/helpers.py, which
tests/test_curvature.py holds the optimizer's preconditioner to, is itself
checked here against an explicit np.kron build of the full operator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import kron_precondition
from wdlab import linalg
from wdlab.errors import DomainError, NumericalError, ShapeError


def random_psd(rng, n, rank=None):
    b = rng.normal(size=(n, rank or n))
    return b @ b.T / (rank or n)


def random_symmetric(rng, n):
    b = rng.normal(size=(n, n))
    return (b + b.T) / 2.0


# --- sym_eig ----------------------------------------------------------------


def test_sym_eig_analytic_2x2():
    # [[2,1],[1,3]] has eigenvalues (5 -+ sqrt(5))/2
    eig = linalg.sym_eig([[2.0, 1.0], [1.0, 3.0]])
    expected = np.array([(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
    assert_allclose(eig.eigenvalues, expected, rtol=1e-14)


def test_sym_eig_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(0)
    m = random_symmetric(rng, 7)
    eig = linalg.sym_eig(m)
    q = eig.eigenvectors
    assert_allclose((q * eig.eigenvalues) @ q.T, m, atol=1e-12)
    assert_allclose(q.T @ q, np.eye(7), atol=1e-12)
    assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ShapeError):
        linalg.sym_eig(np.arange(6.0).reshape(2, 3))
    with pytest.raises(ShapeError):
        linalg.sym_eig([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NumericalError):
        linalg.sym_eig([[np.nan, 0.0], [0.0, 1.0]])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_sym_eig_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, n)
    eig = linalg.sym_eig(m)
    q = eig.eigenvectors
    assert_allclose((q * eig.eigenvalues) @ q.T, m, atol=1e-10 * max(1.0, np.linalg.norm(m)))


# --- kron_precondition ------------------------------------------------------


def dense_kron_solve(a, s, v, lam):
    """Oracle: materialize (S + sqrt(lam) I) (x) (A + sqrt(lam) I)
    (column-major vec convention) and solve."""
    n1, n2 = v.shape
    root = np.sqrt(lam)
    op = np.kron(s + root * np.eye(n2), a + root * np.eye(n1))
    x = np.linalg.solve(op, v.ravel(order="F"))
    return x.reshape(n1, n2, order="F")


def test_kron_precondition_matches_dense_kron_solve():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 4)
    s = random_psd(rng, 3)
    v = rng.normal(size=(4, 3))
    lam = 1e-3
    got = kron_precondition(a, s, v, lam)
    expected = dense_kron_solve(a, s, v, lam)
    assert_allclose(got, expected, rtol=1e-8, atol=1e-12)


def test_kron_precondition_factored_closed_form():
    rng = np.random.default_rng(5)
    a = random_psd(rng, 4)
    s = random_psd(rng, 3)
    v = rng.normal(size=(4, 3))
    lam = 1e-2
    root = np.sqrt(lam)
    expected = (
        np.linalg.inv(a + root * np.eye(4)) @ v @ np.linalg.inv(s + root * np.eye(3))
    )
    got = kron_precondition(a, s, v, lam)
    assert_allclose(got, expected, rtol=1e-8, atol=1e-12)


def test_kron_precondition_rejects_bad_shapes_and_modes():
    a = np.eye(3)
    s = np.eye(2)
    v = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        kron_precondition(a, s, np.zeros((2, 3)), 1e-3)
    with pytest.raises(DomainError):
        kron_precondition(a, s, v, 0.0)
    with pytest.raises(ShapeError):
        kron_precondition([[1.0, 2.0], [0.0, 1.0]], s[:2, :2].copy(), v[:2], 1e-3)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
)
def test_kron_precondition_property(seed, n1, n2):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n1)
    s = random_psd(rng, n2)
    v = rng.normal(size=(n1, n2))
    lam = 10.0 ** rng.uniform(-4, 0)
    got = kron_precondition(a, s, v, lam)
    expected = dense_kron_solve(a, s, v, lam)
    assert_allclose(got, expected, rtol=1e-7, atol=1e-10)

