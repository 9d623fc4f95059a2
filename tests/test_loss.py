"""Losses, softmax, output Hessians, and model-distribution sampling.

Gradients are checked against central finite differences and the Hessian
against the finite-difference Jacobian of the gradient — neither oracle
shares code with the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import central_diff_grad, central_diff_jacobian
from wdlab import loss
from wdlab.errors import DomainError, ShapeError


# --- softmax ----------------------------------------------------------------


def test_softmax_rows_normalize_and_order():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 4)) * 3
    p = loss.softmax(z)
    assert_allclose(p.sum(axis=1), np.ones(6), rtol=1e-14)
    assert np.all(p > 0)
    assert np.array_equal(np.argmax(p, axis=1), np.argmax(z, axis=1))


def test_softmax_is_shift_invariant_and_overflow_safe():
    z = np.array([[1.0, 2.0, 3.0]])
    assert_allclose(loss.softmax(z), loss.softmax(z + 1000.0), rtol=1e-12)
    huge = loss.softmax(np.array([[1e4, 0.0, -1e4]]))
    assert np.all(np.isfinite(huge))
    assert_allclose(huge[0, 0], 1.0, atol=1e-12)


# --- cross-entropy ----------------------------------------------------------


def test_cross_entropy_analytic_values():
    # uniform two-class logits: loss = ln 2
    value, _ = loss.loss_and_grad([[0.0, 0.0]], np.array([0]))
    assert_allclose(value, np.log(2.0), rtol=1e-15)
    # single row [1,2,3], label 2: loss = log(e + e^2 + e^3) - 3
    value, _ = loss.loss_and_grad([[1.0, 2.0, 3.0]], np.array([2]))
    assert_allclose(value, np.log(np.exp(1) + np.exp(2) + np.exp(3)) - 3.0, rtol=1e-14)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    n, k = 5, 4
    z = rng.normal(size=(n, k)) * 2
    y = rng.integers(0, k, size=n)

    def f(flat):
        return loss.loss_and_grad(flat.reshape(n, k), y)[0]

    _, grad = loss.loss_and_grad(z, y)
    fd = central_diff_grad(f, z.ravel()).reshape(n, k)
    assert_allclose(grad, fd, atol=1e-9)


def test_cross_entropy_gradient_closed_form():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 5))
    y = np.array([4, 0, 2])
    _, grad = loss.loss_and_grad(z, y)
    onehot = np.eye(5)[y]
    assert_allclose(grad, (loss.softmax(z) - onehot) / 3.0, rtol=1e-12)


def test_cross_entropy_extreme_logits_stay_finite():
    z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    value, grad = loss.loss_and_grad(z, np.array([1, 1]))
    assert np.isfinite(value) and value > 900
    assert np.all(np.isfinite(grad))


def test_cross_entropy_rejects_bad_labels():
    z = np.zeros((2, 3))
    with pytest.raises(DomainError):
        loss.loss_and_grad(z, np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        loss.loss_and_grad(z, np.array([0, 3]))
    with pytest.raises(ShapeError):
        loss.loss_and_grad(z, np.array([0]))


# --- output Hessian ---------------------------------------------------------


def test_output_hessian_cross_entropy_closed_form_and_fd():
    rng = np.random.default_rng(4)
    z = rng.normal(size=5)
    h = loss.output_hessian(loss.CROSS_ENTROPY, z)
    p = loss.softmax(z)
    assert_allclose(h, np.diag(p) - np.outer(p, p), rtol=1e-12)
    # independent route: Jacobian of the per-example gradient p(z) - onehot
    fd = central_diff_jacobian(lambda v: loss.softmax(v) - np.eye(5)[2], z)
    assert_allclose(h, fd, atol=1e-8)


def test_output_hessian_cross_entropy_structure():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=6) * 3
        h = loss.output_hessian(loss.CROSS_ENTROPY, z)
        p = loss.softmax(z)
        assert_allclose(h.sum(axis=1), np.zeros(6), atol=1e-14)
        assert np.min(np.linalg.eigvalsh(h)) > -1e-14
        assert_allclose(np.trace(h), 1.0 - p @ p, rtol=1e-12)


def test_output_hessian_vanishes_as_distribution_collapses():
    h = loss.output_hessian(loss.CROSS_ENTROPY, np.array([100.0, 0.0, 0.0]))
    assert np.linalg.norm(h) < 1e-40


def test_output_hessian_squared_error_is_identity():
    assert_allclose(loss.output_hessian(loss.SQUARED_ERROR, np.ones(4)), np.eye(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8))
def test_output_hessian_psd_property(seed, k):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=k) * rng.uniform(0.1, 5.0)
    h = loss.output_hessian(loss.CROSS_ENTROPY, z)
    assert np.min(np.linalg.eigvalsh(h)) > -1e-12
    assert_allclose(h, h.T, atol=1e-15)


# --- sampling from the model distribution -----------------------------------


def test_sample_targets_frequencies_match_probabilities():
    rng = np.random.default_rng(6)
    p = np.array([0.2, 0.3, 0.5])
    n = 200_000
    labels = loss.sample_targets(np.tile(p, (n, 1)), rng)
    freq = np.bincount(labels, minlength=3) / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) < 5 * sigma)


def test_sample_targets_respects_row_structure():
    rng = np.random.default_rng(7)
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    labels = loss.sample_targets(np.repeat(p, 50, axis=0), rng)
    assert np.all(labels[:50] == 0)
    assert np.all(labels[50:] == 2)


def test_sample_targets_is_seed_deterministic():
    p = np.full((64, 4), 0.25)
    a = loss.sample_targets(p, np.random.default_rng(8))
    b = loss.sample_targets(p, np.random.default_rng(8))
    assert np.array_equal(a, b)


def test_sample_targets_rejects_bad_distributions():
    rng = np.random.default_rng(9)
    with pytest.raises(DomainError):
        loss.sample_targets(np.array([[0.5, 0.4]]), rng)
    with pytest.raises(DomainError):
        loss.sample_targets(np.array([[1.2, -0.2]]), rng)
    with pytest.raises(ShapeError):
        loss.sample_targets(np.array([0.5, 0.5]), rng)
