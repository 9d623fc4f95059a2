"""Loss functions, softmax outputs, and the output-layer Hessian.

Softmax cross-entropy, reduced by the batch mean, is the training loss.
Squared error is kept as the oracles' Gaussian output model: it carries a
1/2 per example, so its output Hessian is exactly the identity, which the
curvature constructions use without building it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

CROSS_ENTROPY = "cross_entropy_softmax"
SQUARED_ERROR = "squared_error"
LOSS_KINDS = (CROSS_ENTROPY, SQUARED_ERROR)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; accepts a vector or n x k matrix."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _check_labels(labels: np.ndarray, k: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise DomainError("cross-entropy labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise DomainError(f"label out of range [0,{k}): min={y.min()}, max={y.max()}")
    return y.astype(np.int64)


def loss_and_grad(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch, the training loss, for
    integer class labels, and its logit gradient (softmax(z) - onehot(y)) / n."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"logits must be n x k, got shape {z.shape}")
    n, k = z.shape
    y = _check_labels(labels, k)
    if y.shape[0] != n:
        raise ShapeError(f"{n} logit rows but {y.shape[0]} labels")
    shifted = z - np.max(z, axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1))
    log_p = shifted - log_norm[:, None]
    loss = float(-np.mean(log_p[np.arange(n), y]))
    grad = np.exp(log_p)
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def output_hessian(logits) -> np.ndarray:
    """Hessians of the per-example cross-entropy with respect to the logits,
    one per row of the n x k logits: n x k x k.

    Each is diag(p) - p p^T (PSD, rows sum to zero, and it vanishes as p
    collapses onto one class).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"logits must be n x k, got shape {z.shape}")
    p = softmax(z)
    hess = -p[:, :, None] * p[:, None, :]
    diag = np.arange(z.shape[1])
    hess[:, diag, diag] += p
    return hess


def sample_targets(p, rng: np.random.Generator) -> np.ndarray:
    """Draw one class label per row of the probability matrix `p`."""
    probs = np.asarray(p, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"p must be n x k, got shape {probs.shape}")
    if np.any(probs < -1e-12):
        raise DomainError("probabilities must be nonnegative")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise DomainError(f"rows of p must sum to 1 within 1e-8 (worst deviation {worst:.3e})")
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    labels = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(labels, probs.shape[1] - 1).astype(np.int64)
