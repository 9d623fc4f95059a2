"""Shared test utilities: central finite differences, small builders, and
the reference Kronecker preconditioner."""

import numpy as np

from wdlab import nn
from wdlab.errors import DomainError, ShapeError


def central_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at 1-d point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def central_diff_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of vector-valued f at 1-d point x."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return jac


def flatten_grads(spec, result):
    """A backward result's gradients in the canonical parameter flattening."""
    parts = []
    for l in range(spec.n_layers):
        parts.append(result.weight_grads[l].ravel())
        if spec.use_bias:
            parts.append(result.bias_grads[l])
    return np.concatenate(parts)


def random_net(rng, dims=(4, 5, 3), activation=nn.RELU, bn=False, bias=False):
    spec = nn.mlp(dims, activation=activation, bn=bn, bias=bias)
    params = nn.init_params(spec, rng)
    return spec, params


def _symmetric_matrix(m, name):
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be a finite square matrix, got shape {a.shape}")
    if np.linalg.norm(a - a.T) > 1e-10 * max(float(np.linalg.norm(a)), 1.0):
        raise ShapeError(f"{name} is not symmetric")
    return a


def kron_precondition(a, s, v, lam, damping="factored"):
    """Reference: apply the inverse of the damped Kronecker product S (x) A
    to a matrix V, by solves and eigendecompositions of the raw factors.

    `a` is n1 x n1, `s` is n2 x n2, `v` is n1 x n2 (the transpose of the
    weight layout).  With factored damping the result is
    (A + sqrt(lam) I)^-1 V (S + sqrt(lam) I)^-1, the exact inverse of
    (S + sqrt(lam) I) (x) (A + sqrt(lam) I) applied to vec(V) (column-major).
    With dense damping the operator is (S (x) A + lam I)^-1, applied through
    the two factors' eigenbases.
    """
    if lam <= 0.0:
        raise DomainError(f"damping must be positive, got {lam}")
    am = _symmetric_matrix(a, "A")
    sm = _symmetric_matrix(s, "S")
    vm = np.asarray(v, dtype=np.float64)
    if vm.shape != (am.shape[0], sm.shape[0]):
        raise ShapeError(f"V must be {am.shape[0]}x{sm.shape[0]}, got {vm.shape}")
    if damping == "factored":
        root = np.sqrt(lam)
        a_d = am + root * np.eye(am.shape[0])
        s_d = sm + root * np.eye(sm.shape[0])
        return np.linalg.solve(a_d, np.linalg.solve(s_d, vm.T).T)
    if damping == "dense":
        wa, qa = np.linalg.eigh(am)
        ws, qs = np.linalg.eigh(sm)
        # in the factors' joint eigenbasis S (x) A + lam I is diagonal with
        # entries mu_A[i] * mu_S[j] + lam
        core = qa.T @ vm @ qs
        return qa @ (core / (np.outer(wa, ws) + lam)) @ qs.T
    raise DomainError(f"unknown damping mode {damping!r}")
