"""Shared test utilities: central finite differences and small builders."""

import numpy as np

from wdlab import nn


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
