"""Shared test utilities: central finite differences, small builders, the
reference Kronecker preconditioner, and the separate weight and bias update
formulas that the optimizers' single [W b] update replaced."""

from types import SimpleNamespace

import numpy as np

from wdlab import curvature, loss, nn, optim
from wdlab.errors import DomainError, NumericalError, ShapeError


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


def flatten_grads(spec, s_grads, trace):
    """The gradients of `nn.vjp`'s pre-activation gradients in the canonical
    parameter flattening: per layer ds^T a, then ds summed over rows."""
    parts = []
    for ds, a in zip(s_grads, trace.layer_inputs):
        parts.append((ds.T @ a).ravel())
        if spec.use_bias:
            parts.append(ds.sum(axis=0))
    return np.concatenate(parts)


def loss_grad_pairs(spec, params, x, y):
    """Per-layer (ds, a) pairs of the mean cross-entropy gradient on a
    train-mode forward: the gradients the optimizer steps take."""
    logits, trace = nn.forward(spec, params, x, mode="train")
    _, dl = loss.loss_and_grad(loss.CROSS_ENTROPY, logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    return list(zip(s_grads, trace.layer_inputs))


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


# --- reference optimizer updates --------------------------------------------
#
# Weight and bias updated by separate formulas, each optimizer with its own
# coupling branches: the arithmetic the single [W b] update must reproduce
# bit for bit.  States are plain namespaces with separate bias buffers.


def ref_sgd_state(eta, momentum=0.0):
    return SimpleNamespace(eta=eta, momentum=momentum, velocities=None, bias_velocities=None)


def ref_adam_state(eta):
    return SimpleNamespace(eta=eta, beta1=0.9, beta2=0.999, eps=1e-8, step=0,
                           m=None, v=None, m_bias=None, v_bias=None)


def _split_grads(pairs, bias):
    wgrads = [ds.T @ a for ds, a in pairs]
    return wgrads, [ds.sum(axis=0) for ds, _ in pairs] if bias else None


def _decays(coupling, mode, mask, l):
    return coupling.mode == mode and mask[l] and coupling.beta != 0.0


def ref_sgd_step(state, params, pairs, coupling):
    wgrads, bgrads = _split_grads(pairs, params.biases is not None)
    n_layers = len(params.weights)
    mask = coupling.layer_mask(n_layers)
    eta, beta = state.eta, coupling.beta
    new = params.copy()
    if state.momentum == 0.0:
        for l in range(n_layers):
            step = eta * wgrads[l]
            if coupling.mode != optim.COUPLING_NONE and mask[l] and beta != 0.0:
                new.weights[l] = params.weights[l] - step - (eta * beta) * params.weights[l]
            else:
                new.weights[l] = params.weights[l] - step
    else:
        if state.velocities is None:
            state.velocities = [np.zeros_like(w) for w in params.weights]
        for l in range(n_layers):
            g = wgrads[l]
            if _decays(coupling, optim.COUPLING_L2, mask, l):
                g = g + beta * params.weights[l]
            state.velocities[l] = state.momentum * state.velocities[l] + g
            new.weights[l] = params.weights[l] - eta * state.velocities[l]
            if _decays(coupling, optim.COUPLING_WD, mask, l):
                new.weights[l] = new.weights[l] - (eta * beta) * params.weights[l]
    if bgrads is not None:
        if state.momentum == 0.0:
            for l in range(n_layers):
                new.biases[l] = params.biases[l] - eta * bgrads[l]
        else:
            if state.bias_velocities is None:
                state.bias_velocities = [np.zeros_like(b) for b in params.biases]
            for l in range(n_layers):
                state.bias_velocities[l] = state.momentum * state.bias_velocities[l] + bgrads[l]
                new.biases[l] = params.biases[l] - eta * state.bias_velocities[l]
    return new


def ref_adam_step(state, params, pairs, coupling):
    wgrads, bgrads = _split_grads(pairs, params.biases is not None)
    n_layers = len(params.weights)
    mask = coupling.layer_mask(n_layers)
    if state.m is None:
        state.m = [np.zeros_like(w) for w in params.weights]
        state.v = [np.zeros_like(w) for w in params.weights]
    state.step += 1
    corr1 = 1.0 - state.beta1**state.step
    corr2 = 1.0 - state.beta2**state.step
    eta, beta = state.eta, coupling.beta
    new = params.copy()
    for l in range(n_layers):
        g = wgrads[l]
        if _decays(coupling, optim.COUPLING_L2, mask, l):
            g = g + beta * params.weights[l]
        state.m[l] = state.beta1 * state.m[l] + (1 - state.beta1) * g
        state.v[l] = state.beta2 * state.v[l] + (1 - state.beta2) * g * g
        direction = (state.m[l] / corr1) / (np.sqrt(state.v[l] / corr2) + state.eps)
        new.weights[l] = params.weights[l] - eta * direction
        if _decays(coupling, optim.COUPLING_WD, mask, l):
            new.weights[l] = new.weights[l] - (eta * beta) * params.weights[l]
    if bgrads is not None:
        if state.m_bias is None:
            state.m_bias = [np.zeros_like(b) for b in params.biases]
            state.v_bias = [np.zeros_like(b) for b in params.biases]
        for l in range(n_layers):
            g = bgrads[l]
            state.m_bias[l] = state.beta1 * state.m_bias[l] + (1 - state.beta1) * g
            state.v_bias[l] = state.beta2 * state.v_bias[l] + (1 - state.beta2) * g * g
            direction = (state.m_bias[l] / corr1) / (np.sqrt(state.v_bias[l] / corr2) + state.eps)
            new.biases[l] = params.biases[l] - eta * direction
    return new


def ref_kfac_step(state, spec, params, batch, coupling):
    """K-FAC with the factor schedule of `optim.kfac_step` (an
    `optim.KfacState` holds the factors), updating weights and biases from
    separate slices of the preconditioned gradient.  An l2 layer forms its
    gradient with the bias column and adds beta [W 0]; every other layer
    hands the preconditioner its rank-n factors."""
    x, y = batch
    if state.factors is None:
        state.factors = curvature.KfacFactors.zeros(spec)
    logits, trace = nn.forward(spec, params, x, mode="train")
    if state.step % state.t_stats == 0:
        fresh = curvature.estimate_kfac_factors(state.metric, spec, params, trace, rng=state.rng)
        curvature.update_factors_ema(state.factors, fresh, state.factor_decay)
    if state.step % state.t_inv == 0:
        curvature.invert_factors(state.factors, state.lam, state.damping_mode)
    _, dl = loss.loss_and_grad(loss.CROSS_ENTROPY, logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    mask = coupling.layer_mask(spec.n_layers)
    eta, beta = state.eta, coupling.beta
    new = params.copy()
    for l in range(spec.n_layers):
        ds, a = s_grads[l], trace.layer_inputs[l]
        if _decays(coupling, optim.COUPLING_L2, mask, l):
            grad = ds.T @ a
            if spec.use_bias:
                grad = np.hstack([grad, ds.sum(axis=0)[:, None]])
                grad = grad + beta * np.hstack([params.weights[l], np.zeros((grad.shape[0], 1))])
            else:
                grad = grad + beta * params.weights[l]
        else:
            grad = (ds, np.hstack([a, np.ones((a.shape[0], 1))]) if spec.use_bias else a)
        pre = curvature.apply_preconditioner(state.factors, l, grad)
        if not np.all(np.isfinite(pre)):
            raise NumericalError(f"layer {l}: preconditioned gradient is not finite")
        if spec.use_bias:
            new.weights[l] = params.weights[l] - eta * pre[:, :-1]
            new.biases[l] = params.biases[l] - eta * pre[:, -1]
        else:
            new.weights[l] = params.weights[l] - eta * pre
        if _decays(coupling, optim.COUPLING_WD, mask, l):
            new.weights[l] = new.weights[l] - (eta * beta) * params.weights[l]
    state.factors.steps_since_inversion += 1
    state.step += 1
    return new
