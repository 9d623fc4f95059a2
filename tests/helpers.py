"""Shared test utilities: central finite differences, small builders, the
reference dense curvature, the reference Kronecker preconditioner,
per-optimizer reference update formulas that the optimizers' single update
rule must reproduce, and a parser of a run's metrics CSV."""

import csv
import dataclasses
from types import SimpleNamespace

import numpy as np

from wdlab import curvature, diagnostics, loss, nn, optim
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


def flatten_grads(s_grads, trace):
    """The gradients of `nn.vjp`'s pre-activation gradients in the canonical
    parameter flattening: per layer ds^T a."""
    return np.concatenate([(ds.T @ a).ravel() for ds, a in zip(s_grads, trace.layer_inputs)])


def loss_grad_pairs(spec, params, x, y):
    """Per-layer (ds, a) pairs of the mean cross-entropy gradient on a
    train-mode forward: the gradients the optimizer steps take."""
    logits, trace = nn.forward(spec, params, x, mode="train")
    _, dl = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    return list(zip(s_grads, trace.layer_inputs))


def kfac_batch_step(state, spec, params, batch, coupling=optim.Coupling()):
    """`optim.kfac_step` on an (inputs, labels) batch, after the one train-mode
    forward, cross-entropy gradient and backward that training runs for it."""
    x, y = batch
    logits, trace = nn.forward(spec, params, x, mode="train")
    _, dl = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    return optim.kfac_step(state, spec, params, trace, list(zip(s_grads, trace.layer_inputs)),
                           coupling)


def random_net(rng, dims=(4, 5, 3), activation=nn.RELU, bn=False):
    spec = nn.mlp(dims, activation=activation, bn=bn)
    params = nn.init_params(spec, rng)
    return spec, params


def stack_nets(nets):
    """One stacked NetworkParams of a list of nets of one spec."""
    return nn.NetworkParams(weights=[np.stack(ws) for ws in zip(*(p.weights for p in nets))])


def ref_curvature(kind, logits, jac, loss_kind):
    """Dense curvature by explicit per-example loops: sum_i J_i^T H_i J_i / n
    for the generalized GN, and with H = I for the GN and every squared-error
    kind; sum_i sum_y p_y g_y g_y^T / n with g_y = (e_y - p)^T J_i for the
    cross-entropy Fisher."""
    n, k, p_count = jac.shape
    total = np.zeros((p_count, p_count))
    for z, j in zip(logits, jac):
        e = np.exp(z - z.max())
        p = e / e.sum()
        if loss_kind == loss.SQUARED_ERROR or kind == curvature.GAUSS_NEWTON:
            total += j.T @ j
        elif kind == curvature.GENERALIZED_GN:
            total += j.T @ (np.diag(p) - np.outer(p, p)) @ j
        else:
            for y in range(k):
                g = (np.eye(k)[y] - p) @ j
                total += p[y] * np.outer(g, g)
    return total / n


def _symmetric_matrix(m, name):
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be a finite square matrix, got shape {a.shape}")
    if np.linalg.norm(a - a.T) > 1e-10 * max(float(np.linalg.norm(a)), 1.0):
        raise ShapeError(f"{name} is not symmetric")
    return a


def kron_precondition(a, s, v, lam):
    """Reference: apply the inverse of the factored-damped Kronecker product
    (S + sqrt(lam) I) (x) (A + sqrt(lam) I) to a matrix V by two linear solves.

    `a` is n1 x n1, `s` is n2 x n2, `v` is n1 x n2 (the transpose of the
    weight layout).  The result is (A + sqrt(lam) I)^-1 V (S + sqrt(lam) I)^-1,
    that inverse applied to vec(V) (column-major).
    """
    if lam <= 0.0:
        raise DomainError(f"damping must be positive, got {lam}")
    am = _symmetric_matrix(a, "A")
    sm = _symmetric_matrix(s, "S")
    vm = np.asarray(v, dtype=np.float64)
    if vm.shape != (am.shape[0], sm.shape[0]):
        raise ShapeError(f"V must be {am.shape[0]}x{sm.shape[0]}, got {vm.shape}")
    root = np.sqrt(lam)
    a_d = am + root * np.eye(am.shape[0])
    s_d = sm + root * np.eye(sm.shape[0])
    return np.linalg.solve(a_d, np.linalg.solve(s_d, vm.T).T)


# --- reference optimizer updates --------------------------------------------
#
# Each optimizer with its own coupling branches: the arithmetic the single
# update rule must reproduce bit for bit.  States are plain namespaces.


def ref_sgd_state(eta, momentum=0.0):
    return SimpleNamespace(eta=eta, momentum=momentum, velocities=None)


def ref_adam_state(eta):
    return SimpleNamespace(eta=eta, beta1=0.9, beta2=0.999, eps=1e-8, step=0, m=None, v=None)


def _weight_grads(pairs):
    return [ds.T @ a for ds, a in pairs]


def _decays(coupling, mode, mask, l):
    return coupling.mode == mode and mask[l] and coupling.beta != 0.0


def ref_sgd_step(state, params, pairs, coupling):
    wgrads = _weight_grads(pairs)
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
    return new


def ref_adam_step(state, params, pairs, coupling):
    wgrads = _weight_grads(pairs)
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
    return new


def ref_kfac_step(state, spec, params, batch, coupling):
    """K-FAC with the factor schedule of `optim.kfac_step` (an
    `optim.KfacState` holds the factors).  An l2 layer forms its gradient
    and adds beta W; every other layer hands the preconditioner its rank-n
    factors."""
    x, y = batch
    if state.factors is None:
        state.factors = curvature.KfacFactors.zeros(spec)
    logits, trace = nn.forward(spec, params, x, mode="train")
    if state.step % state.t_stats == 0:
        fresh = curvature.estimate_kfac_factors(state.metric, spec, params, trace, rng=state.rng)
        curvature.update_factors_ema(state.factors, fresh, state.factor_decay)
    if state.step % state.t_inv == 0:
        curvature.invert_factors(state.factors, state.lam)
    _, dl = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    mask = coupling.layer_mask(spec.n_layers)
    eta, beta = state.eta, coupling.beta
    new = params.copy()
    for l in range(spec.n_layers):
        ds, a = s_grads[l], trace.layer_inputs[l]
        if _decays(coupling, optim.COUPLING_L2, mask, l):
            grad = ds.T @ a + beta * params.weights[l]
        else:
            grad = (ds, a)
        pre = curvature.apply_preconditioner(state.factors, l, grad)
        if not np.all(np.isfinite(pre)):
            raise NumericalError(f"layer {l}: preconditioned gradient is not finite")
        new.weights[l] = params.weights[l] - eta * pre
        if _decays(coupling, optim.COUPLING_WD, mask, l):
            new.weights[l] = new.weights[l] - (eta * beta) * params.weights[l]
    state.step += 1
    return new


def _indexed(row, prefix):
    """A CSV row's `<prefix><l>` columns as {l: value}, in file order."""
    return {int(c[len(prefix):]): float(v) for c, v in row.items() if c.startswith(prefix)}


def load_metrics(path) -> list[diagnostics.MetricRecord]:
    """Parse a metrics CSV back into records, each float bit-exactly."""
    scalars = {f.name for f in dataclasses.fields(diagnostics.MetricRecord)} - {"epoch"}
    with open(path, newline="") as fh:
        return [
            diagnostics.MetricRecord(
                epoch=int(row["epoch"]),
                **{c: float(v) for c, v in row.items() if c in scalars},
                layer_norms=tuple(_indexed(row, "layer_norm_").values()),
                effective_lrs=tuple(_indexed(row, "eff_lr_").values()),
                fisher_traces=_indexed(row, "fisher_trace_"),
                gn_traces=_indexed(row, "gn_trace_"),
            )
            for row in csv.DictReader(fh)
        ]
