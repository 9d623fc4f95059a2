"""Randomized oracle suite for every identity the library relies on.

Each check draws many small random networks, evaluates one identity through
two independent routes, and reports the worst relative error seen.  Checks
are deterministic given their seed and independent of each other.  Degenerate
draws (kink-adjacent ReLU inputs, collapsed outputs, fully active ReLU nets,
near-epsilon BN variances) are resampled, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature, data, diagnostics, loss, nn, optim
from .errors import DegenerateError, DomainError

RESAMPLE_TRIES = 80
# a control slope within this distance of 2 would pass for second order
CONTROL_SLOPE_GAP = 0.5


@dataclass
class CheckReport:
    name: str
    trials: int
    max_rel_error: float
    tolerance: float
    seed: int

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_rel_error": self.max_rel_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }


def _report(name, trials, max_err, tol, seed) -> CheckReport:
    return CheckReport(
        name=name,
        trials=trials,
        max_rel_error=float(max_err),
        tolerance=tol,
        seed=int(seed),
    )


def _rel(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = float(np.linalg.norm(want))
    if denom == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(got - want) / denom)


def _random_dims(rng, max_depth=4, lo=2, hi=16):
    n_layers = int(rng.integers(1, max_depth + 1))
    return [int(rng.integers(lo, hi + 1)) for _ in range(n_layers + 1)]


def _generic_relu_net(rng, dims, n, margin=1e-6):
    """A ReLU net and inputs whose pre-activations all sit away from the
    kink.  Both net and inputs are redrawn together: a mostly-dead narrow
    layer can defeat any number of input redraws on its own."""
    for _ in range(RESAMPLE_TRIES):
        spec = nn.mlp(dims, activation="relu", bias=False)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(n, spec.input_dim))
        _, trace = nn.forward(spec, params, x, mode="eval")
        if all(np.abs(s).min() >= margin for s in trace.pre_activations):
            return spec, params, x
    raise DegenerateError("could not sample a net with inputs away from activation kinks")


# --- individual checks ------------------------------------------------------


def check_homogeneity(trials: int = 100, seed: int = 0) -> CheckReport:
    """Outputs of bias-free homogeneous nets against both Jacobian
    contractions: f = J_x x and f = J_theta theta / (L+1)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng)
        if trial % 4 == 3:
            spec = nn.mlp(dims, activation="identity", bias=False)
            params = nn.init_params(spec, rng)
            x = rng.normal(size=(2, spec.input_dim))
        else:
            spec, params, x = _generic_relu_net(rng, dims, 2)
        logits, trace = nn.forward(spec, params, x, mode="eval")
        if np.linalg.norm(logits) < 1e-9:
            continue
        theta = nn.flatten_params(spec, params)
        depth_plus_one = spec.n_layers
        jx = nn.input_jacobian(spec, params, trace)
        jt = nn.param_jacobian(spec, params, trace)
        for i, row in enumerate(x):
            worst = max(worst, _rel(jx[i] @ row, logits[i]))
            worst = max(worst, _rel(jt[i] @ theta / depth_plus_one, logits[i]))
    return _report("homogeneity_identities", trials, worst, 1e-9, seed)


def check_gn_norm_identities(trials: int = 100, seed: int = 0) -> CheckReport:
    """theta' G theta = (L+1)^2 E||f||^2 and the layerwise block norm
    = (L+1) E||f||^2 on bias-free ReLU and linear nets, both against dense
    quadratic forms; so (L+1) times the block norm gives theta' G theta."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=8)
        n = 6
        if trial % 2 == 0:
            spec, params, x = _generic_relu_net(rng, dims, n)
        else:
            spec = nn.mlp(dims, activation="identity", bias=False)
            params = nn.init_params(spec, rng)
            x = rng.normal(size=(n, spec.input_dim))
        theta = nn.flatten_params(spec, params)
        dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
        quad = float(theta @ dense @ theta)
        gnn = curvature.gn_norm(spec, params, x)
        block_quad = sum(
            float(theta[sl] @ dense[sl, sl] @ theta[sl])
            for sl in nn.layer_slices(spec)
        )
        _, block = diagnostics.probe_norms(spec, params, x)
        worst = max(worst, _rel(gnn, quad), _rel(block, block_quad),
                    _rel(spec.n_layers * block, gnn))
    return _report("gn_norm_identities", trials, worst, 1e-8, seed)


def check_whitened_jacobian(trials: int = 100, seed: int = 0) -> CheckReport:
    """On linear nets with whitened batches the layerwise block norm equals
    (L+1) times the mean squared input Jacobian; an un-whitened control must
    break the identity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=6)
        spec = nn.mlp(dims, activation="identity", bias=False)
        params = nn.init_params(spec, rng)
        d = spec.input_dim
        x = data.whiten(rng.normal(size=(3 * d + 5, d)))
        jac, block = diagnostics.probe_norms(spec, params, x)
        worst = max(worst, _rel(block, spec.n_layers * jac))
    # negative control: anisotropic inputs must violate the identity
    spec = nn.mlp([3, 4, 2], activation="identity", bias=False)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(30, 3)) * np.array([1.0, 4.0, 0.25])
    jac, block = diagnostics.probe_norms(spec, params, x)
    if _rel(block, spec.n_layers * jac) <= 1e-3:
        worst = float("inf")
    return _report("whitened_jacobian_norm", trials, worst, 1e-8, seed)


def check_equivalences(trials: int = 100, seed: int = 0) -> CheckReport:
    """Exact Fisher = generalized GN under cross-entropy; Gaussian Fisher =
    GN under squared error; one-class cross-entropy degenerates to zero.
    Plain GN must differ from the cross-entropy Fisher."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=2, lo=2, hi=6)
        spec = nn.mlp(dims, activation="relu", bias=False)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(4, spec.input_dim))
        logits, jac = curvature.per_example_param_jacobians(spec, params, x)
        fisher_ce, ggn_ce, fisher_se, gn = (
            curvature.curvature_from_jacobians(kind, logits, jac, loss_kind)
            for kind, loss_kind in (
                (curvature.FISHER_EXACT, loss.CROSS_ENTROPY),
                (curvature.GENERALIZED_GN, loss.CROSS_ENTROPY),
                (curvature.FISHER_EXACT, loss.SQUARED_ERROR),
                (curvature.GAUSS_NEWTON, loss.CROSS_ENTROPY),
            )
        )
        worst = max(worst, _rel(fisher_ce, ggn_ce), _rel(fisher_se, gn))
        # control; a net dead on every input has J = 0, and every block is 0
        if np.any(gn) and _rel(gn, fisher_ce) <= 1e-3:
            worst = float("inf")
        if trial % 10 == 0:
            one = nn.mlp([dims[0], 3, 1], activation="relu", bias=False)
            one_params = nn.init_params(one, rng)
            degenerate = curvature.dense_curvature(
                curvature.FISHER_EXACT, one, one_params, x, loss_kind=loss.CROSS_ENTROPY
            )
            worst = max(worst, float(np.linalg.norm(degenerate)))
    return _report("fisher_gn_equivalences", trials, worst, 1e-9, seed)


def check_bn_scale_invariance(trials: int = 100, seed: int = 0) -> CheckReport:
    """Rescaling any BN-covered layer leaves train-mode outputs unchanged;
    rescaling the uncovered output layer must change them."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dims = [int(rng.integers(4, 9)) for _ in range(4)]
        spec = nn.mlp(dims, activation="relu", bn=True, bias=False)
        # redraw net and inputs until every BN-covered batch variance is far
        # above the BN epsilon, even after the alpha=0.5 rescale quarters it
        for _ in range(RESAMPLE_TRIES):
            params = nn.init_params(spec, rng)
            params.weights[1] = params.weights[1] * 40.0
            x = 40.0 * rng.normal(size=(12, spec.input_dim))
            base, trace = nn.forward(spec, params, x, mode="train")
            if min(s.var(axis=0).min() for s in trace.pre_activations[:-1]) >= 100.0:
                break
        else:
            raise DegenerateError("could not sample a BN net with batch variances >= 100")
        denom = float(np.linalg.norm(base))
        for layer in (0, 1):
            for alpha in (0.5, 2.0, 10.0):
                scaled, _ = nn.forward(
                    spec, nn.scale_layer(params, layer, alpha), x, mode="train"
                )
                worst = max(worst, float(np.linalg.norm(scaled - base)) / denom)
        control, _ = nn.forward(spec, nn.scale_layer(params, 2, 2.0), x, mode="train")
        if float(np.linalg.norm(control - base)) / denom <= 1e-3:
            worst = float("inf")
    return _report("bn_scale_invariance", trials, worst, 1e-9, seed)


def _layer_block(spec, params, x, kind):
    """Dense curvature block of layer 0 in train mode."""
    dense = curvature.dense_curvature(kind, spec, params, x)
    sl = nn.layer_slices(spec)[0]
    return dense[sl, sl]


def _normalized_step_discrepancy(spec, params, x, y, etas, lam):
    """One-step residuals, one per eta, of the two normalized-direction
    formulas on layer 0 of a BN net: (plain gradient, damped natural
    gradient, and the plain-gradient control that drops the 1/||w||^2
    factor).  Everything but the step itself is independent of eta and is
    computed once."""
    w0 = params.weights[0]
    norm = float(np.linalg.norm(w0))
    theta_hat = (w0 / norm).ravel()

    logits, trace = nn.forward(spec, params, x, mode="train")
    _, dz = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dz)
    g0 = s_grads[0].T @ trace.layer_inputs[0]

    scaled = nn.scale_layer(params, 0, 1.0 / norm)
    logits_s, trace_s = nn.forward(spec, scaled, x, mode="train")
    _, dz_s = loss.loss_and_grad(logits_s, y)
    s_grads_s, _ = nn.vjp(spec, scaled, trace_s, dz_s)
    g_hat = (s_grads_s[0].T @ trace_s.layer_inputs[0]).ravel()

    block = _layer_block(spec, params, x, curvature.GAUSS_NEWTON)
    damped = np.linalg.solve(block + lam * np.eye(block.shape[0]), g0.ravel())
    block_hat = _layer_block(spec, scaled, x, curvature.GAUSS_NEWTON)

    d_sgd, d_ng, d_control = [], [], []
    for eta in etas:
        actual = (w0 - eta * g0).ravel()
        actual = actual / np.linalg.norm(actual)
        ref = optim.reference_normalized_sgd_step(theta_hat, norm, g_hat, eta)
        d_sgd.append(float(np.linalg.norm(actual - ref)))
        ref_control = optim.reference_normalized_sgd_step(theta_hat, 1.0, g_hat, eta)
        d_control.append(float(np.linalg.norm(actual - ref_control)))

        actual_ng = (w0.ravel() - eta * damped) / np.linalg.norm(w0.ravel() - eta * damped)
        ref_ng = optim.reference_normalized_kfac_step(theta_hat, norm, block_hat, lam, g_hat, eta)
        d_ng.append(float(np.linalg.norm(actual_ng - ref_ng)))
    return d_sgd, d_ng, d_control


def _slope(etas, series) -> float:
    return float(np.polyfit(np.log(etas), np.log(series), 1)[0])


def check_update_rules(trials: int = 100, seed: int = 0) -> CheckReport:
    """The one-step error of both normalized-direction update formulas shrinks
    quadratically in eta: fitted log-log slope within 0.2 of 2.  Dropping
    the 1/||w||^2 factor leaves a first-order error, whose slope (near 1)
    must sit far from 2."""
    rng = np.random.default_rng(seed)
    etas = np.array([1e-2, 5e-3, 2.5e-3])
    worst = 0.0
    for _ in range(trials):
        spec = nn.mlp([4, 6, 3], activation="identity", bn=True, bias=False)
        params = nn.init_params(spec, rng)
        x = 4.0 * rng.normal(size=(16, 4))
        y = rng.integers(0, 3, size=16)
        d_sgd, d_ng, d_control = _normalized_step_discrepancy(spec, params, x, y, etas, 1e-2)
        if min(d_sgd) < 1e-13 or min(d_ng) < 1e-13:
            continue  # residual at the noise floor; slope is meaningless
        for series in (d_sgd, d_ng):
            worst = max(worst, abs(_slope(etas, series) - 2.0))
        if abs(_slope(etas, d_control) - 2.0) <= CONTROL_SLOPE_GAP:
            worst = float("inf")
    return _report("normalized_update_rules", trials, worst, 0.2, seed)


def check_curvature_scaling(trials: int = 100, seed: int = 0) -> CheckReport:
    """Rescaling a BN-covered layer by alpha scales its curvature block by
    1/alpha^2, for exact Fisher and GN; the output layer's block must not
    scale so."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    alpha = 2.0
    spec = nn.mlp([3, 5, 4, 2], activation="relu", bn=True, bias=False)
    slices = nn.layer_slices(spec)
    first, last = slices[0], slices[-1]
    for _ in range(trials):
        # every BN unit needs variance headroom over the epsilon for the
        # identity to be exact; a single near-zero weight row breaks that,
        # so resample until the smallest unit variance clears a floor
        for _ in range(RESAMPLE_TRIES):
            params = nn.init_params(spec, rng)
            params.weights[1] = params.weights[1] * 20.0
            x = 60.0 * rng.normal(size=(8, 3))
            _, trace = nn.forward(spec, params, x, mode="train")
            if min(float(s.min()) for s in trace.bn_stds) >= 10.0:
                break
        else:
            raise DegenerateError("could not sample BN units with variance headroom")
        scaled = nn.scale_layer(params, 0, alpha)
        base_jac = curvature.per_example_param_jacobians(spec, params, x)
        moved_jac = curvature.per_example_param_jacobians(spec, scaled, x)
        for kind in (curvature.FISHER_EXACT, curvature.GAUSS_NEWTON):
            base = curvature.curvature_from_jacobians(kind, *base_jac)
            moved = curvature.curvature_from_jacobians(kind, *moved_jac)
            worst = max(worst, _rel(moved[first, first], base[first, first] / alpha**2))
            # control: the output layer, which BN does not cover, keeps its block
            if _rel(moved[last, last], base[last, last] / alpha**2) <= 1e-3:
                worst = float("inf")
    return _report("curvature_block_scaling", trials, worst, 1e-8, seed)


def check_gn_gradient(trials: int = 100, seed: int = 0) -> CheckReport:
    """Closed-form gradient of the GN norm against central finite
    differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    h = 1e-6
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=2, lo=2, hi=5)
        if trial % 2 == 0:
            spec, params, x = _generic_relu_net(rng, dims, 5, margin=1e-3)
        else:
            spec = nn.mlp(dims, activation="identity", bias=False)
            params = nn.init_params(spec, rng)
            x = rng.normal(size=(5, spec.input_dim))
        grad = curvature.gn_norm_gradient(spec, params, x)
        theta = nn.flatten_params(spec, params)
        fd = np.empty_like(theta)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] = theta[i] + h
            up = curvature.gn_norm(spec, nn.unflatten_params(spec, bumped), x)
            bumped[i] = theta[i] - h
            down = curvature.gn_norm(spec, nn.unflatten_params(spec, bumped), x)
            fd[i] = (up - down) / (2 * h)
        worst = max(worst, _rel(grad, fd))
    return _report("gn_norm_gradient", trials, worst, 1e-5, seed)


def check_kfac_linear_exactness(trials: int = 100, seed: int = 0) -> CheckReport:
    """Kronecker factors reproduce dense GN blocks exactly on linear nets;
    a ReLU control must not be exact."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=6)
        spec = nn.mlp(dims, activation="identity", bias=False)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(7, spec.input_dim))
        _, trace = nn.forward(spec, params, x, mode="train")
        factors = curvature.estimate_kfac_factors("gn", spec, params, trace)
        dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
        slices = nn.layer_slices(spec)
        for (a_l, s_l), sl in zip(factors, slices):
            worst = max(worst, _rel(np.kron(s_l, a_l), dense[sl, sl]))
    # control: a ReLU net with at least one inactive unit is never exact
    for _ in range(RESAMPLE_TRIES):
        spec = nn.mlp([3, 5, 2], activation="relu", bias=False)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(7, 3))
        _, trace = nn.forward(spec, params, x, mode="train")
        if any(s.min() < -1e-3 for s in trace.pre_activations):
            break
    else:
        raise DegenerateError("could not sample a ReLU net with an inactive unit")
    factors = curvature.estimate_kfac_factors("gn", spec, params, trace)
    dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    sl = nn.layer_slices(spec)[0]
    a_0, s_0 = factors[0]
    control = _rel(np.kron(s_0, a_0), dense[sl, sl])
    if control <= 1e-8:
        worst = float("inf")
    return _report("kfac_linear_exactness", trials, worst, 1e-8, seed)


# --- registry ---------------------------------------------------------------

CHECKS = {
    "homogeneity_identities": check_homogeneity,
    "gn_norm_identities": check_gn_norm_identities,
    "whitened_jacobian_norm": check_whitened_jacobian,
    "fisher_gn_equivalences": check_equivalences,
    "bn_scale_invariance": check_bn_scale_invariance,
    "normalized_update_rules": check_update_rules,
    "curvature_block_scaling": check_curvature_scaling,
    "gn_norm_gradient": check_gn_gradient,
    "kfac_linear_exactness": check_kfac_linear_exactness,
}


def run_all(seed: int = 0, trials: int = 100, only: str | None = None) -> list[CheckReport]:
    """Run every registered check (or one, via `only`) with seeds derived
    from the master seed."""
    if only is not None and only not in CHECKS:
        raise DegenerateError(f"unknown check {only!r}; known: {sorted(CHECKS)}")
    if trials < 1 or seed < 0:
        raise DomainError(f"need trials >= 1 and seed >= 0, got trials={trials} seed={seed}")
    child_seeds = np.random.SeedSequence(seed).generate_state(len(CHECKS))
    reports = []
    for (name, fn), child in zip(CHECKS.items(), child_seeds):
        if only is not None and name != only:
            continue
        reports.append(fn(trials=trials, seed=int(child)))
    return reports
