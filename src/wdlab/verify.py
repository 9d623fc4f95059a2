"""Randomized oracle suite for every identity the library relies on.

Each check draws many small random networks, evaluates one identity through
two independent routes, and reports the worst relative error seen.  Checks
are deterministic given their seed and independent of each other.  Degenerate
draws (kink-adjacent ReLU inputs, collapsed outputs, fully active ReLU nets,
near-epsilon BN variances) are resampled, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


# name -> check(trials=100, seed=0), in definition order; run_all derives
# each check's seed from its position, so reordering re-seeds the suite
CHECKS: dict[str, Callable[..., CheckReport]] = {}


def _check(name: str, tolerance: float):
    """Register a check body under `name`.  The body maps (trials, rng) to
    its worst error; the registered callable keeps the body's name and
    docstring and returns the CheckReport."""

    def register(body):
        def check(trials: int = 100, seed: int = 0) -> CheckReport:
            worst = body(trials, np.random.default_rng(seed))
            return CheckReport(name, trials, float(worst), tolerance, int(seed))

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        CHECKS[name] = check
        return check

    return register


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


def _bias_free_net(rng, dims, n, activation="relu", margin=1e-6):
    """A bias-free net, n inputs and, for ReLU, the eval-mode trace that
    accepted them (None for identity nets, which are never forwarded here).
    A ReLU net is redrawn until some logit is nonzero (a dead net has J = 0,
    so every identity holds trivially) and every pre-activation sits at least
    `margin` from the kink.  Net and inputs are redrawn together: a
    mostly-dead narrow layer can defeat any number of input redraws on its
    own."""
    for _ in range(RESAMPLE_TRIES):
        spec = nn.mlp(dims, activation=activation)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(n, spec.input_dim))
        if activation == "identity":
            return spec, params, x, None
        logits, trace = nn.forward(spec, params, x, mode="eval")
        if np.any(logits) and all(np.abs(s).min() >= margin for s in trace.pre_activations):
            return spec, params, x, trace
    raise DegenerateError("could not sample a live ReLU net with inputs away from its kinks")


def _bn_net(rng, spec, n, gain, x_scale):
    """Params, inputs and train-mode logits of a BN net whose layer 1 is
    amplified by `gain`.  Net and inputs are redrawn together until every BN
    unit's batch std is at least 10: the scale identities are exact only
    with headroom over the BN epsilon, even after an alpha = 0.5 rescale
    quarters a variance, and a single near-zero weight row removes it."""
    for _ in range(RESAMPLE_TRIES):
        params = nn.init_params(spec, rng)
        params.weights[1] = params.weights[1] * gain
        x = x_scale * rng.normal(size=(n, spec.input_dim))
        logits, trace = nn.forward(spec, params, x, mode="train")
        if min(float(s.min()) for s in trace.bn_stds) >= 10.0:
            return params, x, logits
    raise DegenerateError("could not sample BN units with variance headroom")


# --- individual checks ------------------------------------------------------


@_check("homogeneity_identities", 1e-9)
def check_homogeneity(trials, rng):
    """Outputs of bias-free homogeneous nets against both Jacobian
    contractions: f = J_x x and f = J_theta theta / (L+1)."""
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng)
        spec, params, x, trace = _bias_free_net(
            rng, dims, 2, "identity" if trial % 4 == 3 else "relu")
        if trace is None:
            _, trace = nn.forward(spec, params, x, mode="eval")
        logits = trace.logits
        theta = nn.flatten_params(spec, params)
        depth_plus_one = spec.n_layers
        jx = nn.input_jacobian(spec, params, trace)
        jt = nn.param_jacobian(spec, params, trace)
        for i, row in enumerate(x):
            worst = max(worst, _rel(jx[i] @ row, logits[i]))
            worst = max(worst, _rel(jt[i] @ theta / depth_plus_one, logits[i]))
    return worst


@_check("gn_norm_identities", 1e-8)
def check_gn_norm_identities(trials, rng):
    """theta' G theta = (L+1)^2 E||f||^2 and the layerwise block norm
    = (L+1) E||f||^2 on bias-free ReLU and linear nets, both against dense
    quadratic forms; so (L+1) times the block norm gives theta' G theta."""
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=8)
        spec, params, x, _ = _bias_free_net(rng, dims, 6, "relu" if trial % 2 == 0 else "identity")
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
    return worst


@_check("whitened_jacobian_norm", 1e-8)
def check_whitened_jacobian(trials, rng):
    """On linear nets with whitened batches the layerwise block norm equals
    (L+1) times the mean squared input Jacobian; an un-whitened control must
    break the identity."""
    worst = 0.0
    for _ in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=6)
        spec, params, x, _ = _bias_free_net(rng, dims, 3 * dims[0] + 5, "identity")
        jac, block = diagnostics.probe_norms(spec, params, data.whiten(x))
        worst = max(worst, _rel(block, spec.n_layers * jac))
    # negative control: anisotropic inputs must violate the identity
    spec, params, x, _ = _bias_free_net(rng, [3, 4, 2], 30, "identity")
    jac, block = diagnostics.probe_norms(spec, params, x * np.array([1.0, 4.0, 0.25]))
    if _rel(block, spec.n_layers * jac) <= 1e-3:
        worst = float("inf")
    return worst


@_check("fisher_gn_equivalences", 1e-9)
def check_equivalences(trials, rng):
    """Exact Fisher = generalized GN under cross-entropy; Gaussian Fisher =
    GN under squared error; one-class cross-entropy degenerates to zero.
    Plain GN must differ from the cross-entropy Fisher."""
    worst = 0.0
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=2, lo=2, hi=6)
        # the identities need no kink margin, only a live net
        spec, params, x, trace = _bias_free_net(rng, dims, 4, margin=0.0)
        logits, jac = trace.logits, nn.param_jacobian(spec, params, trace)
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
        if _rel(gn, fisher_ce) <= 1e-3:  # control
            worst = float("inf")
        if trial % 10 == 0:
            one = nn.mlp([dims[0], 3, 1], activation="relu")
            one_params = nn.init_params(one, rng)
            degenerate = curvature.dense_curvature(
                curvature.FISHER_EXACT, one, one_params, x, loss_kind=loss.CROSS_ENTROPY
            )
            worst = max(worst, float(np.linalg.norm(degenerate)))
    return worst


@_check("bn_scale_invariance", 1e-9)
def check_bn_scale_invariance(trials, rng):
    """Rescaling any BN-covered layer leaves train-mode outputs unchanged;
    rescaling the uncovered output layer must change them.  The six
    rescalings and the control run as one stacked forward."""
    # (layer, alpha) per stack member; the last, the output layer, is the control
    rescalings = [(layer, alpha) for layer in (0, 1) for alpha in (0.5, 2.0, 10.0)] + [(2, 2.0)]
    worst = 0.0
    for _ in range(trials):
        dims = [int(rng.integers(4, 9)) for _ in range(4)]
        spec = nn.mlp(dims, activation="relu", bn=True)
        params, x, base = _bn_net(rng, spec, 12, gain=40.0, x_scale=40.0)
        denom = float(np.linalg.norm(base))
        scaled = [nn.scale_layer(params, layer, alpha).weights for layer, alpha in rescalings]
        outputs, _ = nn.forward(spec, nn.NetworkParams([np.stack(w) for w in zip(*scaled)]), x,
                                mode="train")
        *moved, control = (float(np.linalg.norm(out - base)) / denom for out in outputs)
        worst = max(worst, *moved)
        if control <= 1e-3:
            worst = float("inf")
    return worst


def _normalized_step_discrepancy(spec, params, x, y, etas, lam):
    """One-step residuals, one per eta, of the two normalized-direction
    formulas on layer 0 of a BN net: (plain gradient, damped natural
    gradient, and the plain-gradient control that drops the 1/||w||^2
    factor).  Everything but the step itself is independent of eta and is
    computed once, from one train-mode forward per net."""
    first = nn.layer_slices(spec)[0]

    def gradient_and_block(p):
        logits, trace = nn.forward(spec, p, x, mode="train")
        _, dz = loss.loss_and_grad(logits, y)
        s_grads, _ = nn.vjp(spec, p, trace, dz)
        jac = nn.param_jacobian(spec, p, trace)[:, :, first]
        return (s_grads[0].T @ trace.layer_inputs[0],
                curvature.curvature_from_jacobians(curvature.GAUSS_NEWTON, logits, jac))

    w0 = params.weights[0]
    norm = float(np.linalg.norm(w0))
    theta_hat = (w0 / norm).ravel()
    g0, block = gradient_and_block(params)
    g_hat, block_hat = gradient_and_block(nn.scale_layer(params, 0, 1.0 / norm))
    g_hat = g_hat.ravel()
    damped = np.linalg.solve(block + lam * np.eye(block.shape[0]), g0.ravel())
    refs = zip(optim.reference_normalized_sgd_step(theta_hat, norm, g_hat, etas),
               optim.reference_normalized_sgd_step(theta_hat, 1.0, g_hat, etas),
               optim.reference_normalized_kfac_step(theta_hat, norm, block_hat, lam, g_hat, etas))

    d_sgd, d_ng, d_control = [], [], []
    for eta, (ref, ref_control, ref_ng) in zip(etas, refs):
        actual = (w0 - eta * g0).ravel()
        actual = actual / np.linalg.norm(actual)
        d_sgd.append(float(np.linalg.norm(actual - ref)))
        d_control.append(float(np.linalg.norm(actual - ref_control)))
        actual_ng = (w0.ravel() - eta * damped) / np.linalg.norm(w0.ravel() - eta * damped)
        d_ng.append(float(np.linalg.norm(actual_ng - ref_ng)))
    return d_sgd, d_ng, d_control


def _slope(etas, series) -> float:
    return float(np.polyfit(np.log(etas), np.log(series), 1)[0])


@_check("normalized_update_rules", 0.2)
def check_update_rules(trials, rng):
    """The one-step error of both normalized-direction update formulas shrinks
    quadratically in eta: fitted log-log slope within 0.2 of 2.  Dropping
    the 1/||w||^2 factor leaves a first-order error, whose slope (near 1)
    must sit far from 2.  A draw whose residual sits at the noise floor,
    where the slope is meaningless, is redrawn."""
    etas = np.array([1e-2, 5e-3, 2.5e-3])
    spec = nn.mlp([4, 6, 3], activation="identity", bn=True)
    worst = 0.0
    for _ in range(trials):
        for _ in range(RESAMPLE_TRIES):
            params = nn.init_params(spec, rng)
            x = 4.0 * rng.normal(size=(16, 4))
            y = rng.integers(0, 3, size=16)
            d_sgd, d_ng, d_control = _normalized_step_discrepancy(spec, params, x, y, etas, 1e-2)
            if min(d_sgd) >= 1e-13 and min(d_ng) >= 1e-13:
                break
        else:
            raise DegenerateError("could not sample update residuals above the noise floor")
        for series in (d_sgd, d_ng):
            worst = max(worst, abs(_slope(etas, series) - 2.0))
        if abs(_slope(etas, d_control) - 2.0) <= CONTROL_SLOPE_GAP:
            worst = float("inf")
    return worst


@_check("curvature_block_scaling", 1e-8)
def check_curvature_scaling(trials, rng):
    """Rescaling a BN-covered layer by alpha scales its curvature block by
    1/alpha^2, for exact Fisher and GN; the output layer's block must not
    scale so."""
    worst = 0.0
    alpha = 2.0
    spec = nn.mlp([3, 5, 4, 2], activation="relu", bn=True)
    slices = nn.layer_slices(spec)
    first, last = slices[0], slices[-1]
    for _ in range(trials):
        params, x, _ = _bn_net(rng, spec, 8, gain=20.0, x_scale=60.0)
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
    return worst


def _central_differences(spec, params, x, h):
    """Central differences of the GN norm in every coordinate, from two
    stacked forwards: row i of theta +- h I moves coordinate i alone."""
    theta = nn.flatten_params(spec, params)
    bumps = h * np.eye(theta.size)
    up = curvature.gn_norm(spec, nn.unflatten_params(spec, theta + bumps), x)
    down = curvature.gn_norm(spec, nn.unflatten_params(spec, theta - bumps), x)
    return (up - down) / (2 * h)


@_check("gn_norm_gradient", 1e-5)
def check_gn_gradient(trials, rng):
    """Closed-form gradient of the GN norm against central finite
    differences.  Without its (L+1) factor, 2 G theta must miss them on
    every net of two or more layers (on one layer the two are equal)."""
    worst = 0.0
    h = 1e-6
    for trial in range(trials):
        dims = _random_dims(rng, max_depth=2, lo=2, hi=5)
        spec, params, x, _ = _bias_free_net(
            rng, dims, 5, "relu" if trial % 2 == 0 else "identity", margin=1e-3
        )
        grad = curvature.gn_norm_gradient(spec, params, x)
        fd = _central_differences(spec, params, x, h)
        worst = max(worst, _rel(grad, fd))
        if spec.n_layers >= 2 and _rel(grad / spec.n_layers, fd) <= 1e-3:  # control
            worst = float("inf")
    return worst


@_check("kfac_linear_exactness", 1e-8)
def check_kfac_linear_exactness(trials, rng):
    """Kronecker factors reproduce dense GN blocks exactly on linear nets;
    a ReLU control must not be exact."""
    worst = 0.0
    for _ in range(trials):
        dims = _random_dims(rng, max_depth=3, lo=2, hi=6)
        spec, params, x, _ = _bias_free_net(rng, dims, 7, "identity")
        _, trace = nn.forward(spec, params, x, mode="train")
        factors = curvature.estimate_kfac_factors("gn", spec, params, trace)
        dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
        slices = nn.layer_slices(spec)
        for (a_l, s_l), sl in zip(factors, slices):
            worst = max(worst, _rel(np.kron(s_l, a_l), dense[sl, sl]))
    # control: a ReLU net with at least one inactive unit is never exact
    for _ in range(RESAMPLE_TRIES):
        spec = nn.mlp([3, 5, 2], activation="relu")
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
    return worst


# --- running the suite ------------------------------------------------------


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
