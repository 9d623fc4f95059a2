"""Curvature matrices of small networks, dense and Kronecker-factored.

Dense constructions (Fisher, Gauss-Newton, generalized Gauss-Newton) assemble
P x P matrices over the canonical parameter flattening from exact per-example
Jacobians; they are the oracles everything cheaper is tested against.  The
Kronecker side estimates per-layer factors A_l = E[a a^T] and
S_l = E[g g^T] whose product S_l (x) A_l approximates the layer-diagonal
curvature block, exactly so for linear networks.

The metric norm ||theta||^2_G of a bias-free net comes from its positive
homogeneity, without a dense matrix; the block-diagonal counterpart shares
the Jacobian norm's backward in `diagnostics.probe_norms`.

All expectations are over the supplied batch.  Per-output and per-example
backward passes run as a few stacked `nn.vjp` calls over seed stacks,
chunked by `nn.SEED_ROWS`.  Networks with batch norm are differentiated in
train mode, through the batch statistics, with one seed per (example,
output) pair — that is what makes the per-layer curvature exactly
compensate a rescaling of any normalized layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, loss, nn
from .errors import CapacityError, ContractError, DegenerateError, DomainError, ShapeError

FISHER_EXACT = "fisher_exact"
GAUSS_NEWTON = "gauss_newton"
GENERALIZED_GN = "generalized_gn"
CURVATURE_KINDS = (FISHER_EXACT, GAUSS_NEWTON, GENERALIZED_GN)

CLASS_CAP = 16


def _curvature_mode(spec: nn.NetworkSpec) -> str:
    return "train" if spec.has_bn else "eval"


def per_example_param_jacobians(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-example output/parameter Jacobians: (logits, n x k x P).

    Without BN the forward runs in eval mode and the k output seeds share
    one stacked backward.  With BN it runs in train mode and every
    (example, output) pair is seeded separately, so each Jacobian includes
    the example's influence on the batch statistics.
    """
    logits, trace = nn.forward(spec, params, x, mode=_curvature_mode(spec))
    return logits, nn.param_jacobian(spec, params, trace)


def dense_curvature(
    kind: str,
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
    loss_kind: str = loss.CROSS_ENTROPY,
) -> np.ndarray:
    """Dense P x P curvature over the canonical flattening, batch-averaged:
    `curvature_from_jacobians` of the exact per-example Jacobians."""
    return curvature_from_jacobians(kind, *per_example_param_jacobians(spec, params, x), loss_kind)


def curvature_from_jacobians(
    kind: str,
    logits: np.ndarray,
    jac: np.ndarray,
    loss_kind: str = loss.CROSS_ENTROPY,
) -> np.ndarray:
    """Dense P x P curvature from a batch's logits (n x k) and per-example
    Jacobians (n x k x P), as `per_example_param_jacobians` returns them;
    each kind is one product over the Jacobians flattened to nk x P.

    gauss_newton:    E[J^T J]
    generalized_gn:  E[J^T H J] with H the output-layer loss Hessian
    fisher_exact:    E_x sum_y p(y|x) grad log p(y|x) grad log p(y|x)^T,
                     summing classes for cross-entropy and integrating the
                     unit-variance Gaussian analytically for squared error
    Under squared error H = I, so every kind is the GN.
    """
    if kind not in CURVATURE_KINDS:
        raise DomainError(f"unknown curvature kind {kind!r}")
    if loss_kind not in loss.LOSS_KINDS:
        raise DomainError(f"unknown loss kind {loss_kind!r}")
    n, k, p_count = jac.shape
    flat = jac.reshape(n * k, p_count)

    if kind == GAUSS_NEWTON or loss_kind == loss.SQUARED_ERROR:
        c = flat.T @ flat / n
    elif kind == GENERALIZED_GN:
        c = flat.T @ (loss.output_hessian(logits) @ jac).reshape(n * k, p_count) / n
    else:  # cross-entropy fisher_exact, summing classes
        if k > CLASS_CAP:
            raise CapacityError(f"fisher_exact sums over {k} classes, cap is {CLASS_CAP}")
        probs = loss.softmax(logits)
        # row y of example i is its class score (e_y - p_i)^T J_i
        scores = ((np.eye(k) - probs[:, None, :]) @ jac).reshape(n * k, p_count)
        c = scores.T @ (probs.reshape(n * k, 1) * scores) / n
    return (c + c.T) / 2.0


# --- Kronecker factors ------------------------------------------------------


@dataclass(frozen=True)
class FactorSpectrum:
    """One layer's factor spectrum at an inversion: the eigenvalue extremes
    of A and S and the damping relative to the mean eigenvalue of S (x) A."""

    a_eig_min: float
    a_eig_max: float
    s_eig_min: float
    s_eig_max: float
    damping_ratio: float


@dataclass
class KfacFactors:
    """Per-layer Kronecker factors with their (possibly stale) inverses.

    a_factors[l] is the input second moment of layer l (in x in, as the net
    is bias-free); s_factors[l] the pre-activation-gradient second moment.
    inverses[l], computed at inversion time and deliberately stale until the
    next inversion, holds the factored Tikhonov pair ((S + sqrt(lam) I)^-1,
    (A + sqrt(lam) I)^-1).
    """

    a_factors: list[np.ndarray]
    s_factors: list[np.ndarray]
    inverses: list[tuple[np.ndarray, np.ndarray]] | None = None

    @staticmethod
    def zeros(spec: nn.NetworkSpec) -> "KfacFactors":
        a_factors, s_factors = [], []
        for l in range(spec.n_layers):
            out, inp = spec.weight_shape(l)
            a_factors.append(np.zeros((inp, inp)))
            s_factors.append(np.zeros((out, out)))
        return KfacFactors(a_factors=a_factors, s_factors=s_factors)


def estimate_kfac_factors(
    metric: str,
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    trace: nn.ForwardTrace,
    rng: np.random.Generator | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batch estimates of (A_l, S_l) for every layer from a train-mode forward.

    A_l is the second moment of the layer inputs.  S_l under the "fisher"
    metric is the second moment of back-propagated cross-entropy gradients
    at model-sampled targets (per example, no 1/n); under "gn" it sums over the
    k output seeds of a stacked backward.  BN networks use the ordinary batched
    backward here — these are running-statistic estimates, not oracles.
    """
    if metric not in ("fisher", "gn"):
        raise DomainError(f"metric must be 'fisher' or 'gn', got {metric!r}")
    if metric == "fisher" and rng is None:
        raise DomainError("fisher factors need an rng for target sampling")
    if trace.mode != "train":
        raise ContractError("factor estimates need a train-mode forward trace")
    logits = trace.logits
    n, k = logits.shape
    s_sums = [np.zeros((spec.layer_dims[l + 1], spec.layer_dims[l + 1])) for l in range(spec.n_layers)]

    if metric == "gn":
        seeds = nn.output_seeds(n, k)
        for chunk in nn.seed_chunks(k, n):
            s_grads, _ = nn.vjp(spec, params, trace, seeds[chunk])
            for j in range(chunk.stop - chunk.start):
                for l in range(spec.n_layers):
                    g = s_grads[l][j]
                    s_sums[l] += g.T @ g
    else:
        probs = loss.softmax(logits)
        y = loss.sample_targets(probs, rng)
        s_grads, _ = nn.vjp(spec, params, trace, probs - np.eye(k)[y])
        for l in range(spec.n_layers):
            s_sums[l] += s_grads[l].T @ s_grads[l]

    return [(a.T @ a / n, s / n) for a, s in zip(trace.layer_inputs, s_sums)]


def update_factors_ema(
    state: KfacFactors,
    fresh: list[tuple[np.ndarray, np.ndarray]],
    decay: float,
) -> KfacFactors:
    """factor <- decay * factor + (1 - decay) * fresh, in place.

    Stored inverses are left untouched: staleness between refreshes is part
    of the update scheme, not an accident.
    """
    if not 0.0 <= decay < 1.0:
        raise DomainError(f"decay must be in [0, 1), got {decay}")
    if len(fresh) != len(state.a_factors):
        raise ShapeError(f"{len(fresh)} fresh factor pairs for {len(state.a_factors)} layers")
    for l, (a_new, s_new) in enumerate(fresh):
        if a_new.shape != state.a_factors[l].shape or s_new.shape != state.s_factors[l].shape:
            raise ShapeError(
                f"layer {l}: fresh factor shapes {a_new.shape}/{s_new.shape} do not match "
                f"state {state.a_factors[l].shape}/{state.s_factors[l].shape}"
            )
        for f, f_new in ((state.a_factors[l], a_new), (state.s_factors[l], s_new)):
            f *= decay  # the arithmetic of decay * f + (1 - decay) * f_new, in f's buffer
            f += (1.0 - decay) * f_new
    return state


def invert_factors(state: KfacFactors, lam: float) -> list[FactorSpectrum]:
    """Store every layer's factored Tikhonov inverses ((S + sqrt(lam) I)^-1,
    (A + sqrt(lam) I)^-1) for preconditioning, and return the layers' factor
    spectra from the same eigendecompositions.

    The previous inverses are dropped before the new ones are built, so the
    two sets are never held together.  An eigendecomposition that raises
    (NumericalError for a non-finite factor) therefore leaves no inverses;
    training turns that error into TrainingDiverged, so nothing reads them
    afterwards."""
    if lam <= 0.0:
        raise DomainError(f"damping must be positive, got {lam}")
    root = np.sqrt(lam)
    state.inverses = None
    inverses, spectra = [], []
    for a, s in zip(state.a_factors, state.s_factors):
        ea, es = linalg.sym_eig(a), linalg.sym_eig(s)
        qa, qs = ea.eigenvectors, es.eigenvectors
        inverses.append(((qs / (es.eigenvalues + root)) @ qs.T,
                         (qa / (ea.eigenvalues + root)) @ qa.T))
        # the eigenvalues of S (x) A are all products mu_S mu_A, so their
        # mean is the product of the factors' means
        mean_sa = float(np.mean(ea.eigenvalues)) * float(np.mean(es.eigenvalues))
        spectra.append(FactorSpectrum(
            a_eig_min=float(ea.eigenvalues[0]), a_eig_max=float(ea.eigenvalues[-1]),
            s_eig_min=float(es.eigenvalues[0]), s_eig_max=float(es.eigenvalues[-1]),
            damping_ratio=lam / mean_sa if mean_sa > 0.0 else float("inf"),
        ))
    state.inverses = inverses
    return spectra


def apply_preconditioner(state: KfacFactors, layer: int, grad) -> np.ndarray:
    """Apply the stored inverse of (S_l + sqrt(lam) I) (x) (A_l + sqrt(lam) I)
    to a layer gradient: S^-1 V A^-1, writing S and A for the damped factors.

    `grad` is either the out x in matrix V, laid out like the weight matrix,
    or the pair (ds, a) of its thin factors V = ds^T a: ds the n x out
    pre-activation gradients, a the n x in layer inputs.  A minibatch
    gradient has rank at most n, so the pair route never forms V: it
    computes (S^-1 ds^T)(a A^-1).
    Where n >= out (a narrow output layer) the n x out product is taken
    first instead, which is the cheaper order there.
    """
    if state.inverses is None:
        raise ContractError("factors have not been inverted yet")
    s_inv, a_inv = state.inverses[layer]
    want = (s_inv.shape[0], a_inv.shape[0])
    if isinstance(grad, tuple):
        ds, a = (np.asarray(m, dtype=np.float64) for m in grad)
        if (ds.ndim != 2 or a.ndim != 2 or ds.shape[0] != a.shape[0]
                or (ds.shape[1], a.shape[1]) != want):
            raise ShapeError(
                f"layer {layer}: gradient factors {ds.shape}/{a.shape} do not match factors "
                f"({want[0]} x {want[1]})"
            )
        left = s_inv @ ds.T
        # a A^-1 costs n in^2, V A^-1 out in^2
        return left @ (a @ a_inv) if ds.shape[0] < want[0] else (left @ a) @ a_inv
    v = np.asarray(grad, dtype=np.float64)
    if v.shape != want:
        raise ShapeError(
            f"layer {layer}: gradient shape {v.shape} does not match factors "
            f"({want[0]} x {want[1]})"
        )
    return s_inv @ v @ a_inv


# --- metric norms -----------------------------------------------------------


def gn_norm(spec: nn.NetworkSpec, params: nn.NetworkParams, x) -> float | np.ndarray:
    """theta^T G theta for bias-free piecewise-linear nets, evaluated as
    (L+1)^2 * mean ||f(x)||^2 — the positive-homogeneity shortcut.  A stack
    of nets gives one value per net."""
    logits, _ = nn.forward(spec, params, x, mode="eval")
    depth_plus_1 = spec.n_layers
    norms = depth_plus_1**2 * np.mean(np.sum(logits * logits, axis=-1), axis=-1)
    return norms if logits.ndim == 3 else float(norms)


def gn_norm_gradient(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
) -> np.ndarray:
    """Gradient of theta^T G theta with G frozen: 2 (L+1) G theta, flattened."""
    g = dense_curvature(GAUSS_NEWTON, spec, params, x)
    theta = nn.flatten_params(spec, params)
    return 2.0 * spec.n_layers * (g @ theta)


def normalized_traces(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
    layer: int,
) -> tuple[float, float]:
    """(gn, fisher) traces of the layer's curvature block, scaled by ||theta_l||^2.

    Each is ||theta_l||^2 * tr(C_ll) at the current weights.  On a BN-covered
    layer that is the trace at theta_l / ||theta_l||, by the inverse-square
    scaling of its curvature under rescaling; on any other layer it is not.
    gn seeds each output c; the exact Fisher's seeds e_c - p backpropagate
    to ds_c - ds_p, so the softmax p joins the same stack as one more seed.
    BN networks are differentiated in train mode, each example seeded on its
    own row, so both traces are invariant to rescaling a normalized layer.
    """
    if not 0 <= layer < spec.n_layers:
        raise ShapeError(f"no layer {layer} in a {spec.n_layers}-layer network")
    norm_sq = float(np.sum(params.weights[layer] ** 2))
    if norm_sq == 0.0:
        raise DegenerateError(f"layer {layer} has zero norm; its direction is undefined")

    xm = np.asarray(x, dtype=np.float64)
    logits, trace = nn.forward(spec, params, xm, mode=_curvature_mode(spec))
    n, k = logits.shape
    if k > CLASS_CAP:
        raise CapacityError(f"fisher trace sums over {k} classes, cap is {CLASS_CAP}")
    probs = loss.softmax(logits)

    gn_raw = fisher_raw = 0.0
    a = trace.layer_inputs[layer]
    if spec.has_bn:
        # ||ds^T a||_F^2 = sum((ds ds^T) * (a a^T)), so no per-seed weight
        # gradient is formed
        gram = a @ a.T
        blocks = np.concatenate([np.broadcast_to(np.eye(k), (n, k, k)), probs[:, None, :]], axis=1)
        for ex in nn.seed_chunks(n, (k + 1) * n):
            s_grads, _ = nn.vjp(spec, params, trace, nn.example_seeds(blocks, ex), lowest=layer)
            ds = s_grads[layer].reshape(-1, k + 1, n, spec.layer_dims[layer + 1])
            # per example: the k gn seeds' ds, then the k Fisher seeds' ds_c - ds_p
            ds = np.concatenate([ds[:, :k], ds[:, :k] - ds[:, k:]], axis=1).reshape(-1, n, ds.shape[-1])
            ssq = np.sum((ds @ ds.transpose(0, 2, 1)) * gram, axis=(1, 2)).reshape(-1, 2, k)
            gn_raw += float(np.sum(ssq[:, 0].ravel()))
            fisher_raw += float(np.sum(probs[ex] * ssq[:, 1]))
    else:
        a_sq = np.sum(a * a, axis=1)
        ds_p = nn.vjp(spec, params, trace, probs, lowest=layer)[0][layer]
        seeds = nn.output_seeds(n, k)
        for chunk in nn.seed_chunks(k, n):
            ds = nn.vjp(spec, params, trace, seeds[chunk], lowest=layer)[0][layer]
            g_sq = np.sum(ds**2, axis=-1)
            f_sq = np.sum((ds - ds_p) ** 2, axis=-1)
            for j, c in enumerate(range(chunk.start, chunk.stop)):
                gn_raw += float(np.sum(g_sq[j] * a_sq))
                fisher_raw += float(np.sum(probs[:, c] * f_sq[j] * a_sq))
    return norm_sq * (gn_raw / n), norm_sq * (fisher_raw / n)
