"""Optimizers with three regularization couplings, and reference one-step
updates for networks whose layers are scale-invariant.

Couplings:
  none          plain gradient step
  l2            beta * theta joins the gradient *before* preconditioning /
                adaptation, so the optimizer's metric shapes the pull to zero
  weight_decay  masked weights are shrunk by eta * beta in the same update,
                untouched by the preconditioner

For momentum-free SGD the two couplings are mathematically identical; both
are routed through literally the same arithmetic so trajectories agree to
the last bit.  For Adam and K-FAC they genuinely differ whenever the
preconditioner is not a multiple of the identity.

Decay only ever touches weight matrices; bias vectors always take the plain
gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, linalg, loss, nn
from .errors import (
    ContractError,
    DegenerateError,
    DomainError,
    InstabilityError,
    NumericalError,
    ShapeError,
)

COUPLING_NONE = "none"
COUPLING_L2 = "l2"
COUPLING_WD = "weight_decay"
COUPLING_MODES = (COUPLING_NONE, COUPLING_L2, COUPLING_WD)

MASK_PRESETS = ("all", "hidden_only", "output_only", "none")


@dataclass(frozen=True)
class Coupling:
    """Which regularizer, how strong, and which layers it touches."""

    mode: str = COUPLING_NONE
    beta: float = 0.0
    mask: tuple[bool, ...] | None = None  # None means every layer

    def __post_init__(self):
        if self.mode not in COUPLING_MODES:
            raise DomainError(f"unknown coupling mode {self.mode!r}")
        if self.beta < 0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")
        if self.mask is not None:
            object.__setattr__(self, "mask", tuple(bool(b) for b in self.mask))

    def layer_mask(self, n_layers: int) -> tuple[bool, ...]:
        if self.mask is None:
            return tuple(True for _ in range(n_layers))
        if len(self.mask) != n_layers:
            raise ShapeError(f"mask has {len(self.mask)} entries for {n_layers} layers")
        return self.mask


def mask_preset(name: str, n_layers: int) -> tuple[bool, ...]:
    """Layer masks for the standard decay regimes."""
    if name == "all":
        return tuple(True for _ in range(n_layers))
    if name == "none":
        return tuple(False for _ in range(n_layers))
    if name == "hidden_only":
        return tuple(l < n_layers - 1 for l in range(n_layers))
    if name == "output_only":
        return tuple(l == n_layers - 1 for l in range(n_layers))
    raise DomainError(f"unknown mask preset {name!r}; choose from {MASK_PRESETS}")


def _check_decay_stability(eta: float, coupling: Coupling) -> None:
    if coupling.mode != COUPLING_NONE and eta * coupling.beta >= 1.0:
        raise InstabilityError(
            f"eta * beta = {eta * coupling.beta:.3g} >= 1 would flip or kill the weights"
        )


def _extract_grads(grads) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    if hasattr(grads, "weight_grads"):
        return grads.weight_grads, grads.bias_grads
    return list(grads), None


# --- learning-rate schedule -------------------------------------------------


def apply_lr_schedule(state, epoch: int):
    """eta = base_eta / 10^(number of schedule epochs <= epoch); idempotent."""
    drops = sum(1 for s in state.schedule if s <= epoch)
    state.eta = state.base_eta / (10.0**drops)
    return state


def _normalize_schedule(schedule) -> tuple[int, ...]:
    sched = tuple(int(s) for s in schedule)
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise DomainError(f"schedule epochs must be strictly ascending, got {sched}")
    return sched


# --- SGD --------------------------------------------------------------------


@dataclass
class SgdState:
    eta: float
    schedule: tuple[int, ...] = ()
    momentum: float = 0.0
    base_eta: float = field(init=False)
    velocities: list[np.ndarray] | None = None
    bias_velocities: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise DomainError(f"learning rate must be positive, got {self.eta}")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")
        self.schedule = _normalize_schedule(self.schedule)
        self.base_eta = self.eta


def sgd_step(
    state: SgdState,
    params: nn.NetworkParams,
    grads,
    coupling: Coupling = Coupling(),
) -> nn.NetworkParams:
    """One SGD step.  With zero momentum both couplings share one code path:
    W - eta*g - (eta*beta)*W, which is what makes their trajectories
    bit-identical; with momentum the l2 term feeds the velocity buffer while
    weight decay stays outside it."""
    _check_decay_stability(state.eta, coupling)
    wgrads, bgrads = _extract_grads(grads)
    n_layers = len(params.weights)
    mask = coupling.layer_mask(n_layers)
    eta = state.eta
    new = params.copy()

    if state.momentum == 0.0:
        for l in range(n_layers):
            step = eta * wgrads[l]
            if coupling.mode != COUPLING_NONE and mask[l] and coupling.beta != 0.0:
                new.weights[l] = params.weights[l] - step - (eta * coupling.beta) * params.weights[l]
            else:
                new.weights[l] = params.weights[l] - step
    else:
        if state.velocities is None:
            state.velocities = [np.zeros_like(w) for w in params.weights]
        for l in range(n_layers):
            g = wgrads[l]
            if coupling.mode == COUPLING_L2 and mask[l] and coupling.beta != 0.0:
                g = g + coupling.beta * params.weights[l]
            state.velocities[l] = state.momentum * state.velocities[l] + g
            new.weights[l] = params.weights[l] - eta * state.velocities[l]
            if coupling.mode == COUPLING_WD and mask[l] and coupling.beta != 0.0:
                new.weights[l] = new.weights[l] - (eta * coupling.beta) * params.weights[l]

    if bgrads is not None and new.biases is not None:
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


# --- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    eta: float
    schedule: tuple[int, ...] = ()
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_eta: float = field(init=False)
    step: int = 0
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None
    m_bias: list[np.ndarray] | None = None
    v_bias: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise DomainError(f"learning rate must be positive, got {self.eta}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DomainError("Adam moment decays must lie in [0, 1)")
        self.schedule = _normalize_schedule(self.schedule)
        self.base_eta = self.eta


def adam_step(
    state: AdamState,
    params: nn.NetworkParams,
    grads,
    coupling: Coupling = Coupling(),
) -> nn.NetworkParams:
    """One Adam step with bias-corrected moments.  l2 feeds beta*W into the
    moments; weight_decay shrinks masked weights by eta*beta outside the
    adaptive machinery."""
    _check_decay_stability(state.eta, coupling)
    wgrads, bgrads = _extract_grads(grads)
    n_layers = len(params.weights)
    mask = coupling.layer_mask(n_layers)
    if state.m is None:
        state.m = [np.zeros_like(w) for w in params.weights]
        state.v = [np.zeros_like(w) for w in params.weights]
    state.step += 1
    t = state.step
    corr1 = 1.0 - state.beta1**t
    corr2 = 1.0 - state.beta2**t
    eta = state.eta
    new = params.copy()
    for l in range(n_layers):
        g = wgrads[l]
        if coupling.mode == COUPLING_L2 and mask[l] and coupling.beta != 0.0:
            g = g + coupling.beta * params.weights[l]
        state.m[l] = state.beta1 * state.m[l] + (1 - state.beta1) * g
        state.v[l] = state.beta2 * state.v[l] + (1 - state.beta2) * g * g
        direction = (state.m[l] / corr1) / (np.sqrt(state.v[l] / corr2) + state.eps)
        new.weights[l] = params.weights[l] - eta * direction
        if coupling.mode == COUPLING_WD and mask[l] and coupling.beta != 0.0:
            new.weights[l] = new.weights[l] - (eta * coupling.beta) * params.weights[l]

    if bgrads is not None and new.biases is not None:
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


# --- K-FAC ------------------------------------------------------------------


@dataclass
class KfacState:
    """Kronecker-factored natural-gradient optimizer state.

    metric "fisher" estimates S from model-sampled targets; "gn" from output
    seeds.  Factors refresh by EMA every t_stats steps and their inverses
    every t_inv steps; step 0 forces both.  health holds (step, per-layer
    factor spectra) for every inversion so far.
    """

    metric: str
    eta: float
    lam: float = 1e-3
    schedule: tuple[int, ...] = ()
    t_stats: int = 10
    t_inv: int = 100
    factor_decay: float = 0.95
    damping_mode: str = "factored"
    rng: np.random.Generator | None = None
    base_eta: float = field(init=False)
    step: int = 0
    factors: curvature.KfacFactors | None = None
    health: list[tuple[int, list[curvature.FactorSpectrum]]] = field(default_factory=list)

    def __post_init__(self):
        if self.metric not in ("fisher", "gn"):
            raise DomainError(f"metric must be 'fisher' or 'gn', got {self.metric!r}")
        if self.eta <= 0:
            raise DomainError(f"learning rate must be positive, got {self.eta}")
        if self.lam <= 0:
            raise DomainError(f"damping must be positive, got {self.lam}")
        if self.t_stats < 1 or self.t_inv < 1:
            raise DomainError("update intervals must be at least 1")
        self.schedule = _normalize_schedule(self.schedule)
        self.base_eta = self.eta
        if self.metric == "fisher" and self.rng is None:
            raise DomainError("the fisher metric needs an rng for target sampling")


def kfac_step(
    state: KfacState,
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    batch: tuple,
    coupling: Coupling = Coupling(),
    bn_state: nn.BnState | None = None,
) -> tuple[nn.NetworkParams, float]:
    """One K-FAC step on an (inputs, integer labels) batch under
    cross-entropy: (new params, batch loss).

    One train-mode forward serves the loss, its gradient and, when due, the
    factor statistics; each inversion appends the layers' factor spectra to
    `state.health`.  The gradient is preconditioned per layer by the stored
    damped factor inverses; l2 adds beta*W to the gradient before
    preconditioning while weight_decay subtracts eta*beta*W after.  A layer
    without an l2 term hands the preconditioner the thin factors (ds, a) of
    its rank-n gradient ds^T a, so the full gradient is never formed; a layer
    with one forms ds^T a (with the bias column) and adds beta*W, which is
    full rank.
    """
    _check_decay_stability(state.eta, coupling)
    x, targets = batch
    if state.factors is None:
        state.factors = curvature.KfacFactors.zeros(spec)

    logits, trace = nn.forward(spec, params, x, mode="train", bn_state=bn_state)
    if state.step % state.t_stats == 0:
        fresh = curvature.estimate_kfac_factors(state.metric, spec, params, trace, rng=state.rng)
        curvature.update_factors_ema(state.factors, fresh, state.factor_decay)
    if state.step % state.t_inv == 0:
        curvature.invert_factors(state.factors, state.lam, state.damping_mode)
        state.health.append((state.step, state.factors.spectra))

    value, dl_dz = loss.loss_and_grad(loss.CROSS_ENTROPY, logits, targets)
    s_grads, _ = nn.vjp(spec, params, trace, dl_dz)

    mask = coupling.layer_mask(spec.n_layers)
    eta = state.eta
    new = params.copy()
    for l in range(spec.n_layers):
        ds, a = s_grads[l], trace.layer_inputs[l]
        if coupling.mode == COUPLING_L2 and mask[l] and coupling.beta != 0.0:
            grad = ds.T @ a
            if spec.use_bias:
                grad = np.hstack([grad, ds.sum(axis=0)[:, None]])
                grad = grad + coupling.beta * np.hstack(
                    [params.weights[l], np.zeros((grad.shape[0], 1))]
                )
            else:
                grad = grad + coupling.beta * params.weights[l]
        else:
            grad = (ds, curvature._augment_inputs(spec, a))
        pre = curvature.apply_preconditioner(state.factors, l, grad)
        if not np.all(np.isfinite(pre)):
            raise NumericalError(f"layer {l}: preconditioned gradient is not finite")
        if spec.use_bias:
            new.weights[l] = params.weights[l] - eta * pre[:, :-1]
            new.biases[l] = params.biases[l] - eta * pre[:, -1]
        else:
            new.weights[l] = params.weights[l] - eta * pre
        if coupling.mode == COUPLING_WD and mask[l] and coupling.beta != 0.0:
            new.weights[l] = new.weights[l] - (eta * coupling.beta) * params.weights[l]

    state.factors.steps_since_inversion += 1
    state.step += 1
    return new, value


# --- reference normalized-direction updates ---------------------------------


def _check_unit(theta_hat: np.ndarray) -> np.ndarray:
    v = np.asarray(theta_hat, dtype=np.float64).ravel()
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-10:
        raise ContractError(f"direction must be unit norm within 1e-10, got {nrm!r}")
    return v


def reference_normalized_sgd_step(
    theta_hat,
    norm_l: float,
    grad_at_theta_hat,
    eta: float,
    renormalize: bool = True,
) -> np.ndarray:
    """First-order SGD update of a scale-invariant layer's direction:
    subtract eta / norm^2 times the tangentially projected gradient, then
    renormalize.  `renormalize=False` returns the bare first-order point,
    whose gap to the true next direction is the quadratic-in-eta residual
    that the scaling checks measure."""
    if norm_l <= 0:
        raise DegenerateError(f"layer norm must be positive, got {norm_l}")
    v = _check_unit(theta_hat)
    g = np.asarray(grad_at_theta_hat, dtype=np.float64).ravel()
    if g.shape != v.shape:
        raise ShapeError(f"gradient shape {g.shape} != direction shape {v.shape}")
    tangent = g - (v @ g) * v
    new = v - (eta / norm_l**2) * tangent
    return new / np.linalg.norm(new) if renormalize else new


def reference_normalized_kfac_step(
    theta_hat,
    norm_l: float,
    c_at_theta_hat,
    lam: float,
    grad_at_theta_hat,
    eta: float,
    renormalize: bool = True,
) -> np.ndarray:
    """First-order preconditioned update of a scale-invariant layer's
    direction: the tangential projection of (C(theta_hat) + norm^2 lam I)^-1
    grad, then renormalization (skipped when `renormalize=False`, as in the
    quadratic-residual scaling checks).  The effective damping grows with the
    squared layer norm."""
    if norm_l <= 0:
        raise DegenerateError(f"layer norm must be positive, got {norm_l}")
    if lam < 0:
        raise DomainError(f"damping must be nonnegative, got {lam}")
    v = _check_unit(theta_hat)
    g = np.asarray(grad_at_theta_hat, dtype=np.float64).ravel()
    if g.shape != v.shape:
        raise ShapeError(f"gradient shape {g.shape} != direction shape {v.shape}")
    c = np.asarray(c_at_theta_hat, dtype=np.float64)
    eig = linalg.sym_eig(c)  # validates shape and symmetry
    if eig.eigenvalues[0] < -1e-8 * max(1.0, float(np.linalg.norm(c))):
        raise DomainError(f"curvature must be PSD, min eigenvalue {eig.eigenvalues[0]:.3e}")
    m = c + (norm_l**2 * lam) * np.eye(v.size)
    try:
        precond = np.linalg.solve(m, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"damped curvature is singular: {exc}") from exc
    if not np.all(np.isfinite(precond)):
        raise NumericalError("preconditioned gradient is not finite")
    step = precond - (v @ precond) * v
    new = v - eta * step
    return new / np.linalg.norm(new) if renormalize else new
