"""Optimizers with three regularization couplings, and reference one-step
updates for networks whose layers are scale-invariant.

Couplings:
  none          plain gradient step
  l2            beta * theta joins the gradient *before* preconditioning /
                adaptation, so the optimizer's metric shapes the pull to zero
  weight_decay  masked weights are shrunk by eta * beta in the same update,
                untouched by the preconditioner

The coupling, the layer mask and the bias are applied in one place,
`_update`; SGD, Adam and K-FAC differ only in the direction they take from
a layer's gradient, the (ds, a) pair of `nn.vjp` (weight gradient ds^T a,
bias gradient the column sums of ds).  Every layer moves as the out x in(+1)
matrix [W b], the layout of K-FAC's factors.  Decay only ever touches W;
bias vectors always take the plain step.

For momentum-free SGD the two couplings are mathematically identical; both
are routed through literally the same arithmetic so trajectories agree to
the last bit.  For Adam and K-FAC they genuinely differ whenever the
preconditioner is not a multiple of the identity.
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


# --- the one update rule ----------------------------------------------------


def _update(state, params: nn.NetworkParams, grads, coupling: Coupling, direction=None):
    """Move each layer's [W b] by -eta * direction(l, grad) under the coupling.

    grads[l] is layer l's (ds, a) pair; grad is the formed [ds^T a, ds summed
    over rows], but K-FAC gets the pair unless l2 makes it full rank.  l2 adds
    beta [W 0] before the direction, weight_decay subtracts eta beta [W 0]
    after it.  direction=None is momentum-free SGD, whose step is grad; there
    l2 runs as weight_decay, the same update, so the two agree bit for bit."""
    _check_decay_stability(state.eta, coupling)
    mask = coupling.layer_mask(len(params.weights))
    bias = params.biases is not None
    new = nn.NetworkParams(weights=[], biases=[] if bias else None)
    for l, (ds, a) in enumerate(grads):
        w = params.weights[l]
        cols = slice(0, w.shape[1])
        beta = coupling.beta if coupling.mode != COUPLING_NONE and mask[l] else 0.0
        l2 = beta != 0.0 and coupling.mode == COUPLING_L2 and direction is not None
        grad = (ds, a)
        if l2 or not isinstance(state, KfacState):
            grad = ds.T @ a
            if bias:
                grad = np.hstack([grad, ds.sum(axis=0)[:, None]])
            if l2:
                grad[:, cols] += beta * w
        step = grad if direction is None else direction(l, grad)
        moved = (np.hstack([w, params.biases[l][:, None]]) if bias else w) - state.eta * step
        if beta != 0.0 and not l2:
            moved[:, cols] -= (state.eta * beta) * w
        new.weights.append(moved[:, cols].copy() if bias else moved)
        if bias:
            new.biases.append(moved[:, -1].copy())
    return new


# --- SGD --------------------------------------------------------------------


@dataclass
class SgdState:
    eta: float
    schedule: tuple[int, ...] = ()
    momentum: float = 0.0
    base_eta: float = field(init=False)
    velocities: list[np.ndarray] | None = None  # [W b] layout

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
    """One SGD step on per-layer (ds, a) gradient pairs.  Without momentum
    both couplings share one code path, W - eta*g - (eta*beta)*W, which is
    what makes their trajectories bit-identical; with momentum the l2 term
    feeds the velocity buffer while weight decay stays outside it."""
    if state.momentum == 0.0:
        return _update(state, params, grads, coupling)
    if state.velocities is None:
        state.velocities = [0.0] * len(params.weights)  # [W b]-shaped once stepped

    def velocity(l, g):
        state.velocities[l] = state.momentum * state.velocities[l] + g
        return state.velocities[l]

    return _update(state, params, grads, coupling, velocity)


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
    m: list[np.ndarray] | None = None  # [W b] layout, like v
    v: list[np.ndarray] | None = None

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
    """One Adam step with bias-corrected moments on per-layer (ds, a)
    gradient pairs.  l2 feeds beta*W into the moments; weight_decay shrinks
    masked weights by eta*beta outside the adaptive machinery."""
    if state.m is None:
        state.m, state.v = [0.0] * len(params.weights), [0.0] * len(params.weights)
    t = state.step + 1
    corr1 = 1.0 - state.beta1**t
    corr2 = 1.0 - state.beta2**t

    def moments(l, g):
        state.m[l] = state.beta1 * state.m[l] + (1 - state.beta1) * g
        state.v[l] = state.beta2 * state.v[l] + (1 - state.beta2) * g * g
        return (state.m[l] / corr1) / (np.sqrt(state.v[l] / corr2) + state.eps)

    new = _update(state, params, grads, coupling, moments)
    state.step = t
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
    `state.health`.  The direction is the gradient preconditioned by the
    stored damped factor inverses, which take a layer's rank-n gradient as
    its thin factors (ds, a) unless an l2 term made it full rank.
    """
    _check_decay_stability(state.eta, coupling)  # before the rng draws
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

    def precondition(l, grad):
        if isinstance(grad, tuple):  # the factors' a carries the column of ones
            grad = (grad[0], curvature._augment_inputs(spec, grad[1]))
        pre = curvature.apply_preconditioner(state.factors, l, grad)
        if not np.all(np.isfinite(pre)):
            raise NumericalError(f"layer {l}: preconditioned gradient is not finite")
        return pre

    new = _update(state, params, list(zip(s_grads, trace.layer_inputs)), coupling, precondition)
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
