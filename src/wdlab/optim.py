"""Optimizers with three regularization couplings, and reference one-step
updates for networks whose layers are scale-invariant.

Couplings:
  none          plain gradient step
  l2            beta * theta joins the gradient *before* preconditioning /
                adaptation, so the optimizer's metric shapes the pull to zero
  weight_decay  masked weights are shrunk by eta * beta in the same update,
                untouched by the preconditioner

The coupling and the layer mask are applied in one place, `_update`; SGD,
Adam and K-FAC differ only in the direction they take from a layer's
gradient, the (ds, a) pair of `nn.vjp` whose weight gradient is ds^T a.
Every net is bias-free, so a layer's weight matrix is all it moves, in the
out x in layout of K-FAC's factors.  No step runs the network: K-FAC reads
its factor statistics from the caller's forward trace.

For momentum-free SGD the two couplings are mathematically identical; both
are routed through literally the same arithmetic so trajectories agree to
the last bit.  For Adam and K-FAC they genuinely differ whenever the
preconditioner is not a multiple of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, linalg, nn
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


# --- the one update rule ----------------------------------------------------


def _update(state, params: nn.NetworkParams, grads, coupling: Coupling, direction=None):
    """Move each layer's W by -eta * direction(l, grad) under the coupling.

    grads[l] is layer l's (ds, a) pair; grad is the formed ds^T a, but K-FAC
    gets the pair unless l2 makes it full rank.  l2 adds beta W before the
    direction, weight_decay subtracts eta beta W after it.  direction=None is
    momentum-free SGD, whose step is grad; there l2 runs as weight_decay, the
    same update, so the two agree bit for bit."""
    _check_decay_stability(state.eta, coupling)
    mask = coupling.layer_mask(len(params.weights))
    new = nn.NetworkParams(weights=[])
    for l, (ds, a) in enumerate(grads):
        w = params.weights[l]
        beta = coupling.beta if coupling.mode != COUPLING_NONE and mask[l] else 0.0
        l2 = beta != 0.0 and coupling.mode == COUPLING_L2 and direction is not None
        grad = (ds, a)
        if l2 or not isinstance(state, KfacState):
            grad = ds.T @ a
            if l2:
                grad += beta * w
        step = grad if direction is None else direction(l, grad)
        moved = w - state.eta * step
        if beta != 0.0 and not l2:
            moved -= (state.eta * beta) * w
        new.weights.append(moved)
    return new


# --- SGD --------------------------------------------------------------------


@dataclass
class SgdState:
    eta: float
    momentum: float = 0.0
    velocities: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise DomainError(f"learning rate must be positive, got {self.eta}")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")


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
        state.velocities = [0.0] * len(params.weights)  # weight-shaped once stepped

    def velocity(l, g):
        state.velocities[l] = state.momentum * state.velocities[l] + g
        return state.velocities[l]

    return _update(state, params, grads, coupling, velocity)


# --- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise DomainError(f"learning rate must be positive, got {self.eta}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DomainError("Adam moment decays must lie in [0, 1)")


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
    factor spectra) for every inversion so far; gaps are step differences.
    """

    metric: str
    eta: float
    lam: float = 1e-3
    t_stats: int = 10
    t_inv: int = 100
    factor_decay: float = 0.95
    rng: np.random.Generator | None = None
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
        if self.metric == "fisher" and self.rng is None:
            raise DomainError("the fisher metric needs an rng for target sampling")


def kfac_step(
    state: KfacState,
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    trace: nn.ForwardTrace,
    grads,
    coupling: Coupling = Coupling(),
) -> nn.NetworkParams:
    """One K-FAC step from a minibatch's train-mode forward `trace` and its
    per-layer (ds, a) cross-entropy gradient pairs.

    The trace feeds the factor statistics when they are due; each inversion
    appends the layers' factor spectra to `state.health`.  The direction is
    the gradient preconditioned by the stored factored Tikhonov inverses, which
    take a layer's rank-n gradient as its thin factors (ds, a) unless an l2
    term made it full rank.
    """
    _check_decay_stability(state.eta, coupling)  # before the rng draws
    if state.factors is None:
        state.factors = curvature.KfacFactors.zeros(spec)
    if state.step % state.t_stats == 0:
        fresh = curvature.estimate_kfac_factors(state.metric, spec, params, trace, rng=state.rng)
        curvature.update_factors_ema(state.factors, fresh, state.factor_decay)
        del fresh  # the batch estimates are not held through the inversion
    if state.step % state.t_inv == 0:
        state.health.append((state.step, curvature.invert_factors(state.factors, state.lam)))

    def precondition(l, grad):
        pre = curvature.apply_preconditioner(state.factors, l, grad)
        if not np.all(np.isfinite(pre)):
            raise NumericalError(f"layer {l}: preconditioned gradient is not finite")
        return pre

    new = _update(state, params, grads, coupling, precondition)
    state.step += 1
    return new


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
) -> np.ndarray:
    """First-order SGD update of a scale-invariant layer's direction:
    subtract eta / norm^2 times the tangentially projected gradient.  The
    bare first-order point is returned, not renormalized: its gap to the
    true next direction is the quadratic-in-eta residual that the scaling
    checks measure."""
    if norm_l <= 0:
        raise DegenerateError(f"layer norm must be positive, got {norm_l}")
    v = _check_unit(theta_hat)
    g = np.asarray(grad_at_theta_hat, dtype=np.float64).ravel()
    if g.shape != v.shape:
        raise ShapeError(f"gradient shape {g.shape} != direction shape {v.shape}")
    tangent = g - (v @ g) * v
    return v - (eta / norm_l**2) * tangent


def reference_normalized_kfac_step(
    theta_hat,
    norm_l: float,
    c_at_theta_hat,
    lam: float,
    grad_at_theta_hat,
    eta: float,
) -> np.ndarray:
    """First-order preconditioned update of a scale-invariant layer's
    direction: the tangential projection of (C(theta_hat) + norm^2 lam I)^-1
    grad, as the bare first-order point (not renormalized) that the
    quadratic-residual scaling checks measure.  The effective damping grows
    with the squared layer norm."""
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
    return v - eta * step
