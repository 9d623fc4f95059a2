"""Optimizer steps against closed-form arithmetic and dense oracles.

The defining behaviors under test: momentum-free SGD cannot distinguish the
two couplings (bit-for-bit over long runs); Adam and K-FAC must distinguish
them; K-FAC with fresh factors on a linear net takes the factored-damped
dense block natural-gradient step; the reference normalized-direction formulas predict actual
steps on BN networks up to a residual that shrinks quadratically in eta.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from helpers import loss_grad_pairs
from wdlab import curvature, loss, nn, optim
from wdlab.errors import (
    ContractError,
    DegenerateError,
    DomainError,
    InstabilityError,
    ShapeError,
)


def scalar_params(w=1.0):
    return nn.NetworkParams(weights=[np.array([[w]])])


def as_pairs(*grads):
    """Each gradient matrix G as the (ds, a) pair (G^T, I), so ds^T a = G exactly."""
    return [(g.T, np.eye(g.shape[1])) for g in grads]


# --- coupling plumbing ------------------------------------------------------


def test_coupling_validation_and_masks():
    with pytest.raises(DomainError):
        optim.Coupling(mode="ridge")
    with pytest.raises(DomainError):
        optim.Coupling(beta=-0.1)
    c = optim.Coupling(mode="l2", beta=0.1, mask=(True, False))
    assert c.layer_mask(2) == (True, False)
    with pytest.raises(ShapeError):
        c.layer_mask(3)
    assert optim.Coupling().layer_mask(3) == (True, True, True)


def test_mask_presets():
    assert optim.mask_preset("all", 3) == (True, True, True)
    assert optim.mask_preset("none", 3) == (False, False, False)
    assert optim.mask_preset("hidden_only", 3) == (True, True, False)
    assert optim.mask_preset("output_only", 3) == (False, False, True)
    with pytest.raises(DomainError):
        optim.mask_preset("conv_only", 3)


# --- SGD --------------------------------------------------------------------


def test_sgd_weight_decay_scalar_example():
    state = optim.SgdState(eta=0.1)
    new = optim.sgd_step(
        state, scalar_params(1.0), as_pairs(np.zeros((1, 1))), optim.Coupling("weight_decay", 0.5)
    )
    assert_allclose(new.weights[0], [[0.95]], rtol=0, atol=0)


def test_sgd_plain_step_and_mask():
    state = optim.SgdState(eta=0.5)
    params = nn.NetworkParams(weights=[np.array([[2.0]]), np.array([[3.0]])])
    grads = as_pairs(np.array([[1.0]]), np.array([[1.0]]))
    new = optim.sgd_step(
        state, params, grads, optim.Coupling("weight_decay", 0.2, mask=(False, True))
    )
    assert_allclose(new.weights[0], [[1.5]])  # plain: 2 - 0.5
    assert_allclose(new.weights[1], [[3.0 - 0.5 - 0.1 * 3.0]])


def test_sgd_couplings_bit_identical_without_momentum():
    rng = np.random.default_rng(0)
    spec = nn.mlp((6, 8, 4))
    params_l2 = nn.init_params(spec, rng)
    params_wd = params_l2.copy()
    x = rng.normal(size=(32, 6))
    y = rng.integers(0, 4, size=32)
    st_l2 = optim.SgdState(eta=0.05)
    st_wd = optim.SgdState(eta=0.05)
    c_l2 = optim.Coupling("l2", beta=0.1)
    c_wd = optim.Coupling("weight_decay", beta=0.1)
    for _ in range(1000):
        for params, st, c in ((params_l2, st_l2, c_l2), (params_wd, st_wd, c_wd)):
            new = optim.sgd_step(st, params, loss_grad_pairs(spec, params, x, y), c)
            params.weights = new.weights
    for wl, wd in zip(params_l2.weights, params_wd.weights):
        assert np.array_equal(wl, wd)


def test_sgd_couplings_differ_with_momentum():
    params_a = scalar_params(1.0)
    params_b = scalar_params(1.0)
    st_a = optim.SgdState(eta=0.1, momentum=0.9)
    st_b = optim.SgdState(eta=0.1, momentum=0.9)
    g = as_pairs(np.array([[0.3]]))
    for _ in range(3):
        params_a = optim.sgd_step(st_a, params_a, g, optim.Coupling("l2", 0.5))
        params_b = optim.sgd_step(st_b, params_b, g, optim.Coupling("weight_decay", 0.5))
    assert not np.array_equal(params_a.weights[0], params_b.weights[0])


def test_sgd_rejects_unstable_decay():
    state = optim.SgdState(eta=0.5)
    with pytest.raises(InstabilityError):
        optim.sgd_step(state, scalar_params(), as_pairs(np.zeros((1, 1))), optim.Coupling("l2", 2.0))


# --- Adam -------------------------------------------------------------------


def test_adam_weight_decay_is_geometric_at_zero_gradient():
    state = optim.AdamState(eta=0.1)
    params = scalar_params(1.0)
    for t in range(5):
        params = optim.adam_step(
            state, params, as_pairs(np.zeros((1, 1))), optim.Coupling("weight_decay", 0.5)
        )
        assert_allclose(params.weights[0], [[(1 - 0.05) ** (t + 1)]], rtol=1e-12)


def test_adam_l2_differs_from_geometric_decay():
    # with only the l2 pull, the adaptive step is ~eta per step at first
    # (moments see a constant gradient), not a constant fraction of theta
    state = optim.AdamState(eta=0.1)
    params = scalar_params(1.0)
    params = optim.adam_step(state, params, as_pairs(np.zeros((1, 1))), optim.Coupling("l2", 0.5))
    g = 0.5  # first effective gradient
    expected = 1.0 - 0.1 * g / (g + state.eps)  # bias corrections cancel at t=1
    assert_allclose(params.weights[0], [[expected]], rtol=1e-12)
    assert abs(params.weights[0][0, 0] - 0.95) > 1e-3


def test_adam_moment_recursion_matches_manual():
    rng = np.random.default_rng(1)
    state = optim.AdamState(eta=0.01)
    params = scalar_params(2.0)
    w = 2.0
    m = v = 0.0
    for t in range(1, 6):
        g = float(rng.normal())
        params = optim.adam_step(state, params, as_pairs(np.array([[g]])), optim.Coupling())
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        w = w - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        assert_allclose(params.weights[0], [[w]], rtol=1e-12)


def test_adam_couplings_coincide_at_beta_zero():
    rng = np.random.default_rng(2)
    g = as_pairs(rng.normal(size=(3, 2)))
    p1 = nn.NetworkParams(weights=[rng.normal(size=(3, 2))])
    p2 = p1.copy()
    s1 = optim.AdamState(eta=0.05)
    s2 = optim.AdamState(eta=0.05)
    for _ in range(4):
        p1 = optim.adam_step(s1, p1, g, optim.Coupling("l2", 0.0))
        p2 = optim.adam_step(s2, p2, g, optim.Coupling("weight_decay", 0.0))
    assert np.array_equal(p1.weights[0], p2.weights[0])


# --- K-FAC ------------------------------------------------------------------


def rigged_kfac_state(spec, a, s, lam, eta, **kw):
    """State with factors forced to given matrices and already inverted."""
    state = optim.KfacState(metric="gn", eta=eta, lam=lam, **kw)
    state.factors = curvature.KfacFactors.zeros(spec)
    curvature.update_factors_ema(state.factors, [(a, s)], decay=0.0)
    curvature.invert_factors(state.factors, lam)
    state.step = 1  # keep kfac_step from re-estimating on this synthetic setup
    return state


def test_kfac_scalar_example_l2_vs_weight_decay():
    # one scalar input into two outputs (one-class cross-entropy has no
    # gradient); E[x^2]=2 makes the input factor A=[[2]], and the GN factor
    # of a single linear layer sums the identity output seeds, S=I
    spec = nn.mlp((1, 2), activation=nn.IDENTITY)
    x = np.array([[np.sqrt(2.0)], [-np.sqrt(2.0)]])
    y = np.array([0, 0])
    w = np.array([[1.0], [-0.5]])
    eta, beta, a_factor = 0.1, 0.5, 2.0
    probs = loss.softmax(x @ w.T)
    grad = (probs - np.eye(2)[y]).T @ x / 2  # mean cross-entropy gradient
    assert np.linalg.norm(grad) > 0.1
    # S^-1 V A^-1 with S=I, A=[[2]]: l2 preconditions beta*W with the
    # gradient, weight decay shrinks W by eta*beta outside the preconditioner
    expected = {"l2": w - eta * (grad + beta * w) / a_factor,
                "weight_decay": w - eta * grad / a_factor - eta * beta * w}

    for mode in ("l2", "weight_decay"):
        state = optim.KfacState(
            metric="gn", eta=eta, lam=1e-12, t_stats=1, t_inv=1, factor_decay=0.0,
        )
        new = helpers.kfac_batch_step(
            state, spec, nn.NetworkParams(weights=[w.copy()]), (x, y),
            optim.Coupling(mode, beta=beta),
        )
        assert_allclose(state.factors.a_factors[0], [[a_factor]], rtol=1e-14)
        assert_allclose(state.factors.s_factors[0], np.eye(2), rtol=1e-14)
        assert_allclose(new.weights[0], expected[mode], rtol=1e-5)


def test_kfac_identity_preconditioner_reduces_to_sgd():
    spec = nn.mlp((2, 2), activation=nn.IDENTITY)
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # A = I/2... no:
    # mean of e_i e_i^T over these four rows is I/2; use scaled rows for A = I
    x = np.sqrt(2.0) * x
    y = np.array([0, 1, 1, 0])
    state = optim.KfacState(
        metric="gn", eta=0.05, lam=1e-10, t_stats=1, t_inv=1, factor_decay=0.0,
    )
    rng = np.random.default_rng(3)
    params = nn.NetworkParams(weights=[rng.normal(size=(2, 2))])
    new = helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())
    # S = I too (identity seeds, linear single layer), so the step is plain SGD
    ((ds, a),) = loss_grad_pairs(spec, params, x, y)
    assert_allclose(new.weights[0], params.weights[0] - 0.05 * ds.T @ a, rtol=1e-4)


def test_kfac_matches_dense_block_natural_gradient_on_linear_net():
    # on a linear net each Gauss-Newton diagonal block is exactly S (x) A, so
    # with fresh factors the step solves the factored-damped dense system
    rng = np.random.default_rng(4)
    spec = nn.mlp((4, 3, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 2, size=20)
    lam = 1e-3
    state = optim.KfacState(
        metric="gn", eta=1e-4, lam=lam, t_stats=1, t_inv=1, factor_decay=0.0,
    )
    new = helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())

    pairs = loss_grad_pairs(spec, params, x, y)
    _, trace = nn.forward(spec, params, x, mode="eval")
    dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    root = np.sqrt(lam)
    for l, sl in enumerate(nn.layer_slices(spec)):
        out, inp = spec.weight_shape(l)
        block = dense[sl, sl]
        a_in = trace.layer_inputs[l]
        a_factor = a_in.T @ a_in / a_in.shape[0]
        # S is the block's partial trace over the input side, divided by tr(A)
        s_factor = np.einsum("iaja->ij", block.reshape(out, inp, out, inp)) / np.trace(a_factor)
        assert_allclose(np.kron(s_factor, a_factor), block, rtol=1e-10, atol=1e-12)
        damped = np.kron(s_factor + root * np.eye(out), a_factor + root * np.eye(inp))
        ds, a = pairs[l]
        step = np.linalg.solve(damped, (ds.T @ a).ravel())
        actual_step = (params.weights[l] - new.weights[l]).ravel() / 1e-4
        assert np.linalg.norm(actual_step - step) <= 1e-6 * np.linalg.norm(step)


def test_kfac_couplings_differ_with_anisotropic_preconditioner():
    rng = np.random.default_rng(5)
    spec = nn.mlp((2, 2), activation=nn.IDENTITY)
    x = rng.normal(size=(50, 2)) @ np.diag([3.0, 0.2])  # anisotropic inputs
    y = rng.integers(0, 2, size=50)
    outs = {}
    for mode in ("l2", "weight_decay"):
        state = optim.KfacState(
            metric="gn", eta=0.1, lam=1e-3, t_stats=1, t_inv=1, factor_decay=0.0,
        )
        params = nn.NetworkParams(weights=[np.array([[1.0, 1.0], [0.5, -1.0]])])
        new = helpers.kfac_batch_step(
            state, spec, params, (x, y), optim.Coupling(mode, beta=0.3)
        )
        outs[mode] = new.weights[0]
    assert not np.allclose(outs["l2"], outs["weight_decay"], rtol=1e-6)


def test_kfac_refresh_cadence():
    rng = np.random.default_rng(6)
    spec = nn.mlp((3, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    state = optim.KfacState(metric="gn", eta=1e-3, lam=1e-2, t_stats=2, t_inv=4)
    snapshots = []
    for _ in range(5):
        params = helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())
        snapshots.append([a.copy() for a in state.factors.a_factors])
    # steps 0,2,4 refresh stats; steps 1,3 keep them frozen
    assert np.array_equal(snapshots[0][0], snapshots[1][0])
    assert not np.array_equal(snapshots[1][0], snapshots[2][0])
    assert np.array_equal(snapshots[2][0], snapshots[3][0])
    # inverses recomputed at steps 0 and 4 only
    assert [step for step, _ in state.health] == [0, 4]


@pytest.mark.parametrize("metric", ["fisher", "gn"])
def test_kfac_step_runs_one_forward(metric, monkeypatch):
    # kfac_step adds no forward to its caller's one, on statistics (even
    # steps), inversion (step 0) and plain steps alike
    spec = nn.mlp((3, 4, 2), bn=True)
    x = np.random.default_rng(7).normal(size=(8, 3))
    y = np.random.default_rng(8).integers(0, 2, size=8)
    state = optim.KfacState(metric=metric, eta=1e-2, t_stats=2, t_inv=3,
                            rng=np.random.default_rng(9))
    params = nn.init_params(spec, np.random.default_rng(10))
    calls = []
    forward = nn.forward

    def counting(*args, **kwargs):
        calls.append(kwargs.get("mode"))
        return forward(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting)
    for step in range(4):
        params = helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())
        assert calls == ["train"] * (step + 1)


def test_kfac_step_fisher_factors_equal_a_direct_estimate():
    spec = nn.mlp((3, 4, 2), bn=True)
    x = np.random.default_rng(7).normal(size=(8, 3))
    y = np.random.default_rng(8).integers(0, 2, size=8)
    params = nn.init_params(spec, np.random.default_rng(10))
    state = optim.KfacState(metric="fisher", eta=1e-2, factor_decay=0.0,
                            rng=np.random.default_rng(11))
    helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())
    _, trace = nn.forward(spec, params, x, mode="train")
    fresh = curvature.estimate_kfac_factors(
        "fisher", spec, params, trace, rng=np.random.default_rng(11)
    )
    for l, (a, s) in enumerate(fresh):
        assert np.array_equal(state.factors.a_factors[l], a)
        assert np.array_equal(state.factors.s_factors[l], s)


def full_route_kfac_step(state, spec, params, batch, coupling):
    """Reference K-FAC step that forms every layer's gradient as an
    out x in matrix before preconditioning."""
    x, y = batch
    if state.factors is None:
        state.factors = curvature.KfacFactors.zeros(spec)
    logits, trace = nn.forward(spec, params, x, mode="train")
    if state.step % state.t_stats == 0:
        fresh = curvature.estimate_kfac_factors(state.metric, spec, params, trace, rng=state.rng)
        curvature.update_factors_ema(state.factors, fresh, state.factor_decay)
    if state.step % state.t_inv == 0:
        curvature.invert_factors(state.factors, state.lam)
    _, dz = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dz)
    mask = coupling.layer_mask(spec.n_layers)
    new = params.copy()
    for l, (ds, a) in enumerate(zip(s_grads, trace.layer_inputs)):
        v = ds.T @ a
        if coupling.mode == optim.COUPLING_L2 and mask[l]:
            v = v + coupling.beta * params.weights[l]
        pre = curvature.apply_preconditioner(state.factors, l, v)
        new.weights[l] = params.weights[l] - state.eta * pre
        if coupling.mode == optim.COUPLING_WD and mask[l]:
            new.weights[l] = new.weights[l] - (state.eta * coupling.beta) * params.weights[l]
    state.step += 1
    return new


def kfac_pair(metric, bn=False):
    """Two identical K-FAC states with a 3-layer net and a batch."""
    spec = nn.mlp((6, 9, 7, 3), bn=bn)
    params = nn.init_params(spec, np.random.default_rng(20))
    x = np.random.default_rng(21).normal(size=(5, 6))
    y = np.random.default_rng(22).integers(0, 3, size=5)
    states = [optim.KfacState(metric=metric, eta=0.05, lam=1e-2, t_stats=1, t_inv=2,
                              rng=np.random.default_rng(23))
              for _ in range(2)]
    return spec, params, (x, y), states


@pytest.mark.parametrize("metric", ["fisher", "gn"])
def test_kfac_l2_everywhere_is_bit_identical_to_the_full_route(metric):
    # beta*W is full rank, so l2 layers keep the formed gradient and its
    # exact arithmetic, across steps with and without an inversion
    spec, params, batch, (state, ref_state) = kfac_pair(metric)
    coupling = optim.Coupling("l2", beta=0.1)
    ref = params
    for _ in range(3):
        params = helpers.kfac_batch_step(state, spec, params, batch, coupling)
        ref = full_route_kfac_step(ref_state, spec, ref, batch, coupling)
        for l in range(spec.n_layers):
            assert np.array_equal(params.weights[l], ref.weights[l])


def test_kfac_masked_l2_routes_each_layer(monkeypatch):
    # l2 layers take the formed gradient (bit-identical to the full route),
    # the others its rank-n factors (equal up to rounding)
    spec, params, batch, (state, ref_state) = kfac_pair("gn", bn=True)
    coupling = optim.Coupling("l2", beta=0.1, mask=(True, False, False))
    routes = []
    apply = curvature.apply_preconditioner

    def recording(factors, layer, grad):
        routes.append(type(grad))
        return apply(factors, layer, grad)

    monkeypatch.setattr(curvature, "apply_preconditioner", recording)
    new = helpers.kfac_batch_step(state, spec, params, batch, coupling)
    assert routes == [np.ndarray, tuple, tuple]
    monkeypatch.setattr(curvature, "apply_preconditioner", apply)
    ref = full_route_kfac_step(ref_state, spec, params, batch, coupling)
    assert np.array_equal(new.weights[0], ref.weights[0])
    for l in (1, 2):
        step = params.weights[l] - ref.weights[l]
        assert np.linalg.norm(new.weights[l] - ref.weights[l]) <= 1e-12 * np.linalg.norm(step)


REFERENCE_OPTIMIZERS = ["sgd", "sgd_momentum", "adam", "kfac_gn_factored", "kfac_fisher_factored"]


@pytest.mark.parametrize("mode", optim.COUPLING_MODES)
@pytest.mark.parametrize("kind", REFERENCE_OPTIMIZERS)
def test_updates_match_the_per_optimizer_reference_formulas(kind, mode):
    # the one update rule moves each layer exactly as the per-optimizer
    # formulas of tests/helpers.py, on a masked coupling over 12 steps
    spec = nn.mlp((6, 9, 7, 4))
    rng = np.random.default_rng(30)
    params = nn.init_params(spec, rng)
    coupling = optim.Coupling(mode, beta=0.05, mask=(True, False, True))
    if kind.startswith("kfac"):
        metric = kind.split("_")[1]
        state, ref_state = (optim.KfacState(metric=metric, eta=0.05, lam=1e-2, t_stats=2, t_inv=4,
                                            rng=np.random.default_rng(31))
                            for _ in range(2))
    elif kind == "adam":
        state, ref_state = optim.AdamState(eta=0.01), helpers.ref_adam_state(0.01)
    else:
        momentum = 0.9 if kind == "sgd_momentum" else 0.0
        state = optim.SgdState(eta=0.05, momentum=momentum)
        ref_state = helpers.ref_sgd_state(0.05, momentum)
    ref = params
    for _ in range(12):
        x = rng.normal(size=(10, 6))
        y = rng.integers(0, 4, size=10)
        if kind.startswith("kfac"):
            params = helpers.kfac_batch_step(state, spec, params, (x, y), coupling)
            ref = helpers.ref_kfac_step(ref_state, spec, ref, (x, y), coupling)
        else:
            step, ref_step = ((optim.adam_step, helpers.ref_adam_step) if kind == "adam"
                              else (optim.sgd_step, helpers.ref_sgd_step))
            params = step(state, params, loss_grad_pairs(spec, params, x, y), coupling)
            ref = ref_step(ref_state, ref, loss_grad_pairs(spec, ref, x, y), coupling)
        for l in range(spec.n_layers):
            assert np.array_equal(params.weights[l], ref.weights[l])


def test_kfac_health_rows_at_each_inversion():
    spec, params, batch, (state, _) = kfac_pair("gn")
    state.t_inv = 3
    for _ in range(4):
        params = helpers.kfac_batch_step(state, spec, params, batch, optim.Coupling())
    assert [step for step, _ in state.health] == [0, 3]
    # t_stats = 1 and no step since the step-3 inversion: the stored factors
    # are the ones that inversion saw
    for l, sp in enumerate(state.health[1][1]):
        a, s = state.factors.a_factors[l], state.factors.s_factors[l]
        want = state.lam / ((np.trace(a) / a.shape[0]) * (np.trace(s) / s.shape[0]))
        assert_allclose(sp.damping_ratio, want, rtol=1e-12)
        ea, es = np.linalg.eigvalsh(a), np.linalg.eigvalsh(s)
        assert_allclose([sp.a_eig_min, sp.a_eig_max, sp.s_eig_min, sp.s_eig_max],
                        [ea[0], ea[-1], es[0], es[-1]], rtol=1e-9, atol=1e-14)
    for _ in range(3):
        params = helpers.kfac_batch_step(state, spec, params, batch, optim.Coupling())
    assert [step for step, _ in state.health] == [0, 3, 6]


def test_kfac_state_validation():
    with pytest.raises(DomainError):
        optim.KfacState(metric="hessian", eta=0.1)
    with pytest.raises(DomainError):
        optim.KfacState(metric="gn", eta=0.1, lam=0.0)
    with pytest.raises(DomainError):
        optim.KfacState(metric="fisher", eta=0.1)  # fisher without rng
    state = optim.KfacState(metric="gn", eta=0.5)
    spec = nn.mlp((1, 1), activation=nn.IDENTITY)
    with pytest.raises(InstabilityError):
        helpers.kfac_batch_step(
            state, spec, scalar_params(), (np.ones((2, 1)), np.zeros(2, dtype=int)),
            optim.Coupling("weight_decay", 2.0),
        )


def test_kfac_fisher_metric_is_seed_deterministic():
    spec = nn.mlp((3, 4, 2))
    x = np.random.default_rng(7).normal(size=(16, 3))
    y = np.random.default_rng(8).integers(0, 2, size=16)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        state = optim.KfacState(metric="fisher", eta=1e-2, rng=rng, t_stats=1, t_inv=1)
        params = nn.init_params(spec, np.random.default_rng(10))
        for _ in range(3):
            params = helpers.kfac_batch_step(state, spec, params, (x, y), optim.Coupling())
        runs.append(nn.flatten_params(spec, params))
    assert np.array_equal(runs[0], runs[1])


# --- reference normalized steps ---------------------------------------------


def test_reference_sgd_step_projects_out_radial_gradient():
    v = np.array([1.0, 0.0, 0.0])
    out = optim.reference_normalized_sgd_step(v, 2.0, 5.0 * v, eta=0.1)
    assert_allclose(out, v, rtol=1e-15)


def test_reference_sgd_step_orthogonal_gradient_scale():
    v = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    out = optim.reference_normalized_sgd_step(v, 2.0, g, eta=0.4)
    assert_allclose(out, [1.0, -0.4 / 4.0], rtol=1e-15)


def test_reference_steps_validate_inputs():
    v = np.array([1.0, 0.0])
    with pytest.raises(DegenerateError):
        optim.reference_normalized_sgd_step(v, 0.0, v, 0.1)
    with pytest.raises(ContractError):
        optim.reference_normalized_sgd_step(2 * v, 1.0, v, 0.1)
    with pytest.raises(ShapeError):
        optim.reference_normalized_sgd_step(v, 1.0, np.ones(3), 0.1)
    with pytest.raises(DomainError):
        optim.reference_normalized_kfac_step(v, 1.0, np.diag([1.0, -1.0]), 1e-3, v, 0.1)
    with pytest.raises(DegenerateError):
        optim.reference_normalized_kfac_step(v, -1.0, np.eye(2), 1e-3, v, 0.1)


def test_reference_kfac_step_dominant_damping_limit():
    rng = np.random.default_rng(11)
    v = np.zeros(4)
    v[0] = 1.0
    c = 1e-6 * np.eye(4)
    lam, norm = 10.0, 3.0
    g = rng.normal(size=4)
    out = optim.reference_normalized_kfac_step(v, norm, c, lam, g, eta=0.01)
    proj = g - (v @ g) * v
    assert_allclose(out, v - (0.01 / (lam * norm**2)) * proj, rtol=1e-6)


def test_reference_kfac_step_reduces_to_sgd_form():
    rng = np.random.default_rng(12)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    g = rng.normal(size=5)
    a = optim.reference_normalized_kfac_step(v, 1.0, np.eye(5), 0.0, g, eta=0.05)
    b = optim.reference_normalized_sgd_step(v, 1.0, g, eta=0.05)
    assert_allclose(a, b, rtol=1e-12)


def test_reference_steps_take_an_array_of_etas_bit_for_bit():
    rng = np.random.default_rng(14)
    v = rng.normal(size=6)
    v /= np.linalg.norm(v)
    g = rng.normal(size=6)
    b = rng.normal(size=(6, 6))
    c = b @ b.T
    etas = np.array([1e-2, 5e-3, 2.5e-3])
    sgd = optim.reference_normalized_sgd_step(v, 1.7, g, etas)
    kfac = optim.reference_normalized_kfac_step(v, 1.7, c, 1e-2, g, etas)
    assert sgd.shape == kfac.shape == (3, 6)
    for eta, sgd_row, kfac_row in zip(etas, sgd, kfac):
        assert np.array_equal(sgd_row, optim.reference_normalized_sgd_step(v, 1.7, g, eta))
        assert np.array_equal(kfac_row, optim.reference_normalized_kfac_step(v, 1.7, c, 1e-2, g, eta))


def _bn_layer_step_discrepancy(eta, seed):
    """One actual SGD step on a BN net vs the bare first-order direction
    formula, for layer 0."""
    rng = np.random.default_rng(seed)
    spec = nn.mlp((5, 7, 3), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(24, 5)) * 4.0
    y = rng.integers(0, 3, size=24)

    ds, a = loss_grad_pairs(spec, params, x, y)[0]
    g0 = ds.T @ a

    w0 = params.weights[0]
    norm = float(np.linalg.norm(w0))
    actual = (w0 - eta * g0).ravel()
    actual = actual / np.linalg.norm(actual)

    # gradient at the normalized point, exactly rescaled by homogeneity
    scaled = nn.scale_layer(params, 0, 1.0 / norm)
    ds, a = loss_grad_pairs(spec, scaled, x, y)[0]
    g_hat = (ds.T @ a).ravel()

    ref = optim.reference_normalized_sgd_step((w0 / norm).ravel(), norm, g_hat, eta)
    return float(np.linalg.norm(actual - ref))


def test_reference_sgd_residual_shrinks_quadratically():
    d1 = _bn_layer_step_discrepancy(1e-2, seed=13)
    d2 = _bn_layer_step_discrepancy(5e-3, seed=13)
    assert 3.5 <= d1 / d2 <= 4.5
