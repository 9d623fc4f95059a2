"""Curvature constructions against independent oracles.

The central cross-checks: Fisher and generalized Gauss-Newton built by
different summation routes must agree to near machine precision; Kronecker
factors must reproduce dense blocks exactly on linear networks; metric norms
computed through forward values must match dense quadratic forms; per-example
Jacobians through batch norm must match finite differences of the train-mode
batch forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import central_diff_grad, central_diff_jacobian, kron_precondition
from wdlab import curvature, diagnostics, loss, nn
from wdlab.errors import (
    CapacityError,
    ContractError,
    DegenerateError,
    DomainError,
    NumericalError,
    ShapeError,
)


def pm_one_inputs():
    return np.array([[1.0], [-1.0]])


def single_scalar_layer(w=2.0):
    spec = nn.mlp((1, 1), activation=nn.IDENTITY)
    params = nn.NetworkParams(weights=[np.array([[w]])])
    return spec, params


def whiten_exact(x):
    """Empirical whitening: sample mean 0, sample covariance exactly I."""
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / x.shape[0]
    w, q = np.linalg.eigh(cov)
    return xc @ (q / np.sqrt(w)) @ q.T


# --- dense curvature --------------------------------------------------------


def test_dense_gn_single_linear_layer_is_input_second_moment():
    spec, params = single_scalar_layer(w=2.0)
    g = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, pm_one_inputs())
    assert_allclose(g, [[1.0]], rtol=1e-15)


def test_dense_gn_matches_per_example_jacobian_oracle():
    rng = np.random.default_rng(0)
    spec = nn.mlp((4, 6, 3))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(9, 4))
    g = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    # independent route: finite-difference Jacobians, one example at a time
    theta = nn.flatten_params(spec, params)
    acc = np.zeros((spec.n_params, spec.n_params))
    for row in x:

        def f(t, row=row):
            return nn.forward(spec, nn.unflatten_params(spec, t), row[None, :], mode="eval")[0][0]

        jac = central_diff_jacobian(f, theta)
        acc += jac.T @ jac
    assert_allclose(g, acc / len(x), rtol=1e-8, atol=1e-9)


def test_fisher_exact_equals_generalized_gn_for_cross_entropy():
    rng = np.random.default_rng(1)
    spec = nn.mlp((5, 7, 4))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(8, 5))
    f = curvature.dense_curvature(curvature.FISHER_EXACT, spec, params, x)
    g = curvature.dense_curvature(curvature.GENERALIZED_GN, spec, params, x)
    assert np.linalg.norm(f - g) <= 1e-9 * np.linalg.norm(g)


def test_fisher_exact_equals_gauss_newton_for_squared_error():
    rng = np.random.default_rng(2)
    spec = nn.mlp((4, 5, 3), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(6, 4))
    f = curvature.dense_curvature(
        curvature.FISHER_EXACT, spec, params, x, loss_kind=loss.SQUARED_ERROR
    )
    g = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    assert np.linalg.norm(f - g) <= 1e-9 * np.linalg.norm(g)
    # generalized GN with identity output Hessian collapses to plain GN too
    gg = curvature.dense_curvature(
        curvature.GENERALIZED_GN, spec, params, x, loss_kind=loss.SQUARED_ERROR
    )
    assert np.linalg.norm(gg - g) <= 1e-9 * np.linalg.norm(g)


def test_dense_curvature_symmetric_psd():
    rng = np.random.default_rng(3)
    spec = nn.mlp((3, 5, 3))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(7, 3))
    for kind in curvature.CURVATURE_KINDS:
        c = curvature.dense_curvature(kind, spec, params, x)
        assert np.array_equal(c, c.T)
        assert np.min(np.linalg.eigvalsh(c)) > -1e-10 * max(1.0, np.linalg.norm(c))


def test_dense_curvature_validation():
    rng = np.random.default_rng(7)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(4, 3))
    with pytest.raises(DomainError):
        curvature.dense_curvature("hessian", spec, params, x)
    big = nn.mlp((100, 300, 10))
    with pytest.raises(CapacityError):
        curvature.dense_curvature(
            curvature.GAUSS_NEWTON, big, nn.init_params(big, rng), np.zeros((2, 100))
        )
    wide = nn.mlp((2, 3, 20))
    with pytest.raises(CapacityError):
        curvature.dense_curvature(
            curvature.FISHER_EXACT, wide, nn.init_params(wide, rng), np.zeros((2, 2))
        )


@pytest.mark.parametrize("bn", [False, True], ids=["plain", "bn"])
def test_curvature_from_jacobians_is_dense_curvature(bn):
    rng = np.random.default_rng(30)
    spec = nn.mlp((3, 5, 4), bn=bn)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(6, 3)) * 3
    logits, jac = curvature.per_example_param_jacobians(spec, params, x)
    for kind in curvature.CURVATURE_KINDS:
        for loss_kind in loss.LOSS_KINDS:
            want = curvature.dense_curvature(kind, spec, params, x, loss_kind=loss_kind)
            got = curvature.curvature_from_jacobians(kind, logits, jac, loss_kind)
            assert np.array_equal(got, want), (kind, loss_kind)
    with pytest.raises(DomainError):
        curvature.curvature_from_jacobians("hessian", logits, jac)
    with pytest.raises(DomainError):
        curvature.curvature_from_jacobians(curvature.FISHER_EXACT, logits, jac, "hinge")


def test_per_example_jacobians_through_bn_match_finite_differences():
    # with train-mode BN each example's Jacobian includes its effect on the
    # batch statistics; check every (example, output) row against FD
    rng = np.random.default_rng(8)
    spec = nn.mlp((3, 4, 2), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(4, 3)) * 3
    logits, jac = curvature.per_example_param_jacobians(spec, params, x)
    _, trace = nn.forward(spec, params, x, mode="train")
    theta = nn.flatten_params(spec, params)
    for i in range(4):
        for c in range(2):
            def f(t, i=i, c=c):
                p = nn.unflatten_params(spec, t)
                return nn.forward(spec, p, x, mode="train")[0][i, c]

            assert_allclose(jac[i, c], central_diff_grad(f, theta), atol=2e-7)


# --- Kronecker factors ------------------------------------------------------


def estimate_factors(metric, spec, params, x, **kw):
    """Factor estimates from a fresh train-mode forward of x."""
    _, trace = nn.forward(spec, params, x, mode="train")
    return curvature.estimate_kfac_factors(metric, spec, params, trace, **kw)


def test_kfac_factors_single_layer_reproduce_dense_exactly():
    rng = np.random.default_rng(9)
    spec = nn.mlp((3, 2), activation=nn.IDENTITY)
    params = nn.NetworkParams(weights=[rng.normal(size=(2, 3))])
    x = rng.normal(size=(10, 3))
    [(a, s)] = estimate_factors("gn", spec, params, x)
    dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    # row-major flattening of out x in weights makes the block S (x) A
    assert_allclose(np.kron(s, a), dense, rtol=1e-10, atol=1e-13)


def test_kfac_factors_deep_linear_match_dense_diagonal_blocks():
    rng = np.random.default_rng(10)
    spec = nn.mlp((4, 3, 3, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(12, 4))
    factors = estimate_factors("gn", spec, params, x)
    dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    for sl, (a, s) in zip(nn.layer_slices(spec), factors):
        block = dense[sl, sl]
        assert np.linalg.norm(np.kron(s, a) - block) <= 1e-8 * np.linalg.norm(block)


def test_kfac_factors_zero_inputs_and_shapes():
    rng = np.random.default_rng(11)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    factors = estimate_factors("gn", spec, params, np.zeros((5, 3)))
    assert_allclose(factors[0][0], np.zeros((3, 3)))
    assert factors[0][1].shape == (4, 4)
    assert factors[1][0].shape == (4, 4)
    assert factors[1][1].shape == (2, 2)


def test_kfac_factors_validation():
    rng = np.random.default_rng(14)
    spec = nn.mlp((3, 2))
    params = nn.init_params(spec, rng)
    x = np.zeros((2, 3))
    with pytest.raises(DomainError):
        estimate_factors("hessian", spec, params, x)
    with pytest.raises(DomainError):
        estimate_factors("fisher", spec, params, x)  # no rng
    _, eval_trace = nn.forward(spec, params, x, mode="eval")
    with pytest.raises(ContractError):
        curvature.estimate_kfac_factors("gn", spec, params, eval_trace)


def test_update_factors_ema():
    spec = nn.mlp((2, 3, 2))
    state = curvature.KfacFactors.zeros(spec)
    fresh = [(np.full((2, 2), 2.0), np.full((3, 3), 4.0)), (np.eye(3), np.eye(2))]
    curvature.update_factors_ema(state, fresh, decay=0.0)
    assert_allclose(state.a_factors[0], fresh[0][0])  # decay 0 adopts fresh
    before = [a.copy() for a in state.a_factors]
    curvature.update_factors_ema(state, fresh, decay=0.5)
    for a, b in zip(state.a_factors, before):
        assert_allclose(a, b)  # fresh == old leaves the state unchanged

    # two steps from zero with constant input follow the geometric series
    state2 = curvature.KfacFactors.zeros(spec)
    for _ in range(2):
        curvature.update_factors_ema(state2, fresh, decay=0.95)
    assert_allclose(state2.s_factors[0], (1 - 0.95**2) * fresh[0][1], rtol=1e-12)

    with pytest.raises(DomainError):
        curvature.update_factors_ema(state, fresh, decay=1.0)
    bad = [(np.zeros((3, 3)), np.zeros((3, 3))), fresh[1]]
    with pytest.raises(ShapeError):
        curvature.update_factors_ema(state, bad, decay=0.5)


def test_update_factors_ema_writes_into_the_factor_arrays():
    rng = np.random.default_rng(16)
    spec = nn.mlp((5, 4, 3))
    state = curvature.KfacFactors.zeros(spec)
    for f in state.a_factors + state.s_factors:
        f += rng.normal(size=f.shape)
    arrays = state.a_factors + state.s_factors
    fresh = [(rng.normal(size=a.shape), rng.normal(size=s.shape))
             for a, s in zip(state.a_factors, state.s_factors)]
    want = [0.95 * f + (1 - 0.95) * new
            for f, new in zip(arrays, [a for a, _ in fresh] + [s for _, s in fresh])]
    curvature.update_factors_ema(state, fresh, decay=0.95)
    for before, after, w in zip(arrays, state.a_factors + state.s_factors, want):
        assert after is before
        assert after.tobytes() == w.tobytes()


def test_apply_preconditioner_matches_kron_solve():
    rng = np.random.default_rng(15)
    spec = nn.mlp((4, 3, 2))
    state = curvature.KfacFactors.zeros(spec)
    fresh = []
    for l in range(spec.n_layers):
        out, inp = spec.weight_shape(l)
        ba = rng.normal(size=(inp, inp + 2))
        bs = rng.normal(size=(out, out + 2))
        fresh.append((ba @ ba.T / inp, bs @ bs.T / out))
    curvature.update_factors_ema(state, fresh, decay=0.0)
    curvature.invert_factors(state, lam=1e-3)
    for l in range(spec.n_layers):
        out, inp = spec.weight_shape(l)
        v = rng.normal(size=(out, inp))
        got = curvature.apply_preconditioner(state, l, v)
        expected = kron_precondition(state.a_factors[l], state.s_factors[l], v.T, 1e-3).T
        assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def test_apply_preconditioner_rank_n_pair_matches_kron_solve():
    # the (ds, a) route against the reference on the formed ds^T a, with
    # batches thinner than the 7-wide layer (thin factors first) and wider
    # than the 2-wide output (ds^T a first)
    rng = np.random.default_rng(18)
    spec = nn.mlp((9, 7, 2))
    state = curvature.KfacFactors.zeros(spec)
    fresh = []
    for l in range(spec.n_layers):
        side_a, side_s = state.a_factors[l].shape[0], state.s_factors[l].shape[0]
        ba = rng.normal(size=(side_a, side_a + 2))
        bs = rng.normal(size=(side_s, side_s + 2))
        fresh.append((ba @ ba.T / side_a, bs @ bs.T / side_s))
    curvature.update_factors_ema(state, fresh, decay=0.0)
    curvature.invert_factors(state, lam=1e-3)
    for n in (3, 12):
        for l in range(spec.n_layers):
            out, inp = spec.weight_shape(l)
            ds = rng.normal(size=(n, out))
            a = rng.normal(size=(n, inp))
            got = curvature.apply_preconditioner(state, l, (ds, a))
            expected = kron_precondition(
                state.a_factors[l], state.s_factors[l], (ds.T @ a).T, 1e-3
            ).T
            assert rel_err(got, expected) <= 1e-12


def test_apply_preconditioner_rank_n_pair_checks_shapes():
    spec = nn.mlp((3, 2))
    state = curvature.KfacFactors.zeros(spec)
    curvature.invert_factors(state, lam=1e-2)
    for ds, a in ((np.zeros((4, 3)), np.zeros((4, 3))),   # ds is not n x out
                  (np.zeros((4, 2)), np.zeros((4, 4))),   # a is not n x in
                  (np.zeros((4, 2)), np.zeros((5, 3))),   # row counts differ
                  (np.zeros(2), np.zeros(3))):
        with pytest.raises(ShapeError):
            curvature.apply_preconditioner(state, 0, (ds, a))


def test_invert_factors_records_factor_spectra():
    spec = nn.mlp((3, 2))
    state = curvature.KfacFactors.zeros(spec)
    a = np.diag([1.0, 2.0, 6.0])
    s = np.diag([0.5, 1.5])
    curvature.update_factors_ema(state, [(a, s)], decay=0.0)
    (sp,) = curvature.invert_factors(state, lam=0.2)
    assert_allclose([sp.a_eig_min, sp.a_eig_max, sp.s_eig_min, sp.s_eig_max],
                    [1.0, 6.0, 0.5, 1.5], rtol=1e-14)
    # mean eigenvalue of S (x) A is (9/3) * (2/2) = 3
    assert_allclose(sp.damping_ratio, 0.2 / 3.0, rtol=1e-14)


def test_invert_factors_drops_the_stale_inverses_before_building_new_ones():
    # a factor that cannot be decomposed leaves no inverses behind, neither
    # the previous set nor a partial new one
    spec = nn.mlp((3, 4, 2))
    state = curvature.KfacFactors.zeros(spec)
    curvature.invert_factors(state, lam=1e-2)
    assert state.inverses is not None
    state.s_factors[1][0, 0] = np.nan
    with pytest.raises(NumericalError):
        curvature.invert_factors(state, lam=1e-2)
    assert state.inverses is None


def test_apply_preconditioner_requires_inversion_and_checks_shapes():
    spec = nn.mlp((3, 2))
    state = curvature.KfacFactors.zeros(spec)
    with pytest.raises(ContractError):
        curvature.apply_preconditioner(state, 0, np.zeros((2, 3)))
    curvature.invert_factors(state, lam=1e-2)
    with pytest.raises(ShapeError):
        curvature.apply_preconditioner(state, 0, np.zeros((3, 2)))
    with pytest.raises(DomainError):
        curvature.invert_factors(state, lam=0.0)


def test_preconditioner_staleness_is_deliberate():
    # updating factors after inversion must not change the applied inverse
    rng = np.random.default_rng(16)
    spec = nn.mlp((3, 2))
    state = curvature.KfacFactors.zeros(spec)
    fresh = [(np.eye(3) * 2.0, np.eye(2) * 3.0)]
    curvature.update_factors_ema(state, fresh, decay=0.0)
    curvature.invert_factors(state, lam=1e-3)
    v = rng.normal(size=(2, 3))
    before = curvature.apply_preconditioner(state, 0, v)
    curvature.update_factors_ema(state, [(np.eye(3) * 9.0, np.eye(2) * 9.0)], decay=0.0)
    after = curvature.apply_preconditioner(state, 0, v)
    assert np.array_equal(before, after)


# --- metric norms -----------------------------------------------------------


def test_homogeneity_output_identities():
    # bias-free piecewise-linear nets: f = J_x x and f = J_theta theta / (L+1)
    rng = np.random.default_rng(17)
    for activation in (nn.IDENTITY, nn.RELU):
        spec = nn.mlp((5, 6, 4, 3), activation=activation)
        params = nn.init_params(spec, rng)
        theta = nn.flatten_params(spec, params)
        x = rng.normal(size=(5, 5))
        logits, trace = nn.forward(spec, params, x, mode="eval")
        jx = nn.input_jacobian(spec, params, trace)
        jt = nn.param_jacobian(spec, params, trace)
        for i, f in enumerate(logits):
            scale = max(1.0, np.linalg.norm(f))
            assert np.linalg.norm(jx[i] @ x[i] - f) <= 1e-9 * scale
            assert np.linalg.norm(jt[i] @ theta / spec.n_layers - f) <= 1e-9 * scale


def test_gn_norm_scalar_example_and_zero():
    spec, params = single_scalar_layer(w=2.0)
    assert_allclose(curvature.gn_norm(spec, params, pm_one_inputs()), 4.0, rtol=1e-15)
    zero = nn.NetworkParams(weights=[np.zeros((1, 1))])
    assert curvature.gn_norm(spec, zero, pm_one_inputs()) == 0.0


def test_gn_norm_equals_dense_quadratic_form():
    rng = np.random.default_rng(18)
    for activation in (nn.IDENTITY, nn.RELU):
        spec = nn.mlp((4, 6, 5, 3), activation=activation)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(10, 4))
        theta = nn.flatten_params(spec, params)
        dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
        expected = float(theta @ dense @ theta)
        got = curvature.gn_norm(spec, params, x)
        assert abs(got - expected) <= 1e-8 * abs(expected)


def test_kfac_gn_norm_linear_identity_and_single_layer():
    rng = np.random.default_rng(20)
    spec = nn.mlp((4, 3, 3, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(15, 4))
    logits, _ = nn.forward(spec, params, x, mode="eval")
    expected = spec.n_layers * float(np.mean(np.sum(logits**2, axis=1)))
    got = diagnostics.probe_norms(spec, params, x)[1]
    assert abs(got - expected) <= 1e-8 * abs(expected)

    single = nn.mlp((4, 2), activation=nn.IDENTITY)
    sp = nn.init_params(single, rng)
    assert_allclose(
        diagnostics.probe_norms(single, sp, x)[1],
        curvature.gn_norm(single, sp, x),
        rtol=1e-12,
    )


def test_kfac_gn_norm_equals_sum_of_dense_block_forms():
    rng = np.random.default_rng(21)
    spec = nn.mlp((4, 5, 3), activation=nn.RELU)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(8, 4))
    dense = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
    theta = nn.flatten_params(spec, params)
    expected = 0.0
    for sl in nn.layer_slices(spec):
        expected += float(theta[sl] @ dense[sl, sl] @ theta[sl])
    got = diagnostics.probe_norms(spec, params, x)[1]
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_kfac_gn_norm_whitened_inputs_equal_input_jacobian_norm():
    # with sample mean 0 and sample covariance I, the block norm equals
    # (L+1) * ||J_x||_F^2 for linear nets
    rng = np.random.default_rng(22)
    spec = nn.mlp((5, 4, 3), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = whiten_exact(rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5)))
    jx = params.weights[1] @ params.weights[0]
    expected = spec.n_layers * float(np.sum(jx * jx))
    got = diagnostics.probe_norms(spec, params, x)[1]
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_gn_norm_gradient_scalar_example_and_zero():
    spec, params = single_scalar_layer(w=2.0)
    assert_allclose(curvature.gn_norm_gradient(spec, params, pm_one_inputs()), [4.0], rtol=1e-14)
    zero = nn.NetworkParams(weights=[np.zeros((1, 1))])
    assert_allclose(curvature.gn_norm_gradient(spec, zero, pm_one_inputs()), [0.0])


def test_gn_norm_gradient_matches_finite_differences_on_linear_net():
    # the factor-of-(L+1) form absorbs G's own dependence on theta, so FD of
    # the norm (which sees that dependence) must still match
    rng = np.random.default_rng(23)
    spec = nn.mlp((3, 4, 2), activation=nn.IDENTITY)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(6, 3))
    theta = nn.flatten_params(spec, params)

    def norm_of(t):
        return curvature.gn_norm(spec, nn.unflatten_params(spec, t), x)

    got = curvature.gn_norm_gradient(spec, params, x)
    fd = central_diff_grad(norm_of, theta, h=1e-5)
    assert_allclose(got, fd, rtol=1e-5, atol=1e-6)


# --- normalized traces ------------------------------------------------------


def test_normalized_trace_matches_dense_block_trace():
    rng = np.random.default_rng(24)
    spec = nn.mlp((4, 5, 3))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(7, 4))
    slices = nn.layer_slices(spec)
    for layer in range(spec.n_layers):
        norm_sq = float(np.sum(params.weights[layer] ** 2))
        dense_gn = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)
        got, got_f = curvature.normalized_traces(spec, params, x, layer)
        expected = norm_sq * float(np.trace(dense_gn[slices[layer], slices[layer]]))
        assert abs(got - expected) <= 1e-10 * abs(expected)

        dense_f = curvature.dense_curvature(curvature.FISHER_EXACT, spec, params, x)
        expected_f = norm_sq * float(np.trace(dense_f[slices[layer], slices[layer]]))
        assert abs(got_f - expected_f) <= 1e-10 * abs(expected_f)


def test_normalized_trace_invariant_to_bn_layer_rescaling():
    rng = np.random.default_rng(25)
    spec = nn.mlp((4, 6, 5, 3), bn=True)
    params = nn.init_params(spec, rng)
    params.weights[1] *= 8.0
    x = rng.normal(size=(6, 4)) * 10.0
    for layer in (0, 1):
        base_gn, base_f = curvature.normalized_traces(spec, params, x, layer)
        for alpha in (0.5, 2.0):
            scaled = nn.scale_layer(params, layer, alpha)
            got_gn, got_f = curvature.normalized_traces(spec, scaled, x, layer)
            assert abs(got_gn - base_gn) <= 1e-8 * abs(base_gn)
            assert abs(got_f - base_f) <= 1e-8 * abs(base_f)


def test_dense_block_curvature_scales_inverse_square_on_bn_layer():
    rng = np.random.default_rng(26)
    spec = nn.mlp((3, 4, 2), bn=True)
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(5, 3)) * 10.0
    sl = nn.layer_slices(spec)[0]
    base = curvature.dense_curvature(curvature.GAUSS_NEWTON, spec, params, x)[sl, sl]
    for alpha in (0.5, 2.0):
        scaled = curvature.dense_curvature(
            curvature.GAUSS_NEWTON, spec, nn.scale_layer(params, 0, alpha), x
        )[sl, sl]
        assert np.linalg.norm(scaled - base / alpha**2) <= 1e-8 * np.linalg.norm(base)


def test_normalized_trace_single_layer_identity_inputs_is_kron_trace():
    rng = np.random.default_rng(27)
    spec = nn.mlp((3, 2), activation=nn.IDENTITY)
    params = nn.NetworkParams(weights=[rng.normal(size=(2, 3))])
    x = np.eye(3)
    [(a, s)] = estimate_factors("gn", spec, params, x)
    raw = curvature.normalized_traces(spec, params, x, 0)[0] / np.sum(
        params.weights[0] ** 2
    )
    assert_allclose(raw, np.trace(np.kron(s, a)), rtol=1e-10)
    assert_allclose(raw, np.trace(s) * np.trace(a), rtol=1e-10)


def test_normalized_trace_fisher_collapses_for_confident_classifier():
    # once the softmax saturates, sampled-label gradients vanish while output
    # sensitivities do not
    rng = np.random.default_rng(28)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    params.weights[1] *= 50.0  # drive the logit gaps up
    x = rng.normal(size=(6, 3)) + 2.0
    gn, fisher = curvature.normalized_traces(spec, params, x, 0)
    assert fisher < 1e-3 * gn


def test_normalized_trace_validation():
    rng = np.random.default_rng(29)
    spec = nn.mlp((3, 4, 2))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(4, 3))
    with pytest.raises(ShapeError):
        curvature.normalized_traces(spec, params, x, 5)
    zeroed = params.copy()
    zeroed.weights[0][:] = 0.0
    with pytest.raises(DegenerateError):
        curvature.normalized_traces(spec, zeroed, x, 0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fisher_generalized_gn_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    dims = (3, rng.integers(2, 5), rng.integers(2, 4))
    spec = nn.mlp(tuple(int(d) for d in dims))
    params = nn.init_params(spec, rng)
    x = rng.normal(size=(5, 3))
    f = curvature.dense_curvature(curvature.FISHER_EXACT, spec, params, x)
    g = curvature.dense_curvature(curvature.GENERALIZED_GN, spec, params, x)
    assert np.linalg.norm(f - g) <= 1e-9 * max(np.linalg.norm(g), 1e-12)
