import numpy as np
import pytest

from wdlab import curvature, loss, nn, optim, verify
from wdlab.errors import DegenerateError

TRIALS = 25  # the acceptance gate runs the full 100; keep unit tests brisk


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_each_check_passes(name):
    report = verify.CHECKS[name](trials=TRIALS, seed=11)
    assert report.passed, f"{name}: {report.max_rel_error} > {report.tolerance}"
    assert report.trials == TRIALS
    assert report.name == name


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_checks_are_deterministic(name):
    a = verify.CHECKS[name](trials=10, seed=5)
    b = verify.CHECKS[name](trials=10, seed=5)
    assert a == b


@pytest.mark.parametrize("seed", [10, 23, 124, 416680687])
def test_bn_scale_invariance_passes_on_seeds_with_small_bn_variance(seed):
    # these master seeds once drew a layer-1 batch variance near the BN epsilon
    [report] = verify.run_all(seed=seed, trials=100, only="bn_scale_invariance")
    assert report.passed, report.max_rel_error


def test_report_serializes_to_plain_dict():
    report = verify.check_homogeneity(trials=3, seed=2)
    d = report.to_dict()
    assert d["name"] == "homogeneity_identities"
    assert isinstance(d["max_rel_error"], float)
    assert d["passed"] is True


def test_registry_keeps_its_order_and_names():
    # each check's seed follows its position, so a reorder re-seeds the suite
    assert list(verify.CHECKS) == [
        "homogeneity_identities", "gn_norm_identities", "whitened_jacobian_norm",
        "fisher_gn_equivalences", "bn_scale_invariance", "normalized_update_rules",
        "curvature_block_scaling", "gn_norm_gradient", "kfac_linear_exactness",
    ]
    # callers and the benchmark's tracer reach each check by its __name__
    assert all(getattr(verify, fn.__name__) is fn for fn in verify.CHECKS.values())


def test_bias_free_nets_are_never_dead():
    # a 2-unit ReLU layer is often dead on all 4 inputs; then J = 0
    def dead(spec, params, x):
        return not nn.forward(spec, params, x, mode="eval")[0].any()

    first_draws_dead = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = nn.mlp([2, 2, 2], activation="relu")
        params = nn.init_params(spec, rng)
        first_draws_dead += dead(spec, params, rng.normal(size=(4, 2)))
        spec, params, x, trace = verify._bias_free_net(np.random.default_rng(seed), [2, 2, 2],
                                                       4, margin=0.0)
        assert not dead(spec, params, x)
        # the returned trace is the accepted draw's eval-mode forward
        assert trace.mode == "eval"
        assert np.array_equal(trace.logits, nn.forward(spec, params, x, mode="eval")[0])
    assert first_draws_dead > 0


def test_run_all_covers_every_check():
    reports = verify.run_all(seed=3, trials=5)
    assert len(reports) == len(verify.CHECKS)
    assert [r.name for r in reports] == list(verify.CHECKS)
    assert all(r.passed for r in reports)


def test_run_all_only_filter():
    reports = verify.run_all(seed=3, trials=5, only="bn_scale_invariance")
    assert len(reports) == 1
    assert reports[0].name == "bn_scale_invariance"
    with pytest.raises(DegenerateError, match="unknown check"):
        verify.run_all(seed=3, only="nope")


def test_run_all_derives_distinct_check_seeds():
    reports = verify.run_all(seed=3, trials=5)
    assert len({r.seed for r in reports}) == len(reports)


def test_corrupted_backward_fails_homogeneity_check(monkeypatch):
    true_vjp = nn.vjp

    def corrupted(spec, params, trace, seeds, **kw):
        s_grads, x_grads = true_vjp(spec, params, trace, seeds, **kw)
        s_grads[0] = s_grads[0] * 1.001
        return s_grads, x_grads

    monkeypatch.setattr(nn, "vjp", corrupted)
    report = verify.check_homogeneity(trials=5, seed=0)
    assert not report.passed


def test_corrupted_curvature_fails_scaling_check(monkeypatch):
    true_scale = nn.scale_layer

    def biased(params, layer, alpha):
        return true_scale(params, layer, alpha * 1.001)

    monkeypatch.setattr(nn, "scale_layer", biased)
    report = verify.check_curvature_scaling(trials=5, seed=0)
    assert not report.passed


@pytest.mark.parametrize("name, per_trial, per_tenth_trial", [
    ("normalized_update_rules", 2, 0),
    ("fisher_gn_equivalences", 1, 1),  # plus the degenerate one-class net
    ("curvature_block_scaling", 2, 0),
])
def test_checks_build_each_jacobian_once(monkeypatch, name, per_trial, per_tenth_trial):
    true_jacobian = nn.param_jacobian
    calls = []

    def counted(spec, params, trace):
        calls.append(None)
        return true_jacobian(spec, params, trace)

    monkeypatch.setattr(nn, "param_jacobian", counted)
    report = verify.CHECKS[name](trials=10, seed=4)
    assert report.passed
    assert len(calls) == 10 * per_trial + per_tenth_trial


def test_equivalence_control_flags_a_fisher_equal_to_gn(monkeypatch):
    true_reduce = curvature.curvature_from_jacobians

    def gn_everywhere(kind, logits, jac, loss_kind=loss.CROSS_ENTROPY):
        return true_reduce(curvature.GAUSS_NEWTON, logits, jac, loss_kind)

    monkeypatch.setattr(curvature, "curvature_from_jacobians", gn_everywhere)
    assert verify.check_equivalences(trials=3, seed=0).max_rel_error == float("inf")


def test_update_rule_control_flags_a_kept_norm_factor(monkeypatch):
    # a control that still divides by ||w||^2 is second order and undetected
    true_step = optim.reference_normalized_sgd_step
    norms = []

    def keeps_norm(theta_hat, norm_l, grad, eta):
        if norm_l != 1.0:
            norms.append(norm_l)
        return true_step(theta_hat, norms[-1], grad, eta)

    monkeypatch.setattr(optim, "reference_normalized_sgd_step", keeps_norm)
    assert verify.check_update_rules(trials=3, seed=0).max_rel_error == float("inf")


def test_scaling_control_flags_an_output_block_that_scales(monkeypatch):
    # every second Jacobian is the rescaled net's; shrinking its output-layer
    # columns by alpha makes that block scale as 1/alpha^2 too
    true_jacobians = curvature.per_example_param_jacobians
    out = nn.layer_slices(nn.mlp([3, 5, 4, 2], activation="relu", bn=True))[-1]
    calls = []

    def shrunk(spec, params, x):
        logits, jac = true_jacobians(spec, params, x)
        calls.append(None)
        if len(calls) % 2 == 0:
            jac = jac.copy()
            jac[..., out] /= 2.0
        return logits, jac

    monkeypatch.setattr(curvature, "per_example_param_jacobians", shrunk)
    assert verify.check_curvature_scaling(trials=3, seed=0).max_rel_error == float("inf")
