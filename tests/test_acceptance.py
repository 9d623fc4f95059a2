"""Acceptance suite: one test per acceptance criterion.

Each criterion gets exactly one test function, so a verbose pytest run
prints one pass/fail line per criterion.  The three mechanism bundles are
executed once each (module-scoped fixtures) and their wall-clock times
feed the runtime criterion at the end.
"""

import dataclasses
import time

import numpy as np
import pytest

from wdlab import config, nn, optim, replicate, training, verify


@pytest.fixture(scope="module")
def mechanism1_run(tmp_path_factory):
    t0 = time.perf_counter()
    summary = replicate.mechanism1(tmp_path_factory.mktemp("accept_m1"),
                                   make_plots=False)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mechanism2_run(tmp_path_factory):
    t0 = time.perf_counter()
    summary = replicate.mechanism2(tmp_path_factory.mktemp("accept_m2"),
                                   make_plots=False)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mechanism3_run(tmp_path_factory):
    t0 = time.perf_counter()
    summary = replicate.mechanism3(tmp_path_factory.mktemp("accept_m3"),
                                   make_plots=False)
    return summary, time.perf_counter() - t0


def test_criterion_1_oracle_suite_passes_within_budget():
    t0 = time.perf_counter()
    reports = verify.run_all(seed=0, trials=100)
    elapsed = time.perf_counter() - t0
    assert len(reports) == len(verify.CHECKS)
    for report in reports:
        assert report.trials >= 100
        assert report.passed, (report.name, report.max_rel_error, report.tolerance)
    assert elapsed <= 120.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_2_sgd_couplings_agree_to_one_ulp():
    # Momentum-0 SGD: adding beta*theta to the gradient and decaying the
    # weights directly must produce the same 1000-step trajectory.
    from wdlab import loss

    spec = nn.mlp([5, 8, 3], activation="relu", bias=True)
    rng = np.random.default_rng(7)
    params_l2 = nn.init_params(spec, rng)
    params_wd = nn.NetworkParams(
        weights=[w.copy() for w in params_l2.weights],
        biases=[b.copy() for b in params_l2.biases],
    )
    n_layers = spec.n_layers
    l2 = optim.Coupling(mode="l2", beta=3e-3, mask=optim.mask_preset("all", n_layers))
    wd = optim.Coupling(mode="weight_decay", beta=3e-3,
                        mask=optim.mask_preset("all", n_layers))
    state_l2 = optim.SgdState(eta=0.05, momentum=0.0)
    state_wd = optim.SgdState(eta=0.05, momentum=0.0)
    data_rng = np.random.default_rng(11)

    def step(state, params, x, y, coupling):
        logits, trace = nn.forward(spec, params, x, mode="train")
        _, dl = loss.loss_and_grad(loss.CROSS_ENTROPY, logits, y)
        s_grads, _ = nn.vjp(spec, params, trace, dl)
        return optim.sgd_step(state, params, list(zip(s_grads, trace.layer_inputs)), coupling)

    for _ in range(1000):
        x = data_rng.normal(size=(8, 5))
        y = data_rng.integers(0, 3, size=8)
        params_l2 = step(state_l2, params_l2, x, y, l2)
        params_wd = step(state_wd, params_wd, x, y, wd)
    np.testing.assert_array_max_ulp(
        nn.flatten_params(spec, params_l2), nn.flatten_params(spec, params_wd),
        maxulp=1)


def test_criterion_3_effective_lr_mechanism(mechanism1_run):
    summary, _ = mechanism1_run
    # (a) decayed hidden norms strictly below baseline from the settle epoch,
    # for every seed, hence strictly higher effective learning rates
    assert all(summary["hidden_norms_below_baseline"].values())
    settle = summary["norm_settle_epoch"]
    for seed in summary["seeds"]:
        base = np.array(summary["effective_lr_series"]["baseline"][seed])
        decayed = np.array(summary["effective_lr_series"]["wd_hidden"][seed])
        assert (decayed[settle:, :2] > base[settle:, :2]).all()
    # (b) norm-transfer accuracy within half a point of decay, above baseline
    assert summary["transfer_vs_wd_gap_pp"] <= 0.5
    assert summary["transfer_above_baseline"]
    assert summary["passed"]


def test_criterion_4_jacobian_mechanism(mechanism2_run):
    summary, _ = mechanism2_run
    assert summary["mean_ratio_kfac"] > summary["mean_ratio_sgd"]
    assert len(summary["correlation_points"]) >= 8
    assert summary["all_nets_fit_training_set"]
    assert summary["pearson_r"] >= 0.8
    assert summary["passed"]


def test_criterion_5_damping_mechanism(mechanism3_run):
    summary, _ = mechanism3_run
    assert summary["train_acc"]["fisher_base"] >= 0.99
    assert summary["train_acc"]["fisher_wd"] >= 0.99
    assert summary["fisher_decay_factor"] >= 10.0
    assert summary["gn_change_factor"] <= 4.0
    mid = summary["mid_training_epoch"]
    no_wd = np.array(summary["damping_ratio_series"]["fisher_base"])
    with_wd = np.array(summary["damping_ratio_series"]["fisher_wd"])
    assert (no_wd[mid:] > with_wd[mid:]).all()
    # the optimizer's own ratio at every inversion: 30 epochs of 40 steps,
    # inverted every 100 steps
    kfac = summary["kfac_damping_ratio_series"]
    assert sorted(kfac) == ["fisher_base", "fisher_wd", "gn_base", "gn_wd"]
    for series in kfac.values():
        steps, ratios = zip(*series)
        assert list(steps) == list(range(0, 1200, 100))
        assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert summary["passed"]


def test_criterion_6_training_is_deterministic(tmp_path):
    cfg = config.ExperimentConfig(
        layer_dims=(6, 8, 3), n_train=120, n_val=0, n_test=30,
        batch_size=20, epochs=3, eta=0.1, probe_size=8,
        trace_layers=(0,), trace_size=8,
        out_dir=str(tmp_path / "a"), seed=13,
    )
    training.train(cfg)
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    training.train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    second = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert first == second


def test_criterion_7_mechanisms_fit_runtime_budget(mechanism1_run, mechanism2_run,
                                                   mechanism3_run):
    for name, (_, elapsed) in (("m1", mechanism1_run), ("m2", mechanism2_run),
                               ("m3", mechanism3_run)):
        assert elapsed <= 600.0, f"{name} took {elapsed:.0f}s"
