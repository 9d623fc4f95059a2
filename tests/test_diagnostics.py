import numpy as np
import numpy.testing as npt
import pytest

from wdlab import curvature, diagnostics, loss, nn
from wdlab.errors import ContractError, DegenerateError, DomainError, ShapeError

from helpers import central_diff_jacobian, load_metrics, random_net


# --- effective learning rate ------------------------------------------------


def test_effective_lr_worked_example():
    assert diagnostics.effective_lr(0.1, 2.0) == pytest.approx(0.025)


def test_effective_lr_unit_norm_is_identity():
    for eta in (1e-3, 0.1, 1.0):
        assert diagnostics.effective_lr(eta, 1.0) == eta


def test_effective_lr_quadratic_in_norm():
    base = diagnostics.effective_lr(0.05, 1.7)
    assert diagnostics.effective_lr(0.05, 2 * 1.7) == pytest.approx(base / 4)


def test_effective_lr_rejects_zero_norm():
    with pytest.raises(DegenerateError):
        diagnostics.effective_lr(0.1, 0.0)


# --- input-Jacobian Frobenius norm -----------------------------------------


def test_jacobian_norm_single_linear_layer():
    spec = nn.mlp([1, 1], activation="identity")
    params = nn.NetworkParams(weights=[np.array([[2.0]])])
    got = diagnostics.probe_norms(spec, params, np.array([[0.3], [-1.2]]))[0]
    assert got == pytest.approx(4.0)


def test_jacobian_norm_deep_linear_is_input_independent():
    rng = np.random.default_rng(5)
    spec, params = random_net(rng, [4, 3, 2], activation="identity")
    product = params.weights[1] @ params.weights[0]
    want = float(np.sum(product**2))
    for seed in (0, 1):
        x = np.random.default_rng(seed).normal(size=(6, 4))
        got = diagnostics.probe_norms(spec, params, x)[0]
        npt.assert_allclose(got, want, rtol=1e-12)


def test_jacobian_norm_matches_finite_differences_on_relu_net():
    rng = np.random.default_rng(11)
    spec, params = random_net(rng, [5, 6, 3], activation="relu")
    x = rng.normal(size=(4, 5))

    def per_example(row):
        def f(v):
            logits, _ = nn.forward(spec, params, v[None, :], mode="eval")
            return logits[0]

        return central_diff_jacobian(f, row)

    want = np.mean([np.sum(per_example(row) ** 2) for row in x])
    got = diagnostics.probe_norms(spec, params, x)[0]
    npt.assert_allclose(got, want, rtol=1e-4)


def test_jacobian_norm_uses_eval_mode_bn():
    rng = np.random.default_rng(21)
    spec, params = random_net(rng, [4, 5, 3], activation="relu", bn=True)
    x = rng.normal(size=(8, 4))
    state = nn.BnState.fresh(spec)
    nn.forward(spec, params, x, mode="train", bn_state=state)  # populate running stats
    got = diagnostics.probe_norms(spec, params, x, bn_state=state)[0]

    def per_example(row):
        def f(v):
            logits, _ = nn.forward(spec, params, v[None, :], mode="eval", bn_state=state)
            return logits[0]

        return central_diff_jacobian(f, row)

    want = np.mean([np.sum(per_example(row) ** 2) for row in x])
    npt.assert_allclose(got, want, rtol=1e-4)


def test_jacobian_norm_rejects_empty_input():
    spec = nn.mlp([2, 2], activation="identity")
    params = nn.init_params(spec, np.random.default_rng(0))
    with pytest.raises(DegenerateError):
        diagnostics.probe_norms(spec, params, np.zeros((0, 2)))


# --- metric-norm identity across modules ------------------------------------


def test_jacobian_norm_equals_block_norm_over_depth_on_whitened_linear_net():
    # On a bias-free linear net with exactly whitened inputs the layerwise
    # block norm equals (depth+1) times the mean squared input Jacobian.
    rng = np.random.default_rng(33)
    spec, params = random_net(rng, [6, 5, 4], activation="identity")
    raw = rng.normal(size=(40, 6))
    cov = raw.T @ raw / raw.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    x = raw @ (evecs / np.sqrt(evals)) @ evecs.T
    depth_plus_one = spec.n_layers
    jac, block = diagnostics.probe_norms(spec, params, x)
    npt.assert_allclose(jac, block / depth_plus_one, rtol=1e-8)


# --- norm transfer ----------------------------------------------------------


def _bn_net(rng, dims=(4, 6, 5, 3)):
    return random_net(rng, list(dims), activation="relu", bn=True)


def test_norm_transfer_sets_masked_norms_exactly():
    rng = np.random.default_rng(7)
    spec, params = _bn_net(rng)
    refs = np.array([0.7, 1.3, float(np.linalg.norm(params.weights[2]))])
    out = diagnostics.norm_transfer(spec, params, refs, (True, True, False))
    norms = nn.layer_norms(out)
    npt.assert_allclose(norms[:2], refs[:2], rtol=1e-12)
    npt.assert_array_equal(out.weights[2], params.weights[2])


def test_norm_transfer_preserves_function_on_bn_layers():
    # keep pre-activation variances far above the BN epsilon so the rescale
    # is exact to within the stated tolerance
    rng = np.random.default_rng(8)
    spec, params = _bn_net(rng)
    params.weights[1] = params.weights[1] * 10.0
    x = 10.0 * rng.normal(size=(16, 4))
    base, _ = nn.forward(spec, params, x, mode="train")
    norms = nn.layer_norms(params)
    refs = np.array([2 * norms[0], 3 * norms[1], 1.0])
    out = diagnostics.norm_transfer(spec, params, refs, (True, True, False))
    moved, _ = nn.forward(spec, out, x, mode="train")
    assert np.linalg.norm(moved - base) <= 1e-9 * np.linalg.norm(base)


def test_norm_transfer_halving_norm_quadruples_effective_lr():
    rng = np.random.default_rng(9)
    spec, params = _bn_net(rng)
    eta = 0.05
    before = diagnostics.effective_lr(eta, float(np.linalg.norm(params.weights[0])))
    half = float(np.linalg.norm(params.weights[0])) / 2
    out = diagnostics.norm_transfer(
        spec, params, (half, 1.0, 1.0), (True, False, False)
    )
    after = diagnostics.effective_lr(eta, float(np.linalg.norm(out.weights[0])))
    npt.assert_allclose(after, 4 * before, rtol=1e-12)


def test_norm_transfer_refuses_uncovered_layer():
    rng = np.random.default_rng(10)
    spec, params = _bn_net(rng)
    # the output layer carries no BN, so rescaling it changes the function
    with pytest.raises(ContractError):
        diagnostics.norm_transfer(spec, params, (1.0, 1.0, 1.0), (False, False, True))


def test_norm_transfer_validates_reference_norms_and_shapes():
    rng = np.random.default_rng(13)
    spec, params = _bn_net(rng)
    with pytest.raises(DomainError):
        diagnostics.norm_transfer(spec, params, (0.0, 1.0, 1.0), (True, False, False))
    with pytest.raises(ShapeError):
        diagnostics.norm_transfer(spec, params, (1.0, 1.0), (True, False))


def test_norm_transfer_does_not_mutate_input():
    rng = np.random.default_rng(14)
    spec, params = _bn_net(rng)
    snapshot = [w.copy() for w in params.weights]
    diagnostics.norm_transfer(spec, params, (1.0, 1.0, 1.0), (True, True, False))
    for before, after in zip(snapshot, params.weights):
        npt.assert_array_equal(before, after)


# --- evaluation -------------------------------------------------------------


def test_evaluate_perfect_classifier():
    spec = nn.mlp([2, 2], activation="identity")
    params = nn.NetworkParams(weights=[np.eye(2) * 5.0])
    x = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.5]])
    y = np.array([0, 1, 0])
    value, acc = diagnostics.evaluate(spec, params, x, y)
    assert acc == 1.0
    assert value < 0.01


def test_evaluate_accuracy_counts_argmax_matches():
    spec = nn.mlp([2, 2], activation="identity")
    params = nn.NetworkParams(weights=[np.eye(2)])
    x = np.array([[3.0, 0.0], [3.0, 0.0], [0.0, 3.0], [0.0, 3.0]])
    y = np.array([0, 1, 1, 1])
    _, acc = diagnostics.evaluate(spec, params, x, y)
    assert acc == pytest.approx(0.75)


def test_evaluate_forwards_near_equal_blocks_of_at_most_seed_rows(monkeypatch):
    rng = np.random.default_rng(12)
    spec, params = random_net(rng, [6, 8, 8, 3], activation="relu", bn=True)
    bn_state = nn.BnState.fresh(spec)
    nn.forward(spec, params, rng.normal(size=(16, 6)), mode="train", bn_state=bn_state)
    x = rng.normal(size=(23, 6))
    y = rng.integers(0, 3, size=23)
    whole, _ = nn.forward(spec, params, x, mode="eval", bn_state=bn_state)
    want_loss, _ = loss.loss_and_grad(whole, y)
    want_acc = float(np.mean(np.argmax(whole, axis=1) == y))

    blocks = []
    forward = nn.forward

    def counting(spec, params, x, *args, **kwargs):
        blocks.append(x)
        return forward(spec, params, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting)
    monkeypatch.setattr(nn, "SEED_ROWS", 5)
    got_loss, got_acc = diagnostics.evaluate(spec, params, x, y, bn_state=bn_state)
    assert [len(b) for b in blocks] == [5, 5, 5, 4, 4]  # ceil(23 / 5) balanced blocks
    npt.assert_array_equal(np.concatenate(blocks), x)  # every row once, in order
    # tiny blocks may take other BLAS kernels, so the last bits can move
    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    assert got_acc == pytest.approx(want_acc, rel=1e-12)


# --- records and the CSV log ------------------------------------------------


def _small_run_record(epoch=0, probe=True, traces=()):
    rng = np.random.default_rng(40 + epoch)
    spec, params = random_net(rng, [3, 4, 2], activation="relu")
    x_train = rng.normal(size=(12, 3))
    y_train = rng.integers(0, 2, size=12)
    x_test = rng.normal(size=(8, 3))
    y_test = rng.integers(0, 2, size=8)
    return diagnostics.record_metrics(
        epoch,
        spec,
        params,
        0.1,
        (x_train, y_train),
        (x_test, y_test),
        probe_x=x_train[:4] if probe else None,
        trace_x=x_train[:4] if traces else None,
        trace_layers=traces,
    )


def test_record_metrics_fields_are_consistent():
    rec = _small_run_record(traces=(0, 1))
    assert rec.epoch == 0
    assert rec.gen_gap == pytest.approx(rec.test_loss - rec.train_loss)
    assert len(rec.layer_norms) == 2
    for norm, lr in zip(rec.layer_norms, rec.effective_lrs):
        assert lr == pytest.approx(0.1 / norm**2)
    assert set(rec.fisher_traces) == {0, 1}
    assert set(rec.gn_traces) == {0, 1}
    assert np.isfinite(rec.jacobian_norm)
    assert np.isfinite(rec.gn_norm)
    assert np.isfinite(rec.kfac_gn_norm)


def test_bn_record_measures_the_network_it_evaluates():
    # with non-zero running means the block GN form of the running-statistics
    # network is not the mean-0/var-1 network's, and the homogeneity shortcut
    # behind gn_norm fails, so a BN record logs that one as NaN
    rng = np.random.default_rng(45)
    spec, params = _bn_net(rng)
    bn_state = nn.BnState.fresh(spec)
    for _ in range(5):
        nn.forward(spec, params, rng.normal(1.0, size=(16, 4)), mode="train", bn_state=bn_state)
    x = rng.normal(size=(12, 4))
    y = rng.integers(0, 3, size=12)
    expected = 0.0
    for l in range(spec.n_layers):
        def logits(t):
            scaled = params.copy()
            scaled.weights[l] = params.weights[l] * (1.0 + t)
            return nn.forward(spec, scaled, x, mode="eval", bn_state=bn_state)[0]

        jac_theta = (logits(1e-6) - logits(-1e-6)) / 2e-6  # J_l theta_l per example
        expected += float(np.sum(jac_theta**2)) / x.shape[0]
    got = diagnostics.probe_norms(spec, params, x, bn_state=bn_state)[1]
    npt.assert_allclose(got, expected, rtol=1e-6)
    assert abs(diagnostics.probe_norms(spec, params, x)[1] - expected) > 1e-3 * expected
    rec = diagnostics.record_metrics(0, spec, params, 0.1, (x, y), (x, y),
                                     bn_state=bn_state, probe_x=x)
    assert rec.kfac_gn_norm == got
    assert np.isnan(rec.gn_norm)


def _probe_setup(activation):
    """The 6-8-3 bias-free, BN-free net with 20 evaluation rows and the
    first 10 as probe rows."""
    rng = np.random.default_rng(46)
    spec, params = random_net(rng, [6, 8, 3], activation=activation)
    x = rng.normal(size=(20, 6))
    y = rng.integers(0, 3, size=20)
    return spec, params, (x, y), x[:10]


def test_record_metrics_runs_one_forward_per_pass(monkeypatch):
    spec, params, evaluation, probe_x = _probe_setup("relu")
    rows = []
    forward = nn.forward

    def counting(spec, params, x, *args, **kwargs):
        rows.append(x.shape[0])
        return forward(spec, params, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting)
    diagnostics.record_metrics(0, spec, params, 0.1, evaluation, evaluation, probe_x=probe_x)
    assert rows == [20, 20, 10]  # train and test evaluation, then the probe pass


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_record_gn_norm_matches_the_output_norm_shortcut(activation):
    spec, params, evaluation, probe_x = _probe_setup(activation)
    rec = diagnostics.record_metrics(0, spec, params, 0.1, evaluation, evaluation,
                                     probe_x=probe_x)
    want = curvature.gn_norm(spec, params, probe_x)
    assert rec.gn_norm == spec.n_layers * rec.kfac_gn_norm
    assert abs(rec.gn_norm - want) <= 1e-12 * want


def test_record_metrics_without_probe_leaves_nan():
    rec = _small_run_record(probe=False)
    assert np.isnan(rec.jacobian_norm)
    assert np.isnan(rec.gn_norm)
    assert np.isnan(rec.kfac_gn_norm)
    assert rec.fisher_traces == {}


def test_record_rejects_out_of_range_accuracy():
    with pytest.raises(DomainError):
        diagnostics.MetricRecord(
            epoch=0,
            train_loss=0.1,
            train_acc=1.5,
            test_loss=0.1,
            test_acc=0.5,
            gen_gap=0.0,
            jacobian_norm=1.0,
            gn_norm=1.0,
            kfac_gn_norm=1.0,
            layer_norms=(1.0,),
            effective_lrs=(0.1,),
        )


def _record_equal(a, b):
    if a.epoch != b.epoch:
        return False
    for name in (
        "train_loss",
        "train_acc",
        "test_loss",
        "test_acc",
        "gen_gap",
        "jacobian_norm",
        "gn_norm",
        "kfac_gn_norm",
    ):
        va, vb = getattr(a, name), getattr(b, name)
        if not (va == vb or (np.isnan(va) and np.isnan(vb))):
            return False
    return (
        a.layer_norms == b.layer_norms
        and a.effective_lrs == b.effective_lrs
        and a.fisher_traces == b.fisher_traces
        and a.gn_traces == b.gn_traces
    )


def test_metric_log_round_trips_exactly(tmp_path):
    path = tmp_path / "metrics.csv"
    log = diagnostics.MetricLog(path)
    records = [_small_run_record(epoch=e, traces=(0,)) for e in range(3)]
    for rec in records:
        log.append(rec)
    loaded = load_metrics(path)
    assert len(loaded) == 3
    for want, got in zip(records, loaded):
        assert _record_equal(want, got)


def test_metric_log_header_names_every_field(tmp_path):
    # MetricRecord's field order is the file's column order
    path = tmp_path / "metrics.csv"
    record = diagnostics.MetricRecord(
        epoch=0, train_loss=1.0, train_acc=0.5, test_loss=1.0, test_acc=0.5, gen_gap=0.0,
        jacobian_norm=1.0, gn_norm=1.0, kfac_gn_norm=1.0, layer_norms=(1.0, 2.0, 3.0),
        effective_lrs=(0.1, 0.02, 0.01), fisher_traces={1: 1.0, 0: 2.0},
        gn_traces={1: 1.0, 0: 2.0})
    diagnostics.MetricLog(path).append(record)
    assert path.read_text().splitlines()[0] == (
        "epoch,train_loss,train_acc,test_loss,test_acc,gen_gap,jacobian_norm,gn_norm,"
        "kfac_gn_norm,layer_norm_0,layer_norm_1,layer_norm_2,eff_lr_0,eff_lr_1,eff_lr_2,"
        "fisher_trace_0,fisher_trace_1,gn_trace_0,gn_trace_1")


def test_metric_log_rewrite_is_byte_identical(tmp_path):
    records = [_small_run_record(epoch=e) for e in range(2)]
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        log = diagnostics.MetricLog(path)
        for rec in records:
            log.append(rec)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_metric_log_nan_round_trips(tmp_path):
    path = tmp_path / "metrics.csv"
    diagnostics.MetricLog(path).append(_small_run_record(probe=False))
    loaded = load_metrics(path)
    assert np.isnan(loaded[0].jacobian_norm)


def test_metric_log_rejects_layout_change(tmp_path):
    path = tmp_path / "metrics.csv"
    log = diagnostics.MetricLog(path)
    log.append(_small_run_record(traces=(0,)))
    with pytest.raises(ShapeError):
        log.append(_small_run_record(traces=()))


def test_metric_log_starts_a_fresh_file(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("stale,header\n1,2\n")
    log = diagnostics.MetricLog(path)
    for epoch in (0, 1):
        log.append(_small_run_record(epoch=epoch))
    assert [r.epoch for r in load_metrics(path)] == [0, 1]
    assert path.read_text().count("epoch") == 1  # single header row


def test_float_formatting_survives_extremes(tmp_path):
    # 17 significant digits must reproduce any double exactly
    for v in (1 / 3, 1e-300, 123456789.123456789, 2.0**-52):
        assert float(format(v, ".17g")) == v
