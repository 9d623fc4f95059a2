import csv
import dataclasses
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from wdlab import config, data, diagnostics, loss, nn, optim, training
from wdlab.errors import DomainError, TrainingDiverged

from helpers import load_metrics
from test_data import _idx_images, _idx_labels


def tiny_config(tmp_path, **kw):
    base = dict(
        layer_dims=(6, 8, 3),
        n_train=120,
        n_val=30,
        n_test=30,
        batch_size=20,
        epochs=2,
        eta=0.1,
        schedule=(),
        seed=3,
        probe_size=8,
        out_dir=str(tmp_path / "run"),
    )
    base.update(kw)
    return config.ExperimentConfig(**base)


def test_zero_epochs_yields_only_initial_record(tmp_path):
    cfg = tiny_config(tmp_path, epochs=0)
    result = training.train(cfg)
    assert len(result.records) == 1
    assert result.records[0].epoch == 0


def test_record_count_is_epochs_plus_one(tmp_path):
    cfg = tiny_config(tmp_path, epochs=3)
    result = training.train(cfg)
    assert [r.epoch for r in result.records] == [0, 1, 2, 3]
    loaded = load_metrics(result.metrics_path)
    assert len(loaded) == 4


def test_beta_zero_l2_equals_none(tmp_path):
    none_cfg = tiny_config(tmp_path, coupling="none", out_dir=str(tmp_path / "a"))
    l2_cfg = tiny_config(tmp_path, coupling="l2", beta=0.0, out_dir=str(tmp_path / "b"))
    a = training.train(none_cfg)
    b = training.train(l2_cfg)
    for wa, wb in zip(a.params.weights, b.params.weights):
        npt.assert_array_equal(wa, wb)


def test_separable_data_reaches_full_train_accuracy(tmp_path):
    # argmax of a linear teacher is separable for a linear student
    rng = np.random.default_rng(2)
    x = rng.normal(size=(150, 4))
    y = np.argmax(x @ rng.normal(0.0, 0.5, size=(3, 4)).T, axis=1)
    ds = data.make_splits(data.Dataset(x=x, y=y, n_classes=3), 90, 30, 30, seed=2)
    cfg = tiny_config(
        tmp_path,
        layer_dims=(4, 3),
        activation="identity",
        n_train=90,
        n_val=30,
        n_test=30,
        epochs=80,
        eta=1.0,
        batch_size=30,
        seed=1,
    )
    result = training.train(cfg, dataset=ds)
    assert result.final.train_acc == 1.0


def test_repeated_runs_are_byte_identical(tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        cfg = tiny_config(tmp_path, out_dir=str(tmp_path / name), trace_layers=(0,))
        result = training.train(cfg)
        with open(result.metrics_path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_rerun_in_same_directory_overwrites_metrics(tmp_path):
    cfg = tiny_config(tmp_path)
    first = training.train(cfg)
    again = training.train(cfg)
    assert len(load_metrics(again.metrics_path)) == cfg.epochs + 1


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_rerun_removes_the_stale_checkpoint(tmp_path):
    # a rerun that diverges writes no checkpoint, so none may be left for
    # `diag` to score under the rerun's config.ini
    cfg = tiny_config(tmp_path, activation="identity", probe_size=0)
    first = training.train(cfg)
    assert os.path.exists(first.checkpoint_path)
    with pytest.raises(TrainingDiverged):
        training.train(dataclasses.replace(cfg, eta=1e30, epochs=4))
    assert not os.path.exists(first.checkpoint_path)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_diagnostic_record(tmp_path):
    # cross-entropy gradients are bounded, so weight exponents only grow by
    # ~log10(eta) per step; a huge eta overflows within a couple of epochs
    cfg = tiny_config(tmp_path, activation="identity", eta=1e30, epochs=4, probe_size=0)
    with pytest.raises(TrainingDiverged) as exc_info:
        training.train(cfg)
    record = exc_info.value.record
    assert record["epoch"] >= 1
    assert not np.isfinite(record["loss"])


OVERFLOWING_KFAC = dict(layer_dims=(6, 5, 5, 3), n_train=40, n_val=8, n_test=16, epochs=3,
                        seed=0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("overrides, message", [
    (dict(optimizer="kfac_gn", eta=1e4, batch_size=8), "preconditioned gradient is not finite"),
    # a K-FAC factor overflows, and its inversion refuses it, before the loss does
    (dict(optimizer="kfac_fisher", activation="identity", batch_size=9, schedule=(1,),
          stats_every=2, invert_every=3), "matrix has non-finite entries"),
], ids=["gradient", "factor"])
def test_an_overflowing_kfac_step_is_divergence(tmp_path, overrides, message):
    cfg = tiny_config(tmp_path, **OVERFLOWING_KFAC, **overrides)
    with pytest.raises(TrainingDiverged, match=message) as exc_info:
        training.train(cfg)
    assert exc_info.value.record["epoch"] >= 1
    assert exc_info.value.record["loss"] is None  # the step did not finish


# BN makes layer 0 scale-invariant, so its weights overflow while the loss stays finite
OVERFLOWING_BN = dict(layer_dims=(8, 6, 6, 3), batchnorm=True, activation="identity",
                      eta=1e200, n_val=0, n_test=16, batch_size=16, epochs=3, seed=1,
                      probe_size=0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("n_train, where", [
    (64, "at epoch 1, batch offset 32"),  # the next minibatch's forward sees it
    (16, "at the epoch 2 record"),  # one minibatch an epoch: the record sees it
], ids=["minibatch", "epoch-record"])
def test_overflowing_weights_are_divergence(tmp_path, n_train, where):
    cfg = tiny_config(tmp_path, **OVERFLOWING_BN, n_train=n_train)
    with pytest.raises(TrainingDiverged, match=f"layer 0: non-finite weights {where}") as exc_info:
        training.train(cfg)
    assert exc_info.value.record["loss"] is None
    assert exc_info.value.record["eta"] == 1e200
    assert not os.path.exists(os.path.join(cfg.out_dir, "checkpoint.bin"))


def test_schedule_drops_recorded_effective_lr(tmp_path):
    cfg = tiny_config(tmp_path, epochs=3, schedule=(1,), eta=0.2)
    result = training.train(cfg)
    # epoch 1 trains at the base rate; epochs 2-3 at a tenth
    rec1, rec2 = result.records[1], result.records[2]
    assert rec1.effective_lrs[0] == pytest.approx(0.2 / rec1.layer_norms[0] ** 2)
    assert rec2.effective_lrs[0] == pytest.approx(0.02 / rec2.layer_norms[0] ** 2)


def test_checkpoint_written_and_loadable(tmp_path):
    cfg = tiny_config(tmp_path)
    result = training.train(cfg)
    spec, params, bn_state, seed, epoch = nn.load_checkpoint(result.checkpoint_path)
    assert spec == result.spec
    for saved, live in zip(params.weights, result.params.weights):
        npt.assert_array_equal(saved, live)
    assert bn_state is None
    assert seed == cfg.seed
    assert epoch == cfg.epochs


def test_kfac_run_smoke(tmp_path):
    cfg = tiny_config(
        tmp_path,
        optimizer="kfac_gn",
        eta=0.05,
        lam=1e-2,
        stats_every=2,
        invert_every=4,
        epochs=2,
    )
    result = training.train(cfg)
    assert np.isfinite(result.final.train_loss)
    assert len(result.records) == 3


def test_kfac_run_writes_health_log(tmp_path):
    # 120 rows / batch 20 = 6 steps an epoch, 12 in all: inversions at 0, 4, 8
    cfg = tiny_config(tmp_path, optimizer="kfac_fisher", batchnorm=True, eta=0.05,
                      lam=1e-2, stats_every=2, invert_every=4)
    result = training.train(cfg)
    with open(os.path.join(result.out_dir, "kfac_health.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    # FactorSpectrum's field order is the file's column order
    assert list(rows[0]) == ["step", "layer", "a_eig_min", "a_eig_max", "s_eig_min",
                             "s_eig_max", "damping_ratio", "steps_since_last_inversion"]
    assert [(int(r["step"]), int(r["layer"])) for r in rows] == [
        (step, l) for step in (0, 4, 8) for l in range(2)
    ]
    assert [int(r["steps_since_last_inversion"]) for r in rows] == [0, 0, 4, 4, 4, 4]
    for r in rows:
        assert 0.0 < float(r["damping_ratio"]) < float("inf")
        assert float(r["a_eig_min"]) <= float(r["a_eig_max"])
        assert float(r["s_eig_min"]) <= float(r["s_eig_max"])
    # the run result carries the same log
    assert [(step, l, float(sp.damping_ratio)) for step, spectra in result.kfac_health
            for l, sp in enumerate(spectra)] == [
        (int(r["step"]), int(r["layer"]), float(r["damping_ratio"])) for r in rows]


def test_sgd_run_writes_no_health_log(tmp_path):
    kfac = training.train(tiny_config(tmp_path, optimizer="kfac_gn", eta=0.05))
    assert os.path.exists(os.path.join(kfac.out_dir, "kfac_health.csv"))
    # rerunning the directory with SGD removes the stale K-FAC log
    result = training.train(tiny_config(tmp_path))
    assert not os.path.exists(os.path.join(result.out_dir, "kfac_health.csv"))
    assert result.kfac_health == [] and len(kfac.kfac_health) == 1  # one inversion, step 0


def test_manifest_names_config_seed_and_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    cfg = tiny_config(tmp_path, seed=11)
    result = training.train(cfg)
    with open(os.path.join(result.out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"config_sha256", "seed", "numpy", "blas", "threads",
                             "cpu_count", "git_revision"}
    with open(os.path.join(result.out_dir, "config.ini"), "rb") as fh:
        assert manifest["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert manifest["seed"] == 11
    assert manifest["numpy"] == np.__version__
    assert set(manifest["blas"]) == {"name", "version"}
    assert manifest["threads"] == {k: os.environ.get(k) for k in training.THREAD_VARS}
    assert manifest["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["git_revision"] == training.source_revision()


def test_metrics_bytes_do_not_depend_on_manifest_or_health_log(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, optimizer="kfac_gn", eta=0.05, invert_every=3)
    with_files = training.train(dataclasses.replace(cfg, out_dir=str(tmp_path / "a")))
    monkeypatch.setattr(training, "write_manifest", lambda *args: None)
    monkeypatch.setattr(diagnostics, "write_kfac_health", lambda *args: None)
    without = training.train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    assert sorted(os.listdir(tmp_path / "b")) == ["checkpoint.bin", "config.ini", "metrics.csv"]
    with open(with_files.metrics_path, "rb") as fa, open(without.metrics_path, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("kind", ["kfac_fisher", "kfac_gn"])
def test_kfac_minibatch_pass_returns_pre_step_batch_loss(tmp_path, kind):
    cfg = tiny_config(tmp_path, optimizer=kind, batchnorm=True)
    spec = cfg.network_spec()
    params = nn.init_params(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(20, 6))
    y = np.random.default_rng(2).integers(0, 3, size=20)
    logits, _ = nn.forward(spec, params, x, mode="train")
    expected, _ = loss.loss_and_grad(logits, y)
    bn_state = nn.BnState.fresh(spec)
    new, value = training._minibatch_pass(
        spec, params, bn_state, training.make_optimizer(cfg), cfg.coupling_obj(), x, y
    )
    assert value == expected
    assert not np.array_equal(new.weights[0], params.weights[0])
    once = nn.BnState.fresh(spec)  # the step updates the running stats once
    nn.forward(spec, params, x, mode="train", bn_state=once)
    assert np.array_equal(bn_state.means[0], once.means[0])
    assert np.array_equal(bn_state.variances[0], once.variances[0])


@pytest.mark.parametrize("kind", ["sgd", "adam", "kfac_gn", "kfac_fisher"])
def test_each_minibatch_runs_one_forward_loss_backward_and_step(tmp_path, monkeypatch, kind):
    # the step functions the benchmark counts see one train-mode forward, one
    # loss gradient and one backward per minibatch, all outside the step; a
    # K-FAC step only backpropagates its factor statistics
    cfg = tiny_config(tmp_path, optimizer=kind, batchnorm=kind == "kfac_fisher", eta=0.05,
                      probe_size=0, epochs=1, stats_every=2, invert_every=3)
    dataset = training.build_dataset(cfg)  # its teacher net runs forwards too
    events, scopes = [], []

    def count(module, name, label, scope=False):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append((tuple(scopes), f"{label} {kwargs['mode']}" if "mode" in kwargs else label))
            if scope:
                scopes.append(label)
            try:
                return original(*args, **kwargs)
            finally:
                if scope:
                    scopes.pop()

        monkeypatch.setattr(module, name, wrapper)

    count(nn, "forward", "forward")
    count(loss, "loss_and_grad", "loss")
    count(nn, "vjp", "vjp")
    count(optim, {"sgd": "sgd_step", "adam": "adam_step"}.get(kind, "kfac_step"), "step", True)
    count(diagnostics, "record_metrics", "record", True)
    training.train(cfg, dataset=dataset)
    steps = cfg.n_train // cfg.batch_size
    assert [e for scope, e in events if not scope] == (
        ["record"] + ["forward train", "loss", "vjp", "step"] * steps + ["record"])
    in_step = {e for scope, e in events if scope == ("step",)}
    assert in_step == ({"vjp"} if kind.startswith("kfac") else set())


def test_bn_run_records_traces(tmp_path):
    cfg = tiny_config(tmp_path, batchnorm=True, trace_layers=(0,), trace_size=16)
    result = training.train(cfg)
    rec = result.final
    assert 0 in rec.fisher_traces and np.isfinite(rec.fisher_traces[0])
    assert 0 in rec.gn_traces and np.isfinite(rec.gn_traces[0])


def test_norm_transfer_plan_pins_masked_norms(tmp_path):
    ref_cfg = tiny_config(
        tmp_path, batchnorm=True, coupling="weight_decay", beta=5e-3,
        mask="hidden_only", out_dir=str(tmp_path / "wd"),
    )
    ref = training.train(ref_cfg)
    norms = np.array([r.layer_norms for r in ref.records])
    plan = training.NormTransferPlan(mask=(True, False), norms_by_epoch=norms)
    wn_cfg = tiny_config(tmp_path, batchnorm=True, out_dir=str(tmp_path / "wn"))
    wn = training.train(wn_cfg, norm_plan=plan)
    for epoch in range(1, wn_cfg.epochs + 1):
        npt.assert_allclose(
            wn.records[epoch].layer_norms[0], norms[epoch, 0], rtol=1e-12
        )


def test_norm_transfer_plan_shape_checked(tmp_path):
    cfg = tiny_config(tmp_path, batchnorm=True)
    plan = training.NormTransferPlan(mask=(True, False), norms_by_epoch=np.ones((1, 2)))
    with pytest.raises(DomainError):
        training.train(cfg, norm_plan=plan)


def test_shared_dataset_override(tmp_path):
    cfg = tiny_config(tmp_path)
    ds = training.build_dataset(cfg)
    a = training.train(cfg, dataset=ds)
    b = training.train(
        dataclasses.replace(cfg, out_dir=str(tmp_path / "b")), dataset=ds
    )
    npt.assert_array_equal(a.params.weights[0], b.params.weights[0])


# --- grid search ------------------------------------------------------------


def test_grid_singleton_wins(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    result = training.grid(cfg, etas=[0.1], betas=[1e-3])
    assert result.best.eta == 0.1 and result.best.beta == 1e-3
    assert result.best.status == "trained"
    assert result.final.config.out_dir.endswith("best")


def test_grid_rejects_unstable_cells_without_crashing(tmp_path):
    cfg = tiny_config(tmp_path, epochs=0, coupling="weight_decay")
    result = training.grid(cfg, etas=[0.1, 10.0], betas=[0.0, 0.2])
    by_key = {(c.eta, c.beta): c for c in result.cells}
    assert by_key[(10.0, 0.2)].status == "rejected"
    assert by_key[(0.1, 0.0)].status == "trained"


def test_grid_tie_break_prefers_smaller_beta_then_eta(tmp_path):
    # zero-epoch cells share the same initialization, so accuracies tie exactly
    cfg = tiny_config(tmp_path, epochs=0)
    result = training.grid(cfg, etas=[0.2, 0.1], betas=[1e-2, 1e-3])
    accs = {c.val_accuracy for c in result.cells}
    assert len(accs) == 1
    assert result.best.beta == 1e-3
    assert result.best.eta == 0.1


def test_grid_builds_its_dataset_once(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, epochs=1)
    calls = []
    gen = data.gen_synthetic

    def counting(*args, **kwargs):
        calls.append(args)
        return gen(*args, **kwargs)

    monkeypatch.setattr(data, "gen_synthetic", counting)
    result = training.grid(cfg, etas=[0.1, 0.05], betas=[0.0, 1e-3])
    assert len(calls) == 1
    # each cell writes the bytes of a run that builds its own dataset
    for cell in result.cells:
        alone = training.train(dataclasses.replace(
            cfg, eta=cell.eta, beta=cell.beta, out_dir=str(tmp_path / "alone")))
        cell_csv = Path(cell.out_dir) / "metrics.csv"
        assert cell_csv.read_bytes() == Path(alone.metrics_path).read_bytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_grid_marks_an_overflowing_kfac_cell_diverged(tmp_path):
    cfg = tiny_config(tmp_path, **OVERFLOWING_KFAC, optimizer="kfac_gn", batch_size=8)
    result = training.grid(cfg, etas=[0.01, 1e4], betas=[0.0])
    by_eta = {c.eta: c for c in result.cells}
    assert by_eta[1e4].status == "diverged"
    assert "preconditioned gradient is not finite" in by_eta[1e4].detail
    assert by_eta[0.01].status == "trained" and result.best.eta == 0.01


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_grid_marks_a_cell_with_overflowing_weights_diverged(tmp_path):
    cfg = tiny_config(tmp_path, **dict(OVERFLOWING_BN, n_val=16), n_train=64)
    result = training.grid(cfg, etas=[0.1, 1e200], betas=[0.0])
    by_eta = {c.eta: c for c in result.cells}
    assert by_eta[1e200].status == "diverged"
    assert "non-finite weights" in by_eta[1e200].detail
    assert by_eta[0.1].status == "trained" and result.best.eta == 0.1


def test_grid_retrain_trains_on_the_cells_train_then_val_rows(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, epochs=1)
    datasets = []
    real = training.train

    def spying(cfg, dataset=None, norm_plan=None):
        datasets.append(dataset)
        return real(cfg, dataset=dataset, norm_plan=norm_plan)

    monkeypatch.setattr(training, "train", spying)
    result = training.grid(cfg, etas=[0.1, 0.05], betas=[0.0])
    *cells, retrain = datasets
    assert len(cells) == 2 and cells[0] is cells[1]
    for i in (0, 1):  # features, then labels
        npt.assert_array_equal(retrain.split("train")[i], np.concatenate(
            [cells[0].split("train")[i], cells[0].split("val")[i]]))
        npt.assert_array_equal(retrain.split("test")[i], cells[0].split("test")[i])
    assert retrain.n_val == 0
    # the rows `diag` rebuilds from the retrain's config.ini
    rebuilt = training.build_dataset(config.load_config(Path(result.final.out_dir) / "config.ini"))
    assert (rebuilt.n_train, rebuilt.n_val, rebuilt.n_test) == (150, 0, 30)
    npt.assert_array_equal(rebuilt.x, retrain.x)


def test_records_measure_views_of_the_dataset(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, epochs=1, trace_layers=(0,), trace_size=8)
    dataset = training.build_dataset(cfg)
    measured = []
    real = diagnostics.record_metrics

    def spying(*args, **kwargs):
        measured.append([*args[4], *args[5], kwargs["probe_x"], kwargs["trace_x"]])
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "record_metrics", spying)
    training.train(cfg, dataset=dataset)
    assert len(measured) == 2
    for x_train, y_train, x_test, y_test, probe_x, trace_x in measured:
        for rows in (x_train, x_test, probe_x, trace_x):
            assert np.shares_memory(rows, dataset.x)
        for labels in (y_train, y_test):
            assert np.shares_memory(labels, dataset.y)


def test_grid_refuses_an_empty_validation_split_before_training(tmp_path):
    cfg = tiny_config(tmp_path, n_val=0)
    with pytest.raises(DomainError, match="validation"):
        training.grid(cfg, etas=[0.1], betas=[0.0])
    assert not (tmp_path / "run" / "cells").exists()


def test_grid_needs_nonempty_axes(tmp_path):
    cfg = tiny_config(tmp_path, epochs=0)
    with pytest.raises(DomainError):
        training.grid(cfg, etas=[], betas=[0.1])


def test_grid_all_cells_rejected_is_an_error(tmp_path):
    cfg = tiny_config(tmp_path, epochs=0, coupling="weight_decay")
    with pytest.raises(DomainError):
        training.grid(cfg, etas=[10.0], betas=[0.5])


def test_grid_trains_a_large_eta_beta_cell_when_no_decay_runs(tmp_path):
    # beta only acts through a decay coupling, so under `none` eta*beta >= 1 is harmless
    cfg = tiny_config(tmp_path, epochs=1)
    result = training.grid(cfg, etas=[0.5], betas=[4.0])
    assert [c.status for c in result.cells] == ["trained"]
    assert result.best.beta == 4.0


def test_grid_parallel_jobs_match_serial(tmp_path):
    cfg_a = tiny_config(tmp_path, epochs=1, out_dir=str(tmp_path / "serial"))
    cfg_b = tiny_config(tmp_path, epochs=1, out_dir=str(tmp_path / "parallel"))
    serial = training.grid(cfg_a, etas=[0.1, 0.05], betas=[0.0], jobs=1)
    parallel = training.grid(cfg_b, etas=[0.1, 0.05], betas=[0.0], jobs=2)
    assert serial.best.eta == parallel.best.eta
    sa = {(c.eta, c.beta): c.val_accuracy for c in serial.cells}
    pa = {(c.eta, c.beta): c.val_accuracy for c in parallel.cells}
    assert sa == pa


def test_build_dataset_holds_its_rows_once(tmp_path):
    # wide rows and a pool of several row blocks, so the teacher's forward and
    # a block's temporary are small beside the pool
    cfg = tiny_config(tmp_path, layer_dims=(784, 8, 3), n_train=1500, n_val=250, n_test=250)
    tracemalloc.start()
    try:
        ds = training.build_dataset(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 2000
    assert peak < 1.5 * (ds.x.nbytes + ds.y.nbytes)


def test_build_dataset_converts_only_the_kept_mnist_rows(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 256, size=(3000, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=3000)
    (tmp_path / "images.idx").write_bytes(_idx_images(images))
    (tmp_path / "labels.idx").write_bytes(_idx_labels(labels))
    cfg = tiny_config(tmp_path, dataset="mnist", mnist_images=str(tmp_path / "images.idx"),
                      mnist_labels=str(tmp_path / "labels.idx"), layer_dims=(784, 8, 10),
                      n_train=200, n_val=50, n_test=50)
    pool_bytes = images.size * 8
    tracemalloc.start()
    try:
        ds = training.build_dataset(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pool_bytes
    # the same rows and values as splitting the whole float pool
    pool = data.Dataset(x=images.reshape(3000, -1).astype(np.float64) / 255.0, y=labels,
                        n_classes=10)
    want = data.make_splits(pool, 200, 50, 50, seed=cfg.seed)
    assert np.array_equal(ds.x, want.x) and np.array_equal(ds.y, want.y)
    assert (ds.n_train, ds.n_val, ds.n_test) == (200, 50, 50)


def test_build_dataset_synthetic_split_sizes(tmp_path):
    cfg = tiny_config(tmp_path)
    ds = training.build_dataset(cfg)
    assert (ds.n_train, ds.n_val, ds.n_test) == (120, 30, 30)
    assert ds.n == 180  # only the drawn rows are kept
    assert [ds.split(name)[0].shape[0] for name in ("train", "val", "test")] == [120, 30, 30]
