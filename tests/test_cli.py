"""End-to-end tests for the command-line interface (in-process)."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wdlab import cli, config, verify
from wdlab.verify import CheckReport

from helpers import load_metrics
from test_data import _idx_images, _idx_labels


def tiny_config(out_dir, **overrides):
    base = dict(
        layer_dims=(6, 8, 3),
        n_train=120, n_val=30, n_test=30,
        batch_size=20, epochs=2, eta=0.1,
        probe_size=8, out_dir=str(out_dir), seed=0,
    )
    base.update(overrides)
    return config.ExperimentConfig(**base)


def write_ini(tmp_path, cfg):
    path = tmp_path / "run.ini"
    path.write_text(config.to_ini(cfg))
    return path


def test_train_command_runs_and_reports(tmp_path, capsys):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "run"))
    code = cli.main(["train", "--config", str(ini)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert "test loss" in out


def test_train_flag_overrides_win(tmp_path):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "run"))
    other = tmp_path / "elsewhere"
    code = cli.main(["train", "--config", str(ini), "--seed", "5",
                     "--out", str(other), "--set", "run.epochs=0"])
    assert code == 0
    records = load_metrics(other / "metrics.csv")
    assert len(records) == 1  # epochs override took effect


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_reports_divergence(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "run", activation="identity", eta=1e30,
                      epochs=4, probe_size=0)
    ini = write_ini(tmp_path, cfg)
    code = cli.main(["train", "--config", str(ini)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_reports_an_overflowing_kfac_step_as_divergence(tmp_path, capsys):
    # the preconditioned gradient overflows while the loss is still finite
    cfg = tiny_config(tmp_path / "run", layer_dims=(6, 5, 5, 3), n_train=40, n_val=8,
                      n_test=16, epochs=3, optimizer="kfac_gn", eta=1e4, batch_size=8)
    code = cli.main(["train", "--config", str(write_ini(tmp_path, cfg))])
    assert code == 1
    err = capsys.readouterr().err
    assert "diverged" in err and "error:" not in err
    # the message says what diverged, then the record gives where
    assert "preconditioned gradient is not finite at epoch" in err
    assert "'epoch':" in err and "'offset':" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_reports_overflowing_weights_as_divergence(tmp_path, capsys):
    # BN keeps the loss finite while layer 0's weights overflow
    code = cli.main(["train", "--seed", "1", "--out", str(tmp_path / "run"), *[
        arg for setting in (
            "model.dims=8,6,6,3", "model.batchnorm=yes", "model.activation=identity",
            "optimizer.eta=1e200", "data.train=64", "data.val=0", "data.test=16",
            "run.batch=16", "run.epochs=3", "run.schedule=", "diagnostics.probe=0")
        for arg in ("--set", setting)]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("diverged: layer 0: non-finite weights at epoch")
    assert "error:" not in err


def test_bad_config_value_is_a_user_error(tmp_path, capsys):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "run"))
    code = cli.main(["train", "--config", str(ini), "--set", "optimizer.kind=magic"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_damping_fails_before_writing_anything(tmp_path, capsys):
    out_dir = tmp_path / "run"
    ini = write_ini(tmp_path, tiny_config(out_dir, optimizer="kfac_gn"))
    code = cli.main(["train", "--config", str(ini), "--set", "optimizer.damping=isotropic"])
    assert code == 2
    assert "damping" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("override, message", [
    ("optimizer.eta=0", "eta"),
    ("optimizer.momentum=0.9", "momentum"),
    ("diagnostics.probe=31", "probe size"),
    ("diagnostics.trace=1", "trace size"),
    ("diagnostics.probe=-5", "negative probe or trace size"),
    ("diagnostics.trace=-2", "negative probe or trace size"),
    ("optimizer.factor_decay=1.5", "factor decay"),
    ("coupling.beta=20", "eta * beta"),
    ("run.batch=1", "batch size"),
    ("model.dims=6,8,20", "20 classes"),
    ("model.dims=", "need at least one weight layer"),
    ("model.activation=tanh", "unknown activation"),
    ("run.schedule=-1", "schedule"),
    ("run.schedule=24,12", "schedule"),
    ("optimizer.eta=nan", "eta must be finite"),
    ("optimizer.eta=inf", "eta must be finite"),
    ("coupling.beta=nan", "beta must be finite"),
    ("optimizer.lam=nan", "lam must be finite"),
    ("run.seed=-1", "seed must be nonnegative"),
    ("model.bias=yes", "every net is bias-free"),
])
def test_bad_run_settings_fail_before_writing_anything(tmp_path, capsys, override, message):
    out_dir = tmp_path / "run"
    ini = write_ini(tmp_path, tiny_config(out_dir, optimizer="adam", batchnorm=True,
                                          coupling="l2", trace_layers=(0,), trace_size=4))
    code = cli.main(["train", "--config", str(ini), "--set", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    ("[run]\nout = {out}\nepochs = 1\nepochs = 2\n", "option 'epochs' in section 'run' already exists"),
    ("[run]\nout = {out}\n[run]\nepochs = 2\n", "section 'run' already exists"),
    ("out = {out}\n", "File contains no section headers"),
], ids=["duplicate-key", "duplicate-section", "no-section"])
def test_malformed_ini_fails_before_writing_anything(tmp_path, capsys, text, message):
    out_dir = tmp_path / "run"
    ini = tmp_path / "run.ini"
    ini.write_text(text.format(out=out_dir))
    code = cli.main(["train", "--config", str(ini)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {ini}: malformed INI" in err and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("dims, message", [
    ((5, 5, 3), "4 pixels"),
    ((4, 5, 3), "label 3"),
])
def test_mnist_pool_that_does_not_fit_the_net_fails_before_writing_anything(
        tmp_path, capsys, dims, message):
    rng = np.random.default_rng(7)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(_idx_images(rng.integers(0, 256, size=(40, 2, 2))))
    labels.write_bytes(_idx_labels(np.arange(40) % 4))
    out_dir = tmp_path / "run"
    cfg = tiny_config(out_dir, dataset="mnist", mnist_images=str(images),
                      mnist_labels=str(labels), layer_dims=dims,
                      n_train=20, n_val=10, n_test=10, batch_size=10)
    code = cli.main(["train", "--config", str(write_ini(tmp_path, cfg))])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_grid_command_picks_and_retrains(tmp_path, capsys):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "grid", epochs=1, coupling="weight_decay"))
    code = cli.main(["grid", "--config", str(ini), "--etas", "0.1",
                     "--betas", "0,10"])  # eta*beta >= 1 cell must be rejected
    out = capsys.readouterr().out
    assert code == 0
    assert "eta=0.1 beta=10: rejected val_acc=-" in out
    assert "nan" not in out
    assert "best: eta=0.1 beta=0" in out


@pytest.mark.parametrize("etas, betas, coupling, message", [
    ("0.1,-1", "0", "none", "eta must be positive"),
    ("0.1", "0,-0.5", "weight_decay", "beta must be nonnegative"),
    ("abc", "0", "none", "error: bad grid axis"),
    (",", "0", "none", "error: bad grid axis"),
])
def test_grid_refuses_a_bad_axis_value_before_any_cell_trains(tmp_path, capsys, etas, betas,
                                                              coupling, message):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "grid", epochs=1, coupling=coupling))
    code = cli.main(["grid", "--config", str(ini), "--etas", etas, "--betas", betas])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "grid" / "cells").exists()


def test_grid_refuses_a_net_without_a_weight_layer_before_writing_anything(tmp_path, capsys):
    ini = write_ini(tmp_path, tiny_config(tmp_path / "grid"))
    code = cli.main(["grid", "--config", str(ini), "--etas", "0.1", "--betas", "0",
                     "--set", "model.dims="])
    assert code == 2
    assert "error: need at least one weight layer" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_diag_reproduces_the_grid_retrain(tmp_path, capsys):
    # the retrain trains on train+val, and its config.ini must say so for
    # diag (or a plain train run of that config) to give back its metrics
    cfg = tiny_config(tmp_path / "grid", epochs=2, trace_layers=(0,), trace_size=16)
    assert cli.main(["grid", "--config", str(write_ini(tmp_path, cfg)),
                     "--etas", "0.1", "--betas", "0"]) == 0
    best = tmp_path / "grid" / "best"
    retrained = config.load_config(best / "config.ini")
    assert (retrained.n_train, retrained.n_val) == (cfg.n_train + cfg.n_val, 0)
    capsys.readouterr()
    assert cli.main(["diag", str(best / "checkpoint.bin")]) == 0
    payload = json.loads(capsys.readouterr().out)
    final = load_metrics(best / "metrics.csv")[-1]
    assert payload["train_loss"] == pytest.approx(final.train_loss, rel=1e-12)
    assert payload["test_loss"] == pytest.approx(final.test_loss, rel=1e-12)
    assert payload["gn_traces"]["0"] == pytest.approx(final.gn_traces[0], rel=1e-12)
    assert cli.main(["train", "--config", str(best / "config.ini"),
                     "--out", str(tmp_path / "plain")]) == 0
    assert (tmp_path / "plain" / "metrics.csv").read_bytes() == (best / "metrics.csv").read_bytes()


def test_verify_command_passes_and_writes_json(tmp_path, capsys):
    report_path = tmp_path / "reports" / "oracles.json"
    code = cli.main(["verify", "--trials", "3", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == len(verify.CHECKS)
    payload = json.loads(report_path.read_text())
    assert sorted(entry["name"] for entry in payload) == sorted(verify.CHECKS)
    assert all(entry["passed"] for entry in payload)


def test_verify_only_runs_one_check(capsys):
    code = cli.main(["verify", "--trials", "2", "--only", "gn_norm_identities"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1
    assert "gn_norm_identities" in out


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"], ["--seed", "-1"]])
def test_verify_refuses_no_trials_or_a_negative_seed(tmp_path, capsys, flags):
    report_path = tmp_path / "oracles.json"
    assert cli.main(["verify", *flags, "--json", str(report_path)]) == 2
    captured = capsys.readouterr()
    assert "need trials >= 1 and seed >= 0" in captured.err
    assert "PASS" not in captured.out
    assert not report_path.exists()


def test_verify_failure_sets_exit_status(monkeypatch, capsys):
    failing = CheckReport(name="gn_norm_identities", trials=2,
                          max_rel_error=1.0, tolerance=1e-8, seed=0)
    monkeypatch.setattr(cli.verify, "run_all", lambda **kw: [failing])
    code = cli.main(["verify", "--trials", "2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_replicate_only_invokes_one_mechanism(tmp_path, monkeypatch, capsys):
    calls = []

    def fake(out_dir, make_plots=True):
        calls.append((str(out_dir), make_plots))
        return {"mechanism": "jacobian_regularization", "passed": True}

    monkeypatch.setattr(cli.replicate, "mechanism2", fake)
    code = cli.main(["replicate", "--only", "m2", "--out", str(tmp_path / "rep"),
                     "--no-plots"])
    assert code == 0
    assert calls == [(str(tmp_path / "rep" / "m2"), False)]
    assert "pass" in capsys.readouterr().out


def test_replicate_only_keeps_each_bundle_in_its_own_directory(tmp_path, monkeypatch):
    # as in the full run, m2 and then m3 into one --out leave both summaries
    def stub(key):
        return lambda out_dir, make_plots=True: cli.replicate._write_summary(
            out_dir, {"mechanism": key, "passed": True})

    monkeypatch.setattr(cli.replicate, "mechanism2", stub("m2"))
    monkeypatch.setattr(cli.replicate, "mechanism3", stub("m3"))
    for key in ("m2", "m3"):
        assert cli.main(["replicate", "--only", key, "--out", str(tmp_path / "rep")]) == 0
    for key in ("m2", "m3"):
        summary = json.loads((tmp_path / "rep" / key / "summary.json").read_text())
        assert summary["mechanism"] == key
    assert not (tmp_path / "rep" / "summary.json").exists()


def test_replicate_failure_sets_exit_status(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli.replicate, "mechanism3",
        lambda out_dir, make_plots=True: {"mechanism": "effective_damping",
                                          "passed": False})
    code = cli.main(["replicate", "--only", "m3", "--out", str(tmp_path / "rep")])
    assert code == 1


def test_diag_command_reads_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "run%1"  # INI values are read and written without interpolation
    ini = write_ini(tmp_path, tiny_config(out_dir))
    assert cli.main(["train", "--config", str(ini)]) == 0
    assert config.load_config(out_dir / "config.ini").out_dir == str(out_dir)
    capsys.readouterr()
    json_path = tmp_path / "diag.json"
    code = cli.main(["diag", str(out_dir / "checkpoint.bin"),
                     "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["epoch"] == 2
    assert 0.0 <= payload["test_acc"] <= 1.0
    assert json.loads(json_path.read_text()) == payload


@pytest.mark.parametrize("net", [
    dict(),
    dict(layer_dims=(6, 8, 8, 3), batchnorm=True, seed=3, probe_size=16),
], ids=["plain", "bn"])
def test_diag_matches_recorded_metrics(tmp_path, capsys, net):
    # The checkpoint holds the weights and a BN net's running statistics, so
    # the recomputed record must agree with what training logged, including
    # the learning rate the schedule had dropped to by the last epoch.
    ini = write_ini(tmp_path, tiny_config(tmp_path / "run", epochs=3, schedule=(1, 2),
                                          n_test=0, trace_layers=(0,), trace_size=16, **net))
    assert cli.main(["train", "--config", str(ini)]) == 0
    capsys.readouterr()
    code = cli.main(["diag", str(tmp_path / "run" / "checkpoint.bin")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    final = load_metrics(tmp_path / "run" / "metrics.csv")[-1]
    assert payload["train_loss"] == pytest.approx(final.train_loss, rel=1e-12)
    assert payload["jacobian_norm"] == pytest.approx(final.jacobian_norm, rel=1e-12)
    assert payload["kfac_gn_norm"] == pytest.approx(final.kfac_gn_norm, rel=1e-12)
    assert payload["effective_lrs"] == pytest.approx(final.effective_lrs, rel=1e-12)
    # the probe and trace rows are the ones train measured (no test split here)
    assert payload["test_loss"] == pytest.approx(final.test_loss, rel=1e-12)
    assert payload["gn_traces"]["0"] == pytest.approx(final.gn_traces[0], rel=1e-12)


def test_diag_reads_a_config_with_the_retired_damping_key(tmp_path, capsys):
    # run directories written before dense damping was removed say
    # `damping = factored`, the damping K-FAC still runs
    cfg = tiny_config(tmp_path / "run", optimizer="kfac_gn", lam=0.01)
    assert cli.main(["train", "--config", str(write_ini(tmp_path, cfg))]) == 0
    cfg_path = tmp_path / "run" / "config.ini"
    text = cfg_path.read_text()
    assert "damping" not in text
    old = text.replace("factor_decay = 0.95\n", "factor_decay = 0.95\ndamping = factored\n")
    assert old != text
    cfg_path.write_text(old)
    capsys.readouterr()
    assert cli.main(["diag", str(tmp_path / "run" / "checkpoint.bin")]) == 0
    payload = json.loads(capsys.readouterr().out)
    final = load_metrics(tmp_path / "run" / "metrics.csv")[-1]
    assert payload["train_loss"] == pytest.approx(final.train_loss, rel=1e-12)
    assert payload["test_loss"] == pytest.approx(final.test_loss, rel=1e-12)
    assert payload["kfac_gn_norm"] == pytest.approx(final.kfac_gn_norm, rel=1e-12)
    cfg_path.write_text(old.replace("damping = factored", "damping = dense"))
    assert cli.main(["diag", str(tmp_path / "run" / "checkpoint.bin")]) == 2
    assert "dense damping was removed" in capsys.readouterr().err


def test_diag_flags_a_bn_checkpoint_without_statistics(tmp_path, capsys):
    # checkpoints written before the BN statistics were stored still load
    cfg = tiny_config(tmp_path / "run", layer_dims=(6, 8, 8, 3), batchnorm=True)
    assert cli.main(["train", "--config", str(write_ini(tmp_path, cfg))]) == 0
    ckpt = tmp_path / "run" / "checkpoint.bin"
    head, payload = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    count = header.pop("bn_count")
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload[: -8 * count])
    capsys.readouterr()
    assert cli.main(["diag", str(ckpt)]) == 0
    assert "mean 0 and variance 1" in capsys.readouterr().err


def test_diag_refuses_a_checkpoint_of_a_net_with_biases(tmp_path, capsys):
    assert cli.main(["train", "--config", str(write_ini(tmp_path, tiny_config(tmp_path / "run")))]) == 0
    ckpt = tmp_path / "run" / "checkpoint.bin"
    raw = ckpt.read_bytes()
    assert raw.count(b'"use_bias": false') == 1
    ckpt.write_bytes(raw.replace(b'"use_bias": false', b'"use_bias": true'))
    capsys.readouterr()
    assert cli.main(["diag", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "error: checkpoint: header key 'spec' is malformed" in err and "bias-free" in err


def test_diag_rejects_a_malformed_checkpoint_header(tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(b'{"format": "binary", "count": 0}\n')
    assert cli.main(["diag", str(ckpt)]) == 2
    assert "error: checkpoint: header key 'spec'" in capsys.readouterr().err


def _strict_loads(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_json_output_writes_non_finite_floats_as_null(tmp_path, monkeypatch, capsys):
    # a BN run has no gn_norm (NaN), and a failed control reports inf
    cfg = tiny_config(tmp_path / "run", batchnorm=True)
    assert cli.main(["train", "--config", str(write_ini(tmp_path, cfg))]) == 0
    capsys.readouterr()
    diag_path = tmp_path / "diag.json"
    assert cli.main(["diag", str(tmp_path / "run" / "checkpoint.bin"),
                     "--json", str(diag_path)]) == 0
    payload = _strict_loads(diag_path.read_text())
    assert payload["gn_norm"] is None
    assert _strict_loads(capsys.readouterr().out) == payload

    failing = CheckReport(name="fisher_gn_equivalences", trials=2,
                          max_rel_error=float("inf"), tolerance=1e-9, seed=0)
    monkeypatch.setattr(cli.verify, "run_all", lambda **kw: [failing])
    report_path = tmp_path / "oracles.json"
    assert cli.main(["verify", "--trials", "2", "--json", str(report_path)]) == 1
    [entry] = _strict_loads(report_path.read_text())
    assert entry["max_rel_error"] is None
    assert entry["passed"] is False


@pytest.mark.parametrize("argv", [
    ["train", "--config", "MISSING.ini", "--out", "run"],
    ["diag", "MISSING.bin", "--json", "diag.json"],
], ids=["train", "diag"])
def test_a_missing_input_file_fails_before_writing_anything(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MISSING" in err
    assert not any(tmp_path.iterdir())


def test_readme_cli_synopsis_matches_the_parser():
    # every flag on a README synopsis line is the parser's and vice versa,
    # and each line's required arguments parse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [l for l in readme.splitlines() if l.startswith("wdlab ")]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(l.split()[1] for l in lines) == sorted(subparsers.choices)

    def flags(parser):
        return {o for a in parser._actions for o in a.option_strings
                if o.startswith("--") and o != "--help"}

    for line in lines:
        command = line.split()[1]
        listed = set(re.findall(r"--[a-z-]+", line))
        if "[config flags]" in line:
            listed |= flags(subparsers.choices["train"])
        assert listed == flags(subparsers.choices[command]), line
        cli.build_parser().parse_args(re.sub(r"\[[^]]*\]", "", line).split()[1:])
