"""Schema and aggregation tests for the mechanism experiment bundles.

The full three-mechanism protocols (all seeds, all arms) are exercised by
the acceptance suite; here mechanism 1 runs on a single seed to check the
end-to-end wiring and the summary schema at moderate cost, and the
aggregator is tested against stub mechanisms.
"""

import json

import numpy as np
import pytest

from wdlab import replicate

from helpers import load_metrics


@pytest.fixture(scope="module")
def m1_single_seed(tmp_path_factory):
    root = tmp_path_factory.mktemp("m1")
    summary = replicate.mechanism1(root, seeds=(0,))
    return root, summary


def test_m1_writes_per_arm_metrics(m1_single_seed):
    root, _ = m1_single_seed
    for arm in ("baseline", "wd_hidden", "norm_transfer"):
        records = load_metrics(root / "seed0" / arm / "metrics.csv")
        assert len(records) == 31  # initial record plus one per epoch


def test_m1_summary_schema(m1_single_seed):
    root, summary = m1_single_seed
    assert summary["mechanism"] == "effective_learning_rate"
    assert summary["seeds"] == [0]
    # effective-LR series for every arm: one entry per epoch, one per layer
    for arm in ("baseline", "wd_hidden", "norm_transfer"):
        series = summary["effective_lr_series"][arm][0]
        assert len(series) == 31
        assert len(series[0]) == 3
        assert all(v > 0 for row in series for v in row)
    assert isinstance(summary["norms_ok"], bool)
    assert isinstance(summary["passed"], bool)
    on_disk = json.loads((root / "summary.json").read_text())
    assert on_disk["mean_test_acc"] == summary["mean_test_acc"]


def test_m1_decayed_norms_sit_below_baseline(m1_single_seed):
    # The single-seed bundle already shows the norm effect the full
    # experiment asserts over all seeds.
    _, summary = m1_single_seed
    assert summary["hidden_norms_below_baseline"][0] is True


def test_m1_transfer_arm_tracks_decayed_norms(m1_single_seed):
    root, _ = m1_single_seed
    wd = load_metrics(root / "seed0" / "wd_hidden" / "metrics.csv")
    wn = load_metrics(root / "seed0" / "norm_transfer" / "metrics.csv")
    wd_norms = np.array([r.layer_norms for r in wd])
    wn_norms = np.array([r.layer_norms for r in wn])
    # hidden layers pinned to the decayed run's norms, output layer free
    np.testing.assert_allclose(wn_norms[1:, :2], wd_norms[1:, :2], rtol=1e-9)
    assert not np.allclose(wn_norms[1:, 2], wd_norms[1:, 2], rtol=1e-3)


def test_m1_emits_svg_plots(m1_single_seed):
    pytest.importorskip("matplotlib")
    root, _ = m1_single_seed
    for name in ("hidden_norms.svg", "effective_lr.svg"):
        text = (root / name).read_text()
        assert text.lstrip().startswith("<?xml")


def test_replicate_all_aggregates(tmp_path, monkeypatch):
    def stub(mechanism, passed):
        def run(out_dir, make_plots=True):
            return replicate._write_summary(
                out_dir, {"mechanism": mechanism, "passed": passed})
        return run

    monkeypatch.setattr(replicate, "mechanism1", stub("effective_learning_rate", True))
    monkeypatch.setattr(replicate, "mechanism2", stub("jacobian_regularization", True))
    monkeypatch.setattr(replicate, "mechanism3", stub("effective_damping", False))
    summary = replicate.replicate_all(tmp_path)
    assert summary["all_passed"] is False
    assert summary["m2"]["passed"] is True
    combined = json.loads((tmp_path / "summary.json").read_text())
    assert combined["m3"]["mechanism"] == "effective_damping"
    assert (tmp_path / "m1" / "summary.json").exists()


def test_summary_files_end_with_newline(tmp_path):
    replicate._write_summary(tmp_path, {"passed": True})
    assert (tmp_path / "summary.json").read_text().endswith("}\n")
