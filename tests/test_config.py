import dataclasses
import re
from pathlib import Path

import pytest

from wdlab import config, optim
from wdlab.errors import CapacityError, DataFormatError, DomainError, InstabilityError


def test_defaults_are_desk_scale():
    cfg = config.ExperimentConfig()
    assert cfg.n_train == 5000 and cfg.n_val == 1000 and cfg.n_test == 2000
    assert cfg.layer_dims == (784, 256, 256, 10)
    assert cfg.batch_size == 128
    assert cfg.epochs == 30
    assert cfg.schedule == (12, 24)


def test_network_spec_and_coupling_construction():
    cfg = config.ExperimentConfig(
        layer_dims=(10, 8, 4), batchnorm=True, coupling="weight_decay", beta=1e-3,
        mask="hidden_only",
    )
    spec = cfg.network_spec()
    assert spec.layer_dims == (10, 8, 4)
    assert spec.has_bn
    assert not config.ExperimentConfig(layer_dims=(10, 4), batchnorm=True).network_spec().has_bn
    coupling = cfg.coupling_obj()
    assert coupling.mode == optim.COUPLING_WD
    assert coupling.layer_mask(2) == (True, False)


def test_validation_rejects_bad_fields():
    with pytest.raises(DomainError):
        config.ExperimentConfig(dataset="cifar")
    with pytest.raises(DomainError):
        config.ExperimentConfig(optimizer="lbfgs")
    with pytest.raises(DomainError):
        config.ExperimentConfig(batch_size=0)
    with pytest.raises(DomainError):
        config.ExperimentConfig(n_train=100, batch_size=128)
    with pytest.raises(DomainError):
        config.ExperimentConfig(dataset="mnist")  # no paths
    with pytest.raises(DomainError):
        config.ExperimentConfig(trace_layers=(7,))
    with pytest.raises(DomainError, match="beta"):
        config.ExperimentConfig(beta=-0.5)


@pytest.mark.parametrize("fields, message", [
    (dict(eta=0.0), "eta"),
    (dict(eta=-0.1), "eta"),
    (dict(optimizer="adam", momentum=0.9), "momentum"),
    (dict(optimizer="kfac_gn", momentum=0.5), "momentum"),
    (dict(n_test=100, probe_size=101), "probe size 101 exceeds its 100-row split"),
    (dict(n_train=150, n_test=0, batch_size=50, probe_size=151), "its 150-row split"),
    (dict(n_train=150, batch_size=50, trace_layers=(0,), trace_size=151), "trace size"),
    (dict(batchnorm=True, trace_layers=(0,), trace_size=1), "trace size"),
    (dict(trace_layers=(1,), trace_size=0), "trace size"),
    (dict(optimizer="kfac_gn", factor_decay=1.0), "factor decay"),
    (dict(optimizer="kfac_gn", factor_decay=-0.1), "factor decay"),
    (dict(probe_size=-5), "negative probe or trace size"),
    (dict(trace_size=-1), "negative probe or trace size"),
    (dict(trace_layers=(0,), trace_size=-3), "negative probe or trace size"),
    # train-mode BN skips one-row minibatches, so such a run would never step
    (dict(batchnorm=True, batch_size=1), "batch size"),
])
def test_validation_rejects_inconsistent_run_settings(fields, message):
    with pytest.raises(DomainError, match=message):
        config.ExperimentConfig(**fields)


def test_validation_refuses_traces_over_more_classes_than_the_cap():
    # the normalized Fisher trace sums over classes, capped at CLASS_CAP
    with pytest.raises(CapacityError, match="20 classes, cap is 16"):
        config.ExperimentConfig(layer_dims=(784, 256, 20), trace_layers=(0,))


@pytest.mark.parametrize("mode", ["l2", "weight_decay"])
def test_validation_rejects_unstable_decay(mode):
    with pytest.raises(InstabilityError, match="eta"):
        config.ExperimentConfig(eta=0.1, coupling=mode, beta=10.0)


def test_eta_at_decade_drops():
    cfg = config.ExperimentConfig(eta=0.1, schedule=(40, 80))
    assert cfg.eta_at(0) == 0.1
    assert cfg.eta_at(40) == pytest.approx(0.1)  # epoch 40 trains before the drop
    assert cfg.eta_at(41) == pytest.approx(0.01)
    assert cfg.eta_at(80) == pytest.approx(0.01)
    assert cfg.eta_at(81) == pytest.approx(0.001)
    assert cfg.eta_at(11) == pytest.approx(0.1)  # a pure function of the epoch


def test_eta_at_empty_schedule_and_validation():
    assert config.ExperimentConfig(eta=0.3, schedule=()).eta_at(1000) == 0.3
    for schedule in ((10, 10), (24, 12), (-1,)):
        with pytest.raises(DomainError, match="schedule"):
            config.ExperimentConfig(eta=0.1, schedule=schedule)


def test_validation_accepts_the_boundary_cases():
    config.ExperimentConfig(optimizer="sgd", momentum=0.9)
    config.ExperimentConfig(n_test=100, probe_size=100)
    config.ExperimentConfig(n_train=150, n_test=0, batch_size=50, probe_size=150)
    config.ExperimentConfig(batchnorm=True, trace_layers=(0,), trace_size=2)
    config.ExperimentConfig(batchnorm=True, batch_size=2)
    config.ExperimentConfig(layer_dims=(784, 256, 16), trace_layers=(0,))
    config.ExperimentConfig(layer_dims=(784, 256, 20))  # no traces, no class cap
    config.ExperimentConfig(trace_layers=(0,), trace_size=1)
    config.ExperimentConfig(optimizer="kfac_gn", factor_decay=0.0)
    config.ExperimentConfig(eta=0.1, coupling="l2", beta=9.99)
    config.ExperimentConfig(eta=0.1, coupling="none", beta=20.0)  # beta unused
    # sizes of probes that are switched off are not checked
    config.ExperimentConfig(n_train=150, batch_size=50, trace_size=1000)


INI = """
[data]
dataset = synthetic
train = 600
val = 100
test = 200

[model]
dims = 30 16 4
activation = relu
batchnorm = yes
bias = no

[optimizer]
kind = sgd
eta = 0.05

[coupling]
mode = l2
beta = 0.001
mask = hidden_only

[run]
epochs = 3
batch = 60
seed = 11
schedule = 1 2
out = runs/demo

[diagnostics]
probe = 50
trace_layers = 0 1
trace = 32
"""


def test_ini_parsing(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(INI)
    cfg = config.load_config(path)
    assert cfg.n_train == 600
    assert cfg.layer_dims == (30, 16, 4)
    assert cfg.batchnorm is True
    assert cfg.coupling == "l2" and cfg.beta == 0.001
    assert cfg.schedule == (1, 2)
    assert cfg.trace_layers == (0, 1)
    assert cfg.out_dir == "runs/demo"


def test_ini_lists_accept_commas_and_inline_comments():
    cfg = config.parse_config_text(
        "[model]\ndims = 30,16, 4   ; widths\n[run]\nschedule = 1,2\n"
    )
    assert cfg.layer_dims == (30, 16, 4)
    assert cfg.schedule == (1, 2)


def test_readme_ini_block_loads_as_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert config.parse_config_text(block) == config.ExperimentConfig()
    # every section and key of the file format exactly once, and nothing else
    named, section = [], None
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
            named.append((section, None))
        elif m := re.match(r"(\w+)\s*=", line):
            named.append((section, m.group(1)))
    layout = [(sec, None) for sec in config._LAYOUT]
    layout += [(sec, key) for sec, keys in config._LAYOUT.items() for key in keys]
    assert sorted(named, key=str) == sorted(layout, key=str)


# config.ini as written before dense damping was removed
OLD_KFAC_INI = """\
[data]
dataset = synthetic
images = 
labels = 
train = 300
val = 60
test = 100
whiten = no

[model]
dims = 6 8 3
activation = relu
batchnorm = yes
bias = no

[optimizer]
kind = kfac_fisher
eta = 0.1
momentum = 0.0
lam = 0.01
stats_every = 10
invert_every = 100
factor_decay = 0.95
damping = factored

[coupling]
mode = weight_decay
beta = 0.001
mask = all

[run]
epochs = 2
batch = 32
seed = 0
schedule = 12 24
out = runs/run0

[diagnostics]
probe = 20
trace_layers = 0
trace = 16

"""


def test_ini_written_with_the_retired_damping_key_still_loads():
    cfg = config.parse_config_text(OLD_KFAC_INI)
    assert cfg == config.ExperimentConfig(
        optimizer="kfac_fisher", lam=0.01, layer_dims=(6, 8, 3), batchnorm=True,
        coupling="weight_decay", beta=0.001, n_train=300, n_val=60, n_test=100, epochs=2,
        batch_size=32, trace_layers=(0,), trace_size=16, probe_size=20,
    )
    assert "damping" not in config.to_ini(cfg)
    with pytest.raises(DataFormatError, match="dense damping was removed"):
        config.parse_config_text(OLD_KFAC_INI.replace("damping = factored", "damping = dense"))
    with pytest.raises(DataFormatError, match="unknown config key"):
        config.apply_overrides(cfg, ["optimizer.damping=factored"])


def test_ini_round_trip():
    cfg = config.parse_config_text(INI)
    again = config.parse_config_text(config.to_ini(cfg))
    assert cfg == again


def test_ini_rejects_unknown_section_and_key():
    with pytest.raises(DataFormatError, match="<string>: unknown config key 'mystery.x'"):
        config.parse_config_text("[mystery]\nx = 1\n")
    with pytest.raises(DataFormatError, match="unknown config key 'run.warp'"):
        config.parse_config_text("[run]\nwarp = 9\n")


def test_ini_rejects_malformed_value():
    with pytest.raises(DataFormatError, match="run.epochs"):
        config.parse_config_text("[run]\nepochs = many\n")
    with pytest.raises(DataFormatError, match="yes/no"):
        config.parse_config_text("[model]\nbatchnorm = maybe\n")


def test_overrides_take_precedence():
    cfg = config.parse_config_text(INI)
    out = config.apply_overrides(
        cfg, ["optimizer.eta=0.5", "run.epochs=7", "model.dims=30 8 4"]
    )
    assert out.eta == 0.5
    assert out.epochs == 7
    assert out.layer_dims == (30, 8, 4)
    assert out.n_train == cfg.n_train  # untouched fields survive
    assert cfg.eta == 0.05  # original not mutated


def test_overrides_validate_keys_and_values():
    cfg = config.ExperimentConfig()
    with pytest.raises(DataFormatError, match="section.key"):
        config.apply_overrides(cfg, ["eta 0.5"])
    with pytest.raises(DataFormatError, match="unknown config key"):
        config.apply_overrides(cfg, ["optimizer.warp=1"])
    with pytest.raises(DataFormatError, match="bad value"):
        config.apply_overrides(cfg, ["run.epochs=soon"])


def test_overrides_reject_invalid_result():
    cfg = config.ExperimentConfig()
    with pytest.raises(DomainError):
        config.apply_overrides(cfg, ["run.batch=999999"])


def test_config_is_plain_data():
    cfg = config.ExperimentConfig()
    clone = dataclasses.replace(cfg)
    assert clone == cfg
