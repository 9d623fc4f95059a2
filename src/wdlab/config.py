"""Experiment configuration: a flat dataclass, an INI file grammar, and
dotted-key overrides for the command line.

The file format is standard INI with sections [data], [model], [optimizer],
[coupling], [run], [diagnostics]; every value is a scalar or a list
separated by whitespace or commas, and `;` starts an inline comment.  CLI
`--set section.key=value` entries override file values, which override
defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass

from . import curvature, nn, optim
from .errors import CapacityError, DataFormatError, DomainError, InstabilityError

OPTIMIZERS = ("sgd", "adam", "kfac_fisher", "kfac_gn")
DATASETS = ("synthetic", "mnist")


@dataclass
class ExperimentConfig:
    # data
    dataset: str = "synthetic"
    mnist_images: str = ""
    mnist_labels: str = ""
    n_train: int = 5000
    n_val: int = 1000
    n_test: int = 2000
    whiten_inputs: bool = False
    # model
    layer_dims: tuple[int, ...] = (784, 256, 256, 10)
    activation: str = "relu"
    batchnorm: bool = False
    bias: bool = False
    # optimizer
    optimizer: str = "sgd"
    eta: float = 0.1
    momentum: float = 0.0
    lam: float = 1e-3
    stats_every: int = 10
    invert_every: int = 100
    factor_decay: float = 0.95
    # coupling
    coupling: str = optim.COUPLING_NONE
    beta: float = 0.0
    mask: str = "all"
    # run
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    schedule: tuple[int, ...] = (12, 24)
    out_dir: str = "runs/run0"
    # diagnostics
    probe_size: int = 200
    trace_layers: tuple[int, ...] = ()
    trace_size: int = 64

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise DomainError(f"unknown dataset {self.dataset!r}; choose from {DATASETS}")
        if self.optimizer not in OPTIMIZERS:
            raise DomainError(
                f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}"
            )
        if self.coupling not in optim.COUPLING_MODES:
            raise DomainError(f"unknown coupling {self.coupling!r}")
        if self.mask not in optim.MASK_PRESETS:
            raise DomainError(f"unknown mask {self.mask!r}; choose from {optim.MASK_PRESETS}")
        if self.n_train < 1 or self.n_val < 0 or self.n_test < 0:
            raise DomainError(
                f"split sizes must be positive train / nonnegative val, test; got "
                f"{self.n_train}/{self.n_val}/{self.n_test}"
            )
        least = 2 if self.batchnorm else 1  # train-mode BN needs two rows
        if not least <= self.batch_size <= self.n_train:
            raise DomainError(
                f"batch size must lie in [{least}, {self.n_train}], got {self.batch_size}"
            )
        if self.epochs < 0:
            raise DomainError(f"epochs must be nonnegative, got {self.epochs}")
        if self.dataset == "mnist" and not (self.mnist_images and self.mnist_labels):
            raise DomainError("mnist dataset needs images= and labels= paths")
        if self.eta <= 0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        if self.beta < 0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")
        if self.momentum > 0 and self.optimizer != "sgd":
            raise DomainError(f"momentum applies to sgd only, not {self.optimizer}")
        if not 0.0 <= self.factor_decay < 1.0:
            raise DomainError(f"factor decay must be in [0, 1), got {self.factor_decay}")
        if self.coupling != optim.COUPLING_NONE and self.eta * self.beta >= 1.0:
            raise InstabilityError(
                f"eta * beta = {self.eta * self.beta:.3g} >= 1 would flip or kill the weights"
            )
        if min(self.probe_size, self.trace_size) < 0:
            raise DomainError(f"negative probe or trace size: {self.probe_size}, {self.trace_size}")
        probe_pool = self.n_test or self.n_train  # the test split, else train
        if self.probe_size > probe_pool:
            raise DomainError(f"probe size {self.probe_size} exceeds its {probe_pool}-row split")
        for l in self.trace_layers:
            if not 0 <= l < len(self.layer_dims) - 1:
                raise DomainError(f"trace layer {l} out of range for this network")
        if self.trace_layers and self.layer_dims[-1] > curvature.CLASS_CAP:
            raise CapacityError(f"traces sum over {self.layer_dims[-1]} classes, cap is {curvature.CLASS_CAP}")
        if self.trace_layers and not least <= self.trace_size <= self.n_train:
            raise DomainError(f"trace size must lie in [{least}, {self.n_train}], got {self.trace_size}")

    def network_spec(self) -> nn.NetworkSpec:
        return nn.mlp(
            list(self.layer_dims),
            activation=self.activation,
            bn=self.batchnorm,
            bias=self.bias,
        )

    def coupling_obj(self) -> optim.Coupling:
        n_layers = len(self.layer_dims) - 1
        return optim.Coupling(
            mode=self.coupling,
            beta=self.beta,
            mask=optim.mask_preset(self.mask, n_layers),
        )


# --- INI serialization ------------------------------------------------------

_LAYOUT = {
    "data": (
        ("dataset", "dataset", str),
        ("images", "mnist_images", str),
        ("labels", "mnist_labels", str),
        ("train", "n_train", int),
        ("val", "n_val", int),
        ("test", "n_test", int),
        ("whiten", "whiten_inputs", bool),
    ),
    "model": (
        ("dims", "layer_dims", "int_list"),
        ("activation", "activation", str),
        ("batchnorm", "batchnorm", bool),
        ("bias", "bias", bool),
    ),
    "optimizer": (
        ("kind", "optimizer", str),
        ("eta", "eta", float),
        ("momentum", "momentum", float),
        ("lam", "lam", float),
        ("stats_every", "stats_every", int),
        ("invert_every", "invert_every", int),
        ("factor_decay", "factor_decay", float),
    ),
    "coupling": (
        ("mode", "coupling", str),
        ("beta", "beta", float),
        ("mask", "mask", str),
    ),
    "run": (
        ("epochs", "epochs", int),
        ("batch", "batch_size", int),
        ("seed", "seed", int),
        ("schedule", "schedule", "int_list"),
        ("out", "out_dir", str),
    ),
    "diagnostics": (
        ("probe", "probe_size", int),
        ("trace_layers", "trace_layers", "int_list"),
        ("trace", "trace_size", int),
    ),
}

_BOOL_WORDS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _parse_value(raw: str, kind):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is bool:
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise DataFormatError(f"expected yes/no, got {raw!r}")
        return _BOOL_WORDS[word]
    if kind == "int_list":
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    raise AssertionError(kind)


def _format_value(value, kind) -> str:
    if kind is bool:
        return "yes" if value else "no"
    if kind == "int_list":
        return " ".join(str(v) for v in value)
    return str(value)


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file; unknown sections or keys are errors, but
    older files' `[optimizer] damping = factored` is read and ignored."""
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(text, source=source)
    return _from_parser(parser, source=source)


def _from_parser(parser: configparser.ConfigParser, source: str) -> ExperimentConfig:
    values = {}
    for section in parser.sections():
        if section not in _LAYOUT:
            raise DataFormatError(f"{source}: unknown section [{section}]")
        known = {key: (attr, kind) for key, attr, kind in _LAYOUT[section]}
        for key, raw in parser.items(section):
            if section == "optimizer" and key == "damping":  # older files name the one damping
                if raw.strip() != "factored":
                    raise DataFormatError(f"{source}: optimizer.damping: dense damping was removed")
                continue
            if key not in known:
                raise DataFormatError(f"{source}: unknown key {key!r} in [{section}]")
            attr, kind = known[key]
            try:
                values[attr] = _parse_value(raw, kind)
            except (ValueError, DataFormatError) as exc:
                raise DataFormatError(
                    f"{source}: bad value for {section}.{key}: {exc}"
                ) from exc
    return ExperimentConfig(**values)


def to_ini(config: ExperimentConfig) -> str:
    """Render a config back to its file form (round-trips through load)."""
    parser = configparser.ConfigParser()
    for section, entries in _LAYOUT.items():
        parser[section] = {}
        for key, attr, kind in entries:
            parser[section][key] = _format_value(getattr(config, attr), kind)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply `section.key=value` strings on top of an existing config."""
    values = dataclasses.asdict(config)
    lookup = {
        f"{section}.{key}": (attr, kind)
        for section, entries in _LAYOUT.items()
        for key, attr, kind in entries
    }
    for item in overrides:
        if "=" not in item:
            raise DataFormatError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        dotted = dotted.strip()
        if dotted not in lookup:
            raise DataFormatError(f"unknown config key {dotted!r}")
        attr, kind = lookup[dotted]
        try:
            values[attr] = _parse_value(raw, kind)
        except (ValueError, DataFormatError) as exc:
            raise DataFormatError(f"bad value for {dotted}: {exc}") from exc
    for name in ("layer_dims", "schedule", "trace_layers"):
        values[name] = tuple(values[name])
    return ExperimentConfig(**values)
