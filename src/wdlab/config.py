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
import math
from dataclasses import dataclass

from . import curvature, nn, optim
from .errors import CapacityError, DataFormatError, DomainError, InstabilityError

OPTIMIZERS = ("sgd", "adam", "kfac_fisher", "kfac_gn")
DATASETS = ("synthetic", "mnist")


def _ini(key: str, default):
    """A config field read from and written to the INI key `section.key`."""
    return dataclasses.field(default=default, metadata={"ini": key})


@dataclass
class ExperimentConfig:
    """Every run setting.  Each field names its INI key, and the file lists
    sections and keys in field order."""

    dataset: str = _ini("data.dataset", "synthetic")
    mnist_images: str = _ini("data.images", "")
    mnist_labels: str = _ini("data.labels", "")
    n_train: int = _ini("data.train", 5000)
    n_val: int = _ini("data.val", 1000)
    n_test: int = _ini("data.test", 2000)
    whiten_inputs: bool = _ini("data.whiten", False)
    layer_dims: tuple[int, ...] = _ini("model.dims", (784, 256, 256, 10))
    activation: str = _ini("model.activation", "relu")
    batchnorm: bool = _ini("model.batchnorm", False)
    bias: bool = _ini("model.bias", False)  # only "no": every net is bias-free
    optimizer: str = _ini("optimizer.kind", "sgd")
    eta: float = _ini("optimizer.eta", 0.1)
    momentum: float = _ini("optimizer.momentum", 0.0)
    lam: float = _ini("optimizer.lam", 1e-3)
    stats_every: int = _ini("optimizer.stats_every", 10)
    invert_every: int = _ini("optimizer.invert_every", 100)
    factor_decay: float = _ini("optimizer.factor_decay", 0.95)
    coupling: str = _ini("coupling.mode", optim.COUPLING_NONE)
    beta: float = _ini("coupling.beta", 0.0)
    mask: str = _ini("coupling.mask", "all")
    epochs: int = _ini("run.epochs", 30)
    batch_size: int = _ini("run.batch", 128)
    seed: int = _ini("run.seed", 0)
    schedule: tuple[int, ...] = _ini("run.schedule", (12, 24))
    out_dir: str = _ini("run.out", "runs/run0")
    probe_size: int = _ini("diagnostics.probe", 200)
    trace_layers: tuple[int, ...] = _ini("diagnostics.trace_layers", ())
    trace_size: int = _ini("diagnostics.trace", 64)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.dataset not in DATASETS:
            raise DomainError(f"unknown dataset {self.dataset!r}; choose from {DATASETS}")
        if self.optimizer not in OPTIMIZERS:
            raise DomainError(
                f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}"
            )
        if self.bias:
            raise DomainError("model.bias: every net is bias-free, so 'no' is the only value")
        self.network_spec()  # refuses bad dims and activations
        self.coupling_obj()  # refuses a bad coupling mode, mask or beta
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
        if any(b <= a for a, b in zip((-1, *self.schedule), self.schedule)):
            raise DomainError(f"schedule epochs must be >= 0 and strictly ascending, got {self.schedule}")
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

    def eta_at(self, epoch: int) -> float:
        """The rate epoch `epoch` trains at and its record reports: eta
        dropped 10x for each schedule entry below `epoch`, so epoch 0 is eta."""
        drops = sum(1 for s in self.schedule if s < epoch)
        return self.eta / (10.0**drops)

    def network_spec(self) -> nn.NetworkSpec:
        return nn.mlp(
            list(self.layer_dims),
            activation=self.activation,
            bn=self.batchnorm,
        )

    def coupling_obj(self) -> optim.Coupling:
        n_layers = len(self.layer_dims) - 1
        return optim.Coupling(
            mode=self.coupling,
            beta=self.beta,
            mask=optim.mask_preset(self.mask, n_layers),
        )


# --- INI serialization ------------------------------------------------------

# "section.key" -> ExperimentConfig field; a value is read as its field's type
_FIELDS = {f.metadata["ini"]: f for f in dataclasses.fields(ExperimentConfig)}

_BOOL_WORDS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _parse_value(raw: str, kind: str):
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() not in _BOOL_WORDS:
            raise DataFormatError(f"expected yes/no, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if kind == "tuple[int, ...]":
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    return {"str": str, "int": int, "float": float}[kind](raw)


def _format_value(value, kind: str) -> str:
    if kind == "bool":
        return "yes" if value else "no"
    if kind == "tuple[int, ...]":
        return " ".join(str(v) for v in value)
    return str(value)


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file; unknown sections or keys are errors, but
    older files' `[optimizer] damping = factored` is read and ignored."""
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """The defaults with every `section.key = value` of the file applied."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:  # a duplicate key or section, no section header
        raise DataFormatError(f"{source}: malformed INI: {exc}") from exc
    items = []
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) == ("optimizer", "damping"):  # older files name the one damping
                if raw.strip() != "factored":
                    raise DataFormatError(f"{source}: optimizer.damping: dense damping was removed")
                continue
            items.append(f"{section}.{key}={raw}")
    try:
        return apply_overrides(ExperimentConfig(), items)
    except DataFormatError as exc:
        raise DataFormatError(f"{source}: {exc}") from exc


def to_ini(config: ExperimentConfig) -> str:
    """Render a config back to its file form (round-trips through load)."""
    sections: dict[str, dict[str, str]] = {}
    for dotted, f in _FIELDS.items():
        section, key = dotted.split(".")
        sections.setdefault(section, {})[key] = _format_value(getattr(config, f.name), f.type)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply `section.key=value` strings on top of an existing config."""
    values = {}
    for item in overrides:
        if "=" not in item:
            raise DataFormatError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        dotted = dotted.strip()
        if dotted not in _FIELDS:
            raise DataFormatError(f"unknown config key {dotted!r}")
        f = _FIELDS[dotted]
        try:
            values[f.name] = _parse_value(raw, f.type)
        except (ValueError, DataFormatError) as exc:
            raise DataFormatError(f"bad value for {dotted}: {exc}") from exc
    return dataclasses.replace(config, **values)
