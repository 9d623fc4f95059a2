"""Instruments that turn a training run into mechanism measurements.

Per-epoch quantities: losses and accuracies, per-layer weight norms and the
effective learning rate eta / ||theta_l||^2 of each layer, the mean squared
input-output Jacobian norm, metric norms of the weights, and normalized
per-layer curvature traces.  A norm-transfer transform rescales layers of one
run to match another run's recorded norms — legitimate only on BN-covered
layers, where it leaves the function untouched.

Records serialize to one CSV per run, every float written with 17
significant digits so the file round-trips bit-exactly.  K-FAC runs also
log their factor spectra at every inversion to a separate health CSV.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import curvature, loss, nn
from .errors import ContractError, DegenerateError, DomainError, ShapeError


def effective_lr(eta: float, layer_norm: float) -> float:
    """Step size experienced by a scale-invariant layer's direction."""
    if layer_norm <= 0:
        raise DegenerateError(f"layer norm must be positive, got {layer_norm}")
    return eta / layer_norm**2


def probe_norms(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
    bn_state: nn.BnState | None = None,
) -> tuple[float, float]:
    """(Jacobian norm, block GN norm) over the rows of x: the mean squared
    Frobenius norm of d logits / d input, and sum_l theta_l^T G_ll theta_l.

    One eval-mode forward (BN with `bn_state`'s running statistics, so the
    examples stay uncoupled) and one stacked backward of the k output seeds
    give both: the input gradients square to the Jacobian norm, and each
    layer's quadratic form reduces to <dL/ds_l, s_l>^2 because s_l is linear
    in that layer's own parameters.
    """
    logits, trace = nn.forward(spec, params, x, mode="eval", bn_state=bn_state)
    n, k = logits.shape
    if n == 0:
        raise DegenerateError("need at least one probe example")
    jac = block = 0.0
    seeds = nn.output_seeds(n, k)
    for chunk in nn.seed_chunks(k, n):
        s_grads, x_grads = nn.vjp(spec, params, trace, seeds[chunk], inputs=True)
        jac += float(np.sum(x_grads * x_grads))
        dots = [np.sum(g * s, axis=-1) for g, s in zip(s_grads, trace.pre_activations)]
        for j in range(chunk.stop - chunk.start):
            for d in dots:
                block += float(np.sum(d[j] * d[j]))
    return jac / n, block / n


def norm_transfer(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    reference_norms,
    mask,
) -> nn.NetworkParams:
    """Rescale masked layers so their weight norms match `reference_norms`.

    Masked layers must be BN-covered — rescaling any other layer changes the
    function.
    """
    refs = np.asarray(reference_norms, dtype=np.float64)
    mask = tuple(bool(b) for b in mask)
    n_layers = len(params.weights)
    if refs.shape != (n_layers,) or len(mask) != n_layers:
        raise ShapeError(
            f"need one reference norm and one mask flag per layer ({n_layers}), "
            f"got {refs.shape} and {len(mask)}"
        )
    out = params.copy()
    for l in range(n_layers):
        if not mask[l]:
            continue
        if not spec.bn_at(l):
            raise ContractError(f"layer {l} is not BN-covered; rescaling it changes the function")
        if refs[l] <= 0:
            raise DomainError(f"reference norm for layer {l} must be positive, got {refs[l]}")
        current = float(np.linalg.norm(out.weights[l]))
        if current == 0.0:
            raise DegenerateError(f"layer {l} has zero norm; its direction is undefined")
        out.weights[l] = out.weights[l] * (refs[l] / current)
    return out


def generalization_gap(train_loss: float, test_loss: float) -> float:
    return float(test_loss) - float(train_loss)


def evaluate(
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    x,
    labels,
    bn_state: nn.BnState | None = None,
) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) on integer-labelled data, eval-mode BN."""
    logits, _ = nn.forward(spec, params, x, mode="eval", bn_state=bn_state)
    value, _ = loss.loss_and_grad(logits, labels)
    return value, float(np.mean(np.argmax(logits, axis=1) == labels))


# --- metric records ---------------------------------------------------------


@dataclass
class MetricRecord:
    """Everything measured at one epoch boundary."""

    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    gen_gap: float
    jacobian_norm: float
    gn_norm: float
    kfac_gn_norm: float
    layer_norms: tuple[float, ...]
    effective_lrs: tuple[float, ...]
    fisher_traces: dict[int, float] = field(default_factory=dict)
    gn_traces: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("train_acc", "test_acc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {v}")
        for n in self.layer_norms:
            if n < 0:
                raise DomainError(f"layer norms must be nonnegative, got {n}")


def record_metrics(
    epoch: int,
    spec: nn.NetworkSpec,
    params: nn.NetworkParams,
    eta: float,
    train_eval: tuple,
    test_eval: tuple,
    bn_state: nn.BnState | None = None,
    probe_x=None,
    trace_x=None,
    trace_layers: tuple[int, ...] = (),
    log: "MetricLog | None" = None,
) -> MetricRecord:
    """Measure one epoch, BN nets with `bn_state`'s running statistics.
    `probe_x` feeds the Jacobian and metric norms (NaN when absent; gn_norm is
    NaN for nets with biases or BN); `trace_x`/`trace_layers` select the
    normalized GN and Fisher traces, both from one pass per layer.  When
    `log` is given the record is appended."""
    train_loss, train_acc = evaluate(spec, params, *train_eval, bn_state=bn_state)
    test_loss, test_acc = evaluate(spec, params, *test_eval, bn_state=bn_state)
    norms = tuple(float(v) for v in nn.layer_norms(params))
    eff = tuple(effective_lr(eta, v) for v in norms)

    jac = gnn = kfac_gnn = float("nan")
    if probe_x is not None:
        jac, kfac_gnn = probe_norms(spec, params, probe_x, bn_state=bn_state)
        if not (spec.use_bias or spec.has_bn):
            gnn = curvature.gn_norm(spec, params, probe_x)

    fisher_traces: dict[int, float] = {}
    gn_traces: dict[int, float] = {}
    if trace_x is not None:
        for l in trace_layers:
            gn_traces[l], fisher_traces[l] = curvature.normalized_traces(spec, params, trace_x, l)

    record = MetricRecord(
        epoch=int(epoch),
        train_loss=train_loss,
        train_acc=train_acc,
        test_loss=test_loss,
        test_acc=test_acc,
        gen_gap=generalization_gap(train_loss, test_loss),
        jacobian_norm=jac,
        gn_norm=gnn,
        kfac_gn_norm=kfac_gnn,
        layer_norms=norms,
        effective_lrs=eff,
        fisher_traces=fisher_traces,
        gn_traces=gn_traces,
    )
    if log is not None:
        log.append(record)
    return record


_SCALAR_FIELDS = (
    "train_loss",
    "train_acc",
    "test_loss",
    "test_acc",
    "gen_gap",
    "jacobian_norm",
    "gn_norm",
    "kfac_gn_norm",
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class MetricLog:
    """Append-only CSV metric log, one row per epoch record.

    The header is derived from the first record; every later record must
    carry the same layer count and trace layers.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._header: list[str] | None = None
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, newline="") as fh:
                self._header = next(csv.reader(fh))

    def _build_header(self, record: MetricRecord) -> list[str]:
        cols = ["epoch", *_SCALAR_FIELDS]
        cols += [f"layer_norm_{l}" for l in range(len(record.layer_norms))]
        cols += [f"eff_lr_{l}" for l in range(len(record.effective_lrs))]
        cols += [f"fisher_trace_{l}" for l in sorted(record.fisher_traces)]
        cols += [f"gn_trace_{l}" for l in sorted(record.gn_traces)]
        return cols

    def _row(self, record: MetricRecord) -> list[str]:
        row = [str(record.epoch)]
        row += [_fmt(getattr(record, name)) for name in _SCALAR_FIELDS]
        row += [_fmt(v) for v in record.layer_norms]
        row += [_fmt(v) for v in record.effective_lrs]
        row += [_fmt(record.fisher_traces[l]) for l in sorted(record.fisher_traces)]
        row += [_fmt(record.gn_traces[l]) for l in sorted(record.gn_traces)]
        return row

    def append(self, record: MetricRecord) -> None:
        header = self._build_header(record)
        new_file = self._header is None
        if not new_file and header != self._header:
            raise ShapeError("record layout does not match the log's existing header")
        with open(self.path, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new_file:
                writer.writerow(header)
                self._header = header
            writer.writerow(self._row(record))


HEALTH_FIELDS = ("a_eig_min", "a_eig_max", "s_eig_min", "s_eig_max", "damping_ratio")


def write_kfac_health(path, health: list[tuple[int, list[curvature.FactorSpectrum]]]) -> None:
    """K-FAC health log: one CSV row per (inversion step, layer) with the
    factor eigenvalue extremes, the damping relative to the mean eigenvalue
    of S (x) A, and the steps since the previous inversion (0 at the first)."""
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "layer", *HEALTH_FIELDS, "steps_since_last_inversion"])
        for (step, spectra), (previous, _) in zip(health, health[:1] + health):
            for l, sp in enumerate(spectra):
                writer.writerow([step, l, *(_fmt(getattr(sp, f)) for f in HEALTH_FIELDS),
                                 step - previous])


def load_metrics(path) -> list[MetricRecord]:
    """Parse a metric CSV back into records (exact float round-trip)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    idx = {name: i for i, name in enumerate(header)}
    layer_cols = sorted(
        (int(c.rsplit("_", 1)[1]) for c in header if c.startswith("layer_norm_"))
    )
    fisher_cols = sorted(
        (int(c.rsplit("_", 1)[1]) for c in header if c.startswith("fisher_trace_"))
    )
    gn_cols = sorted((int(c.rsplit("_", 1)[1]) for c in header if c.startswith("gn_trace_")))
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            records.append(
                MetricRecord(
                    epoch=int(row[idx["epoch"]]),
                    **{name: float(row[idx[name]]) for name in _SCALAR_FIELDS},
                    layer_norms=tuple(float(row[idx[f"layer_norm_{l}"]]) for l in layer_cols),
                    effective_lrs=tuple(float(row[idx[f"eff_lr_{l}"]]) for l in layer_cols),
                    fisher_traces={l: float(row[idx[f"fisher_trace_{l}"]]) for l in fisher_cols},
                    gn_traces={l: float(row[idx[f"gn_trace_{l}"]]) for l in gn_cols},
                )
            )
    return records
