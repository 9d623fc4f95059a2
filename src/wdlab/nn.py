"""Feed-forward network engine.

Fully-connected bias-free layers with ReLU or identity activation and
optional batch normalization on hidden pre-activations (never on the output
layer).  Being bias-free, a ReLU or linear net is positively homogeneous in
each layer's weights, which the metric-norm identities rest on.  The forward
pass captures every intermediate needed by backprop and Kronecker-factor
estimation.  `vjp`, the one backward, is exact (BN included) and propagates a
whole stack of seeds in one pass; it returns pre-activation gradients ds_l,
from which a weight gradient is ds_l^T a_l.

Conventions fixed here and relied on everywhere else:
  * weight matrices are out x in; s_l = a_l @ W_l.T,
  * a depth-L network has L+1 weight matrices, the output being layer L,
  * the canonical flattening of the parameter vector is, layer by layer,
    W_l.ravel(row-major).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityError, ContractError, DataFormatError, DegenerateError,
                     DomainError, NumericalError, ShapeError)

RELU = "relu"
IDENTITY = "identity"

BN_EPSILON = 1e-8  # added to the batch variance; BN has no affine parameters
BN_DECAY = 0.9  # running statistics <- BN_DECAY * running + (1 - BN_DECAY) * batch

# The most (seed, example) rows one stacked backward carries, and the most rows
# one evaluation forward carries, which bounds their temporaries; a desk-net BN
# trace (32 rows, 10 classes) runs one example at a time.
SEED_ROWS = 512

# The most parameters a dense per-example Jacobian (n x k x P) may span.
PARAM_CAP = 20000


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: layer widths, activation, BN on every hidden layer or none."""

    layer_dims: tuple[int, ...]
    activation: str = RELU
    has_bn: bool = False

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "has_bn", bool(self.has_bn) and len(dims) > 2)  # no hidden layer, no BN
        if len(dims) < 2:
            raise ShapeError("need at least one weight layer (two entries in layer_dims)")
        if any(d < 1 for d in dims):
            raise ShapeError(f"layer dims must be positive, got {dims}")
        if self.activation not in (RELU, IDENTITY):
            raise DomainError(f"unknown activation {self.activation!r}")

    @property
    def n_layers(self) -> int:
        """Number of weight layers (L + 1)."""
        return len(self.layer_dims) - 1

    @property
    def n_hidden(self) -> int:
        return self.n_layers - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def bn_at(self, layer: int) -> bool:
        """True when layer `layer`'s pre-activation is batch-normalized."""
        return self.has_bn and layer < self.n_hidden

    def weight_shape(self, layer: int) -> tuple[int, int]:
        return (self.layer_dims[layer + 1], self.layer_dims[layer])

    @property
    def n_params(self) -> int:
        total = 0
        for l in range(self.n_layers):
            out, inp = self.weight_shape(l)
            total += out * inp
        return total

    def to_dict(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "activation": self.activation,
            "use_bn": [self.has_bn] * self.n_hidden,
            "use_bias": False,  # kept so checkpoint headers stay as they were written
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        spec = NetworkSpec(
            layer_dims=tuple(d["layer_dims"]),
            activation=d["activation"],
            has_bn=any(d["use_bn"]),
        )
        if list(d["use_bn"]) != spec.to_dict()["use_bn"]:
            raise ShapeError(f"use_bn must be one flag repeated per hidden layer "
                             f"({spec.n_hidden}), got {d['use_bn']!r}")
        if d["use_bias"] is not False:
            raise DomainError(f"every net is bias-free, got use_bias {d['use_bias']!r}")
        return spec


def mlp(dims, activation: str = RELU, bn: bool = False) -> NetworkSpec:
    """Convenience builder; `bn` turns BN on for every hidden layer."""
    return NetworkSpec(layer_dims=tuple(dims), activation=activation, has_bn=bn)


@dataclass
class NetworkParams:
    """Per-layer weight matrices (out x in)."""

    weights: list[np.ndarray]

    def copy(self) -> "NetworkParams":
        return NetworkParams(weights=[w.copy() for w in self.weights])


@dataclass
class BnState:
    """Running statistics for eval-mode BN; updated by train-mode forwards."""

    means: list[np.ndarray]
    variances: list[np.ndarray]

    @staticmethod
    def fresh(spec: NetworkSpec) -> "BnState":
        widths = spec.layer_dims[1:-1]
        return BnState(means=[np.zeros(w) for w in widths], variances=[np.ones(w) for w in widths])

    def update(self, layer: int, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        self.means[layer] = BN_DECAY * self.means[layer] + (1 - BN_DECAY) * batch_mean
        self.variances[layer] = BN_DECAY * self.variances[layer] + (1 - BN_DECAY) * batch_var


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass.

    layer_inputs[l] is a_l (the input to weight layer l, a_0 = X); the
    post-activation of hidden layer l is layer_inputs[l + 1].
    pre_activations[l] is s_l before BN; for the output layer it equals the
    logits.  bn_* entries are None for layers without BN.
    """

    mode: str
    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    bn_stds: list[np.ndarray | None]
    bn_normalized: list[np.ndarray | None]
    logits: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> NetworkParams:
    """Zero-mean Gaussian init, std sqrt(2/in) for ReLU and sqrt(1/in) otherwise."""
    gain = 2.0 if spec.activation == RELU else 1.0
    weights = []
    for l in range(spec.n_layers):
        out, inp = spec.weight_shape(l)
        weights.append(rng.normal(0.0, np.sqrt(gain / inp), size=(out, inp)))
    return NetworkParams(weights=weights)


def check_params(spec: NetworkSpec, params: NetworkParams) -> None:
    if len(params.weights) != spec.n_layers:
        raise ShapeError(f"expected {spec.n_layers} weight matrices, got {len(params.weights)}")
    for l, w in enumerate(params.weights):
        if w.shape != spec.weight_shape(l):
            raise ShapeError(f"layer {l}: weight shape {w.shape} != {spec.weight_shape(l)}")
        if not np.isfinite(w).all():
            raise NumericalError(f"layer {l}: non-finite weights")


def _activate(spec: NetworkSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == RELU:
        return np.maximum(z, 0.0)
    return z


def forward(
    spec: NetworkSpec,
    params: NetworkParams,
    x,
    mode: str = "train",
    bn_state: BnState | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on a batch (n x d) and capture the full trace.

    mode="train" normalizes with batch statistics (and updates `bn_state`'s
    running averages when given); mode="eval" uses the running statistics,
    defaulting to mean 0 / variance 1 if no state is supplied.
    """
    if mode not in ("train", "eval"):
        raise DomainError(f"mode must be 'train' or 'eval', got {mode!r}")
    check_params(spec, params)
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise ShapeError(f"input has shape {a.shape}, spec wants (n, {spec.input_dim})")
    n = a.shape[0]
    if mode == "train" and spec.has_bn and n < 2:
        raise DegenerateError("train-mode BN needs a batch of at least 2 examples")

    trace = ForwardTrace(
        mode=mode,
        layer_inputs=[],
        pre_activations=[],
        bn_stds=[],
        bn_normalized=[],
    )
    for l in range(spec.n_layers):
        trace.layer_inputs.append(a)
        s = a @ params.weights[l].T
        trace.pre_activations.append(s)
        if l == spec.n_layers - 1:
            trace.logits = s
            return s, trace
        if spec.bn_at(l):
            if mode == "train":
                mean = s.mean(axis=0)
                z = s - mean
                var = (z * z).mean(axis=0)  # biased, as np.var computes it
                if bn_state is not None:
                    bn_state.update(l, mean, var)
            else:
                state = bn_state or BnState.fresh(spec)
                z = s - state.means[l]
                var = state.variances[l]
            std = np.sqrt(var + BN_EPSILON)
            z /= std  # the centered rows become the normalized ones in place
            trace.bn_stds.append(std)
            trace.bn_normalized.append(z)
        else:
            z = s
            trace.bn_stds.append(None)
            trace.bn_normalized.append(None)
        a = _activate(spec, z)
    raise AssertionError("unreachable")


def vjp(
    spec: NetworkSpec,
    params: NetworkParams,
    trace: ForwardTrace,
    seeds,
    lowest: int = 0,
    inputs: bool = False,
) -> tuple[list[np.ndarray | None], np.ndarray | None]:
    """Backpropagate one seed (n x k) or a stack of seeds (m x n x k), each
    on its own, through a traced forward pass: (s_grads, x_grads).

    s_grads[l] = dL/ds_l for the layers from `lowest` up (None below, so
    lower layers cost nothing); x_grads = dL/dX when `inputs` is set.  In
    train mode the BN backward includes the batch statistics' dependence on
    the pre-activations; in eval mode the statistics are constants.
    """
    g = np.asarray(seeds, dtype=np.float64)
    if g.ndim not in (2, 3) or g.shape[-2:] != trace.logits.shape:
        raise ShapeError(f"seed shape {g.shape} is not logits {trace.logits.shape} or a stack of them")
    if not 0 <= lowest < spec.n_layers:
        raise ShapeError(f"no layer {lowest} in a {spec.n_layers}-layer network")
    if inputs and lowest:
        raise ContractError("the input gradient needs every layer's backward (lowest=0)")
    s_grads: list[np.ndarray | None] = [None] * spec.n_layers
    ds = g  # dL/ds for the current layer, starting at the output
    for l in range(spec.n_layers - 1, lowest, -1):
        s_grads[l] = ds
        da = ds @ params.weights[l]  # dL/(post-activation of hidden layer l-1)
        h = l - 1
        if spec.activation == RELU:
            z_in = trace.bn_normalized[h] if spec.bn_at(h) else trace.pre_activations[h]
            dz = da * (z_in > 0)
        else:
            dz = da
        if spec.bn_at(h):
            std = trace.bn_stds[h]
            if trace.mode == "train":
                z = trace.bn_normalized[h]
                ds = (dz - dz.mean(axis=-2, keepdims=True)
                      - z * (dz * z).mean(axis=-2, keepdims=True)) / std
            else:
                ds = dz / std
        else:
            ds = dz
    s_grads[lowest] = ds
    return s_grads, (ds @ params.weights[0] if inputs else None)


def seed_chunks(count: int, rows_each: int) -> list[slice]:
    """Slices of range(count) whose items, each adding `rows_each` (seed,
    example) rows to a stacked backward, stay within SEED_ROWS together
    (one item at least)."""
    step = max(1, SEED_ROWS // rows_each)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def output_seeds(n: int, k: int) -> np.ndarray:
    """k x n x k stack whose seed c selects output c of every example."""
    return np.repeat(np.eye(k)[:, None, :], n, axis=1)


def example_seeds(blocks: np.ndarray, examples: slice) -> np.ndarray:
    """Per-example seeds, m*c x n x k for the m examples of `examples`:
    seed (i, j) is zero except on example i's row, which is blocks[i][j]
    (blocks is n x c x k)."""
    n, c, k = blocks.shape
    idx = np.arange(examples.start, examples.stop)
    seeds = np.zeros((idx.size, c, n, k))
    seeds[np.arange(idx.size), :, idx, :] = blocks[idx]
    return seeds.reshape(-1, n, k)


def input_jacobian(spec: NetworkSpec, params: NetworkParams, trace: ForwardTrace) -> np.ndarray:
    """Exact n x k x d Jacobians of each example's logits with respect to
    its input, from one stacked backward of the k output seeds.  The
    examples must not couple: eval-mode trace, or a net without BN."""
    if trace.mode == "train" and spec.has_bn:
        raise ContractError("per-example input Jacobians need an eval-mode trace under BN")
    _, x_grads = vjp(spec, params, trace, output_seeds(*trace.logits.shape), inputs=True)
    return x_grads.transpose(1, 0, 2)


def flatten_params(spec: NetworkSpec, params: NetworkParams) -> np.ndarray:
    """Canonical parameter vector: per layer, the row-major weights."""
    return np.concatenate([params.weights[l].ravel() for l in range(spec.n_layers)])


def unflatten_params(spec: NetworkSpec, theta: np.ndarray) -> NetworkParams:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.n_params,):
        raise ShapeError(f"theta has {theta.shape}, spec wants ({spec.n_params},)")
    return NetworkParams(weights=[theta[s].reshape(spec.weight_shape(l)).copy()
                                  for l, s in enumerate(layer_slices(spec))])


def layer_slices(spec: NetworkSpec) -> list[slice]:
    """Slice of the canonical flattening owned by each layer."""
    slices = []
    off = 0
    for l in range(spec.n_layers):
        out, inp = spec.weight_shape(l)
        size = out * inp
        slices.append(slice(off, off + size))
        off += size
    return slices


def param_jacobian(
    spec: NetworkSpec,
    params: NetworkParams,
    trace: ForwardTrace,
) -> np.ndarray:
    """Exact n x k x P Jacobians of each example's logits with respect to
    the canonical parameter flattening.

    Uncoupled examples share one stacked backward of the k output seeds.  A
    train-mode BN trace couples them through the batch statistics, so there
    every (example, output) pair gets its own seed, in SEED_ROWS chunks.
    """
    if spec.n_params > PARAM_CAP:
        raise CapacityError(f"{spec.n_params} parameters exceed the cap of {PARAM_CAP}")
    n, k = trace.logits.shape
    if trace.mode == "eval" or not spec.has_bn:
        s_grads, _ = vjp(spec, params, trace, output_seeds(n, k))
        parts = [np.einsum("cno,ni->ncoi", g, a).reshape(n, k, -1)
                 for g, a in zip(s_grads, trace.layer_inputs)]
        return np.concatenate(parts, axis=2)
    blocks = np.broadcast_to(np.eye(k), (n, k, k))
    jac = np.empty((n * k, spec.n_params))
    for ex in seed_chunks(n, k * n):
        s_grads, _ = vjp(spec, params, trace, example_seeds(blocks, ex))
        parts = [(g.transpose(0, 2, 1) @ a).reshape(g.shape[0], -1)
                 for g, a in zip(s_grads, trace.layer_inputs)]
        jac[ex.start * k : ex.stop * k] = np.concatenate(parts, axis=1)
    return jac.reshape(n, k, -1)


def scale_layer(params: NetworkParams, layer: int, alpha: float) -> NetworkParams:
    """Return params with layer `layer`'s weights multiplied by alpha > 0."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0 <= layer < len(params.weights):
        raise ShapeError(f"no layer {layer} in a {len(params.weights)}-layer network")
    out = params.copy()
    out.weights[layer] = out.weights[layer] * alpha
    return out


def layer_norms(params: NetworkParams) -> np.ndarray:
    """Euclidean norm of each flattened weight matrix."""
    return np.array([float(np.linalg.norm(w)) for w in params.weights])


# --- checkpoints ------------------------------------------------------------
#
# One JSON header line, then the canonical parameter flattening as raw
# little-endian float64, which round-trips bit-exactly, then ("bn_count"
# values) each BN layer's running means and variances in layer order.
# Checkpoints written before the statistics were stored have no "bn_count".


def save_checkpoint(path, spec: NetworkSpec, params: NetworkParams, bn_state: BnState | None,
                    seed: int, epoch: int) -> None:
    if spec.has_bn and bn_state is None:
        raise ContractError("a batch-norm net's checkpoint needs its running statistics")
    theta = flatten_params(spec, params)
    stats = [] if bn_state is None else [
        v for m, var in zip(bn_state.means, bn_state.variances) for v in (m, var)]
    header = {
        "format": "binary",
        "spec": spec.to_dict(),
        "seed": int(seed),
        "epoch": int(epoch),
        "count": int(theta.size),
        "bn_count": int(sum(v.size for v in stats)),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.concatenate([theta, *stats]).astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[NetworkSpec, NetworkParams, BnState | None, int, int]:
    """(spec, params, bn_state, seed, epoch); bn_state is None without BN
    and for BN checkpoints written before the statistics were stored."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError("checkpoint: no header line (missing newline at offset 0..EOF)")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"checkpoint: bad JSON header before offset {nl}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"checkpoint: header before offset {nl} is not a JSON object")
    if header.get("format") != "binary":
        raise DataFormatError(f"checkpoint: unknown format {header.get('format')!r}, expected 'binary'")
    for key, kind in (("spec", dict), ("count", int), ("seed", int), ("epoch", int)):
        if not isinstance(header.get(key), kind) or isinstance(header[key], bool):
            raise DataFormatError(f"checkpoint: header key {key!r} is missing or not a JSON "
                                  f"{'object' if kind is dict else 'integer'}")
    try:
        spec = NetworkSpec.from_dict(header["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"checkpoint: header key 'spec' is malformed: {exc!r}") from exc
    expected = 2 * sum(spec.layer_dims[1:-1]) if spec.has_bn else 0
    count, bn_count = header["count"], header.get("bn_count")
    for key, value, want in (("count", count, spec.n_params), ("bn_count", bn_count, expected)):
        if value not in (None, want):
            raise DataFormatError(f"checkpoint: header key {key!r} is {value!r}, "
                                  f"expected {want} for its spec")
    payload = raw[nl + 1 :]
    size = 8 * (count + (bn_count or 0))
    if len(payload) != size:
        raise DataFormatError(
            f"checkpoint: binary payload is {len(payload)} bytes at offset {nl + 1}, expected {size}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    params = unflatten_params(spec, values[:count])
    bn_state = None
    if bn_count:
        bn_state = BnState.fresh(spec)
        off = count
        for l, m in enumerate(bn_state.means):
            bn_state.means[l] = values[off : off + m.size]
            bn_state.variances[l] = values[off + m.size : off + 2 * m.size]
            off += 2 * m.size
    return spec, params, bn_state, header["seed"], header["epoch"]
