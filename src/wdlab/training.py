"""Training loops, grid search, and run persistence.

A run, a grid's retrain too, is fully determined by its config: every RNG
(init, shuffles, sampled targets) derives from the config seed, so a rerun
writes the same metric CSV bytes at a fixed BLAS thread count.  Its directory
holds the resolved config, a manifest.json naming what produced the run, a
metrics.csv, a final checkpoint and, for K-FAC runs, a kfac_health.csv.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import config as config_mod
from . import curvature, data, diagnostics, loss, nn, optim
from .errors import DomainError, InstabilityError, ShapeError, TrainingDiverged


@dataclass
class NormTransferPlan:
    """End-of-epoch norm targets for the transfer arm: rescale masked layers
    to the reference run's recorded norms for that epoch."""

    mask: tuple[bool, ...]
    norms_by_epoch: np.ndarray  # (epochs+1, n_layers); row e applied after epoch e

    def __post_init__(self):
        self.norms_by_epoch = np.asarray(self.norms_by_epoch, dtype=np.float64)


@dataclass
class RunResult:
    config: config_mod.ExperimentConfig
    spec: nn.NetworkSpec
    params: nn.NetworkParams
    bn_state: nn.BnState | None
    records: list[diagnostics.MetricRecord]
    out_dir: str
    metrics_path: str
    checkpoint_path: str
    kfac_health: list[tuple[int, list[curvature.FactorSpectrum]]]  # empty unless K-FAC

    @property
    def final(self) -> diagnostics.MetricRecord:
        return self.records[-1]


def build_dataset(cfg: config_mod.ExperimentConfig) -> data.Dataset:
    """Materialize the configured dataset with its train/val/test split; an
    MNIST pool the configured net cannot take is refused."""
    total = cfg.n_train + cfg.n_val + cfg.n_test
    if cfg.dataset == "mnist":
        ds = data.load_mnist(cfg.mnist_images, cfg.mnist_labels)
        if ds.x.shape[1] != cfg.layer_dims[0]:
            raise ShapeError(f"MNIST images have {ds.x.shape[1]} pixels, model.dims "
                             f"starts at {cfg.layer_dims[0]}")
        if ds.y.max(initial=0) >= cfg.layer_dims[-1]:
            raise DomainError(f"MNIST label {ds.y.max()} needs more than the "
                              f"{cfg.layer_dims[-1]} classes of model.dims")
        if cfg.whiten_inputs:
            ds = data.Dataset(x=data.whiten(ds.x), y=ds.y, n_classes=ds.n_classes)
    else:
        ds = data.gen_synthetic(
            total,
            cfg.layer_dims[0],
            cfg.layer_dims[-1],
            seed=cfg.seed,
            whiten_inputs=cfg.whiten_inputs,
        )
    return data.make_splits(ds, cfg.n_train, cfg.n_val, cfg.n_test, seed=cfg.seed)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def source_revision() -> str | None:
    """Git revision of the tree this package was loaded from, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        # the second revision fails unless this file is tracked, so a
        # package installed inside some unrelated checkout reports None
        out = subprocess.run(["git", "-C", here, "rev-parse", "HEAD", "HEAD:./training.py"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.split()[0] if out.returncode == 0 else None


def write_manifest(path, config_text: str, seed: int) -> None:
    """Write what produced a run as JSON: its config hash and seed, numpy
    and BLAS, the BLAS thread settings (metrics.csv bytes depend on them)
    and the source revision."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its build config
        blas = {}
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": seed,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": source_revision(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_optimizer(cfg: config_mod.ExperimentConfig):
    if cfg.optimizer == "sgd":
        return optim.SgdState(eta=cfg.eta, momentum=cfg.momentum)
    if cfg.optimizer == "adam":
        return optim.AdamState(eta=cfg.eta)
    metric = "fisher" if cfg.optimizer == "kfac_fisher" else "gn"
    rng = np.random.default_rng([cfg.seed, 0xF1]) if metric == "fisher" else None
    return optim.KfacState(
        metric=metric,
        eta=cfg.eta,
        lam=cfg.lam,
        t_stats=cfg.stats_every,
        t_inv=cfg.invert_every,
        factor_decay=cfg.factor_decay,
        rng=rng,
    )


def _minibatch_pass(spec, params, bn_state, opt_state, coupling, x, y):
    """One optimizer update on one minibatch; returns (params, batch loss).
    Its one forward and backward serve every optimizer and K-FAC's factors."""
    logits, trace = nn.forward(spec, params, x, mode="train", bn_state=bn_state)
    value, dl = loss.loss_and_grad(logits, y)
    s_grads, _ = nn.vjp(spec, params, trace, dl)
    grads = list(zip(s_grads, trace.layer_inputs))
    if isinstance(opt_state, optim.KfacState):
        return optim.kfac_step(opt_state, spec, params, trace, grads, coupling), value
    if isinstance(opt_state, optim.SgdState):
        return optim.sgd_step(opt_state, params, grads, coupling), value
    return optim.adam_step(opt_state, params, grads, coupling), value


def measured_inputs(cfg, dataset: data.Dataset):
    """What a run measures at each epoch boundary: (train split, test split or
    else train, probe rows heading that, trace rows heading train or None)."""
    x_train, y_train = dataset.split("train")
    x_test, y_test = dataset.split("test")
    if x_test.shape[0] == 0:
        x_test, y_test = x_train, y_train
    probe_x = x_test[: cfg.probe_size] if cfg.probe_size > 0 else None
    trace_x = x_train[: cfg.trace_size] if cfg.trace_layers else None
    return (x_train, y_train), (x_test, y_test), probe_x, trace_x


def train(
    cfg: config_mod.ExperimentConfig,
    dataset: data.Dataset | None = None,
    norm_plan: NormTransferPlan | None = None,
) -> RunResult:
    """Run the configured experiment end to end.

    `dataset` overrides the config's data source (used when several arms must
    share one sample); its split must be the config's.  `norm_plan` rescales
    masked layers to reference norms at every epoch boundary.
    """
    spec = cfg.network_spec()
    coupling = cfg.coupling_obj()
    if dataset is None:
        dataset = build_dataset(cfg)
    (x_train, y_train), (x_test, y_test), probe_x, trace_x = measured_inputs(cfg, dataset)
    if norm_plan is not None and norm_plan.norms_by_epoch.shape != (
        cfg.epochs + 1,
        spec.n_layers,
    ):
        raise DomainError(
            f"norm plan needs shape {(cfg.epochs + 1, spec.n_layers)}, "
            f"got {norm_plan.norms_by_epoch.shape}"
        )

    rng = np.random.default_rng([cfg.seed, 0x1417])
    params = nn.init_params(spec, rng)
    bn_state = nn.BnState.fresh(spec) if spec.has_bn else None
    opt_state = make_optimizer(cfg)

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    health_path = os.path.join(cfg.out_dir, "kfac_health.csv")
    checkpoint_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    for stale in (metrics_path, health_path, checkpoint_path):
        if os.path.exists(stale):
            os.remove(stale)
    log = diagnostics.MetricLog(metrics_path)
    config_text = config_mod.to_ini(cfg)
    with open(os.path.join(cfg.out_dir, "config.ini"), "w") as fh:
        fh.write(config_text)
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), config_text, cfg.seed)

    def record(epoch):
        return diagnostics.record_metrics(
            epoch,
            spec,
            params,
            opt_state.eta,
            (x_train, y_train),
            (x_test, y_test),
            bn_state=bn_state,
            probe_x=probe_x,
            trace_x=trace_x,
            trace_layers=cfg.trace_layers,
            log=log,
        )

    records = [record(0)]
    n_train = x_train.shape[0]
    try:
        for epoch in range(1, cfg.epochs + 1):
            opt_state.eta = cfg.eta_at(epoch)
            perm = np.random.default_rng([cfg.seed, 0x5F, epoch]).permutation(n_train)
            for start in range(0, n_train, cfg.batch_size):
                batch = perm[start : start + cfg.batch_size]
                if spec.has_bn and batch.size < 2:
                    continue  # train-mode BN needs at least two rows
                params, value = _minibatch_pass(
                    spec, params, bn_state, opt_state, coupling,
                    x_train[batch], y_train[batch],
                )
                if not np.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite loss {value} at epoch {epoch}, batch offset {start}",
                        record={"epoch": epoch, "offset": start, "loss": value,
                                "eta": opt_state.eta, "beta": coupling.beta},
                    )
            if norm_plan is not None:
                params = diagnostics.norm_transfer(
                    spec, params, norm_plan.norms_by_epoch[epoch], norm_plan.mask
                )
            records.append(record(epoch))
    finally:
        # a diverged K-FAC run keeps the spectra that led up to it
        if isinstance(opt_state, optim.KfacState):
            diagnostics.write_kfac_health(health_path, opt_state.health)

    nn.save_checkpoint(checkpoint_path, spec, params, bn_state, cfg.seed, cfg.epochs)
    return RunResult(
        config=cfg,
        spec=spec,
        params=params,
        bn_state=bn_state,
        records=records,
        out_dir=cfg.out_dir,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
        kfac_health=opt_state.health if isinstance(opt_state, optim.KfacState) else [],
    )


# --- grid search ------------------------------------------------------------


@dataclass
class CellResult:
    eta: float
    beta: float
    status: str  # trained | rejected | diverged
    val_accuracy: float
    out_dir: str
    detail: str = ""


@dataclass
class GridResult:
    cells: list[CellResult]
    best: CellResult
    final: RunResult


def _cell_dir(base_out: str, eta: float, beta: float) -> str:
    return os.path.join(base_out, "cells", f"eta{eta:g}_beta{beta:g}")


def _cell_task(base, eta: float, beta: float, dataset):
    """`_run_cell`'s arguments, built before any cell trains so a bad value
    raises first; a cell whose decay has eta*beta >= 1 gets no config."""
    out_dir = _cell_dir(base.out_dir, eta, beta)
    try:
        cell_cfg = dataclasses.replace(base, eta=eta, beta=beta, out_dir=out_dir)
    except InstabilityError:
        cell_cfg = None
    return eta, beta, out_dir, cell_cfg, dataset


def _run_cell(args) -> CellResult:
    eta, beta, out_dir, cell_cfg, dataset = args
    if cell_cfg is None:
        return CellResult(eta, beta, "rejected", float("nan"), out_dir,
                          detail="eta*beta >= 1 would flip the decayed weights")
    try:
        result = train(cell_cfg, dataset=dataset)
    except TrainingDiverged as exc:
        return CellResult(eta, beta, "diverged", float("nan"), out_dir, detail=str(exc))
    x_val, y_val = dataset.split("val")
    _, acc = diagnostics.evaluate(
        result.spec, result.params, x_val, y_val, bn_state=result.bn_state
    )
    return CellResult(eta, beta, "trained", acc, out_dir)


def grid(
    base: config_mod.ExperimentConfig,
    etas,
    betas,
    jobs: int = 1,
) -> GridResult:
    """Train every (eta, beta) cell, pick the best validation accuracy (ties:
    smaller beta, then smaller eta), and retrain the winner on a config whose
    train split is train+validation.  All of them share one dataset."""
    etas = [float(v) for v in etas]
    betas = [float(v) for v in betas]
    if not etas or not betas:
        raise DomainError("grid needs at least one eta and one beta")
    dataset = build_dataset(base)
    if dataset.split("val")[0].shape[0] == 0:
        raise DomainError("grid search needs a nonempty validation split")
    tasks = [_cell_task(base, eta, beta, dataset) for eta in etas for beta in betas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        cells = [_run_cell(t) for t in tasks]
    trained = [c for c in cells if c.status == "trained"]
    if not trained:
        raise DomainError("every grid cell was rejected or diverged")
    best = min(trained, key=lambda c: (-c.val_accuracy, c.beta, c.eta))
    # make_splits' permutation depends only on the seed and the row count, so
    # the retrain's train rows are the cells' train rows, then their val rows
    n_train = base.n_train + base.n_val
    winner_cfg = dataclasses.replace(
        base, eta=best.eta, beta=best.beta, n_train=n_train, n_val=0,
        out_dir=os.path.join(base.out_dir, "best"),
    )
    merged = data.make_splits(dataset, n_train, 0, base.n_test, seed=base.seed)
    final = train(winner_cfg, dataset=merged)
    return GridResult(cells=cells, best=best, final=final)
