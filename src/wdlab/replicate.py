"""Desk-scale experiment bundles for the three weight-decay mechanisms.

Each ``mechanismN`` function trains a small set of arms (per-arm metric CSVs
land in subdirectories of the report directory), computes the qualitative
comparisons the bundle is meant to exhibit, writes a ``summary.json`` with
the comparison numbers and pass booleans, and emits SVG plots of the logged
series when matplotlib is available.

The bundles:

* mechanism 1 — SGD on a batch-norm MLP.  Weight decay on the hidden layers
  shrinks their norms, which raises the effective learning rate eta/||w||^2;
  a norm-transfer arm (no decay, but hidden-layer norms pinned each epoch to
  the decayed run's) recovers most of the decayed run's test accuracy.
* mechanism 2 — SGD and K-FAC with Gauss-Newton statistics on a plain MLP.
  L2 decay through the K-FAC preconditioner suppresses the input-output
  Jacobian norm more than the same decay under SGD, and the block-diagonal
  Gauss-Newton norm tracks the Jacobian norm across trained nets.
* mechanism 3 — K-FAC with Fisher statistics on a batch-norm MLP.  The
  Fisher trace at the normalized first-layer weights collapses as the model
  grows confident while the Gauss-Newton trace stays put, and without decay
  the growing weight norm inflates the effective damping lam*||w||^2
  relative to the per-parameter curvature.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import plots, training
from .config import ExperimentConfig

# Epoch from which the decayed run's hidden-layer norms are expected to sit
# below the baseline's (the first few epochs are dominated by the shared
# init), and the epoch from which the effective-damping comparison is read.
NORM_SETTLE_EPOCH = 5
MID_TRAINING_EPOCH = 15

# Window of recorded epochs treated as "early training" when locating the
# Fisher-trace peak; the epoch-0 record (untrained net) is excluded.
EARLY_EPOCHS = slice(1, 11)

M1_SEEDS = (0, 1, 2)
M1_ETA = 1.0
M1_BETA = 8e-3

M2_SEEDS = (0, 1, 2)
M2_BETA = 1e-2
M2_KFAC_ETA = 0.01
M2_SGD_ETA = 0.1
M2_LAM = 1e-2
# (hidden width, decay strength, seed) cells for the correlation scan; every
# cell trains to full training accuracy and contributes one point.
M2_CORR_CELLS = tuple(
    (width, beta, seed)
    for width in (16, 32)
    for beta, seed in ((0.0, 0), (1e-3, 1), (3e-3, 2), (1e-2, 0))
)

M3_SEED = 0
M3_ETA = 0.03
M3_LAM = 1e-2
M3_BETA = 0.1


def _write_summary(out_dir, summary):
    path = Path(out_dir) / "summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _series(records, pick):
    return [pick(r) for r in records]


def _norm_array(records):
    return np.array([r.layer_norms for r in records])


def _desk_config(out_dir, seed, **overrides):
    base = dict(
        layer_dims=(784, 256, 256, 10),
        n_train=5000,
        n_val=0,
        n_test=2000,
        epochs=30,
        schedule=(12, 24),
        probe_size=0,
        out_dir=str(out_dir),
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def mechanism1(out_dir, seeds=M1_SEEDS, make_plots=True):
    """SGD +- weight decay on a BN MLP, plus the norm-transfer arm."""
    root = Path(out_dir)
    eff_lr = {arm: {} for arm in ("baseline", "wd_hidden", "norm_transfer")}
    final_acc = {arm: {} for arm in eff_lr}
    norms_below = {}
    runs_for_plot = None

    for seed in seeds:
        cfg = _desk_config(root / f"seed{seed}" / "baseline", seed,
                           batchnorm=True, eta=M1_ETA)
        dataset = training.build_dataset(cfg)
        base = training.train(cfg, dataset=dataset)
        wd = training.train(
            dataclasses.replace(cfg, coupling="weight_decay", beta=M1_BETA,
                                mask="hidden_only",
                                out_dir=str(root / f"seed{seed}" / "wd_hidden")),
            dataset=dataset)
        n_layers = base.spec.n_layers
        hidden = [l for l in range(n_layers - 1)]
        plan = training.NormTransferPlan(
            mask=tuple(l in hidden for l in range(n_layers)),
            norms_by_epoch=_norm_array(wd.records),
        )
        wn = training.train(
            dataclasses.replace(cfg, out_dir=str(root / f"seed{seed}" / "norm_transfer")),
            dataset=dataset, norm_plan=plan)

        nb = _norm_array(base.records)
        nw = _norm_array(wd.records)
        norms_below[seed] = bool(
            (nw[NORM_SETTLE_EPOCH:, hidden] < nb[NORM_SETTLE_EPOCH:, hidden]).all())
        for arm, run in (("baseline", base), ("wd_hidden", wd), ("norm_transfer", wn)):
            eff_lr[arm][seed] = _series(run.records, lambda r: list(r.effective_lrs))
            final_acc[arm][seed] = float(run.final.test_acc)
        if runs_for_plot is None:
            runs_for_plot = {"baseline": base, "wd_hidden": wd, "norm_transfer": wn}

    mean_acc = {arm: float(np.mean(list(by_seed.values())))
                for arm, by_seed in final_acc.items()}
    wd_gain_pp = 100.0 * (mean_acc["wd_hidden"] - mean_acc["baseline"])
    wn_gain_pp = 100.0 * (mean_acc["norm_transfer"] - mean_acc["baseline"])
    wn_vs_wd_pp = 100.0 * abs(mean_acc["norm_transfer"] - mean_acc["wd_hidden"])
    norms_ok = bool(all(norms_below.values()))
    transfer_close = bool(wn_vs_wd_pp <= 0.5)
    transfer_above_base = bool(mean_acc["norm_transfer"] > mean_acc["baseline"])

    if make_plots and runs_for_plot is not None:
        plots.line_plot(
            root / "hidden_norms.svg",
            {arm: _series(run.records, lambda r: r.layer_norms[0])
             for arm, run in runs_for_plot.items()},
            title=f"first-layer weight norm (seed {seeds[0]})",
            ylabel="||W_0||_F")
        plots.line_plot(
            root / "effective_lr.svg",
            {arm: _series(run.records, lambda r: r.effective_lrs[0])
             for arm, run in runs_for_plot.items()},
            title=f"first-layer effective learning rate (seed {seeds[0]})",
            ylabel="eta / ||W_0||^2", logy=True)

    summary = {
        "mechanism": "effective_learning_rate",
        "optimizer": "sgd",
        "eta": M1_ETA,
        "beta": M1_BETA,
        "mask": "hidden_only",
        "seeds": list(seeds),
        "final_test_acc": final_acc,
        "mean_test_acc": mean_acc,
        "effective_lr_series": eff_lr,
        "hidden_norms_below_baseline": norms_below,
        "norm_settle_epoch": NORM_SETTLE_EPOCH,
        "wd_minus_baseline_pp": wd_gain_pp,
        "transfer_minus_baseline_pp": wn_gain_pp,
        "transfer_vs_wd_gap_pp": wn_vs_wd_pp,
        "norms_ok": norms_ok,
        "transfer_within_half_point": transfer_close,
        "transfer_above_baseline": transfer_above_base,
        "passed": bool(norms_ok and transfer_close and transfer_above_base),
    }
    return _write_summary(root, summary)


def _m2_arm_configs():
    return {
        "sgd_base": dict(optimizer="sgd", eta=M2_SGD_ETA, coupling="none"),
        "sgd_wd": dict(optimizer="sgd", eta=M2_SGD_ETA, coupling="l2", beta=M2_BETA),
        "kfac_base": dict(optimizer="kfac_gn", eta=M2_KFAC_ETA, lam=M2_LAM,
                          coupling="none"),
        "kfac_wd": dict(optimizer="kfac_gn", eta=M2_KFAC_ETA, lam=M2_LAM,
                        coupling="l2", beta=M2_BETA),
    }


def mechanism2(out_dir, seeds=M2_SEEDS, make_plots=True):
    """Jacobian-norm suppression under SGD vs K-FAC-GN, plus the norm scan."""
    root = Path(out_dir)
    jac_final = {arm: {} for arm in _m2_arm_configs()}
    jac_series = {arm: {} for arm in _m2_arm_configs()}

    for seed in seeds:
        shared = _desk_config(root / "unused", seed, batchnorm=False,
                              epochs=15, schedule=(), probe_size=100)
        dataset = training.build_dataset(shared)
        for arm, overrides in _m2_arm_configs().items():
            cfg = dataclasses.replace(shared, out_dir=str(root / f"seed{seed}" / arm),
                                      **overrides)
            run = training.train(cfg, dataset=dataset)
            jac_final[arm][seed] = float(run.final.jacobian_norm)
            jac_series[arm][seed] = _series(run.records, lambda r: float(r.jacobian_norm))

    ratio_sgd = {s: jac_final["sgd_base"][s] / jac_final["sgd_wd"][s] for s in seeds}
    ratio_kfac = {s: jac_final["kfac_base"][s] / jac_final["kfac_wd"][s] for s in seeds}
    mean_sgd = float(np.mean(list(ratio_sgd.values())))
    mean_kfac = float(np.mean(list(ratio_kfac.values())))
    ordering_ok = bool(mean_kfac > mean_sgd)

    # Correlation scan: small whitened problems, every net trained until it
    # fits the training set exactly, then one (kfac GN norm, Jacobian norm)
    # point per net, both evaluated on the training inputs.
    from . import curvature, diagnostics  # local import to keep startup light

    points = []
    all_fit = True
    for width, beta, seed in M2_CORR_CELLS:
        cfg = ExperimentConfig(
            dataset="synthetic", whiten_inputs=True, layer_dims=(16, width, 4),
            n_train=64, n_val=0, n_test=64, batch_size=16,
            epochs=400, schedule=(), eta=0.5,
            coupling="none" if beta == 0.0 else "l2", beta=beta,
            probe_size=0, seed=seed,
            out_dir=str(root / "correlation" / f"w{width}_b{beta:g}_s{seed}"),
        )
        dataset = training.build_dataset(cfg)
        run = training.train(cfg, dataset=dataset)
        x_train = dataset.x[dataset.train_idx]
        gn = float(curvature.kfac_gn_norm(run.spec, run.params, x_train))
        jac = float(diagnostics.jacobian_frob_norm(run.spec, run.params, x_train))
        fit = float(run.final.train_acc)
        all_fit = all_fit and fit == 1.0
        points.append({"width": width, "beta": beta, "seed": seed,
                       "kfac_gn_norm": gn, "jacobian_norm": jac, "train_acc": fit})
    gns = [p["kfac_gn_norm"] for p in points]
    jacs = [p["jacobian_norm"] for p in points]
    pearson_r = float(np.corrcoef(gns, jacs)[0, 1])
    correlation_ok = bool(all_fit and len(points) >= 8 and pearson_r >= 0.8)

    if make_plots:
        plots.line_plot(
            root / "jacobian_norms.svg",
            {arm: jac_series[arm][seeds[0]] for arm in jac_series},
            title=f"input-output Jacobian norm (seed {seeds[0]})",
            ylabel="mean ||J_x||_F^2", logy=True)
        plots.scatter_plot(
            root / "gn_vs_jacobian.svg", gns, jacs,
            title=f"trained nets, r={pearson_r:.3f}",
            xlabel="kfac GN norm", ylabel="mean ||J_x||_F^2")

    summary = {
        "mechanism": "jacobian_regularization",
        "beta": M2_BETA,
        "seeds": list(seeds),
        "final_jacobian_norm": jac_final,
        "jacobian_ratio_sgd": ratio_sgd,
        "jacobian_ratio_kfac": ratio_kfac,
        "mean_ratio_sgd": mean_sgd,
        "mean_ratio_kfac": mean_kfac,
        "kfac_ratio_exceeds_sgd": ordering_ok,
        "correlation_points": points,
        "pearson_r": pearson_r,
        "all_nets_fit_training_set": bool(all_fit),
        "correlation_ok": correlation_ok,
        "passed": bool(ordering_ok and correlation_ok),
    }
    return _write_summary(root, summary)


def mechanism3(out_dir, seed=M3_SEED, make_plots=True):
    """Fisher-trace collapse and effective damping under K-FAC +- decay."""
    root = Path(out_dir)
    arms = {
        "fisher_base": dict(optimizer="kfac_fisher", coupling="none"),
        "fisher_wd": dict(optimizer="kfac_fisher", coupling="weight_decay",
                          beta=M3_BETA, mask="all"),
        "gn_base": dict(optimizer="kfac_gn", coupling="none"),
        "gn_wd": dict(optimizer="kfac_gn", coupling="weight_decay",
                      beta=M3_BETA, mask="all"),
    }
    shared = _desk_config(root / "unused", seed, batchnorm=True,
                          eta=M3_ETA, lam=M3_LAM,
                          trace_layers=(0,), trace_size=32)
    dataset = training.build_dataset(shared)

    runs = {}
    for arm, overrides in arms.items():
        cfg = dataclasses.replace(shared, out_dir=str(root / arm), **overrides)
        runs[arm] = training.train(cfg, dataset=dataset)

    layer = 0
    n_params = shared.layer_dims[layer] * shared.layer_dims[layer + 1]
    fisher = {arm: np.array(_series(run.records, lambda r: r.fisher_traces[layer]))
              for arm, run in runs.items()}
    gn = {arm: np.array(_series(run.records, lambda r: r.gn_traces[layer]))
          for arm, run in runs.items()}
    norms = {arm: _norm_array(run.records)[:, layer] for arm, run in runs.items()}
    # The effective damping compares lam against the trace of the metric the
    # optimizer actually preconditions with.
    precond = {arm: fisher[arm] if arm.startswith("fisher") else gn[arm]
               for arm in runs}
    damping = {arm: M3_LAM * norms[arm] ** 2 / (precond[arm] / n_params)
               for arm in runs}
    # the same ratio as the optimizer saw it, from its own factors at each inversion
    kfac_damping = {arm: [[step, spectra[layer].damping_ratio] for step, spectra in run.kfac_health]
                    for arm, run in runs.items()}

    ft = fisher["fisher_wd"]
    gt = gn["fisher_wd"]
    fisher_decay = float(ft[EARLY_EPOCHS].max() / ft[-1])
    gn_change = float(gt[1:].max() / gt[1:].min())
    train_acc = {arm: float(run.final.train_acc) for arm, run in runs.items()}
    acc_ok = bool(train_acc["fisher_base"] >= 0.99 and train_acc["fisher_wd"] >= 0.99)
    mid = MID_TRAINING_EPOCH
    damping_ok = bool((damping["fisher_base"][mid:] > damping["fisher_wd"][mid:]).all())

    if make_plots:
        plots.line_plot(
            root / "normalized_traces.svg",
            {"fisher trace": ft.tolist(), "gn trace": gt.tolist()},
            title="first-layer curvature traces at normalized weights (wd arm)",
            ylabel="trace", logy=True)
        plots.line_plot(
            root / "effective_damping.svg",
            {arm: damping[arm].tolist() for arm in ("fisher_base", "fisher_wd")},
            title="first-layer effective damping ratio",
            ylabel="lam ||W_0||^2 / (trace / n_params)", logy=True)

    summary = {
        "mechanism": "effective_damping",
        "optimizer": "kfac_fisher",
        "eta": M3_ETA,
        "lam": M3_LAM,
        "beta": M3_BETA,
        "seed": seed,
        "layer": layer,
        "train_acc": train_acc,
        "fisher_trace_series": {arm: fisher[arm].tolist() for arm in runs},
        "gn_trace_series": {arm: gn[arm].tolist() for arm in runs},
        "damping_ratio_series": {arm: damping[arm].tolist() for arm in runs},
        "kfac_damping_ratio_series": kfac_damping,
        "fisher_decay_factor": fisher_decay,
        "gn_change_factor": gn_change,
        "fisher_decay_exceeds_gn_change": bool(fisher_decay >= gn_change),
        "mid_training_epoch": mid,
        "train_acc_ok": acc_ok,
        "fisher_decay_ok": bool(fisher_decay >= 10.0),
        "gn_change_ok": bool(gn_change <= 4.0),
        "damping_ordering_ok": damping_ok,
        "passed": bool(acc_ok and fisher_decay >= 10.0 and gn_change <= 4.0
                       and damping_ok),
    }
    return _write_summary(root, summary)


def replicate_all(out_dir, make_plots=True):
    """Run all three mechanism bundles under one report directory."""
    root = Path(out_dir)
    summary = {
        "m1": mechanism1(root / "m1", make_plots=make_plots),
        "m2": mechanism2(root / "m2", make_plots=make_plots),
        "m3": mechanism3(root / "m3", make_plots=make_plots),
    }
    summary["all_passed"] = bool(all(summary[k]["passed"] for k in ("m1", "m2", "m3")))
    return _write_summary(root, summary)
