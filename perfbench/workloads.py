"""The benchmark's workloads: which jobs a round runs and how each job's
output is checked.

A job is one training arm (``training.train``) or one oracle check
(``verify.run_all(only=...)``).  Every round of a run repeats the same jobs
on the same inputs, so each job's output must repeat byte for byte; the
sha256 of that output is the job's digest.

Why these workloads (measured on a 2-core shared VM, OpenBLAS, 1 BLAS thread):

* ``kfac_train`` -- the optimizer hot path.  ``optim.kfac_step`` is about 83%
  of the wall time of these arms and ``curvature.apply_preconditioner`` alone
  about 61%.  Probes are off, so ``diagnostics`` only runs ``evaluate``.
* ``probe_diag`` -- the epoch-boundary measurement path.  SGD steps are
  cheap; ``diagnostics.record_metrics`` (Jacobian-norm probe, normalized
  traces) is about 75-78% of the wall time, and no K-FAC code runs.
* ``oracle_suite`` -- the nine oracle checks.  Hundreds of thousands of calls
  on 2-16-wide nets, so per-call Python overhead dominates, not BLAS.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

from wdlab import config, training, verify

# Desk net shared by both training workloads, as in the mechanism bundles.
# Three epochs (120 steps) take each K-FAC arm past its second inversion at
# step 100; before it the stale step-0 preconditioner raises the BN Fisher
# arm's loss above its epoch-0 value, which the correctness gate rejects.
DESK = dict(layer_dims=(784, 256, 256, 10), n_train=5000, n_val=0, n_test=2000,
            batch_size=128, epochs=3, schedule=(), probe_size=0)
SMOKE = dict(layer_dims=(16, 12, 12, 4), n_train=96, n_val=0, n_test=32,
             batch_size=16, epochs=2, schedule=(), probe_size=0)

# Arms copied from the bundles (m2 kfac_wd, m3 fisher_wd, m2 sgd_wd,
# m1 wd_hidden) so the benchmark's work does not move when a bundle is retuned.
# wd_hidden uses eta=0.1, not m1's 1.0: m1 needs 30 epochs and an LR drop to
# settle, and over three epochs at 1.0 its eval-mode train loss ends above
# the epoch-0 loss.  The step size does not change the probe work.
ARMS = {
    "kfac_train": {
        "kfac_wd": dict(optimizer="kfac_gn", eta=0.01, lam=1e-2,
                        coupling="l2", beta=1e-2),
        "fisher_wd": dict(batchnorm=True, optimizer="kfac_fisher", eta=0.03,
                          lam=1e-2, coupling="weight_decay", beta=0.1, mask="all"),
    },
    "probe_diag": {
        "sgd_wd": dict(optimizer="sgd", eta=0.1, coupling="l2", beta=1e-2,
                       probe_size=100),
        "wd_hidden": dict(batchnorm=True, optimizer="sgd", eta=0.1,
                          coupling="weight_decay", beta=8e-3, mask="hidden_only",
                          trace_layers=(0,), trace_size=32),
    },
}
SMOKE_PROBES = dict(probe_size=8, trace_size=4)

# Trials per oracle check per round: the count `wdlab verify` and acceptance
# criterion 1 use.
ORACLE_TRIALS = 100
SMOKE_ORACLE_TRIALS = 3

WORKLOADS = ("kfac_train", "probe_diag", "oracle_suite")


@dataclass
class Outcome:
    job: str
    seconds: float
    digest: str | None
    problem: str | None  # None when the job's output passed its checks


class TrainJob:
    def __init__(self, name, cfg, dataset):
        self.name, self.cfg, self.dataset = name, cfg, dataset

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        try:
            result = training.train(self.cfg, dataset=self.dataset)
        except Exception as exc:  # a failed job is counted, not fatal
            return Outcome(self.name, time.perf_counter() - t0, None, f"raised {exc!r}")
        seconds = time.perf_counter() - t0
        with open(result.metrics_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return Outcome(self.name, seconds, digest, record_problem(self.cfg, result.records))


def record_problem(cfg, records) -> str | None:
    """Why a run's records are wrong, or None: every metric the config asks
    for must be finite, and training must lower the train loss."""
    for r in records:
        values = [r.train_loss, r.train_acc, r.test_loss, r.test_acc, r.gen_gap,
                  *r.layer_norms, *r.effective_lrs]
        if cfg.probe_size > 0:
            values += [r.jacobian_norm, r.kfac_gn_norm]
            if not cfg.bias:
                values.append(r.gn_norm)
        if set(r.gn_traces) != set(cfg.trace_layers) or set(r.fisher_traces) != set(cfg.trace_layers):
            return f"epoch {r.epoch}: traces for layers {sorted(r.gn_traces)}, want {list(cfg.trace_layers)}"
        values += [*r.gn_traces.values(), *r.fisher_traces.values()]
        if not all(math.isfinite(v) for v in values):
            return f"epoch {r.epoch}: non-finite metric"
    if not records[-1].train_loss < records[0].train_loss:
        return f"final train loss {records[-1].train_loss} is not below epoch-0 loss {records[0].train_loss}"
    return None


class CheckJob:
    def __init__(self, name, seed, trials):
        self.name, self.seed, self.trials = name, seed, trials

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        try:
            (report,) = verify.run_all(seed=self.seed, trials=self.trials, only=self.name)
        except Exception as exc:  # a failed job is counted, not fatal
            return Outcome(self.name, time.perf_counter() - t0, None, f"raised {exc!r}")
        seconds = time.perf_counter() - t0
        doc = json.dumps(report.to_dict(), sort_keys=True).encode()
        problem = None if report.passed else (
            f"max_rel_error {report.max_rel_error!r} > tolerance {report.tolerance!r}")
        return Outcome(self.name, seconds, hashlib.sha256(doc).hexdigest(), problem)


def build_jobs(workload: str, seed: int, smoke: bool, out_root: str):
    """Set-up: configs and the shared dataset.  Returns (jobs, trials per
    check or None)."""
    if workload == "oracle_suite":
        trials = SMOKE_ORACLE_TRIALS if smoke else ORACLE_TRIALS
        return [CheckJob(name, seed, trials) for name in verify.CHECKS], trials
    base = config.ExperimentConfig(seed=seed, **(SMOKE if smoke else DESK))
    dataset = training.build_dataset(base)
    jobs = []
    for arm, overrides in ARMS[workload].items():
        if smoke:
            overrides = {**overrides, **{k: v for k, v in SMOKE_PROBES.items() if k in overrides}}
        cfg = dataclasses.replace(base, out_dir=os.path.join(out_root, arm), **overrides)
        jobs.append(TrainJob(arm, cfg, dataset))
    return jobs, None
