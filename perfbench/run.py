"""Run one benchmark workload of the lab and print its metrics.

    python3 perfbench/run.py --workload kfac_train --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the lab is imported from ``src/`` next to
this directory, never from an installed copy.  The metric names and units
come from ``BENCHMARK.json``.

A run sets up its inputs, then repeats rounds of the workload's jobs until
``--seconds`` of job time is used up; every round runs the same jobs on the
same inputs.  With ``--trace 0`` it reports the end-to-end metrics, timing
only job, optimizer-step and ``record_metrics`` boundaries, and set-ups in
fresh interpreters between jobs.  With ``--trace 1`` it
alternates untraced rounds with rounds in which every public function of the
lab's modules is wrapped, and reports per-layer calls and self time plus the
tracing overhead; the spans go to ``.perfbench/trace-<workload>-seed<n>.json``.

Human-readable lines (environment, per-job output digests, each metric with
its unit and sample count) come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Single-threaded BLAS is the baseline: with 2 threads on a 2-core machine the
# same run spreads far more.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, VARIANTS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 11
CPUS = sorted(os.sched_getaffinity(0))
STEP_LABELS = ("optim.kfac_step", "optim.sgd_step", "optim.adam_step")
RECORD_LABEL = "diagnostics.record_metrics"
ROOTS = ("training.train", "verify.run_all")  # the calls a job makes


def import_lab():
    """Put the checkout's ``src/`` first on the path; refuse to measure any
    other copy of the lab."""
    if not (SRC / "wdlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lab sources at {SRC / 'wdlab'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import wdlab

    if Path(wdlab.__file__).resolve().parent != (SRC / "wdlab").resolve():
        sys.exit(f"perfbench: imported wdlab from {wdlab.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny nets and trial counts, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_rev": git_rev,
    }


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> None:
    """Move this process to whichever of its CPUs runs a fixed Python loop
    fastest right now.  On a shared host each vCPU slows by up to 1.9x for
    seconds at a time, largely independently of the other; choosing before
    every job takes much of that noise out of the figures without touching
    the job's own work."""
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_loop_seconds() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class SetupProbes:
    """Time the set-up -- process start until inputs are ready: imports,
    configs and ``build_dataset`` -- in fresh interpreters.  The child prints
    the monotonic clock, which is system-wide, when its set-up is done.

    The probes are spread over the run, a few before each job as the
    measured time passes, because the machine's speed drifts: probes taken
    back to back all see the same phase.  ``take_due`` runs the probes due
    after ``elapsed`` of the run's ``seconds``; ``finish`` tops up to
    ``count``."""

    def __init__(self, args, count, seconds):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.count, self.seconds = count, seconds
        self.samples: list[float] = []

    def take(self) -> None:
        pin_to_fastest_cpu()  # the child inherits the choice
        t0 = time.monotonic()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        self.samples.append(float(done.stdout.split()[-1]) - t0)

    def take_due(self, elapsed: float) -> None:
        while len(self.samples) < 1 + (self.count - 1) * min(1.0, elapsed / self.seconds):
            self.take()

    def finish(self) -> list[float]:
        while len(self.samples) < self.count:
            self.take()
        return self.samples


@dataclass
class Round:
    outcomes: list
    marks: list  # span index before each job and after the last
    traced: bool = False

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_rounds(jobs, seconds, tracer, wrap=None, probes=None) -> list[Round]:
    """Repeat all jobs while another round would end nearer to `seconds` of
    job time than stopping now does; always at least one round.  With
    `wrap`, rounds come in pairs, the second traced with `wrap(tracer)`
    installed, so that drift in the machine's speed hits traced and untraced
    rounds alike.  With `probes`, the set-up probes due are taken before
    each job, outside its timing."""
    rounds = []
    elapsed = 0.0
    while True:
        for traced in ((False, True) if wrap else (False,)):
            if traced:
                wrap(tracer)
            outcomes, marks = [], [tracer.mark()]
            for job in jobs:
                if probes is not None:
                    probes.take_due(elapsed)
                pin_to_fastest_cpu()
                outcomes.append(job.run())
                marks.append(tracer.mark())
                elapsed += outcomes[-1].seconds
            rounds.append(Round(outcomes, marks, traced))
            if traced:
                tracer.restore()
        step = statistics.median(r.wall for r in rounds) * (2 if wrap else 1)
        if elapsed + step / 2 > seconds:
            return rounds


def judge(rounds) -> dict:
    """Per job: its digest, and the first problem seen.  A job whose output
    differs from its first round's fails too."""
    jobs = {}
    for rnd in rounds:
        for o in rnd.outcomes:
            entry = jobs.setdefault(o.job, {"digest": o.digest, "runs": 0, "failed": 0,
                                            "problem": None})
            problem = o.problem
            if problem is None and o.digest != entry["digest"]:
                problem = f"output digest {o.digest} differs from first round's {entry['digest']}"
            entry["runs"] += 1
            if problem is not None:
                entry["failed"] += 1
                entry["problem"] = entry["problem"] or problem
    return jobs


def percentile(samples, q) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def step_samples(tracer, first, last):
    """From the boundary spans `first:last`: the number of optimizer steps, their
    latencies (from the end of one step call to the end of the next, so loop
    glue and forward passes outside the step call count) and the
    record_metrics latencies.  The first step after a record_metrics call
    has no latency sample: its interval holds the epoch boundary."""
    n_steps, steps, records = 0, [], []
    last_end = None
    for i in range(first, last):
        label = tracer.labels[i]
        if label == RECORD_LABEL:
            records.append(tracer.ends[i] - tracer.starts[i])
            last_end = None
        elif label in STEP_LABELS:
            n_steps += 1
            if last_end is not None:
                steps.append(tracer.ends[i] - last_end)
            last_end = tracer.ends[i]
    return n_steps, steps, records


def end_to_end(rounds, tracer, trials, setups) -> tuple[dict, list[str]]:
    """Each job's arms or checks run different code, so op latency
    percentiles are taken per job and then averaged over the jobs; a
    percentile of the pooled samples would sit in the gap between jobs.
    A job that gave no latency sample -- an arm that raised at its first
    step -- is left out of the average; judge() counts it as failed.  When
    no job gave one, op_ms_p50 is NaN."""
    ops = defaultdict(list)  # job -> op latencies, s
    rates, recs = [], []
    for rnd in rounds:
        if trials is None:
            n_steps, record_s = 0, 0.0
            for o, first, last in zip(rnd.outcomes, rnd.marks, rnd.marks[1:]):
                n, steps, records = step_samples(tracer, first, last)
                n_steps += n
                record_s += sum(records)
                ops[o.job] += steps
                recs += records
            rates.append(n_steps / (rnd.wall - record_s))
        else:
            for o in rnd.outcomes:
                ops[o.job].append(o.seconds / trials)
            rates.append(len(rnd.outcomes) * trials / rnd.wall)
    sampled = [v for v in ops.values() if v]

    def mean_percentile(q):
        return 1e3 * statistics.fmean(percentile(v, q) for v in sampled) if sampled else math.nan

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall for r in rounds),
        "work_per_s": statistics.median(rates),
        "op_ms_p50": mean_percentile(50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_job = min((len(v) for v in sampled), default=0)
    notes = [f"setup_s: median of {len(setups)} set-ups spread over the run, "
             f"{min(setups):.4f}-{max(setups):.4f} s",
             f"wall_s, work_per_s: median of {len(rounds)} rounds",
             f"op_ms_p95 {mean_percentile(95):.4f} ms, the same average of 95th percentiles"]
    if trials is None:
        record_p50 = 1e3 * statistics.median(recs) if recs else math.nan
        notes += [f"op_ms_*: mean over {len(sampled)} of {len(ops)} arms of each arm's "
                  f"percentile of >= {per_job} optimizer steps",
                  f"record_ms_p50 {record_p50:.4f} ms ({len(recs)} records)",
                  "train_steps_per_s = work_per_s", "step_ms_p50 = op_ms_p50",
                  "step_ms_p95 = op_ms_p95"]
    else:
        notes += [f"op_ms_*: mean over {len(ops)} checks of each check's percentile of "
                  f"{per_job} calls, latency per trial ({trials} trials each)",
                  "oracle_trials_per_s = work_per_s"]
    return values, notes


def wrap_lab(tracer) -> None:
    """Trace every public function of the measured modules, the CSV writer,
    and the oracle registry's entries."""
    from wdlab import diagnostics, verify

    checks = {fn.__name__ for fn in verify.CHECKS.values()}
    for layer in LAYERS:
        tracer.wrap_module(importlib.import_module(f"wdlab.{layer}"),
                           skip=checks if layer == "verify" else ())
    tracer.wrap(diagnostics.MetricLog, "append", "diagnostics.MetricLog.append")
    for name in list(verify.CHECKS):
        tracer.wrap(verify.CHECKS, name, f"verify.{name}")


def per_layer(tracer, setup_end, rounds) -> tuple[dict, list[str]]:
    """Calls and self time for one set-up plus one traced round."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n = len(traced)
    values = defaultdict(float)
    setup = tracer.self_times(0, setup_end)
    per_round = tracer.self_times(traced[0].marks[0], traced[-1].marks[-1])
    for (calls, self_s), scale in ((setup, 1.0), (per_round, 1.0 / n)):
        for label in calls:
            for key in [label] + [base for base in VARIANTS if label.startswith(base + ".")]:
                values[f"{key}.calls"] += calls[label] * scale
                values[f"{key}.self_s"] += self_s[label] * scale
            values[label.split(".", 1)[0] + ".self_s"] += self_s[label] * scale
    traced_wall = statistics.median(r.wall for r in traced)
    untraced_wall = statistics.median(r.wall for r in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    # Each job's root call is wrapped, so the self times always add up to
    # the traced wall time; what the layers below the roots leave
    # unattributed is the roots' own self time.
    root_s = sum(per_round[1].get(root, 0.0) for root in ROOTS) / n
    notes = [f"per-layer: one set-up plus the mean of {n} traced rounds",
             f"untraced wall_s {untraced_wall:.4f} s over {len(untraced)} rounds, "
             f"traced {traced_wall:.4f} s over {n} rounds",
             f"root self time ({', '.join(ROOTS)}) {root_s:.4f} s, "
             f"{root_s / (sum(r.wall for r in traced) / n):.4f} of a traced round",
             "layer self_s: " + " ".join(f"{m}={values.get(f'{m}.self_s', 0.0):.4f}"
                                         for m in LAYERS)]
    return dict(values), notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    out_root = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_probe:
        workloads.build_jobs(args.workload, args.seed, args.smoke, str(out_root))
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    tracer = Tracer()
    try:
        if args.trace:
            wrap_lab(tracer)  # the set-up's spans count once in the per-layer figures
        jobs, trials = workloads.build_jobs(args.workload, args.seed, args.smoke, str(out_root))
        setup_end = tracer.mark()
        tracer.restore()
        if args.trace:
            rounds = run_rounds(jobs, args.seconds, tracer, wrap=wrap_lab)
            values, notes = per_layer(tracer, setup_end, rounds)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed, "env": env,
                         "setup_spans": setup_end, "per_layer": values})
        else:
            if trials is None:
                for label in (*STEP_LABELS, RECORD_LABEL):
                    module, name = label.split(".")
                    tracer.wrap(importlib.import_module(f"wdlab.{module}"), name, label)
            probes = SetupProbes(args, SETUP_PROBES, args.seconds)
            rounds = run_rounds(jobs, args.seconds, tracer, probes=probes)
            values, notes = end_to_end(rounds, tracer, trials, probes.finish())
    finally:
        tracer.restore()
        shutil.rmtree(out_root, ignore_errors=True)

    verdicts = judge(rounds)
    attempted = sum(v["runs"] for v in verdicts.values())
    failed = sum(v["failed"] for v in verdicts.values())
    for name, v in verdicts.items():
        line = f"job {name} sha256={v['digest']} runs={v['runs']} failed={v['failed']}"
        print(line + (f" problem: {v['problem']}" if v["problem"] else ""))
    for note in notes:
        print("note " + note)
    print(f"metric failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")
    metrics = {}
    for m in declared:
        # a per-layer function the workload never calls has 0 calls and 0 s
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
