"""The benchmark's own tests: a tiny-size smoke of every workload in both
modes, an arm that diverges at its first step, the tracer's self-time
arithmetic, and the refusal to run without the lab's sources.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def job_digests(stdout):
    return {line.split()[1]: line.split()[2]
            for line in stdout.splitlines() if line.startswith("job ")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_tracing_keeps_outputs(workload):
    digests = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert any(l.startswith(f"metric {name} ") and l.endswith(f" {unit}") for l in lines)
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(l.startswith("metric failed_frac 0.0000 ratio") for l in lines)
        assert any(l.startswith("env ") for l in lines)
        digests[trace] = job_digests(done.stdout)
    assert digests[0] and digests[0] == digests[1]


def test_arm_that_diverges_at_its_first_step_is_a_failed_job(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from wdlab import optim
    from wdlab.errors import TrainingDiverged

    import run

    sgd_step = optim.sgd_step

    def diverging(state, params, grads, coupling=optim.Coupling()):
        if coupling.mode == "l2":  # the sgd_wd arm; wd_hidden decays instead
            raise TrainingDiverged("non-finite loss at epoch 1, batch offset 0")
        return sgd_step(state, params, grads, coupling)

    monkeypatch.setattr(optim, "sgd_step", diverging)
    assert run.main(["--workload", "probe_diag", "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2 >= 1
    assert any(l.startswith("job sgd_wd ") and "TrainingDiverged" in l for l in lines)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_self_time_subtracts_direct_children():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(Owner.inner(x))

    tracer = Tracer()
    tracer.wrap(Owner, "inner", "m.inner")
    tracer.wrap(Owner, "outer", "m.outer")
    assert Owner.outer(1) == 3
    tracer.restore()
    assert Owner.outer(1) == 3 and not hasattr(Owner.outer, "__wrapped__")
    calls, self_s = tracer.self_times()
    assert calls == {"m.outer": 1, "m.inner": 2}
    assert tracer.parents == [-1, 0, 0]
    total = tracer.ends[0] - tracer.starts[0]
    assert self_s["m.outer"] + self_s["m.inner"] == pytest.approx(total)


def test_refuses_to_run_without_the_lab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("kfac_train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
