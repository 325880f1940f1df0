"""Fast smoke test of the benchmark itself: one short pass of every workload,
the traced run's schedule self-check, the result-line contract, and the
refusal to run without the program. Independent of the full run length.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


@pytest.fixture(scope="module")
def experiments():
    return worker.load_program()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_trial_passes_its_checks(experiments, name):
    workload = WORKLOADS[name]
    cfg = experiments.ExperimentConfig.from_dict(workload.experiment_dict(0))
    res = worker.measure(experiments, workload, cfg, seconds=0, sampler=worker.Sampler())
    assert res["attempted"] == 1
    assert res["failed"] == 0, (res["errors"], res["violations"])
    assert res["outcome"]["attempts"] >= 1
    assert res["trial_probes"][0] >= 1  # the sampler ran inside the trial


def test_sampler_leaves_records_unchanged(experiments):
    cfg = experiments.ExperimentConfig.from_dict(
        WORKLOADS["acquire-af-leak"].experiment_dict(0))
    plain = experiments.run_trial(cfg, 0)
    sampler = worker.Sampler()
    sampler.start()
    try:
        sampled = experiments.run_trial(cfg, 0)
    finally:
        sampler.stop()
    assert len(sampler.walls) >= 1
    assert worker._jsonable(sampled) == worker._jsonable(plain)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_trial_meets_the_schedule(experiments, name):
    workload = WORKLOADS[name]
    cfg = experiments.ExperimentConfig.from_dict(workload.experiment_dict(0))
    res = worker.trace(experiments, workload, cfg, seconds=0)
    assert res["failed"] == 0, res["problems"]
    assert set(res["metrics"]) == {n for n, _ in tracer.PER_LAYER}
    for counted, want in workload.schedule.items():
        key = counted if counted == "oracles.shots" else f"{counted}.calls"
        assert res["metrics"][key] == want


def test_tracer_patches_and_restores_from_imports(experiments):
    from covertsim import boolfunc, certify, oracles, qsim, tasks

    def copies():
        return (boolfunc.eval_all, qsim.eval_all, certify.eval_all,
                oracles.evaluate, tasks.forrelation_phi, qsim.PureState.__post_init__)

    before = copies()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(hasattr(f, "__wrapped__") for f in copies())
        assert qsim.eval_all is certify.eval_all is boolfunc.eval_all
    finally:
        t.uninstall()
    assert all(a is b for a, b in zip(copies(), before))


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "covert-sq",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "covert-sq",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
