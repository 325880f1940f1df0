"""covertsim benchmark: acceptance-test traffic, trial throughput end to end,
and a traced per-module run.

    python3 perfbench/run.py --workload forrelation --seed 1 --seconds 20 --trace 0

Untraced (--trace 0): set-up is timed in SETUP_RUNS fresh processes (the
last one goes on to the measured loop) and reported as their median; the
measured process runs trials through experiments.run_trial for --seconds,
then aggregate_records once. Timings are reported at reference machine
speed (see worker.Sampler and README.md); the values as timed are printed
too. Traced (--trace 1): one process times each trial index untraced and
traced and reports per-layer metrics.

Human-readable lines go first; the last line of stdout is the JSON result.
Exit status: 0 when every output check passed, 1 when a check failed
(the result is still printed), 2 when the program cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COMPUTED, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
BLAS_THREADS = 1  # pinned for every workload process; <= nproc on any host
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("cpu_ms_per_trial", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports covertsim from ./src only
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker, return (seconds from spawn to READY, later lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env())
    ready, lines, buf = None, [], b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"worker {args} ran past the deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if ready is None and line == b"READY":
                    ready = time.perf_counter() - spawned
                else:
                    lines.append(line.decode())
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise ChildFailed(f"worker {args} exited with {proc.returncode}")
    return ready, lines


def provenance(args, trials: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    workload = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads_pin": BLAS_THREADS,
        "git_sha": sha or "unavailable (not a git checkout)",
        "workload": args.workload,
        "workload_seed": args.seed,
        "shipped_config_seed": workload.config["seed"],
        "run_seconds": args.seconds,
        "trace": args.trace,
        "trials": trials,
        "computed_not_measured": list(COMPUTED),
    }


def _timings(res: dict, slowdown: list[float]) -> dict:
    """Trial wall and CPU times, each divided by its trial's slowdown."""
    wall = [t / f for t, f in zip(res["trial_s"], slowdown)]
    cpu = [c / f for c, f in zip(res["trial_cpu_s"], slowdown)]
    return {
        "trials_per_s": len(wall) / sum(wall),
        "trial_ms_p50": statistics.median(wall) * 1e3,
        "cpu_ms_per_trial": sum(cpu) * 1e3 / len(cpu),
    }


def _setup_s(ready: float, res: dict) -> tuple[float, float]:
    """(set-up seconds as timed, at reference speed), probe time taken out."""
    timed = ready - res["setup"]["probe_s"]
    return timed, timed / res["setup"]["slowdown"]


def untraced(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []  # (as timed, at reference speed)
    for _ in range(SETUP_RUNS - 1):
        ready, lines = run_worker([*base, "--seconds", "0", "--mode", "setup"], deadline)
        setups.append(_setup_s(ready, json.loads(lines[-1])))
    ready, lines = run_worker(
        [*base, "--seconds", str(args.seconds), "--mode", "measure"], deadline)
    res = json.loads(lines[-1])
    setups.append(_setup_s(ready, res))
    trials = res["attempted"]
    slowdown = res["trial_slowdown"]
    raw = {**_timings(res, [1.0] * trials),
           "setup_s": statistics.median(t for t, _ in setups)}
    metrics = {**_timings(res, slowdown),
               "setup_s": statistics.median(s for _, s in setups),
               "peak_rss_mb": res["peak_rss_mb"]}
    detail = {
        "failed_share": res["failed"] / trials,
        "attempted": trials,
        "failed": res["failed"],
        "errors": res["errors"],
        "violations": res["violations"],
        "outcome": res["outcome"],
        "aggregate_rates": res["aggregate_rates"],
        "setup_samples_s": [t for t, _ in setups],
        "raw": raw,
        "slowdown": statistics.fmean(slowdown),
        "trial_slowdown": slowdown,
        "trial_probes": res["trial_probes"],
        "trial_ms": [t * 1e3 for t in res["trial_s"]],
        "experiment_seed": res["experiment_seed"],
        "correct": res["failed"] == 0 and res["outcome"]["passes"],
        "trial_counts": {"measured": trials, "warmup": 1, "setup_processes": SETUP_RUNS},
    }
    return metrics, detail


def traced(args, deadline: float) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    _, lines = run_worker(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--mode", "trace", "--trace-out", str(spans)],
        deadline)
    res = json.loads(lines[-1])
    detail = {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"] or "none: records agree, schedule counts exact",
        "spans_kept": res["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
        "experiment_seed": res["experiment_seed"],
        "correct": res["failed"] == 0,
        "trial_counts": {"traced": res["attempted"], "untraced": res["attempted"],
                         "warmup": 1},
    }
    return res["metrics"], detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "covertsim" / "__init__.py").is_file():
        print(f"covertsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, detail = (traced if args.trace else untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": detail.pop("correct"),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in names},
    }
    report = {"provenance": provenance(args, detail["trial_counts"]), **detail,
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=float) + "\n")
    prov = report["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"trials={detail['attempted']} report={path.relative_to(ROOT)}")
    print(f"# nproc={prov['nproc']} cpu={prov['cpu_model']!r} python={prov['python']} "
          f"numpy={prov['numpy']} blas_threads={prov['blas_threads_pin']} "
          f"git={prov['git_sha']}")
    if not args.trace:
        print(f"failed_share = {detail['failed_share']:.6g} share  "
              f"({detail['failed']}/{detail['attempted']})")
        oc = detail["outcome"]
        print(f"{oc['criterion']} {oc['name']}: {oc['successes']}/{oc['attempts']} "
              f"= {oc['rate']:.4f} [{oc['wilson_low']:.4f}, {oc['wilson_high']:.4f}] "
              f"needs {oc['rule']}: {'ok' if oc['passes'] else 'FAILED'}")
        print(f"mean machine slowdown = {detail['slowdown']:.4f} x reference "
              f"({sum(detail['trial_probes'])} probes in the measured trials)")
        for k, v in detail["raw"].items():
            print(f"{k} as timed = {v:.6g} {dict(END_TO_END)[k]}")
    for k, u in names:
        print(f"{k} = {metrics[k]:.6g} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
