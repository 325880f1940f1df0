"""One workload process: import covertsim from the checkout, set up, then
run the closed loop (or the interleaved untraced/traced loop).

Protocol with run.py: the worker prints `READY` once set-up is done (the
import, config validation and one discarded warm-up trial), then one JSON
line with its results. Mode `setup` stops after set-up, `measure` runs the
closed loop, `trace` the traced run.

    python3 perfbench/worker.py --workload forrelation --seed 1 --seconds 10 --mode measure
"""
from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WARMUP_INDEX, WORKLOADS, check_records  # noqa: E402


def load_program():
    """covertsim from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covertsim
    from covertsim import experiments

    if Path(covertsim.__file__).resolve().parent != src / "covertsim":
        raise ImportError(f"covertsim loaded from {covertsim.__file__}, not {src}")
    return experiments


def set_up(workload_name: str, seed: int):
    experiments = load_program()
    workload = WORKLOADS[workload_name]
    cfg = experiments.ExperimentConfig.from_dict(workload.experiment_dict(seed))
    experiments.run_trial(cfg, WARMUP_INDEX)
    return experiments, workload, cfg


def _jsonable(rec: dict) -> dict:
    return json.loads(json.dumps(rec, default=float))


class Sampler:
    """Samples the shared machine's speed while the program runs.

    Every PERIOD_S of wall time a SIGALRM handler runs a fixed
    benchmark-owned probe (interpreted loops plus small complex-vector numpy
    calls, ~1 ms) and records when it started, how long it took and the CPU
    time it used. The handler runs in the main thread between bytecodes, so
    the probes land inside the program's own work and see the co-tenant
    load it sees, which a probe timed only between trials misses.
    A trial's slowdown is the mean probe time inside it over REFERENCE_S,
    and the probes' own time is taken out of the trial's wall and CPU time.
    The probe never touches the program's state or random streams.
    """

    PERIOD_S = 0.02
    REFERENCE_S = 0.0008  # probe time at the reference machine speed

    def __init__(self):
        import numpy as np

        self._np = np
        self.starts, self.walls, self.cpus = array("d"), array("d"), array("d")
        self._running = False

    def probe(self) -> int:
        np = self._np
        acc, table = 0, {}
        for i in range(3_000):
            table[i & 255] = acc
            acc = (acc + i * i) % 1_000_003
        v = np.full(256, 1 / 16, dtype=complex)
        signs = 1.0 - 2.0 * (np.arange(256) & 1)
        for _ in range(100):
            v = v * signs
            acc += int(np.vdot(v, v).real)
        return acc

    def sample(self):
        cpu = time.process_time()
        start = time.perf_counter()
        self.probe()
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(time.process_time() - cpu)
        self.starts.append(start)

    def _on_alarm(self, signum, frame):
        if self._running:  # a signal already pending when stop() ran is dropped
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def start(self):
        """Take one probe now, so every later window has one at or before
        it, then arm the timer."""
        self.sample()
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start: float, end: float) -> dict:
        """Probe time, probe CPU time and machine slowdown over a
        perf_counter interval. An interval no probe fell in (one long
        native call) takes the slowdown of the last probe before it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        walls = self.walls[lo:hi] or self.walls[max(0, lo - 1):lo]
        return {
            "probe_s": sum(self.walls[lo:hi]),
            "probe_cpu_s": sum(self.cpus[lo:hi]),
            "slowdown": statistics.fmean(walls) / self.REFERENCE_S,
            "probes": hi - lo,
        }


def measure(experiments, workload, cfg, seconds: float, sampler: Sampler) -> dict:
    """Closed loop, one trial after another, until `seconds` of trial time
    have passed, with the sampler running."""
    records, times, cpus, slowdown, probes, errors = [], [], [], [], [], []
    sampler.start()
    index, spent = 0, 0.0
    while spent < seconds or index == 0:
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            records.append(experiments.run_trial(cfg, index))
        except Exception as exc:  # a raising trial counts as failed
            errors.append({"trial": index, "error": repr(exc)})
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        win = sampler.window(start, end)
        spent += end - start
        times.append(end - start - win["probe_s"])
        cpus.append(cpu - win["probe_cpu_s"])
        slowdown.append(win["slowdown"])
        probes.append(win["probes"])
        index += 1
    sampler.stop()
    aggregate = experiments.aggregate_records(records)
    records = [_jsonable(r) for r in records]
    checked = check_records(workload, records)
    failed = len(errors) + len(checked["violations"])
    return {
        "attempted": index,
        "failed": failed,
        "errors": errors,
        "violations": checked["violations"],
        "outcome": checked["outcome"],
        "aggregate_rates": aggregate["rates"],
        "trial_s": times,
        "trial_cpu_s": cpus,
        "trial_slowdown": slowdown,
        "trial_probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(experiments, workload, cfg, seconds: float, out_path=None) -> dict:
    """Each trial index runs untraced and traced, in alternating order, so
    the overhead ratio compares identical work; records must agree."""
    from tracer import Tracer, layer_metrics, schedule_mismatches

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    problems, trials = [], []  # problems: (trial, what went wrong)
    t0 = time.perf_counter()
    index = 0
    while True:
        recs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                recs[traced] = experiments.run_trial(cfg, index)
            except Exception as exc:
                problems.append((index, f"{'traced' if traced else 'untraced'}: {exc!r}"))
            finally:
                spent[traced] += time.perf_counter() - start
                if traced:
                    tracer.uninstall()
        if len(recs) == 2 and _jsonable(recs[True]) != _jsonable(recs[False]):
            problems.append((index, "traced record differs from untraced"))
        trials.append(index)
        index += 1
        if time.perf_counter() - t0 >= seconds:
            break
    problems += schedule_mismatches(tracer, trials, workload.schedule)
    if out_path is not None:
        tracer.save(out_path)
    return {
        "attempted": len(trials),
        "failed": len({t for t, _ in problems}),
        "problems": [f"trial {t}: {what}" for t, what in problems],
        "untraced_s": spent[False],
        "traced_s": spent[True],
        "metrics": layer_metrics(tracer, trials, spent[False] / spent[True]),
        "spans": len(tracer.span_name),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    if args.mode == "trace":
        experiments, workload, cfg = set_up(args.workload, args.seed)
        print("READY", flush=True)
        result = trace(experiments, workload, cfg, args.seconds, args.trace_out)
    else:
        sampler = Sampler()
        started = time.perf_counter()
        sampler.start()
        experiments, workload, cfg = set_up(args.workload, args.seed)
        ready = time.perf_counter()
        print("READY", flush=True)
        sampler.stop()
        result = {"setup": sampler.window(started, ready)}
        if args.mode == "measure":
            result.update(measure(experiments, workload, cfg, args.seconds, sampler))
    result["experiment_seed"] = cfg.seed
    print(json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
