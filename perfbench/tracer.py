"""Per-module tracer: wraps covertsim's public functions from outside the
package, without editing it.

Every place a traced function is bound is patched: the module attribute,
the class attribute for methods, and each `from .x import y` copy in other
covertsim modules (found by identity, so aliases are caught too).
`install()` and `uninstall()` swap the wrappers in and out, so one process
can time the same trial untraced and traced.

Two tiers keep trace memory bounded:
- SPAN targets (a masked query, an SQ, an overlap round, and everything
  above them) keep a full span: name, start, end, parent span, trial id.
- AGG targets (engine ops in qsim and boolfunc, membership queries, tap
  round trips) fire ~10^5 times per forrelation trial; they keep only a
  call count and self time per (trial, parent name, name).
Self time is a call's duration minus the time of the traced calls it made.
The trial id is the index passed to experiments.run_trial, the root span.
"""
from __future__ import annotations

import sys
import time
import types
from array import array
from collections import defaultdict

SPAN, AGG, ROOT = "span", "agg", "root"

# (metric name, binding path under covertsim, tier)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiments.run_trial", "experiments.run_trial", ROOT),
    ("tasks.gen_forrelation_instance", "tasks.gen_forrelation_instance", SPAN),
    ("tasks.forrelation_decide", "tasks.forrelation_decide", SPAN),
    ("tasks.swap_test", "tasks.swap_test", SPAN),
    ("acquire.acquire_unidirectional", "acquire.acquire_unidirectional", SPAN),
    ("acquire.acquire_ancilla_free", "acquire.acquire_ancilla_free", SPAN),
    ("acquire.masked_query_phase_randomness",
     "acquire.masked_query_phase_randomness", SPAN),
    ("acquire.masked_query_phase_entangled",
     "acquire.masked_query_phase_entangled", SPAN),
    ("certify.certify_state_noniid", "certify.certify_state_noniid", SPAN),
    ("certify.overlap_estimate_iid", "certify.overlap_estimate_iid", SPAN),
    ("certify.overlap_round", "certify.overlap_round", SPAN),
    ("oracles.QuantumChannelOracle.query", "oracles.QuantumChannelOracle.query", AGG),
    ("oracles.TapChannel.apply", "oracles.TapChannel.apply", AGG),
    ("oracles.MemOracle.query", "oracles.MemOracle.query", AGG),
    ("oracles.TensorMemView.query", "oracles.TensorMemView.query", AGG),
    ("oracles.MaskedMemView.query", "oracles.MaskedMemView.query", AGG),
    ("oracles.SqOracle.query", "oracles.SqOracle.query", SPAN),
    ("oracles.PolynomialSqQuery.exact_expectation",
     "oracles.PolynomialSqQuery.exact_expectation", AGG),
    ("oracles.QMeasExOracle.sample_product_pauli",
     "oracles.QMeasExOracle.sample_product_pauli", SPAN),
    ("adversary.apply_tap", "adversary.apply_tap", AGG),
    ("qsim.PureState.new", "qsim.PureState.__post_init__", AGG),
    ("qsim.apply_z_mask", "qsim.apply_z_mask", AGG),
    ("qsim.apply_phase_oracle", "qsim.apply_phase_oracle", AGG),
    ("qsim.apply_unitary", "qsim.apply_unitary", AGG),
    ("qsim.apply_gate", "qsim.apply_gate", AGG),
    ("qsim.apply_hadamards", "qsim.apply_hadamards", AGG),
    ("qsim.tensor", "qsim.tensor", AGG),
    ("qsim.measure_qubits", "qsim.measure_qubits", AGG),
    ("qsim.remove_qubits", "qsim.remove_qubits", AGG),
    ("qsim.swap_registers", "qsim.swap_registers", AGG),
    ("qsim.sample_index", "qsim.sample_index", AGG),
    ("boolfunc.evaluate", "boolfunc.evaluate", AGG),
    ("boolfunc.eval_all", "boolfunc.eval_all", AGG),
    # counted only for tasks.attempts_per_instance; not reported by itself
    ("boolfunc.forrelation_phi", "boolfunc.forrelation_phi", AGG),
    ("covertsq.sketch_encode", "covertsq.sketch_encode", SPAN),
    ("covertsq.run_sketched_query", "covertsq.run_sketched_query", SPAN),
    ("covertsq.shadow_collect", "covertsq.shadow_collect", SPAN),
    ("covertsq.shadow_estimate", "covertsq.shadow_estimate", SPAN),
    ("covertsq.pauli_expectation_exact", "covertsq.pauli_expectation_exact", SPAN),
)

TIMED = tuple(name for name, _, _ in TARGETS if name != "boolfunc.forrelation_phi")


def _state_amps(args, kwargs, result):
    return "qsim.amps_touched", 1 << args[0].n


def _tensor_amps(args, kwargs, result):
    return "qsim.amps_touched", 1 << sum(s.n for s in args)


def _vector_amps(args, kwargs, result):
    return "qsim.amps_touched", len(args[0])


def _shots(args, kwargs, result):
    return "oracles.shots", args[1] if len(args) > 1 else kwargs["shots"]


def _shadow_bytes(args, kwargs, result):
    shadows = args[0]
    return "covertsq.shadow_bytes_computed", shadows.bases.nbytes + shadows.bits.nbytes


def _delivered(args, kwargs, result):
    return "acquire.delivered", len(result.output) if result.output else 0


def _accepted_pair(args, kwargs, result):
    return "certify.accepted", int(result[0].accepted)


def _accepted(args, kwargs, result):
    return "certify.accepted", int(result.accepted)


# counters derived from arguments or results, keyed by metric name
PROBES = {
    "qsim.PureState.new": _state_amps,
    "qsim.apply_z_mask": _state_amps,
    "qsim.apply_phase_oracle": _state_amps,
    "qsim.apply_unitary": _state_amps,
    "qsim.apply_gate": _state_amps,
    "qsim.apply_hadamards": _state_amps,
    "qsim.tensor": _tensor_amps,
    "qsim.measure_qubits": _state_amps,
    "qsim.remove_qubits": _state_amps,
    "qsim.swap_registers": _state_amps,
    "qsim.sample_index": _vector_amps,
    "oracles.QMeasExOracle.sample_product_pauli": _shots,
    "covertsq.shadow_estimate": _shadow_bytes,
    "acquire.acquire_unidirectional": _delivered,
    "acquire.acquire_ancilla_free": _delivered,
    "certify.certify_state_noniid": _accepted_pair,
    "certify.overlap_estimate_iid": _accepted,
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("experiments.run_trial.ms", "ms"),
    *((f"{name}.{kind}", unit)
      for name in TIMED if name != "experiments.run_trial"
      for kind, unit in (("calls", "count"), ("self_ms", "ms"))),
    ("tasks.attempts_per_instance", "ratio"),
    ("acquire.delivered_per_query", "ratio"),
    ("certify.accept_ratio", "ratio"),
    ("oracles.shots", "count"),
    ("qsim.amps_touched", "count"),
    ("covertsq.shadow_bytes_computed", "B"),
    ("trace.overhead_ratio", "ratio"),
)

COMPUTED = ("qsim.amps_touched", "covertsq.shadow_bytes_computed")


class BindingMissed(RuntimeError):
    pass


def _covertsim_modules() -> list[types.ModuleType]:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "covertsim" or k.startswith("covertsim."))]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.trial = [-1]
        self.stack: list[list] = []
        # full spans, one column per field
        self.span_name = array("i")
        self.span_trial = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # (trial, parent name id or -1, name id) -> [calls, self_ns]
        self.agg: dict[tuple[int, int, int], list[int]] = {}
        # (trial, counter name) -> total
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.root_ns: dict[int, int] = {}
        self._sites = self._find_sites()

    # --- binding sites -------------------------------------------------------

    def _find_sites(self):
        """[(owner, attr, original, wrapper)] for every binding of a target."""
        modules = _covertsim_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        sites = []
        for idx, (name, path, tier) in enumerate(TARGETS):
            parts = path.split(".")
            owner = by_name[parts[0]]
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, idx, tier, PROBES.get(name))
            if isinstance(owner, type):
                sites.append((owner, attr, original, wrapper))
                continue
            for mod in modules:  # module attribute plus every from-import copy
                for key, val in list(vars(mod).items()):
                    if val is original:
                        sites.append((mod, key, original, wrapper))
        return sites

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._check_no_original_left()

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _check_no_original_left(self):
        """Catch bindings the scan cannot see, such as a class attribute
        holding a module function."""
        originals = {id(orig) for _, _, orig, _ in self._sites}
        for mod in _covertsim_modules():
            for key, val in vars(mod).items():
                members = vars(val).items() if isinstance(val, type) else ()
                for where, obj in ((key, val), *((f"{key}.{a}", m) for a, m in members)):
                    if id(obj) in originals:
                        raise BindingMissed(f"{mod.__name__}.{where} still unwrapped")

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, idx, tier, probe):
        clock = time.perf_counter_ns
        stack = self.stack
        agg = self.agg
        counters = self.counters
        root_ns = self.root_ns
        trial = self.trial
        keep_span = tier in (SPAN, ROOT)
        is_root = tier == ROOT
        names, trials, parents = self.span_name, self.span_trial, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if is_root:
                trial[0] = args[1] if len(args) > 1 else kwargs["index"]
            parent = stack[-1] if stack else None
            if keep_span:
                span = len(names)
                names.append(idx)
                trials.append(trial[0])
                parents.append(parent[3] if parent else -1)
                starts.append(0)
                ends.append(0)
            else:
                span = parent[3] if parent else -1
            frame = [0, 0, idx, span]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                key = (trial[0], parent[2] if parent else -1, idx)
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, dur - frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep_span:
                    starts[span] = start
                    ends[span] = end
                if is_root:
                    root_ns[trial[0]] = dur
            if probe is not None:
                counter, amount = probe(args, kwargs, result)
                counters[(trial[0], counter)] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results -------------------------------------------------------------

    def per_trial(self, trial: int) -> dict:
        """{name: [calls, self_ns]} plus counters for one traced trial."""
        out: dict = {name: [0, 0] for name in self.names}
        for (t, _, idx), (calls, self_ns) in self.agg.items():
            if t == trial:
                slot = out[self.names[idx]]
                slot[0] += calls
                slot[1] += self_ns
        for (t, counter), amount in self.counters.items():
            if t == trial:
                out[counter] = amount
        return out

    def save(self, path: str):
        """Write every span and aggregate, with the name table."""
        import numpy as np

        rows = [(t, p, i, c, s) for (t, p, i), (c, s) in sorted(self.agg.items())]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_trial=np.frombuffer(self.span_trial, dtype=np.int64),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            span_end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            agg_trial_parent_name_calls_selfns=np.array(rows, dtype=np.int64).reshape(-1, 5),
        )


def layer_metrics(tracer: Tracer, trials: list[int], overhead_ratio: float) -> dict:
    """Per-trial means of every per-layer metric over the traced trials."""
    k = len(trials)
    per = [tracer.per_trial(t) for t in trials]

    def mean_calls(name):
        return sum(p[name][0] for p in per) / k

    def mean_counter(name):
        return sum(p.get(name, 0) for p in per) / k

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"experiments.run_trial.ms": sum(tracer.root_ns[t] for t in trials) / k / 1e6}
    for name in TIMED:
        if name == "experiments.run_trial":
            continue
        out[f"{name}.calls"] = mean_calls(name)
        out[f"{name}.self_ms"] = sum(p[name][1] for p in per) / k / 1e6
    out["tasks.attempts_per_instance"] = ratio(
        mean_calls("boolfunc.forrelation_phi"), mean_calls("tasks.gen_forrelation_instance"))
    out["acquire.delivered_per_query"] = ratio(
        mean_counter("acquire.delivered"),
        mean_calls("acquire.masked_query_phase_randomness")
        + mean_calls("acquire.masked_query_phase_entangled"))
    out["certify.accept_ratio"] = ratio(
        mean_counter("certify.accepted"),
        mean_calls("certify.certify_state_noniid") + mean_calls("certify.overlap_estimate_iid"))
    for name in ("oracles.shots", "qsim.amps_touched", "covertsq.shadow_bytes_computed"):
        out[name] = mean_counter(name)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def schedule_mismatches(tracer: Tracer, trials: list[int], schedule: dict) -> list:
    """[(trial, message)] where a traced count differs from the exact
    per-trial count the protocol defines."""
    bad = []
    for t in trials:
        per = tracer.per_trial(t)
        for name, want in schedule.items():
            got = per[name][0] if name in tracer.names else per.get(name, 0)
            if got != want:
                bad.append((t, f"{name} = {got}, expected {want}"))
    return bad
