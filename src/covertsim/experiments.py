"""Experiment harness: configuration, seeded Monte-Carlo trials, aggregate
statistics with Wilson intervals, and JSON/CSV report emission.

Every trial derives its generator from SeedSequence([master seed, trial
index]), so any single trial replays bit-exactly from (seed, index).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import acquire, adversary as adv
from . import boolfunc as bf
from . import certify, covertex, covertsq, oracles, qsim, tasks
from .gf2 import dot

REPORT_SCHEMA = {
    "type": "object",
    "required": ["scenario", "params", "seed", "trials", "aggregate", "records"],
    "properties": {
        "scenario": {"type": "string"},
        "params": {"type": "object"},
        "adversary": {"type": ["object", "null"]},
        "seed": {"type": "integer"},
        "trials": {"type": "integer"},
        "aggregate": {"type": "object"},
        "resources": {"type": "object"},
        "records": {"type": "array", "items": {"type": "object"}},
        "wall_clock_s": {"type": "number"},
    },
}


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if n == 0:
        return 0.0, 1.0
    z = 1.96
    p = successes / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def trial_rng(master_seed: int, trial_index: int):
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: construction raises ConfigError on an unknown
    scenario, a non-integer or negative seed, a non-integer trial count, a
    param the scenario does not declare, whose type differs from its
    default's or that breaks one of the scenario's rules, and an adversary
    spec that does not build or that the scenario does not accept. It keeps
    its own copy of the params and the strategy built from the adversary
    spec, which every trial uses."""

    scenario: str
    params: dict = field(default_factory=dict)
    adversary: Optional[dict] = None
    seed: int = 0
    trials: int = 100
    strategy: Optional[adv.Strategy] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self):
        sc = SCENARIOS.get(self.scenario) if isinstance(self.scenario, str) else None
        if sc is None:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in ("seed", "trials"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.trials <= 0:
            raise ConfigError("trials must be positive")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be a JSON object, got {self.params!r}")
        object.__setattr__(self, "params", dict(self.params))
        for key, value in self.params.items():
            if key not in sc.params:
                raise ConfigError(
                    f"unknown param {key!r} for {self.scenario}; "
                    f"known params: {sorted(sc.params)}"
                )
            default = sc.params[key].default
            if not _fits_default(value, default):
                expected = ("int or null" if default is None
                            else "a finite number" if isinstance(default, float)
                            else type(default).__name__)
                raise ConfigError(f"param {key!r} must be {expected}, got {value!r}")
        params = self.full_params
        for key, param in sc.params.items():
            if param.rule is not None and not param.rule(params[key], params):
                raise ConfigError(
                    f"param {key!r} must be {param.text(params)}, got {params[key]!r}"
                )
        strategy = build_adversary(self.adversary)
        kinds = sc.adversaries(params) if callable(sc.adversaries) else sc.adversaries
        if strategy is not None and strategy.kind not in kinds:
            where = " with these params" if callable(sc.adversaries) else ""
            raise ConfigError(
                f"{self.scenario} does not take the adversary {strategy.kind!r}"
                f"{where}; it takes: {sorted(kinds) or 'none'}"
            )
        object.__setattr__(self, "strategy", strategy)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {d!r}")
        extra = set(d) - {"scenario", "params", "adversary", "seed", "trials"}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "scenario" not in d:
            raise ConfigError("config needs a scenario")
        return cls(**d)

    @property
    def full_params(self) -> dict:
        """Every parameter that governs the run: the scenario's defaults
        overridden by the configured values."""
        return {**SCENARIOS[self.scenario].defaults, **self.params}


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits_default(value, default) -> bool:
    """A param value has its default's type; an int stands in for a float,
    a float must be finite (JSON readers accept NaN and Infinity), and a None
    default (an optional count) takes an int or None."""
    if default is None:
        return value is None or _is_int(value)
    if isinstance(default, float):
        return _is_int(value) or isinstance(value, float) and math.isfinite(value)
    if _is_int(default):
        return _is_int(value)
    return type(value) is type(default)


def build_adversary(spec: Optional[dict]) -> Optional[adv.Strategy]:
    """The strategy of an adversary spec: the class its kind names, built
    from the spec's other fields, which must be exactly that class's fields
    (the optional ones may be left out). None for no spec or kind 'none'."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"adversary spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind in (None, "none"):
        return None
    cls = adv.KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown adversary kind {kind!r}; kinds: {sorted(adv.KINDS)}")
    given = {key: value for key, value in spec.items() if key != "kind"}
    known = [f.name for f in fields(cls)]
    for key in given:
        if key not in known:
            raise ConfigError(
                f"adversary {kind!r} has no field {key!r}; its fields: {known or 'none'}"
            )
    for f in fields(cls):
        if f.default is MISSING and f.name not in given:
            raise ConfigError(f"adversary {kind!r} needs the field {f.name!r}")
    try:
        return cls(**given)
    except ValueError as e:
        raise ConfigError(f"adversary {kind!r}: {e}") from None


# --- scenario runners ----------------------------------------------------------


def _run_parity(params, strategy, rng) -> dict:
    n = params["n"]
    cfg = covertex.ParityLearnerConfig(
        n=n, delta_c=params["delta_c"], delta_p=params["delta_p"]
    )
    s = int(rng.integers(0, 1 << n))
    f = bf.parity_fn(s, n)
    pub = oracles.ExOracle(f, rng)
    pri = oracles.SqOracle(f, policy=params["sq_policy"], rng=rng)
    res = covertex.covert_parity_learn(pub, pri, cfg)
    guess_ok = False
    if not res.aborted:
        guess = covertex.parity_adversary_guess(res.public_samples, n, rng)
        guess_ok = guess == s
    return {
        "success": bool(not res.aborted and res.s_hat == s),
        "aborted": res.aborted,
        "adversary_correct": bool(guess_ok),
        "pub_count": res.pub_count,
        "pri_count": res.pri_count,
        "pri_within_cap": res.pri_count <= cfg.m_pri_cap,
    }


def _run_quadratic(params, strategy, rng) -> dict:
    n = params["n"]
    rows = covertex.random_quadratic_rows(n, rng)
    f = bf.quadratic_fn(rows, n)
    pub = oracles.QMeasExOracle(qsim.prepare_example_state(f))
    pri = oracles.QsqOracle(f, policy=params["qsq_policy"], rng=rng)
    res = covertex.covert_quadratic_learn(pub, pri, n, params["delta_c"], rng)
    return {
        "success": bool(res.a_rows == rows),
        "aborted": res.a_rows is None,
        "pri_count": res.pri_count,
        "pri_exactly_n": res.pri_count == (0 if res.a_rows is None else n),
        "pub_queries": res.pub_queries,
        "pub_weighted": res.pub_weighted,
    }


def _run_covert_sq(params, strategy, rng) -> dict:
    n, d = params["n"], params["d"]
    delta = params["delta"]
    c = rng.normal(size=covertsq.monomial_count(n, d))
    c = c / np.linalg.norm(c) * params["b_c"] * rng.uniform(0.3, 1.0)
    plan = covertsq.sketch_encode(
        c, n, d, delta, params["delta_c"], params["b_c"], params["b_m"], rng
    )
    oracle = oracles.SqOracle(bf.constant_fn(n), policy=oracles.GRID, visibility=oracles.PUBLIC)
    est = covertsq.run_sketched_query(plan, oracle)
    truth = float(c @ covertsq.exact_moment_vector(n, d))
    return {
        "within_delta": bool(abs(est - truth) <= delta),
        "abs_error": abs(est - truth),
        "m_e": plan.m_e,
    }


def _run_shadows(params, strategy, rng) -> dict:
    n = params["n"]
    k = params["k"]
    tau = params["tau"]
    n_obs = params["n_observables"]
    shots, batches = covertsq.shadow_shot_count(n_obs, k, tau, params["delta_p"])
    ok = 0
    total = 0
    for _ in range(params["n_states"]):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = qsim.PureState(n, v / np.linalg.norm(v))
        src = oracles.QMeasExOracle(psi)
        shadows = covertsq.shadow_collect(src, shots, rng)
        for _ in range(n_obs):
            qubits = rng.choice(n, size=k, replace=False)
            axes = rng.integers(0, 3, size=k)
            obs = covertsq.PauliObservable(
                axes=tuple(sorted((int(q), int(a)) for q, a in zip(qubits, axes)))
            )
            est = covertsq.shadow_estimate(shadows, obs, batches)
            exact = covertsq.pauli_expectation_exact(psi, obs)
            ok += abs(est - exact) <= tau
            total += 1
        del shadows  # free this set before the next one is collected
    return {"pairs_ok": ok, "pairs": total, "all_ok": bool(ok == total), "shots": shots}


def _run_certify(params, strategy, rng) -> dict:
    n_block = params["n_block"]
    eps, delta = params["eps"], params["delta"]
    f = bf.random_truth_table(n_block, rng)
    mode = params["state"]
    if mode == "exact":
        state = qsim.prepare_phase_state(f)
    elif mode == "zero":
        state = qsim.basis_state(n_block, 0)
    else:
        table = bf.eval_all(f).copy()
        table[:_flip_count(mode)] ^= 1
        state = qsim.prepare_phase_state(bf.truth_table(table))
    rec = certify.overlap_estimate_iid_state(
        state, f, eps, delta, rng, rounds_override=params["rounds"]
    )
    return {
        "accepted": rec.accepted,
        "omega_hat": rec.omega_hat,
        "rounds": rec.rounds_used,
        "fidelity": qsim.fidelity(state, qsim.prepare_phase_state(f)),
    }


def _fidelity_on_accept(res: acquire.AcquisitionResult, f) -> float:
    """Product fidelity of the delivered copies with the phase state of f;
    0 when the acquisition rejected."""
    if not res.accepted:
        return 0.0
    target = qsim.prepare_phase_state(f)
    return float(np.prod([qsim.fidelity(c, target) for c in res.output]))


def _run_acquire_uni(params, strategy, rng) -> dict:
    f = bf.random_truth_table(params["n"], rng)
    oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
    mem = oracles.MemOracle(f)
    res = acquire.acquire_unidirectional(
        oracle, mem, params["m"], params["eps"], params["delta"], rng,
        n_blocks=params["n_blocks"], mode=params["mode"],
    )
    fid = _fidelity_on_accept(res, f)
    return {
        "accepted": res.accepted,
        "fidelity": fid,
        "accept_and_bad": bool(res.accepted and fid < params["bad_below"]),
        "pub_queries": res.pub_queries,
        "pri_queries": res.pri_queries,
        "omega_hat": res.record.omega_hat,
    }


def _run_acquire_af(params, strategy, rng) -> dict:
    f = bf.random_truth_table(params["n"], rng)
    oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
    mem = oracles.MemOracle(f)
    res = acquire.acquire_ancilla_free(
        oracle, mem, params["m"], params["eps"], params["delta"],
        params["delta_leak"], rng, n_blocks=params["n_blocks"],
    )
    fid = _fidelity_on_accept(res, f)
    return {
        "accepted": res.accepted,
        "fidelity": fid,
        "blocks": res.blocks_used,
        "omega_hat": res.record.omega_hat,
    }


def _run_forrelation(params, strategy, rng) -> dict:
    n = params["n"]
    case = tasks.PHI_LARGE if rng.integers(2) else tasks.PHI_SMALL
    inst = tasks.gen_forrelation_instance(n, case, rng)
    out = tasks.covert_forrelation(
        inst, rng, delta=params["delta"],
        adversary=strategy,
        ancilla_free=params["ancilla_free"], delta_leak=params["delta_leak"],
        copies=params["copies"], base_error=params["base_error"],
        n_blocks=params["n_blocks"],
    )
    return {
        "rejected": out.rejected,
        "correct": bool(not out.rejected and out.answer == case),
        "accept_and_wrong": bool(not out.rejected and out.answer != case),
        "case": case,
        "phi": inst.phi,
        "rounds": out.rounds,
    }


def _run_simon(params, strategy, rng) -> dict:
    n = params["n"]
    case = tasks.SIMON_PERIODIC if rng.integers(2) else tasks.SIMON_ONE_TO_ONE
    inst = tasks.gen_simon_instance(n, case, rng)
    out = tasks.covert_simon(
        inst, rng, delta=params["delta"],
        adversary=strategy,
        ancilla_free=params["ancilla_free"], delta_leak=params["delta_leak"],
        copy_budget=params["copy_budget"], n_blocks=params["n_blocks"],
    )
    orthogonal_ok = True
    if case == tasks.SIMON_PERIODIC and out.decision is not None:
        orthogonal_ok = all(
            dot(y, inst.period) == 0 for y in out.decision.harvested
        )
    return {
        "rejected": out.rejected,
        "correct": bool(
            not out.rejected
            and out.decision is not None
            and out.decision.label == case
        ),
        "inconclusive": bool(
            out.decision is not None
            and out.decision.label == tasks.SIMON_INCONCLUSIVE
        ),
        "orthogonal_ok": bool(orthogonal_ok),
        "decision_mem": 0 if out.decision is None else out.decision.decision_mem_queries,
        "case": case,
    }


def _run_nogo_swap(params, strategy, rng) -> dict:
    n = params["n"]
    s = int(rng.integers(0, 1 << n))
    f = bf.parity_fn(s, n)
    oracle = oracles.QuantumChannelOracle(f, "QPh", adv.swap_attack())
    mem = oracles.MemOracle(f)
    res = acquire.acquire_unidirectional(
        oracle, mem, params["m"], params["eps"], params["delta"], rng,
        n_blocks=params["n_blocks"],
    )
    learned = [e["s_hat"] for e in oracle.tap.memory.events if e["action"] == "bv_readout"]
    fid = _fidelity_on_accept(res, f)
    return {
        "accepted": res.accepted,
        "adversary_learned": bool(learned and learned[0] == s),
        "accept_and_learned": bool(
            res.accepted and learned and learned[0] == s
        ),
        "fidelity": fid,
    }


# --- resource schedules --------------------------------------------------------


def _acquisition_resources(p, qubits, m, eps, delta, ancilla_free) -> dict:
    """Schedule of one acquisition of m-copy blocks of `qubits` qubits at
    accuracy eps: ancilla-free at confidence p["delta"] against the leak
    p["delta_leak"], or unidirectional at confidence delta."""
    if ancilla_free:
        schedule = acquire.ancilla_free_schedule(
            qubits, m, eps, p["delta"], p["delta_leak"], p["n_blocks"]
        )
        return {"eps_leak": acquire.eps_leak(p["delta_leak"], m), **asdict(schedule)}
    return asdict(acquire.unidirectional_schedule(qubits, m, eps, delta, p["n_blocks"]))


def _parity_resources(p) -> dict:
    c = covertex.ParityLearnerConfig(n=p["n"], delta_c=p["delta_c"], delta_p=p["delta_p"])
    return {"k": c.k, "m_pub": c.m_pub, "m_pri_cap": c.m_pri_cap}


def _covert_sq_resources(p) -> dict:
    m_e, eps0, tau_e = covertsq.sketch_width(p["delta"], p["delta_c"], p["b_c"], p["b_m"])
    return {"m_e": m_e, "eps0": eps0, "tau_e": tau_e}


def _shadows_resources(p) -> dict:
    shots, batches = covertsq.shadow_shot_count(
        p["n_observables"], p["k"], p["tau"], p["delta_p"]
    )
    return {"shots": shots, "batches": batches}


def _certify_resources(p) -> dict:
    rounds = certify.iid_copy_count(p["n_block"], p["eps"], p["delta"])
    configured = rounds if p["rounds"] is None else p["rounds"]
    return {"paper_rounds": rounds, "configured_rounds": configured}


def _acquire_uni_resources(p) -> dict:
    return _acquisition_resources(p, p["n"], p["m"], p["eps"], p["delta"], False)


def _forrelation_resources(p) -> dict:
    # each round acquires `copies` phase states of h on 2n qubits
    eps_a, delta_a = tasks.forrelation_targets(p["base_error"])
    out = _acquisition_resources(
        p, 2 * p["n"], p["copies"], eps_a, delta_a, p["ancilla_free"]
    )
    if not p["ancilla_free"]:
        out["ell"] = acquire.amplification_rounds(p["delta"], delta_a)
    return out


# --- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One scenario parameter: its default, which fixes its type; its rule, a
    test of its value within the full params (None: the type is all there is
    to check); and the text of its allowed values, or a function of the full
    params giving it."""

    default: object
    rule: Optional[Callable[[object, dict], bool]]
    allowed: str | Callable[[dict], str]

    def text(self, params: dict) -> str:
        return self.allowed(params) if callable(self.allowed) else self.allowed


# Rule constructors take the default: `_open_unit(0.1)` is a Param.
# an accuracy, or a confidence or failure probability, strictly inside (0, 1)
_open_unit = partial(Param, rule=lambda v, p: 0 < v < 1, allowed="in (0, 1)")
# a norm bound, such as covert-sq's b_c
_positive = partial(Param, rule=lambda v, p: v > 0, allowed="positive")
# a probability, such as the leak rate delta_leak
_probability = partial(Param, rule=lambda v, p: 0 <= v <= 1, allowed="in [0, 1]")
# an optional count, null for the paper formula's
_optional_count = partial(Param, rule=lambda v, p: v is None or v >= 1,
                          allowed="null or at least 1")
# a switch
_flag = partial(Param, rule=None, allowed="true or false")


def _one_of(default, *values) -> Param:
    return Param(default, lambda v, p: v in values, "one of " + ", ".join(map(repr, values)))


def _count(default: int, low: int, high: int | Callable[[dict], int] | None = None,
           why: str = "") -> Param:
    """A count of at least `low`, or in low..high, where `high` may be a
    function of the full params and `why` says what bounds it."""
    if high is None:
        return Param(default, lambda v, p: v >= low, f"at least {low}")
    why = f" ({why})" if why else ""
    if callable(high):
        return Param(default, lambda v, p: low <= v <= high(p),
                     lambda p: f"in {low}..{high(p)}{why}")
    return Param(default, lambda v, p: low <= v <= high, f"in {low}..{high}{why}")


def _min_task_blocks(p: dict) -> int:
    """Blocks a task's acquisition needs: non-i.i.d. certification compares
    two blocks; the ancilla-free one certifies a block besides the output."""
    return 1 if p["ancilla_free"] else 2


_task_blocks = partial(Param, rule=lambda v, p: v >= _min_task_blocks(p),
                       allowed=lambda p: f"at least {_min_task_blocks(p)}")

# forrelation's base decision error; amplified unidirectional rounds need the
# task confidence delta_A = 2 * base_error below 1/4, and the ancilla-free
# acquisition certifies at eps_A = base_error^2, below 1
_BASE_ERROR = Param(
    tasks.FORRELATION_BASE_ERROR,
    lambda v, p: 0 < v < (1 if p["ancilla_free"] else 1 / 8),
    lambda p: "in (0, 1)" if p["ancilla_free"] else "in (0, 1/8)",
)

# adversary kinds: all of them for a scenario that taps an oracle channel;
# only those that keep no quantum register (the ancilla-free model's) when
# the tapped register is entangled with the learner, which a swap attack
# cannot steal
TAPPED = frozenset(adv.KINDS)
ANCILLA_FREE = frozenset(k for k, cls in adv.KINDS.items() if not cls.quantum_memory)


# the largest register a trial builds is at most qsim.PURE_QUBIT_CAP qubits
_PURE = qsim.PURE_QUBIT_CAP


def _shadow_shots(p: dict) -> float:
    """Shots per state of a shadows-qsq config, inf past float range."""
    try:
        return _shadows_resources(p)["shots"]
    except (ZeroDivisionError, OverflowError):  # tau**2 underflows to 0 or near it
        return math.inf


def _shadow_tau_allowed(p: dict) -> str:
    text = f"positive, with at most {covertsq.MAX_SHADOW_SHOTS:,} shots per state"
    return text if not p["tau"] > 0 else f"{text} (it needs {_shadow_shots(p):,})"


def _sketch_bytes(p: dict) -> float:
    """Bytes of a covert-sq config's m_e x N float64 projection, inf past
    float range."""
    n, d = p["n"], p["d"]
    if min(n, d) >= 64:  # N >= 2^64, and math.comb's time grows with min(n, d)
        return math.inf
    try:
        return 8.0 * _covert_sq_resources(p)["m_e"] * covertsq.monomial_count(n, d)
    except (ZeroDivisionError, OverflowError):  # eps0**2 underflows, or N passes float range
        return math.inf


def _sketch_delta_allowed(p: dict) -> str:
    text = (f"positive, with an m_e x N float64 projection of at most "
            f"{covertsq.MAX_PROJECTION_BYTES / 2**30:.3g} GiB")
    return text if not p["delta"] > 0 else f"{text} (it needs {_sketch_bytes(p) / 2**30:.3g} GiB)"


def _flip_count(state: str) -> Optional[int]:
    """k of a certify state 'flip:<k>' (flip k table entries), else None."""
    head, _, k = state.partition(":")
    return int(k) if head == "flip" and k.isdecimal() else None


def _certify_state_ok(state: str, p: dict) -> bool:
    """'exact', 'zero', or 'flip:<k>' flipping k <= 2^n_block table entries."""
    k = _flip_count(state)
    return state in ("exact", "zero") or k is not None and k <= 1 << p["n_block"]


@dataclass(frozen=True)
class Scenario:
    """Everything about a scenario. `params` is its parameter table: every
    key that `runner` or `resources` reads, which are all the keys a config
    may set, in the order their rules are checked (a rule that reads other
    params comes after them). `resources` computes the schedule from the
    values the runner uses; `adversaries` lists the spec kinds it accepts
    (none: it takes no adversary spec), or is a function of the full params
    giving them."""

    runner: Callable
    params: dict[str, Param]
    description: str
    resources: Callable[[dict], dict]
    adversaries: frozenset | Callable[[dict], frozenset] = frozenset()
    asserts: Optional[Callable] = None

    @property
    def defaults(self) -> dict:
        return {name: param.default for name, param in self.params.items()}


def _assert_parity(agg, params):
    ok = agg["rates"]["success"]["rate"] >= 1 - params["delta_c"] - 0.05
    return ok, f"parity success rate {agg['rates']['success']['rate']:.3f}"


def _assert_acquire_uni(agg, params):
    bad = agg["rates"].get("accept_and_bad", {"rate": 0.0})
    return bad["wilson_high"] <= 0.05 or bad["rate"] == 0.0, (
        f"accept-and-bad Wilson upper {bad['wilson_high']:.3f}"
    )


SCENARIOS: dict[str, Scenario] = {
    "parity": Scenario(
        _run_parity,
        # n: the secret is one int64 draw below 2^n
        {"n": _count(8, 1, 63), "sq_policy": _one_of(oracles.GRID, *oracles.POLICIES),
         "delta_c": _open_unit(0.1),
         "delta_p": Param(1 / 8, lambda v, p: 0 < v < 1 and covertex.parity_k(v) < p["n"],
                          "in (0, 1) with ceil(log2(1/delta_p)) < n")},
        "covert parity learning from public examples and private SQs",
        _parity_resources,
        asserts=_assert_parity,
    ),
    "quadratic": Scenario(
        _run_quadratic,
        {"n": _count(4, 1, _PURE // 2 - 1, f"a Bell sample takes 2(n+1) <= {_PURE} qubits"),
         "qsq_policy": _one_of(oracles.GRID, *oracles.POLICIES),
         "delta_c": _open_unit(0.1)},
        "covert quadratic-function learning from public Bell samples",
        lambda p: {
            "m_pub_bell_pairs": covertex.quadratic_public_budget(p["n"], p["delta_c"]),
            "m_pri": p["n"],
        },
    ),
    "covert-sq": Scenario(
        _run_covert_sq,
        {"n": _count(4, 1), "d": _count(2, 1), "delta_c": _open_unit(0.05),
         "b_c": _positive(1.0), "b_m": _positive(1.0),
         # last: the projection size needs valid n, d, delta_c, b_c and b_m
         "delta": Param(0.1,
                        lambda v, p: v > 0 and _sketch_bytes(p) <= covertsq.MAX_PROJECTION_BYTES,
                        _sketch_delta_allowed)},
        "JL-sketched covert polynomial statistical queries",
        _covert_sq_resources,
    ),
    "shadows-qsq": Scenario(
        _run_shadows,
        {"n": _count(4, 1, oracles.PAULI_TABLE_QUBIT_CAP),
         "k": Param(2, lambda v, p: 0 <= v <= min(p["n"], covertsq.MAX_LOCALITY),
                    f"in 0..min(n, {covertsq.MAX_LOCALITY})"),
         "delta_p": _open_unit(0.01), "n_states": _count(5, 1), "n_observables": _count(20, 1),
         # last: the shot count needs valid k, delta_p and n_observables
         "tau": Param(0.1, lambda v, p: v > 0 and _shadow_shots(p) <= covertsq.MAX_SHADOW_SHOTS,
                      _shadow_tau_allowed)},
        "classical-shadows covert QSQs from public Pauli measurement examples",
        _shadows_resources,
    ),
    "certify": Scenario(
        _run_certify,
        {"n_block": _count(4, 1, bf.MAX_TABLE_ARITY), "eps": _open_unit(0.1),
         "delta": _open_unit(0.05),
         "state": Param("exact", _certify_state_ok,
                        "'exact', 'zero' or 'flip:<k>' with k <= 2^n_block"),
         "rounds": _optional_count(None)},
        "shadow-overlap certification dichotomy",
        _certify_resources,
    ),
    "acquire-uni": Scenario(
        _run_acquire_uni,
        {"mode": _one_of(acquire.RANDOMNESS, *acquire.MODES),
         "n": _count(3, 1, lambda p: _PURE // 2 if p["mode"] == acquire.ENTANGLED
                     else bf.MAX_TABLE_ARITY,
                     f"a 2^n-entry truth table, n <= {bf.MAX_TABLE_ARITY}; "
                     f"an entangled query takes 2n <= {_PURE} qubits"),
         "m": _count(1, 1), "eps": _open_unit(0.1),
         "delta": _open_unit(0.1), "n_blocks": _count(20, 2),
         "bad_below": Param(0.8, lambda v, p: 0 < v <= 1, "in (0, 1]")},
        "covert verifiable phase states vs unidirectional adversaries",
        _acquire_uni_resources,
        lambda p: ANCILLA_FREE if p["mode"] == acquire.ENTANGLED else TAPPED,
        _assert_acquire_uni,
    ),
    "acquire-af": Scenario(
        _run_acquire_af,
        {"n": _count(3, 1, _PURE // 2, f"a masked copy takes 2n <= {_PURE} qubits"),
         "m": _count(1, 1), "eps": _open_unit(0.1),
         "delta": _open_unit(0.1), "n_blocks": _optional_count(None),
         "delta_leak": _probability(0.5)},
        "covert verifiable phase states vs i.i.d. ancilla-free adversaries",
        lambda p: _acquisition_resources(p, p["n"], p["m"], p["eps"], p["delta"], True),
        ANCILLA_FREE,
    ),
    "forrelation": Scenario(
        _run_forrelation,
        {"ancilla_free": _flag(False),
         "n": _count(4, 1, lambda p: _PURE // 4 if p["ancilla_free"] else tasks.FORRELATION_MAX_N,
                     f"instances up to n = {tasks.FORRELATION_MAX_N}; an ancilla-free "
                     f"masked copy takes 4n <= {_PURE} qubits"),
         "delta": _open_unit(0.1), "copies": _count(tasks.FORRELATION_COPIES, 1),
         "base_error": _BASE_ERROR, "n_blocks": _task_blocks(acquire.DEFAULT_BLOCKS),
         "delta_leak": _probability(0.5)},
        "covert verifiable Forrelation end to end",
        _forrelation_resources,
        lambda p: ANCILLA_FREE if p["ancilla_free"] else TAPPED,
    ),
    "simon": Scenario(
        _run_simon,
        {"ancilla_free": _flag(False),
         "n": _count(4, 1, lambda p: _PURE // (5 if p["ancilla_free"] else 3),
                     f"a kickback query takes 3n <= {_PURE} qubits, 5n ancilla-free"),
         "delta": _open_unit(0.1), "copy_budget": _optional_count(None),
         "n_blocks": _task_blocks(acquire.DEFAULT_BLOCKS),
         "delta_leak": _probability(0.5)},
        "covert verifiable Simon end to end",
        # one example state of the n-to-n Simon function (2n qubits) each
        lambda p: _acquisition_resources(
            p, 2 * p["n"], 1, tasks.SIMON_EPS, p["delta"], p["ancilla_free"]
        ),
        # its QMem queries tap a register entangled with the learner's out
        # register by the kickback CNOTs, in either model
        ANCILLA_FREE,
    ),
    "nogo-swap": Scenario(
        _run_nogo_swap,
        {"n": _count(4, 1, bf.MAX_TABLE_ARITY,
                     f"a 2^n-entry truth table, n <= {bf.MAX_TABLE_ARITY}"),
         "m": _count(1, 1), "eps": _open_unit(0.1),
         "delta": _open_unit(0.1), "n_blocks": _count(20, 2)},
        "swap-attack impossibility reproduction",
        _acquire_uni_resources,
    ),
}


def run_trial(cfg: ExperimentConfig, index: int) -> dict:
    rng = trial_rng(cfg.seed, index)
    record = SCENARIOS[cfg.scenario].runner(cfg.full_params, cfg.strategy, rng)
    record["trial"] = index
    return record


def aggregate_records(records: list[dict]) -> dict:
    agg: dict = {"trials": len(records), "rates": {}, "numeric": {}}
    if not records:
        return agg
    keys = records[0].keys()
    for k in keys:
        if k == "trial":
            continue
        vals = [r[k] for r in records]
        if all(isinstance(v, (bool, np.bool_)) for v in vals):
            succ = int(sum(vals))
            lo, hi = wilson_interval(succ, len(vals))
            agg["rates"][k] = {
                "successes": succ,
                "rate": succ / len(vals),
                "wilson_low": lo,
                "wilson_high": hi,
            }
        elif all(isinstance(v, (int, float, np.integer, np.floating)) for v in vals):
            arr = np.asarray(vals, dtype=float)
            agg["numeric"][k] = {
                "mean": float(arr.mean()),
                "min": float(arr.min()),
                "max": float(arr.max()),
            }
    return agg


def resource_table(cfg: ExperimentConfig) -> dict:
    """Paper-formula resource counts of the run next to its configured
    overrides."""
    return {
        "scenario": cfg.scenario,
        **SCENARIOS[cfg.scenario].resources(cfg.full_params),
    }


@dataclass
class ExperimentReport:
    scenario: str
    params: dict
    adversary: Optional[dict]
    seed: int
    trials: int
    records: list[dict]
    aggregate: dict
    resources: dict
    wall_clock_s: float

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_row(self) -> dict:
        row = {
            "scenario": self.scenario,
            "seed": self.seed,
            "trials": self.trials,
            "wall_clock_s": round(self.wall_clock_s, 3),
        }
        for k in _SUMMARY_PARAMS:
            if k in self.params:
                row[k] = self.params[k]
        for k, v in self.aggregate.get("rates", {}).items():
            row[f"{k}_rate"] = round(v["rate"], 6)
            row[f"{k}_wilson_low"] = round(v["wilson_low"], 6)
            row[f"{k}_wilson_high"] = round(v["wilson_high"], 6)
        return row


# the params a summary.csv row carries, where the scenario has them; the
# rate columns of its boolean record fields follow
_SUMMARY_PARAMS = ("n", "m", "eps", "delta", "delta_c", "delta_p", "delta_leak")


class OutDirError(ConfigError):
    """An --out directory that cannot take this run: its summary.csv has
    columns other than this run's, or it holds this seed's report already."""


def _check_out_dir(out_dir: str, seed: int, columns: list[str], complete: bool) -> Path:
    """The path of the run's report in `out_dir`. Refused if that report
    exists or if the summary.csv there has a header that is not `columns`
    (or, unless `complete`, does not start with them)."""
    csv_path = Path(out_dir) / "summary.csv"
    line = ""
    if csv_path.exists():
        with open(csv_path) as fh:
            line = fh.readline().rstrip("\n")
    existing = line.split(",")
    if line and (existing if complete else existing[: len(columns)]) != columns:
        raise OutDirError(
            f"{csv_path} has the columns {line!r}, which a row of this run "
            f"({','.join(columns)}{'' if complete else ',...'}) does not fit; "
            "write to another --out directory"
        )
    path = Path(out_dir) / f"report-seed{seed}.json"
    if path.exists():
        raise OutDirError(
            f"{path} exists; write to another --out directory or run another seed"
        )
    return path


def run_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None, workers: int = 1
) -> ExperimentReport:
    """Execute the trials (optionally across worker processes; trial seeds
    make the records independent of the worker count), aggregate, and
    optionally write report-seed<seed>.json plus a summary.csv row. An
    existing summary.csv whose header cannot take the row, or an existing
    report of this seed, is refused before any trial runs (OutDirError)."""
    if out_dir is not None:
        params = cfg.full_params
        columns = ["scenario", "seed", "trials", "wall_clock_s",
                   *(k for k in _SUMMARY_PARAMS if k in params)]
        _check_out_dir(out_dir, cfg.seed, columns, complete=False)
    start = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(partial(run_trial, cfg), range(cfg.trials)))
    else:
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
    wall = time.perf_counter() - start
    report = ExperimentReport(
        scenario=cfg.scenario,
        params=cfg.full_params,
        adversary=cfg.adversary,
        seed=cfg.seed,
        trials=cfg.trials,
        records=records,
        aggregate=aggregate_records(records),
        resources=resource_table(cfg),
        wall_clock_s=wall,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: ExperimentReport, out_dir: str):
    row = report.summary_row()
    report_path = _check_out_dir(out_dir, report.seed, list(row), complete=True)
    csv_path = Path(out_dir) / "summary.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    header = not csv_path.exists() or csv_path.stat().st_size == 0
    with open(csv_path, "a") as fh:
        if header:
            fh.write(",".join(row.keys()) + "\n")
        fh.write(",".join(str(v) for v in row.values()) + "\n")


def check_assertions(report: ExperimentReport) -> tuple[bool, str]:
    sc = SCENARIOS[report.scenario]
    if sc.asserts is None:
        return True, "no assertions registered for this scenario"
    return sc.asserts(report.aggregate, report.params)
