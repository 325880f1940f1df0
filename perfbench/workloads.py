"""The four benchmark workloads: acceptance-test traffic for covertsim.

Each workload's parameters are copied from the shipped config of the same
name, so an edit under configs/ cannot change what the benchmark measures.
The benchmark seed is mixed with the shipped seed into the experiment's
master seed; the program only ever sees the resulting ExperimentConfig.

This module imports nothing from covertsim, so the orchestrator can load it
without importing the program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

# Trials are indexed 0, 1, 2, ... in the measured loop; the warm-up trial
# uses an index no run reaches, so it never duplicates a measured trial.
WARMUP_INDEX = 1_000_000_000


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval (same formula as covertsim.experiments)."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def three_sigma(rate: float, n: int) -> float:
    """The acceptance suite's margin: three binomial standard deviations."""
    return 3.0 * math.sqrt(rate * (1.0 - rate) / n)


@dataclass(frozen=True)
class OutcomeRate:
    """A pooled statistical outcome and the acceptance test it must pass."""

    name: str  # what is counted, e.g. "correct"
    criterion: str  # acceptance-test id
    rule: str  # human-readable pass rule
    successes: Callable[[dict], int]
    attempts: Callable[[dict], int]
    passes: Callable[[int, int], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # scenario, params, adversary, seed (copied from configs/)
    invariant: Callable[[dict], Optional[str]]  # None, or what broke
    outcome: OutcomeRate
    # exact per-trial call counts the protocol schedule defines (traced run)
    schedule: dict

    def experiment_dict(self, bench_seed: int) -> dict:
        """ExperimentConfig fields for one benchmark seed."""
        cfg = dict(self.config)
        cfg["seed"] = self.config["seed"] * 1_000_003 + bench_seed
        cfg["trials"] = 1  # run_trial ignores it; the loop sets the count
        return cfg


def _forrelation_invariant(rec: dict) -> Optional[str]:
    if rec["rejected"]:
        return "honest run rejected"
    if rec["rounds"] != 6:
        return f"rounds {rec['rounds']} != 6"
    return None


def _acquire_af_invariant(rec: dict) -> Optional[str]:
    return None if rec["blocks"] == 361 else f"blocks {rec['blocks']} != 361"


def _covert_sq_invariant(rec: dict) -> Optional[str]:
    return None if rec["m_e"] == 9587 else f"m_e {rec['m_e']} != 9587"


def _shadows_invariant(rec: dict) -> Optional[str]:
    if rec["pairs"] != 100:
        return f"pairs {rec['pairs']} != 100"
    if rec["shots"] != 428_800:
        return f"shots {rec['shots']} != 428800"
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="forrelation",
            why="c12 traffic: scalar certify-then-run hot path, per-call "
                "overhead in qsim/oracles/boolfunc/certify on 8-qubit copies",
            config={
                "scenario": "forrelation",
                "params": {"n": 4, "delta": 0.1},
                "adversary": {"kind": "identity"},
                "seed": 1212,
            },
            invariant=_forrelation_invariant,
            outcome=OutcomeRate(
                "correct", "c12", "rate >= 0.9 - 3 sigma",
                lambda r: int(r["correct"]), lambda r: 1,
                lambda k, n: k / n >= 0.9 - three_sigma(0.9, n),
            ),
            schedule={
                "oracles.QuantumChannelOracle.query": 24_120,
                "certify.overlap_round": 114,
                "oracles.MemOracle.query": 45_828,
            },
        ),
        Workload(
            name="acquire-af-leak",
            why="c06 traffic: entangled masking, CZ gates, measuring "
                "ancilla-free taps and the i.i.d. estimator; almost all reject",
            config={
                "scenario": "acquire-af",
                "params": {"n": 3, "m": 1, "eps": 0.1, "delta": 0.1,
                           "delta_leak": 0.5},
                "adversary": {"kind": "ancilla_free", "delta_leak": 0.5},
                "seed": 606,
            },
            invariant=_acquire_af_invariant,
            outcome=OutcomeRate(
                "accepted", "c06", "Wilson lower bound <= 0.1",
                lambda r: int(r["accepted"]), lambda r: 1,
                lambda k, n: wilson_interval(k, n)[0] <= 0.1,
            ),
            schedule={
                "oracles.QuantumChannelOracle.query": 361,
                "certify.overlap_round": 360,
                "oracles.MemOracle.query": 720,
            },
        ),
        Workload(
            name="shadows-qsq",
            why="c10 traffic: array kernels over 13.7 MB shadow arrays "
                "(above L2, below L3); no acquisition; the only large-RSS run",
            config={
                "scenario": "shadows-qsq",
                "params": {"n": 4, "k": 2, "tau": 0.1, "delta_p": 0.01,
                           "n_states": 5, "n_observables": 20},
                "adversary": None,
                "seed": 1010,
            },
            invariant=_shadows_invariant,
            outcome=OutcomeRate(
                "pairs_ok", "c10", "rate >= 0.99 - 3 sigma over pairs",
                lambda r: int(r["pairs_ok"]), lambda r: int(r["pairs"]),
                lambda k, n: k / n >= 0.99 - three_sigma(0.99, n),
            ),
            schedule={
                "oracles.shots": 2_144_000,
                "covertsq.shadow_estimate": 100,
            },
        ),
        Workload(
            name="covert-sq",
            why="c09 traffic: 9,587 Python-level SQ answers per trial and "
                "no qsim call; the control for engine optimisations",
            config={
                "scenario": "covert-sq",
                "params": {"n": 4, "d": 2, "delta": 0.1, "delta_c": 0.05,
                           "b_c": 1.0, "b_m": 1.0},
                "adversary": None,
                "seed": 909,
            },
            invariant=_covert_sq_invariant,
            outcome=OutcomeRate(
                "within_delta", "c09", "rate >= 0.95 - 3 sigma",
                lambda r: int(r["within_delta"]), lambda r: 1,
                lambda k, n: k / n >= 0.95 - three_sigma(0.95, n),
            ),
            schedule={"oracles.SqOracle.query": 9_587},
        ),
    )
}


def check_records(workload: Workload, records: list[dict]) -> dict:
    """Per-trial invariants and the pooled acceptance-test rate."""
    violations = []
    for rec in records:
        broke = workload.invariant(rec)
        if broke is not None:
            violations.append({"trial": rec["trial"], "broke": broke})
    oc = workload.outcome
    k = sum(oc.successes(r) for r in records)
    n = sum(oc.attempts(r) for r in records)
    lo, hi = wilson_interval(k, n)
    return {
        "violations": violations,
        "outcome": {
            "name": oc.name, "criterion": oc.criterion, "rule": oc.rule,
            "successes": k, "attempts": n,
            "rate": k / n if n else None,
            "wilson_low": lo, "wilson_high": hi,
            "passes": bool(n and oc.passes(k, n)),
        },
    }
