"""Adversary strategies pluggable into the oracle tap channels.

A strategy describes what the eavesdropper does to quantum traffic in each
direction (learner->oracle = "query", oracle->learner = "response"), what
memory it is allowed (none / classical-only / quantum), and which directions
it may touch. Unidirectional strategies have the query-direction tap
hard-wired to the identity; ancilla-free strategies own no quantum register.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import qsim
from .boolfunc import BooleanFunction, parity_fn
from .qsim import MixedState, PureState

UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"


@dataclass(frozen=True)
class AdversaryStrategy:
    kind: str
    directionality: str
    memory_policy: str  # none | classical | quantum
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "swap_attack" and (
            self.directionality != BIDIRECTIONAL or self.memory_policy != "quantum"
        ):
            raise ValueError("swap attack needs bidirectional taps and quantum memory")
        if self.kind == "ancilla_free_iid" and self.memory_policy != "none":
            raise ValueError("ancilla-free strategies cannot own quantum memory")


def identity() -> AdversaryStrategy:
    return AdversaryStrategy("identity", UNIDIRECTIONAL, "none")


def response_depolarize(p: float) -> AdversaryStrategy:
    return AdversaryStrategy("response_depolarize", UNIDIRECTIONAL, "none", {"p": p})


def response_replace(state: PureState) -> AdversaryStrategy:
    return AdversaryStrategy("response_replace", UNIDIRECTIONAL, "none", {"state": state})


def response_measure_z() -> AdversaryStrategy:
    return AdversaryStrategy("response_measure_z", UNIDIRECTIONAL, "classical")


def swap_attack() -> AdversaryStrategy:
    return AdversaryStrategy("swap_attack", BIDIRECTIONAL, "quantum")


def ancilla_free_iid(
    delta_leak: float, measure_qubit: int = 0, extract_post: bool = True
) -> AdversaryStrategy:
    """Measure one query-register qubit in the Hadamard basis pre-oracle with
    probability delta_leak each round; optionally extract post-oracle by
    measuring the full register in the Hadamard basis."""
    return AdversaryStrategy(
        "ancilla_free_iid",
        BIDIRECTIONAL,
        "none",
        {"delta_leak": delta_leak, "measure_qubit": measure_qubit, "extract_post": extract_post},
    )


class TapMemory:
    """Per-trial adversary memory: classical records plus the optional
    quantum register (swap attack only)."""

    def __init__(self, strategy: AdversaryStrategy):
        self.strategy = strategy
        self.records: list = []
        self.quantum: Optional[PureState] = None
        self.learned_fn: Optional[BooleanFunction] = None
        self.round = 0
        self.extracting = False
        self.events: list[dict] = []  # adversary-visible log

    def store_quantum(self, state: PureState):
        if self.strategy.memory_policy != "quantum":
            raise RuntimeError("strategy has no quantum memory")
        self.quantum = state


def _replace_register(
    state: PureState, qubits: Sequence[int], replacement: PureState, rng
) -> PureState:
    """Trajectory realization of the replacement channel tr_Q[.] (x) |phi><phi|."""
    if replacement.n != len(qubits):
        raise ValueError(
            f"replacement state has {replacement.n} qubits, register has {len(qubits)}"
        )
    outcome, post = qsim.measure_qubits(state, list(qubits), "Z", rng)
    rest = qsim.remove_qubits(post, list(qubits), outcome)
    return _reinsert_register(rest, replacement, qubits)


def _reinsert_register(
    rest: PureState, register: PureState, qubits: Sequence[int]
) -> PureState:
    """Inverse of splitting `qubits` off a state: tensor the register on top
    of the remaining qubits, then move it back to positions `qubits`."""
    n = rest.n + register.n
    perm = [q for q in range(n) if q not in qubits] + list(qubits)
    return qsim.permute_qubits(qsim.tensor(rest, register), perm)


def _random_pauli(state: PureState, qubits: Sequence[int], rng) -> PureState:
    """Uniform Pauli string on the listed qubits (full-group twirl sample)."""
    for q in qubits:
        p = int(rng.integers(4))
        if p == 1:
            state = qsim.apply_gate(state, "X", [q])
        elif p == 2:
            state = qsim.apply_gate(state, "Z", [q])
        elif p == 3:
            state = qsim.apply_gate(state, "X", [q])
            state = qsim.apply_gate(state, "Z", [q])
    return state


def _extract_product_register(state: PureState, qubits: Sequence[int]) -> tuple[PureState, PureState]:
    """Split off a register that is in product with the rest; fault otherwise."""
    if qsim.schmidt_rank(state, list(qubits), tol=1e-9) != 1:
        raise RuntimeError("register is entangled with the learner; cannot steal it")
    rho = qsim.partial_trace(state, list(qubits))
    vals, vecs = np.linalg.eigh(rho.mat)
    sub = PureState(len(qubits), vecs[:, -1] / np.linalg.norm(vecs[:, -1]))
    rest_qubits = [q for q in range(state.n) if q not in qubits]
    rho_rest = qsim.partial_trace(state, rest_qubits)
    vals_r, vecs_r = np.linalg.eigh(rho_rest.mat)
    rest = PureState(len(rest_qubits), vecs_r[:, -1] / np.linalg.norm(vecs_r[:, -1]))
    return sub, rest


def apply_tap(
    strategy: AdversaryStrategy,
    direction: str,
    state: PureState,
    qubits: Sequence[int],
    memory: TapMemory,
    rng,
) -> PureState:
    """Run one tap. `qubits` is the in-flight oracle register inside `state`."""
    if direction not in ("query", "response"):
        raise ValueError(f"bad direction {direction!r}")
    if strategy.directionality == UNIDIRECTIONAL and direction == "query":
        # hard-wired identity on the forward channel
        return state

    kind = strategy.kind
    if kind == "identity":
        return state

    if kind == "response_depolarize":
        if direction != "response":
            return state
        if rng.random() < strategy.params["p"]:
            state = _random_pauli(state, qubits, rng)
            memory.events.append({"round": memory.round, "action": "depolarized"})
        return state

    if kind == "response_replace":
        if direction != "response":
            return state
        memory.events.append({"round": memory.round, "action": "replaced"})
        return _replace_register(state, qubits, strategy.params["state"], rng)

    if kind == "response_measure_z":
        if direction != "response":
            return state
        outcome, post = qsim.measure_qubits(state, list(qubits), "Z", rng)
        memory.records.append(("z_outcome", outcome))
        memory.events.append({"round": memory.round, "action": "measured_z", "outcome": outcome})
        return post

    if kind == "swap_attack":
        return _swap_attack_tap(strategy, direction, state, qubits, memory, rng)

    if kind == "ancilla_free_iid":
        return _ancilla_free_tap(strategy, direction, state, qubits, memory, rng)

    raise ValueError(f"unknown strategy kind {kind!r}")


def _swap_attack_tap(strategy, direction, state, qubits, memory, rng):
    n_reg = len(qubits)
    if memory.learned_fn is not None:
        # oracle already learned: simulate it faithfully on every later query
        if direction == "query":
            memory.events.append({"round": memory.round, "action": "simulated_oracle"})
        return state
    if direction == "query":
        # steal the learner's query register, send in a fresh uniform state
        stolen, rest = _extract_product_register(state, qubits)
        memory.store_quantum(stolen)
        memory.events.append({"round": memory.round, "action": "swapped_in_uniform"})
        return _reinsert_register(rest, qsim.uniform_state(n_reg), qubits)
    # response: the register now holds the true phase state; run the
    # single-copy Bernstein-Vazirani readout to learn the parity mask
    sub, rest = _extract_product_register(state, qubits)
    s_hat, _ = qsim.measure_qubits(
        qsim.apply_hadamards(sub, range(n_reg)), list(range(n_reg)), "Z", rng
    )
    memory.records.append(("learned_parity", s_hat))
    memory.learned_fn = parity_fn(s_hat, n_reg)
    memory.events.append({"round": memory.round, "action": "bv_readout", "s_hat": s_hat})
    # simulate the oracle on the stored learner state and forward it
    simulated = qsim.apply_phase_oracle(
        memory.quantum, memory.learned_fn, range(n_reg)
    )
    memory.quantum = None
    return _reinsert_register(rest, simulated, qubits)


def _ancilla_free_tap(strategy, direction, state, qubits, memory, rng):
    if direction == "query":
        memory.extracting = rng.random() < strategy.params["delta_leak"]
        if not memory.extracting:
            return state
        q = qubits[strategy.params["measure_qubit"]]
        bit, post = qsim.measure_qubits(state, [q], "X", rng)
        memory.records.append(("pre_oracle_x", bit))
        memory.events.append({"round": memory.round, "action": "pre_measure", "bit": bit})
        return post
    if memory.extracting and strategy.params["extract_post"]:
        bits, post = qsim.measure_qubits(state, list(qubits), "X", rng)
        memory.records.append(("post_oracle_x", bits))
        memory.events.append({"round": memory.round, "action": "post_measure", "bits": bits})
        return post
    return state


# --- exact privacy audits ----------------------------------------------------


def exact_response_view(
    strategy: AdversaryStrategy, register_state: MixedState
) -> MixedState:
    """Adversary's exact view of an intercepted response register.

    The input is the reduced state of the tapped register (averaged over the
    protocol's randomness); the output is the state of everything the
    adversary can retain about that register, as a density operator. For the
    passive unidirectional strategies the view lives on the register itself
    (a Z measurement's record determines the post-measurement state, so the
    record register is redundant and omitted).
    """
    rho = register_state.mat
    d = rho.shape[0]
    if strategy.kind == "identity":
        return register_state
    if strategy.kind == "response_depolarize":
        p = strategy.params["p"]
        return MixedState(register_state.n, (1 - p) * rho + p * np.eye(d) / d)
    if strategy.kind == "response_measure_z":
        return MixedState(register_state.n, np.diag(np.diag(rho)))
    if strategy.kind == "response_replace":
        # the adversary discards the register and keeps nothing
        return MixedState(register_state.n, np.eye(d, dtype=complex) / d)
    raise ValueError(f"no exact view channel for strategy {strategy.kind!r}")


def factorization_distance(views: Sequence[MixedState], weights=None) -> float:
    """Trace distance between rho_FA and uniform_F (x) rho_A.

    rho_FA = sum_f w_f |f><f| (x) view_f is block diagonal in the classical
    function register, so the distance is sum_f w_f * TD(view_f, mean view).
    """
    k = len(views)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    mean = MixedState(views[0].n, sum(wi * v.mat for wi, v in zip(w, views)))
    return float(sum(wi * qsim.trace_distance(v, mean) for wi, v in zip(w, views)))
