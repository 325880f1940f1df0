"""Adversary strategies pluggable into the oracle tap channels.

There is one frozen dataclass per adversary kind, named by the kind a config
spec gives, with exactly the spec's fields, checked at construction. A
strategy's `query_tap` acts on learner->oracle traffic and its `response_tap`
on oracle->learner traffic; both default to the identity. A kind taps both
directions exactly when it overrides `query_tap`; the class constant
`quantum_memory` says whether it keeps a quantum register (ancilla-free kinds
do not).

Pass-through rule: a direction whose hook a kind's class leaves to
`Strategy` is the identity and is never called. `oracles.TapChannel` reads
this once from the class, so behind `identity` a round trip runs no hook at
all, behind a unidirectional kind only `response_tap`; the tap's
`memory.round` still advances once per response either way.

Kinds with an exact privacy-audit channel have `exact_response_view`: it
maps the reduced state of an intercepted response register, averaged over
the protocol's randomness, to the state of everything the adversary keeps
about that register, as a density operator.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import qsim
from .boolfunc import BooleanFunction, parity_fn
from .qsim import MixedState, PureState


# bytes one BoundedMemo may keep (the 1 MiB scale of qsim.SIGN_TABLE_QUBITS)
MEASUREMENT_MEMO_BYTES = 1 << 20


class BoundedMemo:
    """A per-trial memo (the tap's measurement tables, a QPh oracle's
    responses, a block table's round tables): `memo` maps a key to its
    value, and `nbytes` sums the costs of the kept values. A caller looks a
    key up with `memo.get(key)` and hands a value it had to build to
    `keep`."""

    __slots__ = ("memo", "nbytes")

    def __init__(self):
        self.memo: dict = {}
        self.nbytes = 0

    def keep(self, key, value, cost: int):
        """`value`, kept under `key` only if `nbytes + cost` stays within
        MEASUREMENT_MEMO_BYTES, read at each call; past that the value is
        used once and not kept."""
        if self.nbytes + cost <= MEASUREMENT_MEMO_BYTES:
            self.memo[key] = value
            self.nbytes += cost
        return value


class TapMemory:
    """Per-trial adversary memory: the adversary-visible event log, one
    event per tap action with what it measured, plus the optional quantum
    register (swap attack only).

    `measure_memo` is the BoundedMemo of `measure`: measurement tables
    keyed by the tapped state's amplitude bytes, the qubits and the basis,
    each costing its key bytes plus every post-state it can build."""

    def __init__(self):
        self.quantum: Optional[PureState] = None
        self.learned_fn: Optional[BooleanFunction] = None
        self.round = 0
        self.extracting = False
        self.events: list[dict] = []  # adversary-visible log
        self.measure_memo = BoundedMemo()

    def measure(self, state: PureState, qubits: Sequence[int], basis: str,
                rng) -> tuple[int, PureState]:
        """`qsim.measure_qubits` through the memo: the same outcome, post-state
        bytes and generator state, without rebuilding the table of a state
        measured before. The post-state is read-only."""
        key = (state.vec.tobytes(), tuple(qubits), basis)
        table = self.measure_memo.memo.get(key)
        if table is None:
            table = qsim.MeasurementTable(state, key[1], basis)
            self.measure_memo.keep(key, table, len(key[0]) + table.max_nbytes)
        outcome = table.draw(rng)
        return outcome, table.post(outcome)


@dataclass(frozen=True)
class Strategy:
    """Base of the kinds: the identity in both directions. A bool field must
    be a bool; every other field is a probability, a finite number in
    [0, 1]."""

    quantum_memory: ClassVar[bool] = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (bool, "bool"):  # the annotation, evaluated or not
                if not isinstance(value, bool):
                    raise ValueError(f"field {f.name!r} must be true or false, got {value!r}")
            elif (isinstance(value, bool) or not isinstance(value, (int, float))
                  or not 0 <= value <= 1):  # written so that NaN fails too
                raise ValueError(
                    f"field {f.name!r} must be a finite number in [0, 1], got {value!r}"
                )

    @property
    def kind(self) -> str:
        return type(self).__name__

    def query_tap(self, state: PureState, qubits, memory: TapMemory, rng) -> PureState:
        return state

    def response_tap(self, state: PureState, qubits, memory: TapMemory, rng) -> PureState:
        return state


@dataclass(frozen=True)
class identity(Strategy):
    """No eavesdropper."""

    def exact_response_view(self, register_state: MixedState) -> MixedState:
        return register_state


@dataclass(frozen=True)
class depolarize(Strategy):
    """With probability p, a uniform Pauli string on the response register."""

    p: float

    def response_tap(self, state, qubits, memory, rng):
        if rng.random() < self.p:
            state = _random_pauli(state, qubits, rng)
            memory.events.append({"round": memory.round, "action": "depolarized"})
        return state

    def exact_response_view(self, register_state: MixedState) -> MixedState:
        d = register_state.mat.shape[0]
        p = self.p
        return MixedState(register_state.n, (1 - p) * register_state.mat + p * np.eye(d) / d)


@dataclass(frozen=True)
class replace_zero(Strategy):
    """Replace the response register, whatever its size, by |0...0>."""

    def response_tap(self, state, qubits, memory, rng):
        memory.events.append({"round": memory.round, "action": "replaced"})
        return _replace_register(state, qubits, qsim.basis_state(len(qubits), 0), rng)

    def exact_response_view(self, register_state: MixedState) -> MixedState:
        # the adversary discards the register and keeps nothing
        d = register_state.mat.shape[0]
        return MixedState(register_state.n, np.eye(d, dtype=complex) / d)


@dataclass(frozen=True)
class measure_z(Strategy):
    """Measure the response register in the Z basis and keep the outcome
    (classical memory)."""

    def response_tap(self, state, qubits, memory, rng):
        outcome, post = qsim.measure_qubits(state, list(qubits), "Z", rng)
        memory.events.append({"round": memory.round, "action": "measured_z", "outcome": outcome})
        return post

    def exact_response_view(self, register_state: MixedState) -> MixedState:
        # the record determines the post-measurement state, so the view
        # lives on the register itself
        return MixedState(register_state.n, np.diag(np.diag(register_state.mat)))


@dataclass(frozen=True)
class swap_attack(Strategy):
    """Steal the learner's query register into quantum memory and send a
    uniform state instead; read the parity out of the response with one
    Bernstein-Vazirani measurement, then answer the stolen register (and
    every later query) with the learned oracle. A register whose residual
    from a product is over 1e-9 (`_extract_product_register`) faults."""

    quantum_memory: ClassVar[bool] = True

    def query_tap(self, state, qubits, memory, rng):
        if memory.learned_fn is not None:
            # oracle already learned: simulate it faithfully on every later query
            memory.events.append({"round": memory.round, "action": "simulated_oracle"})
            return state
        stolen, rest = _extract_product_register(state, qubits)
        memory.quantum = stolen
        memory.events.append({"round": memory.round, "action": "swapped_in_uniform"})
        return _reinsert_register(rest, qsim.uniform_state(len(qubits)), qubits)

    def response_tap(self, state, qubits, memory, rng):
        if memory.learned_fn is not None:
            return state
        # the register now holds the true phase state; run the single-copy
        # Bernstein-Vazirani readout to learn the parity mask
        n_reg = len(qubits)
        sub, rest = _extract_product_register(state, qubits)
        s_hat, _ = qsim.measure_qubits(
            qsim.apply_hadamards(sub, range(n_reg)), list(range(n_reg)), "Z", rng
        )
        memory.learned_fn = parity_fn(s_hat, n_reg)
        memory.events.append({"round": memory.round, "action": "bv_readout", "s_hat": s_hat})
        # simulate the oracle on the stored learner state and forward it
        simulated = qsim.apply_phase_oracle(memory.quantum, memory.learned_fn, range(n_reg))
        memory.quantum = None
        return _reinsert_register(rest, simulated, qubits)


@dataclass(frozen=True)
class ancilla_free(Strategy):
    """i.i.d. ancilla-free eavesdropper: with probability delta_leak each
    round, measure the first query-register qubit in the Hadamard basis
    before the oracle and, with extract_post, the whole register after it.
    Both measurements go through `TapMemory.measure`, so a state the tap
    saw before reuses its measurement table."""

    delta_leak: float
    extract_post: bool = True

    def query_tap(self, state, qubits, memory, rng):
        memory.extracting = rng.random() < self.delta_leak
        if not memory.extracting:
            return state
        bit, post = memory.measure(state, [qubits[0]], "X", rng)
        memory.events.append({"round": memory.round, "action": "pre_measure", "bit": bit})
        return post

    def response_tap(self, state, qubits, memory, rng):
        if memory.extracting and self.extract_post:
            bits, post = memory.measure(state, qubits, "X", rng)
            memory.events.append({"round": memory.round, "action": "post_measure", "bits": bits})
            return post
        return state


# spec kind -> strategy class
KINDS: dict[str, type[Strategy]] = {
    cls.__name__: cls
    for cls in (identity, depolarize, replace_zero, measure_z, swap_attack, ancilla_free)
}


def apply_tap(
    strategy: Strategy,
    direction: str,
    state: PureState,
    qubits: Sequence[int],
    memory: TapMemory,
    rng,
) -> PureState:
    """Run one tap. `qubits` is the in-flight oracle register inside `state`."""
    if direction == "query":
        return strategy.query_tap(state, qubits, memory, rng)
    if direction == "response":
        return strategy.response_tap(state, qubits, memory, rng)
    raise ValueError(f"bad direction {direction!r}")


def _replace_register(
    state: PureState, qubits: Sequence[int], replacement: PureState, rng
) -> PureState:
    """Trajectory realization of the replacement channel tr_Q[.] (x) |phi><phi|."""
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
    """Split off a register in product with the rest; fault otherwise.

    With the register on the rows (qubits[j] as bit j) and the rest on the
    columns, the amplitudes M of a product are sub rest^T (Schmidt rank 1):
    sub is the column of largest norm and rest the row of largest norm, each
    normalised. The register is a product when the residual
    ||M - sub (sub^dag M)|| is at most 1e-9, an O(2^n) check.
    """
    n, k = state.n, len(qubits)
    rows = [n - 1 - q for q in reversed(qubits)]
    m = np.transpose(state.vec.reshape([2] * n),
                     rows + [a for a in range(n) if a not in rows]).reshape(1 << k, -1)
    sub = m[:, np.argmax(np.linalg.norm(m, axis=0))]
    sub = sub / np.linalg.norm(sub)
    if np.linalg.norm(m - np.outer(sub, sub.conj() @ m)) > 1e-9:
        raise RuntimeError("register is entangled with the learner; cannot steal it")
    rest = m[np.argmax(np.linalg.norm(m, axis=1))]
    return PureState(k, sub), PureState(n - k, rest / np.linalg.norm(rest))


# --- exact privacy audits ----------------------------------------------------


def factorization_distance(views: Sequence[MixedState]) -> float:
    """Trace distance between rho_FA and uniform_F (x) rho_A.

    rho_FA = (1/k) sum_f |f><f| (x) view_f over k uniform functions is block
    diagonal in the classical function register, so the distance is
    (1/k) sum_f TD(view_f, mean view).
    """
    w = 1.0 / len(views)
    mean = MixedState(views[0].n, sum(w * v.mat for v in views))
    return float(sum(w * qsim.trace_distance(v, mean) for v in views))
