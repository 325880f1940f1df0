"""The oracle zoo: statistical, example, membership, measurement-example and
quantum-channel oracles, with query counting, tolerance policies, and tap
points for adversaries on the quantum channels.

Every oracle derives from `Oracle`, which counts its answers and logs each
one, under the oracle's kind, to an attached transcript. Statistical oracles
always compute the exact underlying quantity alongside the emitted answer
and check the tolerance contract |v - exact| <= tau.
"""
from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import adversary as adv
from . import qsim
from .boolfunc import BooleanFunction, Parity, eval_all, evaluate, quadratic_fn, truth_table
from .gf2 import dot, split_digits
from .qsim import PureState

PUBLIC = "public"
PRIVATE = "private"


class Transcript:
    """JSON-lines event log with public/private visibility tags."""

    def __init__(self):
        self.events: list[dict] = []

    def log(self, oracle_kind: str, visibility: str, direction: str, payload, counters: dict):
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]
        self.events.append(
            {
                "seq": len(self.events),
                "oracle_kind": oracle_kind,
                "visibility": visibility,
                "direction": direction,
                "payload": payload,
                "payload_digest": digest,
                "counters": dict(counters),
            }
        )

    def public_events(self) -> list[dict]:
        return [e for e in self.events if e["visibility"] == PUBLIC]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e, default=str) for e in self.events)


class Oracle:
    """Base of every oracle: `count` answers (an m-copy measurement counts
    m) and, when a transcript is attached, log each answer with the oracle's
    `kind` and `visibility`. A query bumps `count` and tests `transcript`
    itself, so an unlogged query builds no payload."""

    kind = ""

    def __init__(self, transcript: Optional[Transcript], visibility: str):
        self.transcript = transcript
        self.visibility = visibility
        self.count = 0

    def _log(self, payload: dict, direction: str = "response") -> None:
        self.transcript.log(
            self.kind, self.visibility, direction, payload, {self.kind: self.count}
        )


# --- answer policies ---------------------------------------------------------

EXACT = "exact"
GRID = "grid"
PERTURB = "perturb"
POLICIES = (EXACT, GRID, PERTURB)


def _policy_answer(policy: str, truth: float, tau: float, rng) -> float:
    if policy == EXACT:
        v = truth
    elif policy == GRID:
        # deterministic worst-case flavor: snap to the grid of spacing tau
        v = tau * round(truth / tau)
    elif policy == PERTURB:
        if rng is None:
            raise ValueError("perturb policy needs an rng")
        v = truth + tau * float(rng.uniform(-1.0, 1.0))
    else:
        raise ValueError(f"unknown policy {policy!r}")
    if not abs(v - truth) <= tau + 1e-12:  # written so that NaN fails too
        raise RuntimeError(f"tolerance audit failed: {v} vs {truth} at tau {tau}")
    return v


# --- SQ queries --------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialSqQuery:
    """Multilinear polynomial over the input bits, q(x) = sum_k c_k prod_{i in S_k} x_i.

    Label-independent; the exact expectation under uniform inputs is the
    closed form sum_k c_k 2^{-|S_k|}.
    """

    supports: tuple[int, ...]  # monomial supports as bit masks
    coeffs: tuple[float, ...]

    def exact_expectation(self, f: BooleanFunction) -> float:
        moments = np.array([2.0 ** (-s.bit_count()) for s in self.supports])
        return float(np.dot(self.coeffs, moments))

    def describe(self) -> dict:
        return {"query": "polynomial", "supports": list(self.supports), "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class ParityPairSqQuery:
    """Tournament query q_{t1,t2}(x, y) = 1[t1·x != t2·x] * 1[t1·x = y]."""

    t1: int
    t2: int

    def exact_expectation(self, f: BooleanFunction) -> float:
        body = f.body
        if isinstance(body, Parity):
            u = self.t1 ^ self.t2
            v = self.t1 ^ body.s
            if u == 0:
                return 0.0
            if v == 0:
                return 0.5
            if v == u:
                return 0.0
            return 0.25
        table = eval_all(f)
        hits = 0
        for x in range(1 << f.n):
            a = dot(self.t1, x)
            if a != dot(self.t2, x) and a == int(table[x]):
                hits += 1
        return hits / (1 << f.n)

    def describe(self) -> dict:
        return {"query": "parity_pair", "t1": self.t1, "t2": self.t2}


class SqOracle(Oracle):
    """Classical statistical query oracle with a tolerance policy. A query
    is any object with `exact_expectation(f)` and `describe()`."""

    kind = "SQ"

    def __init__(
        self,
        f: BooleanFunction,
        policy: str = GRID,
        rng=None,
        transcript: Optional[Transcript] = None,
        visibility: str = PRIVATE,
    ):
        super().__init__(transcript, visibility)
        self.f = f
        self.policy = policy
        self.rng = rng

    def query(self, q, tau: float) -> float:
        if not 0.0 < tau < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        truth = q.exact_expectation(self.f)
        v = _policy_answer(self.policy, truth, tau, self.rng)
        self.count += 1
        if self.transcript is not None:
            self._log({**q.describe(), "tau": tau, "answer": v})
        return v


# --- QSQ queries -------------------------------------------------------------


@dataclass(frozen=True)
class InfluenceQuery:
    """Influence of variable i, optionally of the off-diagonal-corrected
    function x -> f(x) xor sum_{i<j} x_i A_ij x_j (the conjugating unitary of
    the quadratic learner folded into the symbolic query)."""

    i: int
    offdiag_rows: Optional[tuple[int, ...]] = None

    def exact_expectation(self, f: BooleanFunction) -> float:
        if self.offdiag_rows is not None:
            f = _xor_quadratic(f, self.offdiag_rows)
        return influence_exact(f, self.i)

    def describe(self):
        return {"query": "influence", "i": self.i, "corrected": self.offdiag_rows is not None}


def influence_exact(f: BooleanFunction, i: int) -> float:
    """Inf_i(f) = Pr_x[f(x) != f(x xor e_i)], exactly."""
    table = eval_all(f)
    xs = np.arange(1 << f.n, dtype=np.uint64)
    return float(np.mean(table[xs] != table[xs ^ np.uint64(1 << i)]))


def _xor_quadratic(f: BooleanFunction, offdiag_rows: Sequence[int]) -> BooleanFunction:
    """x -> f(x) xor sum_{i<j} x_i A_ij x_j as a truth table."""
    q = quadratic_fn(tuple(offdiag_rows), f.n)
    return truth_table(eval_all(f) ^ eval_all(q), w=1)


class QsqOracle(SqOracle):
    """Quantum statistical query oracle on the example state of a width-1
    function f. Influence queries are evaluated against f exactly."""

    kind = "QSQ"

    def __init__(self, f: BooleanFunction, *args, **kwargs):
        if f.w != 1:
            raise ValueError("QSQ oracles take a width-1 f")
        super().__init__(f, *args, **kwargs)


# --- example / membership ----------------------------------------------------


class ExOracle(Oracle):
    """Random example oracle: uniform x with its label; logged publicly."""

    kind = "Ex"

    def __init__(self, f: BooleanFunction, rng, transcript=None, visibility=PUBLIC):
        super().__init__(transcript, visibility)
        self.f = f
        self.rng = rng

    def sample(self) -> tuple[int, int]:
        x = int(self.rng.integers(0, 1 << self.f.n))
        y = evaluate(self.f, x)
        self.count += 1
        if self.transcript is not None:
            self._log({"x": x, "y": y})
        return x, y


class MemOracle(Oracle):
    """Classical membership query oracle; one count per base-function query."""

    kind = "Mem"

    def __init__(self, f: BooleanFunction, transcript=None, visibility=PRIVATE):
        super().__init__(transcript, visibility)
        self.f = f
        self.n = f.n

    def query(self, x: int) -> int:
        y = evaluate(self.f, x)
        self.count += 1
        if self.transcript is not None:
            self._log({"x": x, "y": y})
        return y


def _check_view_input(x: int, n: int) -> None:
    """A view's own domain check, in `evaluate`'s words, before any base query."""
    if x >> n:  # also -1 for any negative x
        raise ValueError(f"input {x} is outside [0, 2^{n})")


class TensorMemView:
    """Membership view of f^(x)m: one view query costs m base queries."""

    def __init__(self, base, m: int):
        n_base = base.n
        if m < 1 or n_base < 1:
            raise ValueError(f"a tensor view needs m >= 1 copies of n_base >= 1 "
                             f"bits, got m={m}, n_base={n_base}")
        self.base = base
        self.m = m
        self.n_base = n_base
        self.n = m * n_base

    def query(self, x: int) -> int:
        _check_view_input(x, self.n)
        query = self.base.query
        acc = 0
        for part in split_digits(x, self.n_base, self.m):
            acc ^= query(part)
        return acc


class MaskedMemView:
    """Membership view of g(r, x) = r·x xor f(x) on 2n bits (mask register low).

    The bilinear part is computed locally; each view query costs one base query.
    """

    def __init__(self, base):
        self.base = base
        self.n_base = base.n
        self.n = 2 * base.n

    def query(self, z: int) -> int:
        _check_view_input(z, self.n)
        r = z & ((1 << self.n_base) - 1)
        x = z >> self.n_base
        return dot(r, x) ^ self.base.query(x)


class ExampleMemView:
    """Membership view of f~(x, y) = y·f(x) on n+w bits (x register low)."""

    def __init__(self, mem: MemOracle):
        self.base = mem
        self.n = mem.n + mem.f.w
        self._n_in = mem.n

    def query(self, z: int) -> int:
        _check_view_input(z, self.n)
        x = z & ((1 << self._n_in) - 1)
        y = z >> self._n_in
        return dot(y, self.base.query(x))


# --- quantum measurement examples --------------------------------------------

_PAULI_AXES = "XYZ"
# bulk Pauli sampling tabulates 3^n bases x 2^n outcomes: 13 MB at n = 8. Its
# guide table has 3^n x B cells, B a power of two up to 2^(n+6) with at most
# one cell per shot (B = 1 below 3^n shots); built in int64, 8 bytes a cell
PAULI_TABLE_QUBIT_CAP = 8


def _guide_bits(shots: int, n_groups: int, k: int) -> int:
    """log2 of the guide table's buckets per group: 64 per outcome (k is a
    power of two), fewer where n_groups x buckets would pass the shots, and a
    single bucket below n_groups shots."""
    return max(0, min(k.bit_length() + 5, (shots // n_groups).bit_length() - 1))


def _guide_table(cdfs: np.ndarray, bits: int) -> np.ndarray:
    """guide[g, j] = the number of cdfs[g] entries <= j / 2^bits, the outcome
    of every u in [j, j + 1) / 2^bits, or len(cdf) where an interior entry lies
    strictly inside that bucket. Scaling by a power of two is exact, so an
    entry t is <= j / 2^bits iff ceil(t 2^bits) <= j."""
    n_groups, k = cdfs.shape
    width = 1 << bits
    scaled = cdfs[:, :-1] * width
    edge = np.ceil(scaled).astype(np.int32)
    rows = np.arange(n_groups, dtype=np.int32)[:, None] * (width + 1)
    below = np.bincount((edge + rows).ravel(), minlength=n_groups * (width + 1))
    below = below.reshape(n_groups, width + 1)[:, :width]
    guide = np.cumsum(below, axis=1, out=below).astype(np.min_scalar_type(k))
    inner_g, inner_t = np.nonzero(scaled != edge)
    guide[inner_g, edge[inner_g, inner_t] - 1] = k
    return guide


def _choice_by_group(cdfs: np.ndarray, groups: np.ndarray, rng) -> np.ndarray:
    """Draw outcome i from the distribution with cdf cdfs[groups[i]], exactly
    as one rng.choice(len(cdf), size=count, p=...) per group that occurs, in
    ascending group order, would: the shots are grouped by one stable sort
    and take a single uniform stream in sorted order. Each u is looked up in
    a guide table of 2^bits equal buckets per group (Chen & Asau's indexed
    search), about 64 per outcome and no more table cells than shots, or one
    per group below that: one take at floor(u 2^bits) in its group's row
    gives the outcome, and only a u whose bucket holds a cdf entry goes
    through the group's searchsorted. Each take reads an int32 slice of the
    bucket indices, so no full-length index array is widened to intp. One
    scatter puts the sorted buffer back in shot order. Every cdf ends at
    exactly 1 and every u < 1, so no outcome reaches len(cdf): they come in
    the smallest unsigned dtype that holds len(cdf) - 1."""
    n_groups, k = cdfs.shape
    counts = np.bincount(groups, minlength=n_groups).tolist()
    order = np.argsort(groups, kind="stable").astype(np.int32)
    u = rng.random(len(groups))
    bits = _guide_bits(len(groups), n_groups, k)
    guide = _guide_table(cdfs, bits)
    np.multiply(u, 1 << bits, out=u)
    cells = u.astype(np.int32)
    drawn = np.empty(len(groups), dtype=guide.dtype)
    start = 0
    for g, count in enumerate(counts):
        if count:
            group = slice(start, start + count)
            out = drawn[group]
            guide[g].take(cells[group], out=out)
            miss = np.flatnonzero(out == k)
            out[miss] = cdfs[g].searchsorted(u[group][miss] / (1 << bits), side="right")
            start += count
    outcomes = np.empty(len(groups), dtype=np.min_scalar_type(k - 1))
    outcomes[order] = drawn
    return outcomes


def _fill_basis_tables(tables: np.ndarray, rotated: PureState, q: int, b_idx: int) -> None:
    """tables[b] = |amplitudes|^2 for every basis b that agrees with b_idx on
    qubits 0..q-1, whose rotations `rotated` already carries: each of qubit
    q's three axes in turn is rotated once and passed down, so at most one
    state per qubit is alive."""
    if q == rotated.n:
        tables[b_idx] = np.abs(rotated.vec) ** 2
        return
    for digit, axis in enumerate(_PAULI_AXES):
        if axis != "Z":
            child = qsim.apply_unitary(rotated, qsim.BASIS_V_DAGGER[axis], [q])
        else:
            child = rotated
        _fill_basis_tables(tables, child, q + 1, b_idx + digit * 3**q)


_OUTCOME_BITS: dict[int, np.ndarray] = {}


def _outcome_bits_table(n: int) -> np.ndarray:
    """The read-only (2^n, n) uint8 table whose row x holds the bits of x,
    qubit 0 first; built once per n (n <= PAULI_TABLE_QUBIT_CAP, at most
    2 KiB)."""
    table = _OUTCOME_BITS.get(n)
    if table is None:
        table = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        table.flags.writeable = False
        _OUTCOME_BITS[n] = table
    return table


def _basis_index(axes: np.ndarray) -> np.ndarray:
    """sum_q axes[:, q] 3^q of uint8 axes by Horner steps in the smallest
    unsigned dtype that holds 3^n - 1 (uint8 up to n = 5, uint16 up to the
    table cap), which the stable argsort sorts fastest."""
    index = np.zeros(len(axes), dtype=np.min_scalar_type(3 ** axes.shape[1] - 1))
    for q in reversed(range(axes.shape[1])):
        index *= 3
        index += axes[:, q]
    return index


class QMeasExOracle(Oracle):
    """Measurement outcomes on copies of a pure state."""

    kind = "QMeasEx"

    def __init__(self, state: PureState, transcript=None, visibility=PUBLIC):
        if not isinstance(state, PureState):
            raise ValueError("QMeasEx oracles take a PureState")
        super().__init__(transcript, visibility)
        self._state = state
        self._pauli_cdfs: Optional[np.ndarray] = None

    def state(self) -> PureState:
        return self._state

    def _basis_probability_tables(self) -> np.ndarray:
        """probs[basis_index, outcome] for all 3^n product-Pauli bases. The
        rotations go on qubit 0 first; bases that agree on qubits 0..q-1
        share that prefix, so a depth-first walk over the axes keeps at most
        n rotated states alive and makes 3^n - 1 apply_unitary calls, each
        on the input the basis-by-basis loop would give it."""
        st = self.state()
        n = st.n
        if n > PAULI_TABLE_QUBIT_CAP:
            raise ValueError(
                f"bulk Pauli sampling tabulates 3^n x 2^n probabilities; "
                f"n = {n} is above the cap of {PAULI_TABLE_QUBIT_CAP} qubits"
            )
        tables = np.empty((3**n, 1 << n))
        _fill_basis_tables(tables, st, 0, 0)
        return tables

    def sample_product_pauli(self, shots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Single-copy POVM 'every qubit in an independently uniform Pauli
        basis', repeated `shots` times. Returns (bases, bits) uint8 arrays of
        shape (shots, n), the shadow record `ShadowSet` stores; bases hold
        0/1/2 = X/Y/Z, bits the outcomes (0 = +1).
        """
        n = self.state().n
        if self._pauli_cdfs is None:
            # the cdf Generator.choice(p=...) builds for each basis
            p = np.clip(self._basis_probability_tables(), 0, None)
            p /= p.sum(axis=1, keepdims=True)
            cdfs = p.cumsum(axis=1)
            cdfs /= cdfs[:, -1:]
            self._pauli_cdfs = cdfs
        # int32 draws the default int64's values and generator state (uint8
        # would not); the outcomes are uint8 as 2^n <= 2^8 by the table cap
        axes = rng.integers(0, 3, size=(shots, n), dtype=np.int32).astype(np.uint8)
        outcomes = _choice_by_group(self._pauli_cdfs, _basis_index(axes), rng)
        bits = _outcome_bits_table(n).take(outcomes, axis=0)
        self.count += shots
        if self.transcript is not None:
            self._log({"bulk_pauli_shots": shots})
        return axes, bits

    def bell_sample(self, rng) -> tuple[int, int, tuple[int, int]]:
        """Bell-sample a pair of copies of an (n+1)-qubit example state (the
        label qubit last): (y, z, b) from qsim.bell_sample_example_pair. The
        two-copy measurement counts 2."""
        copy = self._state
        y, z, b = qsim.bell_sample_example_pair(qsim.tensor(copy, copy), copy.n - 1, rng)
        self.count += 2
        if self.transcript is not None:
            self._log({"bell": [y, z, list(b)]})
        return y, z, b


# --- quantum channel oracles with tap points ---------------------------------


class TapChannel:
    """Interception point on learner<->oracle quantum traffic.

    Pass-through rule: `taps_query` / `taps_response` say, from whether the
    strategy's class overrides `query_tap` / `response_tap`, which directions
    act; the owner routes only those through `apply`, which only dispatches.
    A pass-through direction is the identity and costs no call. The owner
    advances `memory.round`, once per response."""

    def __init__(self, strategy: Optional[adv.Strategy] = None):
        self.strategy = strategy or adv.identity()
        self.memory = adv.TapMemory()
        cls = type(self.strategy)
        self.taps_query = cls.query_tap is not adv.Strategy.query_tap
        self.taps_response = cls.response_tap is not adv.Strategy.response_tap

    def apply(self, direction: str, state: PureState, qubits, rng) -> PureState:
        return adv.apply_tap(self.strategy, direction, state, qubits, self.memory, rng)


class QuantumChannelOracle(Oracle):
    """QPh or QMem oracle whose quantum traffic passes through its own tap
    channel, run by `strategy` (no eavesdropper when None); the adversary's
    memory is `tap.memory`."""

    def __init__(
        self,
        f: BooleanFunction,
        kind: str,
        strategy: Optional[adv.Strategy] = None,
        transcript: Optional[Transcript] = None,
        visibility: str = PUBLIC,
    ):
        if kind not in ("QPh", "QMem"):
            raise ValueError("oracle kind must be QPh or QMem")
        if kind == "QPh" and f.w != 1:
            raise ValueError("QPh oracles need width-1 functions")
        # width of the out register a query carries: f.w for QMem, 0 for QPh
        out_width = f.w if kind == "QMem" else 0
        if f.n + out_width > qsim.PURE_QUBIT_CAP:  # no state holds its register
            raise ValueError(f"a {kind} oracle on {f.n + out_width} qubits is above "
                             f"the pure-state cap of {qsim.PURE_QUBIT_CAP} qubits")
        super().__init__(transcript, visibility)
        self.f = f
        self.kind = kind
        self.out_width = out_width
        self.tap = TapChannel(strategy)
        # decided once: no tap acts in either direction
        self.pass_through = not (self.tap.taps_query or self.tap.taps_response)
        # (state qubits, in_qubits) -> the QPh oracle's sign vector there
        self._phase_signs: dict[tuple, np.ndarray] = {}
        # (id of a read-only state reaching the oracle, in_qubits) -> (that
        # state, its read-only QPh response), each costing the response's
        # amplitude bytes; holding the state keeps its id from being reused
        self.responses = adv.BoundedMemo()

    def query(
        self,
        state: PureState,
        in_qubits: Sequence[int],
        out_qubits: Optional[Sequence[int]] = None,
        rng=None,
    ) -> PureState:
        """Tap -> oracle unitary -> tap round trip on the designated register;
        registers that miss f's signature are refused before the tap runs.

        A QPh query whose state reaches the oracle read-only (a row of
        acquire's shared mask tables, or a measuring tap's kept post-state)
        is answered from the response memo, within its byte bound: the same
        amplitudes `qsim.apply_phase_oracle` gives, read-only. The count,
        the transcript entry and any response tap run as on any other query;
        every response then advances the tap's round once. Both registers
        are read through `operator.index`; a range passes as it is."""
        if type(in_qubits) is not range:
            in_qubits = tuple(map(operator.index, in_qubits))
        out_qubits = [] if out_qubits is None else list(map(operator.index, out_qubits))
        if len(in_qubits) != self.f.n or len(out_qubits) != self.out_width:
            raise ValueError(f"a {self.kind} query needs {self.f.n} in and "
                             f"{self.out_width} out qubits")
        tap = self.tap
        if not self.pass_through:
            tapped = list(in_qubits) + out_qubits
            if tap.taps_query:
                state = tap.apply("query", state, tapped, rng)
        if self.kind == "QPh":
            if state.vec.flags.writeable:
                state = self._phase_response(state, in_qubits)
            else:
                slot = (id(state), in_qubits)
                hit = self.responses.memo.get(slot)
                if hit is None:  # kept read-only, within the memo's bound
                    response = self._phase_response(state, in_qubits)
                    response.vec.flags.writeable = False
                    hit = self.responses.keep(slot, (state, response), response.vec.nbytes)
                state = hit[1]
        else:
            state = qsim.apply_qmem_oracle(state, self.f, in_qubits, out_qubits)
        if tap.taps_response:
            state = tap.apply("response", state, tapped, rng)
        tap.memory.round += 1
        self.count += 1
        if self.transcript is not None:
            self._log({"in_qubits": list(in_qubits), "out_qubits": out_qubits or None},
                      "roundtrip")
        return state

    def _phase_response(self, state: PureState, key) -> PureState:
        signs = self._phase_signs.get((state.n, key))
        if signs is None:
            signs = self._phase_signs[state.n, key] = qsim.phase_signs(self.f, state.n, key)
        return qsim.apply_phase_oracle(state, self.f, key, signs)
