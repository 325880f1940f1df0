"""Covert verifiable acquisition of quantum data from public oracles.

One masked query per masking mode serves both oracle kinds, and the oracle
alone fixes the target's shape: n = oracle.f.n input qubits and
w = oracle.out_width out qubits. A QPh target is the phase state of f. A
QMem oracle is queried by phase kickback as the phase oracle of
f~(x, y) = y·f(x); its certified copies are delivered as example states,
after H^w on out. `masked_query_phase_randomness` sends Z^r |+...+> under
fresh private randomness and undoes Z^r on return.
`masked_query_phase_entangled` sends the query half of a CZ-coupled pair of
uniform registers, built once per register size and shared read-only; the
private mask is drawn when `unmask_entangled` measures the mask register.

`acquire_unidirectional` unmasks every copy at query time and certifies
non-i.i.d.; `acquire_ancilla_free` keeps the copies masked, certifies
i.i.d., and unmasks only the output block; both deliver it as one
`certify.ProductBlock`. `task_rounds` is the one round driver for a
decision algorithm on top: each round is one acquisition, the run halts on
the first rejection, and the certified rounds' answers are majority-voted
(ell amplified unidirectional rounds, or one ancilla-free round).

An acquisition's certification blocks (`certify.ProductBlock`) are filled
by one public query per copy and read one table of amplitude rows through a
(count, m) index, the table norm-checked once. Where no tap acts
(`QuantumChannelOracle.pass_through`) a randomness-masked phase
acquisition draws all its masks in one call and
holds one table row per distinct mask, indexed by the masks; any other
acquisition holds one table row per copy, in query order. In entangled
modes the private mask register occupies the low qubits of every copy, the
oracle-facing register the high ones. Every entangled query sends the same
read-only coupled pair, so a measuring ancilla-free tap sees few distinct
registers per trial and reuses their measurement tables
(`adversary.TapMemory.measure`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import certify, qsim
from .certify import CertificationRecord, ProductBlock
from .oracles import (
    ExampleMemView,
    MaskedMemView,
    MemOracle,
    QuantumChannelOracle,
    TensorMemView,
)
from .qsim import PureState

# shrink factor c in the accuracy margin min{eps, (1-c) eps_leak}
AMPLIFICATION_SHRINK = 0.25
DEFAULT_BLOCKS = 20  # desk-scale override of the paper-formula block counts

RANDOMNESS = "randomness"
ENTANGLED = "entangled"
MODES = (RANDOMNESS, ENTANGLED)


def eps_leak(delta_leak: float, m: int) -> float:
    """1 - (1 - delta_leak/2)^m, the per-block fidelity gap a measuring
    ancilla-free adversary cannot avoid."""
    return 1.0 - (1.0 - delta_leak / 2.0) ** m


def ancilla_free_accuracy(eps: float, delta_leak: float, m: int) -> float:
    """Certification accuracy min{eps, (1-c) eps_leak} of the ancilla-free
    acquisition; plain eps when the adversary leaks nothing (eps_leak = 0)."""
    e_leak = eps_leak(delta_leak, m)
    return min(eps, (1.0 - AMPLIFICATION_SHRINK) * e_leak) if e_leak > 0 else eps


@dataclass(frozen=True)
class Schedule:
    """Block schedule of one acquisition: the accuracy it certifies at, the
    paper-formula block count, and the number of blocks it certifies."""

    accuracy: float
    paper_blocks: int
    cert_blocks: int


def unidirectional_schedule(qubits, m, eps, delta, n_blocks=DEFAULT_BLOCKS) -> Schedule:
    """Schedule of `acquire_unidirectional` on blocks of m copies of `qubits`
    qubits: the Theta-tilde(n_block^5 / (delta^2 eps^6)) paper count of the
    non-i.i.d. lift, with unit constant, next to the n_blocks override. The
    lift measures all blocks but one, so fewer than 2 are refused."""
    if n_blocks < 2:
        raise ValueError(f"need at least two blocks, got {n_blocks}")
    n_block = qubits * m
    k_l = certify.iid_copy_count(n_block, eps / 2.0, delta / 6.0)
    paper = math.ceil(
        n_block * k_l**2 * math.log(2.0 / delta) ** 2 / (delta**2 * eps**2)
    )
    return Schedule(eps, paper, n_blocks)


def ancilla_free_schedule(qubits, m, eps, delta, delta_leak, n_blocks=None) -> Schedule:
    """Schedule of `acquire_ancilla_free`: masked copies carry 2 * qubits
    qubits, certified at `ancilla_free_accuracy`; without an n_blocks
    override the paper count is certified; fewer than 1 is refused."""
    if n_blocks is not None and n_blocks < 1:
        raise ValueError(f"need at least one certification block, got {n_blocks}")
    accuracy = ancilla_free_accuracy(eps, delta_leak, m)
    paper = certify.adaptive_copy_count(2 * qubits * m, accuracy, delta)
    return Schedule(accuracy, paper, paper if n_blocks is None else n_blocks)


# --- masked queries -----------------------------------------------------------

# n -> (Z^r |+>^n, the diagonal of Z^r) for every r: the rows of H^n as
# states, sharing one read-only array (1 MiB at the largest n kept,
# qsim.SIGN_TABLE_QUBITS), each beside its row of qsim.z_sign_table
_PHASE_MASKS: dict[int, list[tuple[PureState, np.ndarray]]] = {}
# range(n) for every n up to the cap: the register of an n-qubit masked query
_REGISTERS = tuple(range(n) for n in range(qsim.PURE_QUBIT_CAP + 1))


def _phase_mask(n: int, r: int) -> tuple[PureState, np.ndarray]:
    """Z^r |+>^n, the state a randomness-masked query sends, and the
    diagonal of Z^r, which unmasks the response."""
    if n > qsim.SIGN_TABLE_QUBITS:
        signs = qsim.z_signs(n, r)
        return PureState(n, signs * complex(2 ** (-n / 2))), signs
    masks = _PHASE_MASKS.get(n)
    if masks is None:
        signs = qsim.z_sign_table(n)
        table = signs * complex(2 ** (-n / 2))
        table.flags.writeable = False
        masks = _PHASE_MASKS[n] = [(PureState(n, row), sign)
                                   for row, sign in zip(table, signs)]
    return masks[r]


# n -> the CZ-coupled pair of uniform n-qubit registers (mask register low),
# read-only; the same state on every entangled query, kept up to
# qsim.SIGN_TABLE_QUBITS (1 MiB at the largest n)
_COUPLED_PAIRS: dict[int, PureState] = {}


def _coupled_pair(n: int) -> PureState:
    pair = _COUPLED_PAIRS.get(n)
    if pair is None:
        pair = qsim.tensor(qsim.uniform_state(n), qsim.uniform_state(n))
        for i in range(n):
            pair = qsim.apply_gate(pair, "CZ", [i, n + i])
        pair.vec.flags.writeable = False
        if n <= qsim.SIGN_TABLE_QUBITS:
            _COUPLED_PAIRS[n] = pair
    return pair


def masked_query_phase_randomness(
    oracle: QuantumChannelOracle, rng, out: Optional[np.ndarray] = None,
    r: Optional[int] = None, held: bool = False,
) -> Optional[PureState]:
    """One covert query from classical randomness.

    Send Z^r |+>^n with a fresh private uniform r, undo Z^r on the response;
    with no adversary the result is exactly the target phase state. A QMem
    oracle of width w is queried by phase kickback as the phase oracle of
    f~(x, y) = y·f(x): its out register is sent as Z^rt |+>^w, rt drawn
    after r, and the n + w qubits are unmasked by r | rt << n. The input
    mask is drawn here unless the caller passes one it drew, an int (not a
    bool) in [0, 2^n), checked before any draw or query. Given `out` (a
    table row), the unmasked amplitudes are written there and nothing is
    returned; the table checks their norm. `held` says that `out` already
    holds this query's unmasked amplitudes (an earlier query with the same
    mask where no tap acts wrote them): the query runs as any other,
    with its count, tap round and transcript entry, and nothing is written.
    """
    n, w = oracle.f.n, oracle.out_width  # n + w within the cap, as the oracle was built
    if r is None:
        r = int(rng.integers(0, 1 << n))
    else:
        if type(r) is not int:
            if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
                raise ValueError(f"mask {r!r} is not an int")
            r = int(r)  # a numpy int would not widen to hold r | rt << n
        if not 0 <= r < 1 << n:
            raise ValueError(f"mask {r!r} is outside [0, 2^{n})")
    if w:
        rt = int(rng.integers(0, 1 << w))
        sent = qsim.tensor(_phase_mask(n, r)[0], _phase_mask(w, rt)[0])
        got = _kickback_query(oracle, sent, list(range(n)), w, rng)
        r |= rt << n
        signs = qsim.z_signs(n + w, r)
    else:
        masks = _PHASE_MASKS.get(n)  # the shared row, without a call when kept
        sent, signs = _phase_mask(n, r) if masks is None else masks[r]
        got = oracle.query(sent, _REGISTERS[n], None, rng)  # positional: no keyword parse
    if out is None:
        return qsim.apply_z_mask(got, r, _REGISTERS[n + w])
    if held:
        return None
    if r:
        np.multiply(got.vec, signs, out)  # a positional out skips the ufunc's keyword parse
    else:  # as apply_z_mask: a product with +1 may flip the sign of a zero
        out[:] = got.vec
    return None


def masked_query_phase_entangled(oracle: QuantumChannelOracle, rng) -> PureState:
    """One covert query from entanglement.

    Prepare a CZ-coupled pair of uniform (n + w)-qubit registers (mask
    register low, query register high), send the query half; unmasking is
    deferred. The ideal 2(n + w)-qubit response is the phase state of
    g(r, z) = r·z xor t(z), for the target t = f of a QPh oracle, or
    t = f~(x, y) = y·f(x) of a QMem oracle queried by phase kickback.
    """
    n, w = oracle.f.n, oracle.out_width
    pair = _coupled_pair(n + w)
    query = list(range(n + w, 2 * n + w))
    if w:
        return _kickback_query(oracle, pair, query, w, rng)
    return oracle.query(pair, query, rng=rng)


def unmask_entangled(state: PureState, n: int, rng) -> PureState:
    """Measure the mask register, apply the Z^r correction, drop the mask."""
    r, post = qsim.measure_qubits(state, list(range(n)), "Z", rng)
    post = qsim.apply_z_mask(post, r, range(n, 2 * n))
    return qsim.remove_qubits(post, list(range(n)), r)


def _kickback_query(oracle, state: PureState, in_qubits: list[int], w: int, rng):
    """One QMem query by phase kickback onto the top w qubits of `state` (the
    out register). A |0^w> ancilla takes CNOT out->aux and Hadamards, serves
    as the oracle's output register, is rotated back and Z-measured away."""
    out = range(state.n - w, state.n)
    aux = list(range(state.n, state.n + w))
    state = qsim.tensor(state, qsim.basis_state(w))
    for o, a in zip(out, aux):
        state = qsim.apply_gate(state, "CNOT", [o, a])
    state = qsim.apply_hadamards(state, aux)
    state = oracle.query(state, in_qubits, aux, rng=rng)
    state = qsim.apply_hadamards(state, aux)
    for o, a in zip(out, aux):
        state = qsim.apply_gate(state, "CNOT", [o, a])
    # honest runs return the ancilla to |0^w> exactly; under attack the
    # Z-measurement is local post-processing and can only lower fidelity
    outcome, state = qsim.measure_qubits(state, aux, "Z", rng)
    return qsim.remove_qubits(state, aux, outcome)


# --- acquisition pipeline -----------------------------------------------------


@dataclass
class AcquisitionResult:
    accepted: bool
    output: Optional[ProductBlock]  # the m delivered copies on acceptance
    record: Optional[CertificationRecord]
    pub_queries: int
    pri_queries: int
    blocks_used: int
    paper_blocks: int


def _collect_blocks(oracle, m, count, rng, entangled, unmask):
    """`count` blocks of m masked copies, one public query per copy, in
    order; an entangled response stays coupled to its mask register unless
    `unmask` is set (randomness-masked responses always come back unmasked).

    Where no tap acts (`oracle.pass_through`) the round trip draws nothing
    from `rng`, so a randomness-masked phase acquisition's count * m masks
    are drawn in one `rng.integers(..., size=(count, m))`: the same values
    and the same generator end state as one scalar draw per copy (pinned by
    a test).
    There a mask fixes its copy's bytes: the mask row, times the response
    (memoised or computed afresh, the same bytes either way), times the
    mask's signs. So the copies are held as one (k, 2^q) table, a row per
    distinct mask (at most 2^n), and the masks' (count, m) index into it
    (`ProductBlock.indexed`, one norm check per table row). Every copy still
    makes its masked query, in order, with its mask; only a mask's first
    query writes its row.

    Any other tap may draw between the masks, and a QMem copy draws its out
    mask between them, so there each query draws its own, and the copies
    fill one (count * m, 2^q) table, a row per copy in query order, indexed
    by (count, m) consecutive rows.
    """
    n, w = oracle.f.n, oracle.out_width
    qubits = (n + w) * (1 if unmask or not entangled else 2)
    if qubits > qsim.PURE_QUBIT_CAP:  # before the (m, 2^qubits) blocks exist
        raise ValueError(f"a {qubits}-qubit copy is above the pure-state cap "
                         f"of {qsim.PURE_QUBIT_CAP} qubits")
    if not (entangled or w) and oracle.pass_through:
        masks = rng.integers(0, 1 << n, size=(count, m))
        _, first, index = np.unique(masks, return_index=True, return_inverse=True)
        rows = np.empty((len(first), 1 << qubits), dtype=complex)
        held = np.ones(masks.size, dtype=bool)
        held[first] = False
        targets = list(rows)
        for r, i, done in zip(masks.reshape(-1).tolist(), index.reshape(-1).tolist(),
                              held.tolist()):
            masked_query_phase_randomness(oracle, rng, out=targets[i], r=r, held=done)
        return ProductBlock.indexed(rows, index.reshape(count, m))
    rows = np.empty((count * m, 1 << qubits), dtype=complex)
    for row in rows:
        if entangled:
            joint = masked_query_phase_entangled(oracle, rng)
            row[:] = (unmask_entangled(joint, n + w, rng) if unmask else joint).vec
        else:
            masked_query_phase_randomness(oracle, rng, out=row)
    return ProductBlock.indexed(rows, np.arange(count * m).reshape(count, m))


def _membership_view(mem: MemOracle, w: int, m: int, masked: bool):
    """Private membership view of the m-fold target: f, or f~ when w > 0;
    for still-masked copies, the masked g(r, z) = r·z xor target(z)."""
    view = ExampleMemView(mem) if w else mem
    return TensorMemView(MaskedMemView(view) if masked else view, m)


def _delivered(copies: Iterable[PureState], n: int, w: int) -> ProductBlock:
    """Certified copies as delivered: one block, H^w on a QMem copy's out."""
    if w:
        copies = (qsim.apply_hadamards(copy, range(n, n + w)) for copy in copies)
    return ProductBlock(np.stack([copy.vec for copy in copies]))


def acquire_unidirectional(
    oracle: QuantumChannelOracle,
    mem: MemOracle,
    m: int,
    eps: float,
    delta: float,
    rng,
    n_blocks: int = DEFAULT_BLOCKS,
    mode: str = RANDOMNESS,
) -> AcquisitionResult:
    """Covert verifiable states against unidirectional adversaries.

    N m masked queries assemble N blocks of m copies (either masking mode
    unmasks at query time here); non-i.i.d. certification against the
    m-fold tensor-power function gates the output block. A copy carries the
    oracle's n input qubits, with a QMem oracle's w out qubits on top. The
    certified phase block is delivered as it is: read-only, checked, classed.
    """
    if mode not in MODES:
        raise ValueError(f"bad mode {mode!r} for acquisition")
    n, w = oracle.f.n, oracle.out_width
    plan = unidirectional_schedule(n + w, m, eps, delta, n_blocks)
    pub0, pri0 = oracle.count, mem.count
    blocks = _collect_blocks(
        oracle, m, n_blocks, rng, entangled=mode == ENTANGLED, unmask=True
    )
    view = _membership_view(mem, w, m, masked=False)
    record, out = certify.certify_state_noniid(blocks, view, eps, delta, rng)
    if w and out is not None:
        out = _delivered(out, n, w)
    return AcquisitionResult(
        accepted=record.accepted, output=out, record=record,
        pub_queries=oracle.count - pub0, pri_queries=mem.count - pri0,
        blocks_used=plan.cert_blocks, paper_blocks=plan.paper_blocks,
    )


def acquire_ancilla_free(
    oracle: QuantumChannelOracle,
    mem: MemOracle,
    m: int,
    eps: float,
    delta: float,
    delta_leak: float,
    rng,
    n_blocks: Optional[int] = None,
) -> AcquisitionResult:
    """Covert verifiable states against i.i.d. ancilla-free adversaries.

    (N+1) m entangled masked queries with deferred unmasking; i.i.d.
    shadow-overlap certification of the N certification blocks against the
    masked target (2(n+w) qubits per copy) at `ancilla_free_accuracy`; on
    acceptance the output block is unmasked and delivered.
    """
    n, w = oracle.f.n, oracle.out_width
    plan = ancilla_free_schedule(n + w, m, eps, delta, delta_leak, n_blocks)
    n_cert = plan.cert_blocks
    pub0, pri0 = oracle.count, mem.count
    blocks = _collect_blocks(oracle, m, n_cert + 1, rng, entangled=True, unmask=False)
    view = _membership_view(mem, w, m, masked=True)
    record = certify.overlap_estimate_iid(
        blocks[:n_cert], view, plan.accuracy, delta, rng, rounds_override=n_cert
    )
    output = (_delivered((unmask_entangled(c, n + w, rng) for c in blocks[n_cert]), n, w)
              if record.accepted else None)
    return AcquisitionResult(
        accepted=record.accepted, output=output, record=record,
        pub_queries=oracle.count - pub0, pri_queries=mem.count - pri0,
        blocks_used=n_cert + 1, paper_blocks=plan.paper_blocks,
    )


# --- task rounds --------------------------------------------------------------


def amplification_rounds(delta: float, delta_a: float) -> int:
    """ell = ceil(2 ln(1/delta) / (1 - 4 delta_a)^2); needs delta_a < 1/4."""
    if not 0 < delta_a < 0.25:
        raise ValueError("the task confidence must satisfy delta_a < 1/4")
    return math.ceil(2.0 * math.log(1.0 / delta) / (1.0 - 4.0 * delta_a) ** 2)


@dataclass
class TaskOutcome:
    rejected: bool
    answer: Optional[object] = None
    rounds: int = 0


def majority_vote(votes: Sequence[int]):
    counts: dict = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    return max(counts, key=counts.get)


def task_rounds(
    task: Callable[[ProductBlock], object],
    rounds: int,
    acquire_round: Callable[[], AcquisitionResult],
) -> TaskOutcome:
    """Certify-then-run rounds: halt on the first rejected acquisition, else
    run the task on every certified output and take the majority vote."""
    if rounds < 1:
        raise ValueError(f"task_rounds needs rounds >= 1, got {rounds}")
    votes = []
    for j in range(rounds):
        res = acquire_round()
        if not res.accepted:
            return TaskOutcome(rejected=True, rounds=j + 1)
        votes.append(task(res.output))
        del res  # the round's copies are spent: free them before the next round
    return TaskOutcome(rejected=False, answer=majority_vote(votes), rounds=rounds)
