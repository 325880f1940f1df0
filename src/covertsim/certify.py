"""Phase-state certification via the shadow-overlap local test.

One round on an n_block-qubit copy: pick a uniform qubit i, Z-measure the
other n_block - 1 qubits (outcome y), X-measure qubit i (outcome bit b), make
the two membership queries f(y_0), f(y_1) at the strings with 0/1 inserted at
position i, and score 1 iff b equals f(y_0) xor f(y_1). On the exact phase
state the residual qubit is |+> or |-> according to that xor, so the round
scores 1 with certainty; E[score] = tr[L rho] for L the average of the
per-round check projectors.

Blocks are products of copies (cross-block entanglement never arises for the
implemented adversaries), so measuring certification blocks leaves the
output block untouched. Every block has one form: it reads its m pure
copies from a read-only (k, 2^q) table of amplitude rows through a (count,
m) index, copy j of block b being the row index[b, j]
(`ProductBlock.indexed`; a public `ProductBlock(amps)` is the one-block
case, index row 0, ..., m - 1). The blocks of one acquisition share one
table, whose rows are norm-checked once and given value classes, rows of
one class comparing equal. A round X-tests one copy and Z-collapses the
other m - 1 together, drawing the same uniforms, in the same order, as
collapsing the copies one at a time: copies of copy 0's class share its
cumulative |amp|^2 sum and one searchsorted, and only the other copies are
summed one by one.

The X-tested copy's round table (its pair weights |a0|^2 + |a1|^2, their
cumulative sum and the plus masses |a0 + a1|^2 / 2) is memoised per table
in an `adversary.BoundedMemo`, keyed by the copy's row class and its local
qubit and costing the table's bytes: the blocks of one table share one
memo, and the memo goes with the blocks. Past the memo's bound a table is
built, used once and not kept. A round draws from a kept table
exactly as from a fresh one (`_round_on_copy`, the unmemoised form): the
same uniforms in the same order, and the same outcome.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boolfunc import BooleanFunction, MAX_TABLE_ARITY, eval_all
from . import adversary, qsim
from .gf2 import join_digits
from .qsim import PureState

SHADOW_OVERLAP_CONSTANT = 2  # C_so in the i.i.d. copy-count formulas


def overlap_threshold(eps: float, n_block: int) -> float:
    """Accept iff the estimate is at least 1 - 3 eps / (4 n_block)."""
    return 1.0 - 3.0 * eps / (4.0 * n_block)


def iid_copy_count(n_block: int, eps: float, delta: float) -> int:
    """Non-adaptive single-qubit-Pauli copy formula (quadratic in n_block)."""
    return math.ceil(
        SHADOW_OVERLAP_CONSTANT * n_block**2 * math.log(2.0 / delta) / eps**2
    )


def adaptive_copy_count(n_block: int, eps: float, delta: float) -> int:
    """Linear-in-n copy formula, attached for reporting and for the
    ancilla-free acquisition schedule."""
    return math.ceil(
        SHADOW_OVERLAP_CONSTANT * n_block * math.log(2.0 / delta) / eps
    )


class ProductBlock:
    """A certification block: m independent pure q-qubit copies forming one
    (m q)-qubit register, copy 0 in the low qubits: the sequence of its m
    copies, `block[j]` being copy j as a state.

    The block reads its copies from `rows`, a read-only (k, 2^q) amplitude
    table, through `index`, its read-only m table rows: copy j is
    rows[index[j]]. `row_classes` gives each copy the value class of its
    table row (copies of one class compare equal), and `round_tables` is
    the memo of its overlap rounds' tables; the blocks of one table share
    both the table and the memo. `amps` is the (m, 2^q) copy amplitudes, a
    fresh read-only gather."""

    __slots__ = ("rows", "index", "m", "qubits_per_copy", "round_tables", "row_classes")

    def __init__(self, amps: np.ndarray):
        """The one block of the (m, 2^q) copy amplitudes `amps`, copy j
        being amps[j]: `indexed` with the one index row 0, ..., m - 1,
        checked, classed and frozen as it is."""
        index, classes = _frozen_table(amps, np.arange(len(amps)).reshape(1, -1))
        self._hold(amps, index[0], adversary.BoundedMemo(), classes[0])

    def _hold(self, rows: np.ndarray, index: np.ndarray,
              round_tables: adversary.BoundedMemo, row_classes: np.ndarray) -> None:
        self.rows = rows
        self.index = index
        self.m = len(index)
        self.qubits_per_copy = rows.shape[1].bit_length() - 1
        self.round_tables = round_tables
        self.row_classes = row_classes

    @classmethod
    def indexed(cls, rows: np.ndarray, index: np.ndarray) -> list["ProductBlock"]:
        """The blocks of a (count, m) `index` into a (k, 2^q) table of
        `rows`: copy i of block j is rows[index[j, i]]. Every table row is
        norm-checked in one pass and given a value class (`_row_classes`);
        only then are the table and a copy of the index made read-only. The
        blocks share the table and one round-table memo.

        Refused with a ValueError before anything is frozen: rows not of
        shape (k, 2^q) with k >= 1, an index that is not an int array
        (bools included) or not of shape (count, m) with m >= 1, and an
        index entry outside [0, k)."""
        index, classes = _frozen_table(rows, index)
        round_tables = adversary.BoundedMemo()
        blocks = [object.__new__(cls) for _ in range(len(index))]
        for block, copies, copy_classes in zip(blocks, index, classes):
            block._hold(rows, copies, round_tables, copy_classes)
        return blocks

    @property
    def amps(self) -> np.ndarray:
        """The (m, 2^q) copy amplitudes, gathered afresh from the table and
        read-only."""
        amps = self.rows[self.index]
        amps.flags.writeable = False
        return amps

    @property
    def n_block(self) -> int:
        return self.m * self.qubits_per_copy

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, j: int) -> PureState:
        """Copy j as a state over its read-only table row, unchecked: the
        block checked every row's norm when it was built."""
        return qsim._trusted(self.qubits_per_copy, self.rows[self.index.item(j)])


def _frozen_table(rows, index) -> tuple[np.ndarray, np.ndarray]:
    """A read-only copy of the (count, m) `index` into the (k, 2^q) `rows`
    and the value class of every copy it names, from one gather. The shapes
    and entries are checked, and the rows norm-checked and classed, before
    the rows and the copy are made read-only."""
    if (not isinstance(rows, np.ndarray) or rows.ndim != 2 or not len(rows)
            or rows.shape[1] & (rows.shape[1] - 1) or not rows.shape[1]):
        raise ValueError("block rows need shape (k, 2^q), k >= 1, got "
                         f"{getattr(rows, 'shape', type(rows).__name__)}")
    if not isinstance(index, np.ndarray) or index.dtype.kind not in "iu":
        raise ValueError("block index needs an int array, not "
                         f"{getattr(index, 'dtype', type(index).__name__)}")
    if index.ndim != 2 or not index.shape[1]:
        raise ValueError(f"block index needs shape (count, m), m >= 1, got {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= len(rows)):
        raise ValueError(f"block index entry outside [0, {len(rows)})")
    classes = _row_classes(rows)
    index = index.astype(np.intp)  # a copy the caller cannot change
    rows.flags.writeable = index.flags.writeable = False
    return index, classes[index]


def _print_weights(width: int) -> np.ndarray:
    """The fixed weights of a row print: sin(1), ..., sin(width)."""
    return np.sin(np.arange(1.0, width + 1.0))


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """The value class of each of the (k, 2^q) `rows`, after a norm check of
    all of them: rows that compare equal share a class, numbered in order
    of first appearance (row 0's is 0).

    A table whose rows all equal row 0 is one class after one vectorised
    ==. Otherwise the rows are grouped by their print, the dot product of
    their float parts with `_print_weights`, summed in one order for every
    row, so equal rows share it (a signed zero adds nothing), and each row
    is compared with its group's first row, 64 rows at a time. Should two
    unequal rows share a print, every row is classed by its bytes after
    + 0.0 (a signed zero becomes +0), exactly == on the finite rows the
    check lets through. A dict finds the groups, not a sort: the first
    numpy sort of a run pages in its code and raises the run's peak RSS."""
    qsim.check_rows_normalized(rows)
    parts = np.ascontiguousarray(rows, dtype=complex).view(np.float64)
    if (parts == parts[:1]).all():
        return np.zeros(len(rows), dtype=np.intp)
    prints = np.einsum("ij,j->i", parts, _print_weights(parts.shape[1])).tolist()
    by_print: dict[float, int] = {}  # print -> first row with it
    first = np.array([by_print.setdefault(p, i) for i, p in enumerate(prints)])
    for lo in range(0, len(rows), 64):  # a gather of 64 rows at a time, not of all
        if not (parts[lo:lo + 64] == parts[first[lo:lo + 64]]).all():
            by_value: dict[bytes, int] = {}
            return np.array([by_value.setdefault((row + 0.0).tobytes(), len(by_value))
                             for row in rows], dtype=np.intp)
    group_class = np.empty(len(rows), dtype=np.intp)
    group_class[list(by_print.values())] = np.arange(len(by_print))
    return group_class[first]


@dataclass
class OverlapRound:
    qubit: int
    rest_bits: int  # Z outcomes of the other qubits, compact (position i removed)
    x_bit: int
    f0: int
    f1: int

    @property
    def score(self) -> int:
        return int(self.x_bit == (self.f0 ^ self.f1))


@dataclass
class CertificationRecord:
    block_qubits: int
    rounds_used: int
    omega_hat: float
    threshold: float
    accepted: bool
    membership_queries: int
    used_coverage_path: Optional[bool] = None


def _halves(v: np.ndarray, local: int) -> tuple[np.ndarray, np.ndarray]:
    """v at the indices with bit `local` clear, then at those with it set."""
    pairs = v.reshape(-1, 2, 1 << local)  # bit `local` on axis 1
    return pairs[:, 0].reshape(-1), pairs[:, 1].reshape(-1)


class _RoundTable:
    """A copy's round table for X-tested qubit `local`: the pair weights of
    its amplitude halves (bit `local` clear and set), their cumulative sum
    and the plus masses."""

    __slots__ = ("p_pair", "cum", "plus")

    def __init__(self, vec: np.ndarray, local: int):
        a0, a1 = _halves(vec, local)
        self.p_pair = np.clip(np.abs(a0) ** 2 + np.abs(a1) ** 2, 0.0, None)
        self.plus = np.abs(a0 + a1) ** 2 / 2.0
        self.cum = np.cumsum(self.p_pair)

    def draw(self, rng) -> tuple[int, int]:
        """Z outcome j of the other qubits by `qsim.sample_index`'s rule,
        then the X outcome bit from one more uniform."""
        j = qsim._draw_cumulative(self.cum, rng)
        weight = self.p_pair.item(j)  # Python floats divide as numpy scalars do
        p_plus = self.plus.item(j) / weight if weight > 0 else 0.5
        return j, int(rng.random() >= min(1.0, p_plus))

    @property
    def nbytes(self) -> int:
        return self.p_pair.nbytes + self.cum.nbytes + self.plus.nbytes


def _round_on_copy(copy: PureState, local: int, rng) -> tuple[int, int]:
    """Z-measure all qubits but `local`, then X-measure `local`, from a
    fresh round table.

    Returns (compact rest bits, x outcome bit). The compact index keeps the
    remaining bits in order with position `local` removed.
    """
    return _RoundTable(copy.vec, local).draw(rng)


def _insert_bit(compact: int, pos: int, bit: int) -> int:
    low = compact & ((1 << pos) - 1)
    high = compact >> pos
    return low | (bit << pos) | (high << (pos + 1))


def overlap_round(
    block: ProductBlock, mem_view, rng, qubit: Optional[int] = None
) -> OverlapRound:
    """One shadow-overlap round on a block; exactly two membership queries.

    Copy c holding qubit i takes the X test; the others are Z-collapsed in
    one pass, each by `qsim.sample_index`'s rule (the first index whose
    cumulative weight exceeds u times the total) on a uniform u drawn in
    copy order: those of copies 0..c-1, then copy c's two, then the rest.
    Copy c's table comes from the block's `round_tables`, keyed by its row
    class and local qubit (rows of one class compare equal, so their tables
    are bit-equal). A given `qubit` must be an int (not a bool) in
    [0, m q); it is checked before any draw.
    """
    m, q = block.m, block.qubits_per_copy
    if qubit is None:
        i = int(rng.integers(m * q))
    elif (isinstance(qubit, (int, np.integer)) and not isinstance(qubit, bool)
          and 0 <= qubit < m * q):
        i = int(qubit)
    else:
        raise ValueError(f"qubit {qubit!r} is not an int in [0, {m * q})")
    c, local = divmod(i, q)
    u_low = rng.random(c) if c else ()  # an empty draw leaves the stream as it is
    rows, index, classes = block.rows, block.index, block.row_classes
    key = (classes.item(c), local)
    table = block.round_tables.memo.get(key)
    if table is None:
        table = _RoundTable(rows[index.item(c)], local)
        block.round_tables.keep(key, table, table.nbytes)
    compact, x_bit = table.draw(rng)
    rest = compact << (c * q)
    if m > 1:
        u = np.concatenate((u_low, [0.0], rng.random(m - 1 - c)))
        outcomes = np.minimum(_z_collapse(rows, u, index, classes), (1 << q) - 1)
        # copy c keeps q - 1 of its bits (qubit i is X-measured)
        rest |= (join_digits(outcomes[:c], q)
                 | join_digits(outcomes[c + 1:], q) << (c * q + q - 1))
    y0 = _insert_bit(rest, i, 0)
    y1 = _insert_bit(rest, i, 1)
    f0 = mem_view.query(y0)
    f1 = mem_view.query(y1)
    return OverlapRound(qubit=i, rest_bits=rest, x_bit=x_bit, f0=f0, f1=f1)


def _z_collapse(rows: np.ndarray, u: np.ndarray, index: np.ndarray,
                classes: np.ndarray) -> np.ndarray:
    """Per copy j of a block, the number of cumulative |amp|^2 weights at
    most u[j] times the copy's total. The copies are rows[index], with
    their value `classes`. A copy of copy 0's class compares equal to it
    (so a signed zero matches either sign), so it has bit-equal weights,
    and a cumulative sum of nonnegative terms never decreases: its count is
    a right searchsorted in copy 0's sum."""
    cum0 = np.abs(rows[index.item(0)])
    np.cumsum(np.square(cum0, out=cum0), out=cum0)
    hits = cum0.searchsorted(u * cum0[-1], side="right")
    other = np.flatnonzero(classes != classes[0])
    if len(other):
        cum = np.abs(rows[index[other]])
        np.cumsum(np.square(cum, out=cum), axis=1, out=cum)
        hits[other] = (cum <= (u[other] * cum[:, -1])[:, None]).sum(axis=1)
    return hits


def overlap_scores_iid_fast(
    copy: PureState, f_block: BooleanFunction, rounds: int, rng
) -> np.ndarray:
    """Vectorized rounds on i.i.d. pure copies of one single-copy block.

    Distributionally identical to per-round overlap_round calls; membership
    answers come from the tabulated f_block (the caller charges the
    membership counter for 2 * rounds view-level queries).
    """
    n = copy.n
    if n > MAX_TABLE_ARITY:
        raise ValueError("fast path needs a tabulable block function")
    if f_block.n != n:
        raise ValueError("block function arity mismatch")
    table = eval_all(f_block)
    i_draws = rng.integers(0, n, size=rounds)
    scores = np.empty(rounds, dtype=np.int64)
    for i in range(n):
        sel = np.flatnonzero(i_draws == i)
        if len(sel) == 0:
            continue
        round_table = _RoundTable(copy.vec, i)
        p_pair = round_table.p_pair
        p_plus = round_table.plus / np.where(p_pair > 0, p_pair, 1.0)
        js = rng.choice(len(p_pair), size=len(sel), p=p_pair / p_pair.sum())
        x_bits = (rng.random(len(sel)) >= np.minimum(1.0, p_plus[js])).astype(int)
        t0, t1 = _halves(table, i)
        fx = (t0[js] ^ t1[js]).astype(int)
        scores[sel] = (x_bits == fx).astype(int)
    return scores


def _record(scores, n_block: int, eps: float, mem_used: int,
            covered: Optional[bool] = None) -> CertificationRecord:
    """The record of an estimate from the round `scores`: their mean
    against the accept threshold."""
    omega = float(np.mean(scores))
    thr = overlap_threshold(eps, n_block)
    return CertificationRecord(
        block_qubits=n_block, rounds_used=len(scores), omega_hat=omega,
        threshold=thr, accepted=omega >= thr, membership_queries=mem_used,
        used_coverage_path=covered,
    )


def overlap_estimate_iid(
    blocks: Sequence[ProductBlock],
    mem_view,
    eps: float,
    delta: float,
    rng,
    rounds_override: Optional[int] = None,
) -> CertificationRecord:
    """i.i.d. estimator: one round per block, mean score against the
    accept threshold. Requires at least the formula copy count unless a
    rounds override is given."""
    if not blocks:
        raise ValueError("the estimator needs at least one block")
    n_block = blocks[0].n_block
    needed = (
        iid_copy_count(n_block, eps, delta) if rounds_override is None
        else rounds_override
    )
    if needed < 1:
        raise ValueError("the estimator needs at least one round")
    if len(blocks) < needed:
        raise ValueError(f"insufficient copies: {len(blocks)} < {needed}")
    scores = [overlap_round(blocks[j], mem_view, rng).score for j in range(needed)]
    return _record(scores, n_block, eps, 2 * needed)


def overlap_estimate_iid_state(
    copy: PureState,
    f_block: BooleanFunction,
    eps: float,
    delta: float,
    rng,
    rounds_override: Optional[int] = None,
) -> CertificationRecord:
    """Fast-path i.i.d. estimator for many copies of one pure single-copy
    block."""
    rounds = (
        iid_copy_count(copy.n, eps, delta) if rounds_override is None
        else rounds_override
    )
    if rounds < 1:
        raise ValueError("the estimator needs at least one round")
    scores = overlap_scores_iid_fast(copy, f_block, rounds, rng)
    return _record(scores, copy.n, eps, 2 * rounds)


def certify_state_noniid(
    blocks: Sequence[ProductBlock],
    mem_view,
    eps: float,
    delta: float,
    rng,
    cal_rounds: Optional[int] = None,
) -> tuple[CertificationRecord, Optional[ProductBlock]]:
    """Non-i.i.d. certification: permute, measure the first N-1 blocks,
    threshold, and emit the untouched last block itself on acceptance.

    The i.i.d.-to-non-i.i.d. lift plans `cal_rounds` measurement settings,
    assigns each measured block a setting index drawn with replacement, and
    estimates from one representative block per setting; when the draws do
    not cover every setting, it falls back to a uniform re-draw: `cal_rounds`
    blocks chosen uniformly from the measured range, fresh uniform settings.
    The default cal_rounds = N - 1 realizes the estimator on every available
    block (desk-scale override of the paper-formula schedule); a larger
    `cal_rounds` is clamped down to N - 1, and one below 1 is refused.
    """
    n = len(blocks)
    if n < 2:
        raise ValueError("need at least two blocks")
    if cal_rounds is not None and cal_rounds < 1:
        raise ValueError(f"cal_rounds must be at least 1, got {cal_rounds}")
    n_block = blocks[0].n_block
    perm = [int(v) for v in rng.permutation(n)]
    measured_ids = perm[: n - 1]
    output_block = blocks[perm[n - 1]]
    k_cal = n - 1 if cal_rounds is None else min(cal_rounds, n - 1)
    settings = [int(rng.integers(n_block)) for _ in range(k_cal)]
    assignment = [int(rng.integers(k_cal)) for _ in range(n - 1)]
    covered = len(set(assignment)) == k_cal
    mem_used = 0
    if covered:
        scores_by_block = {}
        for j, bid in enumerate(measured_ids):
            rnd = overlap_round(blocks[bid], mem_view, rng, qubit=settings[assignment[j]])
            mem_used += 2
            scores_by_block[j] = rnd.score
        scores = []
        for s_idx in range(k_cal):
            holders = [j for j in range(n - 1) if assignment[j] == s_idx]
            pick = holders[int(rng.integers(len(holders)))]
            scores.append(scores_by_block[pick])
    else:
        chosen = rng.choice(n - 1, size=k_cal, replace=False)
        scores = []
        for j in chosen:
            rnd = overlap_round(blocks[measured_ids[int(j)]], mem_view, rng)
            mem_used += 2
            scores.append(rnd.score)
    record = _record(scores, n_block, eps, mem_used, covered)
    return record, (output_block if record.accepted else None)
