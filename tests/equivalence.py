"""Every fast path beside the literal reference forms it must match.

A `Pair` names a fast path, a tuple of its reference forms, the seeded case
groups it is compared on, and a kind of equivalence:

- `Bytes`: equal outputs, arrays byte for byte (so a zero's sign counts
  unless `zero_sign=False`), scalars of one type and value;
- `Stream`: `Bytes`, and each side's generator ends in one state. The
  case's argument at `at` is the source (a seed, a generator state or a
  factory of stand-in generators); each side gets a fresh generator from it
  there;
- `Within`: each real and imaginary part within a tolerance the case
  states (`Bytes` where it states none);
- `Phase`: states equal up to global phase within `tol`;
- `Law`: samples of `draws` from each side pass a two-sample chi-square
  test at `alpha`, drawn from one generator, reference first.

A case is the fast path's argument tuple; a `Sides` argument gives the fast
path and the reference forms each their own object. Both sides refusing a
case with one ValueError or RuntimeError (type and message) counts as equal.
A case group is a generator of cases; at each yield it is sent the fast
path's output, so it can check what the fast path left behind. A test runs
a pair under its own name: through `bound`, one id per group, or by
`PAIRS[name].check()` in its body.

A new fast path is one `Pair` below: its reference form goes into
reference.py, its cases into a generator here.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import reference as ref
from covertsim import boolfunc as bf
from covertsim import acquire, adversary, certify, covertsq, experiments, oracles, qsim, tasks

# --- helpers ----------------------------------------------------------------


def assert_same_bytes(a, b, zero_sign: bool = True) -> None:
    """Same dtype, shape and bytes; with zero_sign=False, equal values
    (a zero's sign then does not count)."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), ((a.dtype, a.shape), (b.dtype, b.shape))
    if zero_sign:
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    else:
        assert np.array_equal(a, b)


def assert_same_stream(a, b) -> None:
    """The two generators drew the same: equal bit-generator states, or, for
    stand-ins, equal `drawn` counts."""
    if hasattr(a, "bit_generator"):
        assert a.bit_generator.state == b.bit_generator.state
    else:
        assert a.drawn == b.drawn


def assert_same_law(a, b, alpha: float) -> None:
    """Two samples of discrete values keep one law: a chi-square test of
    their value counts (a 2 x k contingency table) gives p >= alpha."""
    values, codes = np.unique(np.concatenate([a, b]), return_inverse=True)
    if len(values) == 1:
        return
    counts = np.stack([np.bincount(codes[:len(a)], minlength=len(values)),
                       np.bincount(codes[len(a):], minlength=len(values))])
    p = stats.chi2_contingency(counts, correction=False).pvalue
    assert p >= alpha, (p, counts)


def assert_same(got, want, zero_sign: bool = True) -> None:
    """Equal structure, scalars of one type and value (floats by their
    bytes), arrays by `assert_same_bytes`; a PureState is its amplitudes."""
    got, want = (x.vec if isinstance(x, qsim.PureState) else x for x in (got, want))
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        assert_same_bytes(got, want, zero_sign)
    elif isinstance(got, (tuple, list)):
        assert isinstance(want, (tuple, list)) and len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_same(g, w, zero_sign)
    elif dataclasses.is_dataclass(got):
        assert type(got) is type(want), (got, want)
        for field in dataclasses.fields(got):
            assert_same(getattr(got, field.name), getattr(want, field.name), zero_sign)
    else:
        assert type(got) is type(want), (got, want)
        if isinstance(got, float):
            assert_same_bytes(got, want, zero_sign)
        else:
            assert got == want


@dataclass(frozen=True)
class Refused:
    """A case the function refused, by a ValueError or a RuntimeError."""

    error: str
    message: str


@dataclass(frozen=True)
class Sides:
    """An argument given per side: `fast` to the fast path, `reference` to
    each reference form."""

    fast: Any
    reference: Any


def _run(fn: Callable, args: tuple, side: str):
    try:
        return fn(*(getattr(a, side) if isinstance(a, Sides) else a for a in args))
    except (ValueError, RuntimeError) as e:
        return Refused(type(e).__name__, str(e))


# --- kinds ------------------------------------------------------------------


@dataclass(frozen=True)
class Bytes:
    zero_sign: bool = True

    def compare(self, pair: "Pair", args: tuple):
        got = _run(pair.fast, args, "fast")
        for reference in pair.reference:
            assert_same(got, _run(reference, args, "reference"), self.zero_sign)
        return got


def _generator(source):
    """A fresh generator from a case's source: a factory, a bit-generator
    state, or a seed."""
    if callable(source):
        return source()
    if isinstance(source, dict):
        rng = np.random.default_rng()
        rng.bit_generator.state = source
        return rng
    return np.random.default_rng(source)


@dataclass(frozen=True)
class Stream(Bytes):
    at: int = -1

    def compare(self, pair: "Pair", args: tuple):
        def side(fn, name):
            rng, given = _generator(args[self.at]), list(args)
            given[self.at] = rng
            return _run(fn, given, name), rng

        got, rng = side(pair.fast, "fast")
        for reference in pair.reference:
            want, ref_rng = side(reference, "reference")
            assert_same(got, want, self.zero_sign)
            assert_same_stream(rng, ref_rng)
        return got


@dataclass(frozen=True)
class Within:
    """Each real and imaginary part within `tol(*args)` of the reference's,
    or the same bytes where that is None."""

    tol: Callable

    def compare(self, pair: "Pair", args: tuple):
        got, tol = pair.fast(*args), self.tol(*args)
        for reference in pair.reference:
            want = reference(*args)
            if tol is None:
                assert_same(got, want)
                continue
            g, w = np.asarray(getattr(got, "vec", got)), np.asarray(want)
            assert (np.abs(g.real - w.real) <= tol).all(), (got, want)
            assert (np.abs(g.imag - w.imag) <= tol).all(), (got, want)
        return got


@dataclass(frozen=True)
class Phase:
    """Tuples of states equal up to global phase within tol."""

    tol: float

    def compare(self, pair: "Pair", args: tuple):
        got = _run(pair.fast, args, "fast")
        for reference in pair.reference:
            want = _run(reference, args, "reference")
            if isinstance(got, Refused) or isinstance(want, Refused):
                assert got == want
                continue
            assert all(qsim.states_equal(g, w, self.tol) for g, w in zip(got, want))
        return got


@dataclass(frozen=True)
class Law:
    """`draws` samples from each side, the reference first, off one
    generator from the case's last element, keep one law at alpha."""

    alpha: float
    draws: int

    def compare(self, pair: "Pair", args: tuple):
        *args, source = args
        rng = _generator(source)
        want = [reference(*args, self.draws, rng) for reference in pair.reference]
        got = pair.fast(*args, self.draws, rng)
        for w in want:
            assert_same_law(got, w, self.alpha)
        return got


BYTES, STREAM = Bytes(), Stream()
VALUES = Bytes(zero_sign=False)  # where a zero may come out with either sign


# --- pairs ------------------------------------------------------------------

CaseGroups = Mapping[str, Callable[[], Iterator[tuple]]]


@dataclass(frozen=True)
class Pair:
    name: str
    fast: Callable
    reference: tuple  # the reference forms; the fast path equals each
    cases: CaseGroups
    kind: Any = BYTES

    def compare(self, *args):
        """One case: the fast path against every reference form; returns
        the fast path's output."""
        return self.kind.compare(self, args)

    def check(self, group: str = "") -> None:
        """Every case of one group; at least one case is one both sides
        answered, so a group is never passed by refusals alone."""
        cases, answered = self.cases[group](), False
        try:
            args = next(cases)
            while True:
                got = self.compare(*args)
                answered |= not isinstance(got, Refused)
                args = cases.send(got)
        except StopIteration:
            pass
        assert answered, f"{self.name}[{group}] compared no answered case"


def groups(each: Callable[..., Iterator[tuple]], params) -> CaseGroups:
    """One case group per parameter tuple, with pytest's id for it."""
    return {"-".join(map(str, p)): functools.partial(each, *p) for p in params}


def single(each: Callable[[], Iterator[tuple]]) -> CaseGroups:
    """The one case group of a test that takes no parameters."""
    return {"": each}


def bound(*names: str):
    """The test, one id per case group, that runs the named pairs (whose
    case groups share their ids)."""
    def run(case):
        for name in names:
            PAIRS[name].check(case)

    ids = list(PAIRS[names[0]].cases)
    if ids == [""]:
        def test():
            run("")
        return test

    @pytest.mark.parametrize("case", ids)
    def test(case):
        run(case)
    return test


# --- case builders ----------------------------------------------------------


def random_state(n: int, seed: int, sparse: bool = False) -> qsim.PureState:
    """A random n-qubit state; a sparse one has about half its amplitudes,
    and some real or imaginary parts, exactly zero."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if sparse:
        vec[rng.random(1 << n) < 0.5] = 0.0
        vec.real[rng.random(1 << n) < 0.3] = 0.0
        vec.imag[rng.random(1 << n) < 0.3] = 0.0
        if not vec.any():
            vec[0] = 1.0
    return qsim.PureState(n, vec / np.linalg.norm(vec))


def random_pure(n: int, rng) -> qsim.PureState:
    """A random n-qubit state drawn from `rng`."""
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qsim.PureState(n, v / np.linalg.norm(v))


def sparse_pure(n: int, rng) -> np.ndarray:
    """Amplitudes of a random state with about half of them exactly zero."""
    v = random_pure(n, rng).vec
    v[rng.permutation(1 << n)[: 1 << (n - 1)]] = 0
    return v / np.linalg.norm(v)


def block_of(copies) -> certify.ProductBlock:
    """The copies as one block, as an acquisition delivers them."""
    return certify.ProductBlock(np.stack([copy.vec for copy in copies]))


# --- qsim kernels -----------------------------------------------------------

# (n, seed, sparse): two dense and two sparse states for each n = 1..9
STATE_CASES = [(n, 10 * n + k, k >= 2) for n in range(1, 10) for k in range(4)]

# single-qubit gates whose kernel output equals the reference exactly
EXACT_1Q = {
    **qsim.GATES_1Q,
    "V_X": qsim.BASIS_V["X"],
    "V_Y": qsim.BASIS_V["Y"],
    "V_X_dagger": qsim.BASIS_V_DAGGER["X"],
}
Y_DAGGER = qsim.BASIS_V_DAGGER["Y"]


def qubit_sets(n: int, rng) -> list[list[int]]:
    """Each single qubit, the whole register in and against order, and a
    few random subsets in random order."""
    sets = [[q] for q in range(n)] + [list(range(n)), list(range(n))[::-1]]
    for _ in range(4):
        sets.append([int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]])
    return sets


def measured_states(n: int) -> dict[str, qsim.PureState]:
    """A random state, a sparse one (exact zeros) and a real one."""
    rng = np.random.default_rng(700 + n)
    real = rng.normal(size=1 << n)
    real[rng.random(1 << n) < 0.3] = 0.0
    real[0] = 1.0
    return {"random": random_state(n, 600 + n, False),
            "sparse": random_state(n, 650 + n, True),
            "real": qsim.PureState(n, (real / np.linalg.norm(real)).astype(complex))}


def measured_registers(n: int) -> list[list[int]]:
    """Every single qubit, every top-k register and one non-contiguous pair."""
    return ([[q] for q in range(n)] + [list(range(n - k, n)) for k in range(2, n + 1)]
            + ([[0, 2]] if n >= 3 else []))


def _one_qubit_gates(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for u in EXACT_1Q.values():
        for q in range(n):
            yield psi, u, [q]


def _y_dagger(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for q in range(n):
        yield psi, Y_DAGGER, [q]


def kernel_ulps(psi, u, qubits):
    """Exact from qubit 2 up (None). On qubits 0 and 1 the last bit may
    differ: within 2 ulp of each output's term scale |u| (|Re| + |Im|), the
    bound that fits a two-term sum whose terms may cancel."""
    q, = qubits
    if q >= 2:
        return None
    mags = np.abs(psi.vec.real) + np.abs(psi.vec.imag)
    scale = np.matmul(np.abs(u), mags.reshape(1 << (psi.n - 1 - q), 2, 1 << q)).reshape(-1)
    return 2 * np.spacing(scale)


def _two_qubit_gates(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for name, u in qsim.GATES_2Q.items():
        for a in range(n):
            for b in range(n):
                if a != b:
                    yield psi, Sides(name, u), [a, b]


def _marginals(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for qubits in qubit_sets(n, np.random.default_rng(seed)):
        yield psi, qubits


def _projections(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    for qubits in qubit_sets(n, rng):
        top = (1 << len(qubits)) - 1
        for outcome in {0, 1, int(rng.integers(top + 1)), top}:
            yield psi, qubits, outcome


def _measurements(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for basis in qsim.BASIS_V:
        for k, qubits in enumerate(qubit_sets(n, np.random.default_rng(seed))):
            yield psi, qubits, basis, k


def _registers(n, basis):
    for psi in measured_states(n).values():
        for qubits in measured_registers(n):
            for seed in range(3):
                yield psi, qubits, basis, seed


def _table_posts(n, basis):
    # every outcome of one table; a post-state is built once and read-only
    for psi in measured_states(n).values():
        for qubits in measured_registers(n):
            table = qsim.MeasurementTable(psi, qubits, basis)
            for outcome in range(1 << len(qubits)):
                got = yield Sides(table, psi), qubits, basis, outcome
                if not isinstance(got, Refused):
                    post = got[1]
                    assert table.post(outcome) is post and not post.vec.flags.writeable
            assert table.max_nbytes == psi.vec.nbytes * (1 + len(table.cum)) + table.cum.nbytes


def _weights(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for k, w in enumerate([np.abs(psi.vec) ** 2, np.ones(1 << n),
                           np.concatenate((np.abs(psi.vec[:-1]) ** 2, [0.0])),
                           np.concatenate(([1.0], np.zeros((1 << n) - 1)))]):
        yield w, k


def _diagonals(part):
    def each(n, seed, sparse):
        rng = np.random.default_rng(seed)
        psi = random_state(n, seed, sparse)
        for qubits in qubit_sets(n, rng):
            masks = {1, int(rng.integers(1, 1 << len(qubits))), (1 << len(qubits)) - 1}
            if part == "z":
                yield from ((psi, r, qubits) for r in masks)
            f = bf.truth_table(rng.integers(0, 2, size=1 << len(qubits)).tolist())
            if part == "phase":
                yield psi, f, qubits
    return each


def _round_tables(n, seed, sparse):
    # one block per state, so each local qubit's table is kept after its
    # first round and every later round draws from the kept table
    psi = random_state(n, seed, sparse)
    copy = Sides(block_of([psi]), psi)
    for local in range(n):
        for k in range(5):
            yield copy, local, k


def memoised_round(block, local, rng):
    """The X-tested copy's draws in `certify.overlap_round` on a one-copy
    block, from the block's memoised round table."""
    rnd = certify.overlap_round(block, LowBitView(), rng, local)
    return rnd.rest_bits, rnd.x_bit


QSIM_PAIRS = [
    Pair("qsim.apply_unitary", qsim.apply_unitary, (ref.apply_unitary_moveaxis,),
         groups(_one_qubit_gates, STATE_CASES), VALUES),
    Pair("qsim.apply_unitary:Y-dagger", qsim.apply_unitary, (ref.apply_unitary_moveaxis,),
         groups(_y_dagger, STATE_CASES), Within(kernel_ulps)),
    Pair("qsim.apply_gate", qsim.apply_gate, (ref.apply_unitary_moveaxis,),
         groups(_two_qubit_gates, [c for c in STATE_CASES if c[0] >= 2]), VALUES),
    Pair("qsim._marginal_probs", qsim._marginal_probs, (ref.marginal_probs_moveaxis,),
         groups(_marginals, STATE_CASES)),
    Pair("qsim._project_z", qsim._project_z, (ref.project_z_sliced,),
         groups(_projections, STATE_CASES)),
    Pair("qsim.measure_qubits", qsim.measure_qubits, (ref.measure_qubits_moveaxis,),
         groups(_measurements, STATE_CASES), STREAM),
    Pair("qsim.measure_qubits:registers", qsim.measure_qubits,
         (ref.measure_qubits_rotate_project, ref.measure_qubits_moveaxis),
         groups(_registers, [(n, b) for b in "XYZ" for n in range(1, 9)]), STREAM),
    Pair("qsim.MeasurementTable.post",
         lambda table, qubits, basis, outcome: (table.cum, table.post(outcome)),
         (ref.measurement_table_moveaxis,),
         groups(_table_posts, [(n, b) for b in "XYZ" for n in range(1, 7)])),
    Pair("qsim.sample_index", lambda w, rng: [qsim.sample_index(w, rng) for _ in range(50)],
         (lambda w, rng: [ref.sample_index_clipped(w, rng) for _ in range(50)],),
         groups(_weights, STATE_CASES), STREAM),
    Pair("qsim.apply_z_mask", qsim.apply_z_mask, (ref.apply_z_mask_float,),
         groups(_diagonals("z"), STATE_CASES)),
    Pair("qsim.apply_phase_oracle", qsim.apply_phase_oracle, (ref.apply_phase_oracle_float,),
         groups(_diagonals("phase"), STATE_CASES)),
    Pair("certify._RoundTable.draw", memoised_round,
         (ref.round_on_copy, ref.round_on_copy_indexed), groups(_round_tables, STATE_CASES),
         STREAM),
]


# --- certification rounds ---------------------------------------------------
#
# An overlap-round case is overlap_round's (block, view, source, qubit).

ROUND = Stream(at=2)


def views(f, m=None) -> Sides:
    """A membership view of f for each side: a MemOracle, or a
    TensorMemView of m copies of one."""
    def view():
        return oracles.MemOracle(f) if m is None else oracles.TensorMemView(
            oracles.MemOracle(f), m=m)
    return Sides(view(), view())


def collapse_rows(kind, m, q, rng):
    """(m, 2^q) block amplitudes of one kind of row pattern."""
    if kind == "all-equal":
        return np.tile(random_pure(q, rng).vec, (m, 1))
    if kind == "all-distinct":
        return np.stack([random_pure(q, rng).vec for _ in range(m)])
    if kind == "few-distinct":
        # three states; row 0's state is shared by other rows or by none
        states = [random_pure(q, rng).vec for _ in range(3)]
        pick = rng.integers(3, size=m)
        if rng.random() < 0.5:
            pick[1:] = np.where(pick[1:] == pick[0], (pick[0] + 1) % 3, pick[1:])
        return np.stack([states[k] for k in pick])
    # signed zeros: every row is row 0 with its zeros' signs flipped at random
    rows = np.tile(sparse_pure(q, rng), (m, 1))
    zero = rows == 0
    rows.real[zero & (rng.random(rows.shape) < 0.5)] = -0.0
    rows.imag[zero & (rng.random(rows.shape) < 0.5)] = -0.0
    return rows


def memo_rows(kind, q, rng):
    """Three distinct copy amplitudes of one kind of row."""
    if kind == "repeated":
        return [random_pure(q, rng).vec for _ in range(3)]
    if kind == "signed-zeros":
        # one sparse state and two copies with their zeros' signs flipped
        v = sparse_pure(q, rng)
        rows = [v, v.copy(), v.copy()]
        for row in rows[1:]:
            zero = row == 0
            row.real[zero & (rng.random(row.shape) < 0.5)] = -0.0
            row.imag[zero & (rng.random(row.shape) < 0.5)] = -0.0
        return rows
    # zero-weight pair: index 0 and every 1 << local are zero, so for each
    # local qubit the pair (0, 1 << local) weighs nothing (q = 1 has no room)
    rows = [random_pure(q, rng).vec for _ in range(3)]
    if q > 1:
        for row in rows:
            row[[0] + [1 << k for k in range(q)]] = 0
            row /= np.linalg.norm(row)
    return rows


class Scripted:
    """A stand-in generator: random(size) hands out the next `size` of the
    given uniforms (cycled, or else a draw past their end fails), and
    `drawn` counts the uniforms taken."""

    def __init__(self, values, cycle: bool = True):
        self.values, self.cycle, self.drawn = np.asarray(values, dtype=float), cycle, 0

    def random(self, size=None):
        at = self.drawn + np.arange(1 if size is None else size)
        out = self.values[at % len(self.values) if self.cycle else at]
        self.drawn += len(at)
        return float(out[0]) if size is None else out


class LowBitView:
    """A membership view of any arity: the low bit of the input."""

    def query(self, x):
        return x & 1


def assert_int_fields(rnd):
    assert all(type(v) is int for v in dataclasses.astuple(rnd))


def _per_copy_rounds():
    # every tested copy position, on random blocks of five copies
    rng = np.random.default_rng(20)
    q, m = 3, 5
    for _ in range(12):
        block = block_of([random_pure(q, rng) for _ in range(m)])
        f = bf.random_truth_table(q * m, rng)
        for qubit in (None, 0, q * m - 1, int(rng.integers(q * m))):
            yield block, views(f), int(rng.integers(2**32)), qubit


def _single_copy_rounds():
    rng = np.random.default_rng(21)
    copy = random_pure(4, rng)
    f = bf.random_truth_table(4, rng)
    for _ in range(50):
        yield block_of([copy]), views(f), int(rng.integers(2**32)), None


def _shared_rows(q, m, kind):
    # the X-tested copy first, last and anywhere; each side makes two view
    # queries of m base queries each, on its own base
    rng = np.random.default_rng(600 + 10 * q + m)
    for _ in range(3):
        amps = collapse_rows(kind, m, q, rng)
        if kind == "signed-zeros" and q > 1:  # equal rows, unequal bytes
            assert (amps == amps[0]).all() and amps.tobytes() != np.tile(
                amps[0], (m, 1)).tobytes()
        block = certify.ProductBlock(amps)
        f = bf.random_truth_table(q, rng)
        for qubit in (0, q - 1, (m - 1) * q, m * q - 1, None):
            view = views(f, m)
            assert_int_fields((yield block, view, int(rng.integers(2**32)), qubit))
            assert view.fast.base.count == view.reference.base.count == 2 * m


def _thresholds():
    # uniforms that land exactly on cumulative weights (dyadic weights,
    # zero-weight plateaus, u = 0), with row 0 shared by some rows, all rows
    # or none
    half = np.array([0, 0.5, 0, 0.5, 0.5, 0, -0.5, 0], dtype=complex)
    quarter = np.array([0.5, 0.5j, 0, 0, -0.5, 0, 0, 0.5])
    assert (np.cumsum(np.abs(half) ** 2) == [0, .25, .25, .5, .75, .75, 1, 1]).all()
    assert (np.cumsum(np.abs(quarter) ** 2) == [.25, .5, .5, .5, .75, .75, .75, 1]).all()
    basis = np.zeros(8, dtype=complex)
    basis[5] = -1
    f = bf.random_truth_table(3, np.random.default_rng(25))
    for rows in ([half] * 5, [half, quarter, half, basis, half],
                 [quarter, half, basis, half, half], [basis] * 5):
        block = certify.ProductBlock(np.stack(rows))
        for qubit in range(15):
            # 0, 1/4, 1/2, 3/4 and 1/8: each on a dyadic cumulative weight
            yield block, views(f, 5), lambda: Scripted([0.0, 0.25, 0.5, 0.75, 0.125]), qubit


def _memo_rounds(q, m, kind):
    # a table of one row per copy whose blocks repeat three rows, against an
    # unmemoised copy of each block, on every qubit, while the shared memo
    # is hit
    rng = np.random.default_rng(900 + 10 * q + m)
    rows = memo_rows(kind, q, rng)
    table = np.stack([rows[k] for k in rng.integers(3, size=6 * m)])
    blocks = certify.ProductBlock.indexed(table, np.arange(6 * m).reshape(6, m))
    f = bf.random_truth_table(q, rng)
    rounds = 0
    for block in blocks:
        fresh = certify.ProductBlock(block.amps.copy())
        for qubit in range(m * q):
            assert_int_fields((yield Sides(block, fresh), views(f, m), int(rng.integers(2**32)),
                               qubit))
            rounds += 1
        assert block.round_tables is blocks[0].round_tables
        assert not fresh.round_tables.memo
    # at most 3 rows x q local qubits were built, each kept once, under the
    # row classes: one for the three signed-zero rows, which compare equal,
    # else one per row
    memo = blocks[0].round_tables.memo
    assert len(memo) <= 3 * q < rounds
    classes = {key[0] for key in memo}
    assert all(type(c) is int for c in classes)
    assert classes <= set(np.concatenate([b.row_classes for b in blocks]).tolist())
    assert len(classes) <= (1 if kind == "signed-zeros" else 3)


def _memo_bound():
    # a q = 8 table of distinct rows asks for about twice the bound: the
    # memo stops keeping tables at the bound and every round still answers
    # as the reference does
    rng = np.random.default_rng(31)
    q, count = 8, 360
    table = np.stack([random_pure(q, rng).vec for _ in range(count)])
    blocks = certify.ProductBlock.indexed(table, np.arange(count).reshape(count, 1))
    tables = blocks[0].round_tables
    f = bf.random_truth_table(q, rng)
    for block in blocks:
        for qubit in (0, 5):
            yield block, views(f), int(rng.integers(2**32)), qubit
            assert tables.nbytes <= adversary.MEASUREMENT_MEMO_BYTES
    # class keys cost nothing: the kept bytes are the tables' own
    assert all(type(key[0]) is int for key in tables.memo)
    assert tables.nbytes == sum(t.nbytes for t in tables.memo.values())
    assert 0 < len(tables.memo) < 2 * count
    assert tables.nbytes + 3 * 128 * 8 > adversary.MEASUREMENT_MEMO_BYTES


def _zero_pair(q):
    # a uniform of 1 takes the clipped last pair, which weighs nothing here,
    # so the X bit compares the next uniform with 1/2; the second pass reads
    # every table from the memo
    rng = np.random.default_rng(40 + q)
    top = (1 << q) - 1
    row = random_pure(q, rng).vec
    row[[top] + [top ^ (1 << k) for k in range(q)]] = 0
    block = certify.ProductBlock(np.stack([row / np.linalg.norm(row)]))
    f = bf.random_truth_table(q, rng)
    for _ in range(2):
        for qubit in range(q):
            for u in (0.4, 0.5):
                sources = []
                got = yield (block, views(f),
                             lambda u=u: sources.append(Scripted([1.0, u])) or sources[-1], qubit)
                assert [s.drawn for s in sources] == [2, 2]
                assert (got.rest_bits, got.x_bit) == (top >> 1, int(u >= 0.5))
    assert len(block.round_tables.memo) == q


def _keyed(q, m):
    # blocks that read one table of six rows through an index: rows 0-2 one
    # sparse state with its zeros' signs flipped (one class), rows 3-5
    # distinct; against the all-rows form on a fresh block of the same
    # copies, which classes them alike
    rng = np.random.default_rng(1300 + 10 * q + m)
    rows = memo_rows("signed-zeros", q, rng) + memo_rows("repeated", q, rng)
    count = 1 if m == 201 else 6
    keys = rng.integers(6, size=(count, m))
    keys[0, 0] = 1  # copy 0 of a block in the signed-zero class
    stack = np.stack([[rows[k] for k in block] for block in keys])
    keyed = certify.ProductBlock.indexed(np.stack(rows), keys)
    classes = np.stack([block.row_classes for block in keyed])
    # keys 0-2 hold one class, keys 3, 4 and 5 one each
    class_of = {k: set(classes[keys == k].tolist()) for k in set(keys.flat)}
    assert all(len(c) == 1 for c in class_of.values())
    group = {c for k, cs in class_of.items() if k < 3 for c in cs}
    assert len(group) == 1
    others = [c for k, cs in class_of.items() if k >= 3 for c in cs]
    assert len(set(others)) == len(others) and not group & set(others)
    if m > 1:
        assert any(len(set(block.row_classes.tolist())) > 1 for block in keyed)
    for a, want_amps in zip(keyed, stack):
        b = certify.ProductBlock(want_amps.copy())
        assert (b.index == np.arange(m)).all()
        same = a.row_classes[:, None] == a.row_classes
        assert (same == (b.row_classes[:, None] == b.row_classes)).all()
        assert a.amps.tobytes() == want_amps.tobytes()
        for qubit in range(m * q):
            yield Sides(a, b), LowBitView(), int(rng.integers(2**32)), qubit
    # one table per class and local qubit at most; class keys cost nothing
    memo = keyed[0].round_tables
    assert len(memo.memo) <= len(set(classes.flat)) * q
    assert all(type(key[0]) is int for key in memo.memo)
    assert memo.nbytes == sum(t.nbytes for t in memo.memo.values())


def flip_signs(f, count):
    """f xor the indicator of its first `count` inputs: the phase state of
    f with `count` amplitudes' signs flipped."""
    table = [int(v) for v in bf.eval_all(f)]
    for x in range(count):
        table[x] ^= 1
    return bf.truth_table(table)


def _scores():
    rng = np.random.default_rng(6)
    f = bf.random_truth_table(3, rng)
    yield qsim.prepare_phase_state(flip_signs(f, 2)), f, rng.bit_generator.state


CERTIFY_PAIRS = [
    Pair("certify.overlap_round:per-copy", certify.overlap_round, (ref.overlap_round_per_copy,),
         single(_per_copy_rounds), ROUND),
    Pair("certify.overlap_round:one-copy", certify.overlap_round, (ref.overlap_round_per_copy,),
         single(_single_copy_rounds), ROUND),
    *(Pair(f"certify.overlap_round{name}", certify.overlap_round, (ref.overlap_round_all_rows,),
           cases, ROUND) for name, cases in [
        ("", groups(_shared_rows, [(q, m, kind) for q in range(1, 9) for m in (2, 201) for kind in
                                   ("all-equal", "few-distinct", "all-distinct", "signed-zeros")])),
        (":thresholds", single(_thresholds)),
        (":memo", groups(_memo_rounds, [(q, m, kind) for q in range(1, 9) for m in (1, 3)
                                        for kind in ("repeated", "signed-zeros", "zero-pair")])),
        (":memo-bound", single(_memo_bound)),
        (":zero-pair", groups(_zero_pair, [(q,) for q in range(2, 9)])),
        (":keyed", groups(_keyed, [(q, m) for q in range(1, 9) for m in (1, 3, 201)]))]),
    # 20,000 scores a side; a two-sided 5 sigma test, no looser than the
    # 5 se bound on the mean difference it replaced
    Pair("certify.overlap_scores_iid_fast", certify.overlap_scores_iid_fast,
         (ref.overlap_scores_by_rounds,), single(_scores), Law(2 * stats.norm.sf(5), 20_000)),
]



# --- task decisions and Boolean functions -----------------------------------
#
# A decision case is forrelation_decide's (block, n, source, threshold);
# both reference forms read the block as the sequence of its copies.

DECIDE = Stream(at=2)


def random_copy(rng, n, real=False) -> qsim.PureState:
    """A random 2n-qubit copy; a real one has +0.0 imaginary parts."""
    v = rng.normal(size=1 << 2 * n) + (0 if real else 1j * rng.normal(size=1 << 2 * n))
    return qsim.PureState(2 * n, (v / np.linalg.norm(v)).astype(complex))


def equal_copies(rng, n, k):
    """k copies of copy 0, most sharing its array."""
    copy0 = random_copy(rng, n)
    return [copy0] + [qsim.PureState(2 * n, copy0.vec.copy()) if j % 2 else copy0
                      for j in range(1, k)]


def few_distinct(rng, n, k):
    """Duplicates of copy 0 with three distinct copies among them."""
    copies = equal_copies(rng, n, k)
    for j in rng.choice(np.arange(1, k), size=3, replace=False):
        copies[j] = random_copy(rng, n)
    return copies


def signed_zero_duplicates(rng, n, k):
    """A real copy 0 (imaginary parts +0.0) and copies that differ from it
    only in the sign of a zero imaginary part, so compare equal to it."""
    copy0 = random_copy(rng, n, real=True)
    flipped = qsim.PureState(2 * n, np.conj(copy0.vec))
    assert np.signbit(flipped.vec.imag).all() and np.array_equal(flipped.vec, copy0.vec)
    return [copy0] + [flipped if j % 3 else copy0 for j in range(1, k)]


def all_distinct(rng, n, k):
    return [random_copy(rng, n) for _ in range(k)]


COPY_PATTERNS = {"equal": equal_copies, "few-distinct": few_distinct,
                 "signed-zero": signed_zero_duplicates, "distinct": all_distinct}


def thresholds(k):
    """Every possible accept frequency j/k, which pins the accept count."""
    return [j / k for j in range(k + 1)]


def _decisions_per_copy(n):
    # random non-product copies
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        block = block_of([random_copy(rng, n) for _ in range(9)])
        seed = int(rng.integers(2**32))
        for threshold in thresholds(9):
            yield block, n, seed, threshold


def _decisions(n, k, pattern):
    rng = np.random.default_rng(60 + 7 * n + k)
    for _ in range(4):
        block = block_of(COPY_PATTERNS[pattern](rng, n, k))
        seed = int(rng.integers(2**32))
        for threshold in thresholds(k):
            yield block, n, seed, threshold


def _shared_table_decisions(n):
    # blocks that read one table through an index, as certification blocks
    # do: a copy's class is its table row's, not numbered from copy 0
    rng = np.random.default_rng(70 + n)
    rows = np.stack([random_copy(rng, n).vec for _ in range(4)])
    for block in certify.ProductBlock.indexed(rows, rng.integers(0, 4, size=(6, 11))):
        seed = int(rng.integers(2**32))
        for threshold in thresholds(11):
            yield block, n, seed, threshold


def _honest_decisions():
    # an honest 201-copy block of one instance's phase state
    rng = np.random.default_rng(65)
    n = 3
    inst = tasks.gen_forrelation_instance(n, tasks.PHI_LARGE, rng)
    block = block_of([qsim.prepare_phase_state(inst.h())] * tasks.FORRELATION_COPIES)
    for seed in range(5):
        yield block, n, seed, tasks.SWAP_TEST_THRESHOLD


def _simon_tables():
    rng = np.random.default_rng(9)
    for n in range(1, 11):
        for s in {0, (1 << n) - 1, *(int(s) for s in rng.integers(0, 1 << n, 4))}:
            yield bf.random_simon_fn(n, s, rng),
    # the Simon function of test_boolfunc's pointwise formulas, drawn after
    # that test's matrix and its two truth tables
    rng = np.random.default_rng(3)
    rng.integers(0, 2, (5, 5))
    bf.random_truth_table(2, rng), bf.random_truth_table(3, rng)
    yield bf.random_simon_fn(4, 0b1010, rng),


def _phi_pairs():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        for _ in range(5):
            yield bf.random_truth_table(n, rng), bf.random_truth_table(n, rng)


TASK_PAIRS = [
    Pair("tasks.forrelation_decide:per-copy", tasks.forrelation_decide,
         (ref.forrelation_decide_per_copy,), groups(_decisions_per_copy, [(1,), (2,), (4,)]),
         DECIDE),
    *(Pair(f"tasks.forrelation_decide{name}", tasks.forrelation_decide,
           (ref.forrelation_decide_all_copies,), cases, DECIDE) for name, cases in [
        ("", groups(_decisions, [(n, k, p) for n, k in [(1, 7), (2, 12), (3, 9)]
                                 for p in COPY_PATTERNS])),
        (":shared-table", groups(_shared_table_decisions, [(1,), (2,)])),
        (":honest", single(_honest_decisions))]),
    Pair("boolfunc.eval_all:simon", lambda f: bf.eval_all(f).tolist(),
         (lambda f: [ref.simon_value(f.body.s, f.body.labels, x) for x in range(1 << f.n)],),
         single(_simon_tables)),
    Pair("boolfunc.forrelation_phi", bf.forrelation_phi, (ref.phi_double_sum,),
         single(_phi_pairs)),
]



# --- oracles ----------------------------------------------------------------

_PRODUCT_FACTORS = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j], dtype=complex) / np.sqrt(2),
)
SAMPLER_KINDS = ("random", "dyadic", "trailing-zeros")
PAULI_QUBITS = range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1)


@functools.cache
def sampler_state(n: int, kind: str) -> qsim.PureState:
    """A random state; a product of |0>, |1>, |+> and |+i> (every Pauli
    probability is 0 or a power of 1/2, so cdf entries sit on bucket edges
    and often reach 1 before the last outcome); or a random state on qubits
    0..n-2 with qubit n-1 in |0> (the top half of every outcome table with Z
    on that qubit has probability 0)."""
    g = np.random.default_rng(90 + n)
    if kind == "dyadic":
        v = np.ones(1, dtype=complex)
        for q in range(n):
            v = np.kron(_PRODUCT_FACTORS[q % 4], v)
        return qsim.PureState(n, v)
    low = n - 1 if kind == "trailing-zeros" else n
    v = g.normal(size=1 << low) + 1j * g.normal(size=1 << low)
    v = np.concatenate([v, np.zeros((1 << n) - len(v))])
    return qsim.PureState(n, v / np.linalg.norm(v))


@functools.cache
def sampler_cdfs(n: int, kind: str) -> np.ndarray:
    """The cdf table sample_product_pauli draws from for sampler_state."""
    oracle = oracles.QMeasExOracle(sampler_state(n, kind))
    oracle.sample_product_pauli(0, np.random.default_rng(0))
    cdfs = oracle._pauli_cdfs
    cdfs.flags.writeable = False
    return cdfs


def crafted_uniforms(cdf: np.ndarray, edges: int) -> np.ndarray:
    """0, the largest double below 1, every bucket edge j / edges, and every
    cdf entry below 1 with its neighbours on both sides: the uniforms where
    a guide-table lookup and a binary search could part."""
    t = cdf[cdf < 1]
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], np.arange(edges) / edges,
        t, np.nextafter(t, 0.0), np.nextafter(t, 1.0),
    ])
    return u[u < 1]


def _crafted_draws(n, kind):
    # shots in shuffled order whose sorted uniform stream gives each listed
    # row its crafted uniforms; the edges of 2^(n+6) buckets hold those of
    # every coarser table
    cdfs = sampler_cdfs(n, kind)
    n_groups, k = cdfs.shape
    rows = range(n_groups) if n_groups <= 81 else sorted(
        {0, 1, n_groups // 3, n_groups // 2, n_groups - 2, n_groups - 1})
    parts = [crafted_uniforms(cdfs[r], k << 6) for r in rows]
    groups_ = np.repeat(np.array(rows, dtype=np.int16), [len(p) for p in parts])
    shots = np.random.default_rng(n).permutation(groups_)
    assert oracles._guide_bits(len(shots), n_groups, k) >= 1
    stream = np.concatenate(parts)
    yield cdfs, shots, lambda: Scripted(stream, cycle=False)


def _few_shot_draws(n, kind):
    # below 3^n shots the table has one bucket per basis, so every basis
    # with an interior cdf entry falls back to the search
    cdfs = sampler_cdfs(n, kind)
    n_groups, k = cdfs.shape
    crafted = crafted_uniforms(cdfs[-1], 1)
    for start in range(0, len(crafted), n_groups - 1):
        stream = crafted[start:start + n_groups - 1]
        shots = np.full(len(stream), n_groups - 1, dtype=np.int16)
        assert oracles._guide_bits(len(shots), n_groups, k) == 0
        yield cdfs, shots, lambda stream=stream: Scripted(stream, cycle=False)


def _generator_draws(n, kind):
    cdfs = sampler_cdfs(n, kind)
    for shots in (0, 1, len(cdfs) - 1, 3 * len(cdfs) + 5, 20_000):
        groups_ = np.random.default_rng(shots).integers(0, len(cdfs), shots).astype(np.int16)
        yield cdfs, groups_, 500 + n


def _basis_tables(n, kind):
    state = sampler_state(n, kind)
    yield Sides(oracles.QMeasExOracle(state), state),


def _pauli_samples(shots, n):
    # shots < 3^n leaves some bases without shots
    g = np.random.default_rng(40 + n)
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    psi = qsim.PureState(n, v / np.linalg.norm(v))
    oracle = oracles.QMeasExOracle(psi)
    yield Sides(oracle, psi), shots, 1000 * n + shots
    assert oracle.count == shots


def _outcome_tables(n):
    table = yield n,
    assert oracles._outcome_bits_table(n) is table  # built once
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def drawn_outcomes(oracle: oracles.QMeasExOracle, shots: int, rng) -> tuple:
    """sample_product_pauli's bits and the outcomes it drew for them."""
    drawn = []
    real = oracles._choice_by_group

    def spy(*args):
        drawn.append(real(*args))
        return drawn[-1]

    with mock.patch.object(oracles, "_choice_by_group", spy):
        _, bits = oracle.sample_product_pauli(shots, rng)
    (outcomes,) = drawn
    assert outcomes.dtype == np.uint8
    return bits, outcomes


def _sampled_bits(n):
    g = np.random.default_rng(60 + n)
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    bits = yield qsim.PureState(n, v / np.linalg.norm(v)), 3000, n
    assert bits.flags.writeable


def _view_queries(m):
    # all-zero, all-one and random inputs to a view of m copies of a 3-bit
    # base: the same answers, base count and base transcript (so the same
    # Python int inputs in the same order)
    rng = np.random.default_rng(80 + m)
    f = bf.random_truth_table(3, rng)
    n = 3 * m
    xs = [0, (1 << n) - 1] + [
        int.from_bytes(rng.bytes(n // 8 + 1), "little") & ((1 << n) - 1) for _ in range(5)]
    got = yield f, m, xs
    assert got[1] == len(xs) * m


def view_answers(query):
    """Answers of `query` on a TensorMemView of m copies of f over logged
    base queries: (answers, base count, base transcript)."""
    def run(f, m, xs):
        t = oracles.Transcript()
        base = oracles.MemOracle(f, transcript=t)
        view = oracles.TensorMemView(base, m=m)
        return [query(view, x) for x in xs], base.count, t.events
    return run


def _polynomials():
    rng = np.random.default_rng(2)
    supports = tuple(int(v) for v in rng.integers(0, 1 << 5, size=8))
    coeffs = tuple(float(c) for c in rng.normal(size=8))
    yield oracles.PolynomialSqQuery(supports, coeffs), 5


def _basis_draws(n):
    for shots in (1, 7, 201):
        yield n, shots, 700 + n


ORACLE_PAIRS = [
    # the sampler draws its bases in int32 and narrows them: the values and
    # the generator end state of the default int64 draw
    Pair("numpy.Generator.integers:int32",
         lambda n, shots, rng: rng.integers(0, 3, size=(shots, n), dtype=np.int32).tolist(),
         (lambda n, shots, rng: rng.integers(0, 3, size=(shots, n)).tolist(),),
         groups(_basis_draws, [(n,) for n in PAULI_QUBITS]), STREAM),
    Pair("oracles.QMeasExOracle.sample_product_pauli", oracles.QMeasExOracle.sample_product_pauli,
         (ref.sample_product_pauli_per_basis,),
         groups(_pauli_samples, [*((shots, n) for n in (1, 2, 3, 4, 5)
                                   for shots in (0, 1, 7, 200, 3000)),
                                 (3000, oracles.PAULI_TABLE_QUBIT_CAP)]), STREAM),
    *(Pair(f"oracles._choice_by_group{name}", oracles._choice_by_group,
           (ref.choice_by_group_searchsorted,),
           groups(each, [(n, k) for n in PAULI_QUBITS for k in SAMPLER_KINDS]), STREAM)
      for name, each in [(":crafted", _crafted_draws), (":few-shots", _few_shot_draws),
                         ("", _generator_draws)]),
    Pair("oracles.QMeasExOracle._basis_probability_tables",
         oracles.QMeasExOracle._basis_probability_tables, (ref.basis_probability_tables_loop,),
         groups(_basis_tables, [(n, k) for n in PAULI_QUBITS for k in SAMPLER_KINDS])),
    Pair("oracles._outcome_bits_table", oracles._outcome_bits_table,
         (lambda n: ref.outcome_bits_unpackbits(np.arange(1 << n, dtype=np.uint8), n),),
         groups(_outcome_tables, [(n,) for n in PAULI_QUBITS])),
    Pair("oracles.QMeasExOracle.sample_product_pauli:bits",
         lambda psi, shots, seed: drawn_outcomes(
             oracles.QMeasExOracle(psi), shots, np.random.default_rng(seed))[0],
         (lambda psi, shots, seed: ref.outcome_bits_unpackbits(drawn_outcomes(
             oracles.QMeasExOracle(psi), shots, np.random.default_rng(seed))[1], psi.n),),
         groups(_sampled_bits, [(n,) for n in PAULI_QUBITS])),
    Pair("oracles.TensorMemView.query", view_answers(oracles.TensorMemView.query),
         (view_answers(ref.tensor_view_query_shifts),),
         groups(_view_queries, [(1,), (2,), (201,)])),
    Pair("oracles.PolynomialSqQuery.exact_expectation",
         lambda q, n: q.exact_expectation(bf.constant_fn(n)),
         (lambda q, n: float(np.mean([ref.polynomial_value(q, x) for x in range(1 << n)])),),
         single(_polynomials), Within(lambda q, n: 1e-12)),
]



# --- adversary taps ---------------------------------------------------------


def tapped_queries(strategy, n, mode, queries, seed):
    """Masked queries through one ancilla-free tapped oracle: every response's
    bytes, the generator state after it, and the tap's memory."""
    rng = np.random.default_rng(seed)
    oracle = oracles.QuantumChannelOracle(bf.random_truth_table(n, rng), "QPh", strategy)
    query = (acquire.masked_query_phase_entangled if mode == "entangled"
             else acquire.masked_query_phase_randomness)
    trace = []
    for _ in range(queries):
        got = query(oracle, rng)
        trace.append((got.vec.tobytes(), rng.bit_generator.state["state"]["state"]))
    return trace, oracle.tap.memory


def without_measurement_memo(run: Callable) -> Callable:
    """`run` with every tap measurement a fresh qsim.measure_qubits
    (reference.measure_unmemoised in place of TapMemory.measure)."""
    def unmemoised(*args):
        with mock.patch.object(adversary.TapMemory, "measure", ref.measure_unmemoised):
            return run(*args)
    return unmemoised


def tap_trace(memoised: bool) -> Callable:
    """tapped_queries' responses, generator states and tap events; the
    memoised run fills the measurement memo, the other leaves it empty."""
    def run(*case):
        trace, memory = tapped_queries(*case)
        assert bool(memory.measure_memo.memo) == memoised
        return trace, memory.events
    return run if memoised else without_measurement_memo(run)


def _tapped(mode):
    # 1,200 rounds over n = 1..3, both leak rates and both extract_post
    # settings, every one with tap events
    rounds = 0
    for n in (1, 2, 3):
        for leak in (0.5, 1.0):
            for post in (True, False):
                trace, events = yield (adversary.ancilla_free(leak, extract_post=post), n, mode,
                                       100, 40 + n)
                assert events
                rounds += len(trace)
    assert rounds == 1200


def measure_by(measure: Callable) -> Callable:
    """20 passes over two registers of psi in each basis, off one generator."""
    def run(memory, psi, rng):
        return [measure(memory, psi, qubits, basis, rng) for _ in range(20)
                for qubits in ([0], [2, 1]) for basis in ("X", "Y", "Z")]
    return run


def _memo_keys():
    # one state measured on two registers in each basis: six tables
    memory = adversary.TapMemory()
    yield memory, random_pure(3, np.random.default_rng(41)), 42
    assert len(memory.measure_memo.memo) == 6


def trial_records(cfg) -> list:
    return [experiments.run_trial(cfg, t) for t in range(2)]


def _memo_bound_trials():
    # randomness-mode acquire-uni at n = 6, whose distinct registers' tables
    # pass the memo's bound
    yield experiments.ExperimentConfig(
        scenario="acquire-uni", params={"n": 6, "m": 8, "n_blocks": 20},
        adversary={"kind": "ancilla_free", "delta_leak": 0.5}, seed=22),


def split_case(reg, rest, qubits):
    """The state with `reg` on `qubits` and `rest` on the others; each
    factor split off comes back as the reference's and as the given one."""
    got = yield adversary._reinsert_register(rest, reg, qubits), qubits
    for g, factor in zip(got, (reg, rest)):
        assert qsim.states_equal(g, factor, 1e-10)


def _splits(n):
    rng = np.random.default_rng(300 + n)
    for k in range(1, n):
        for _ in range(3):
            qubits = [int(q) for q in rng.permutation(n)[:k]]
            yield from split_case(random_pure(k, rng), random_pure(n - k, rng), qubits)


def _edge_splits():
    rng = np.random.default_rng(310)
    yield from split_case(random_pure(2, rng), random_pure(2, rng), [0, 2])
    yield from split_case(random_pure(2, rng), random_pure(1, rng), [2, 0])
    # factors with a zero first amplitude: the first row and column of the
    # reshape are zero, so each factor must come from the largest
    yield from split_case(qsim.basis_state(2, 3), random_pure(3, rng), [1, 4])
    yield from split_case(random_pure(2, rng), qsim.basis_state(3, 6), [1, 4])
    empty = qsim.basis_state(0)  # the rest has 0 qubits
    for n in (1, 3, 6):
        yield from split_case(random_pure(n, rng), empty, list(range(n)))
        yield from split_case(random_pure(n, rng), empty, [int(q) for q in rng.permutation(n)])


def _near_product():
    # a product of two random states splits; a near product (weight 1e-6 on
    # an orthogonal product) is refused by both forms
    rng = np.random.default_rng(311)
    a, b = random_pure(2, rng), random_pure(3, rng)
    a_perp, b_perp = (
        v - np.vdot(u.vec, v) * u.vec
        for u, v in ((a, random_pure(2, rng).vec), (b, random_pure(3, rng).vec))
    )
    near = np.sqrt(1 - 1e-6) * np.kron(a.vec, b.vec) + np.sqrt(1e-6) * np.kron(
        a_perp / np.linalg.norm(a_perp), b_perp / np.linalg.norm(b_perp))
    # a on qubits 3 and 4 (the high factor of kron), b on 0..2
    assert qsim.states_equal(adversary._reinsert_register(b, a, [3, 4]),
                             qsim.PureState(5, np.kron(a.vec, b.vec)), 1e-12)
    yield from split_case(a, b, [3, 4])
    got = yield qsim.PureState(5, near), [3, 4]
    assert got.error == "RuntimeError" and "entangled" in got.message


ADVERSARY_PAIRS = [
    Pair("adversary.TapMemory.measure", tap_trace(memoised=True), (tap_trace(memoised=False),),
         groups(_tapped, [("entangled",), ("randomness",)])),
    Pair("adversary.TapMemory.measure:keys", measure_by(adversary.TapMemory.measure),
         (measure_by(ref.measure_unmemoised),), single(_memo_keys), STREAM),
    Pair("adversary.TapMemory.measure:trials", trial_records,
         (without_measurement_memo(trial_records),), single(_memo_bound_trials)),
    *(Pair(f"adversary._extract_product_register{name}", adversary._extract_product_register,
           (ref.extract_product_register_eigh,), cases, Phase(1e-10)) for name, cases in [
        ("", groups(_splits, [(n,) for n in range(2, 7)])), (":edges", single(_edge_splits)),
        (":near-product", single(_near_product))]),
]



# --- covert SQ: exact Paulis, shadows and sketches --------------------------


def _pauli_strings(n):
    # every one of the 4^n Pauli strings (identity included), on seeded
    # random states, with unit and non-unit coefficients
    rng = np.random.default_rng(90 + n)
    for _ in range(4):
        psi = random_pure(n, rng)
        for letters in itertools.product((None, 0, 1, 2), repeat=n):
            axes = tuple((q, a) for q, a in enumerate(letters) if a is not None)
            for coefficient in (1.0, float(rng.uniform(-2, 2))):
                yield psi, covertsq.PauliObservable(axes=axes, coefficient=coefficient)


def bell_pair() -> qsim.PureState:
    return qsim.apply_gate(qsim.apply_gate(qsim.basis_state(2), "H", [0]), "CNOT", [0, 1])


def _bell_strings():
    # zero amplitudes: equal values (the sign of a zero may differ)
    for spec in ({0: "X", 1: "X"}, {0: "Y", 1: "Y"}, {0: "Z", 1: "Z"}, {0: "X", 1: "Y"}):
        yield bell_pair(), ref.pauli_observable(spec, coefficient=0.5)


def negative_zeros(a) -> int:
    return int(np.count_nonzero((a == 0) & np.signbit(a)))


@functools.cache
def symbol_plane_shadows() -> covertsq.ShadowSet:
    """6,000 shadows of a random 5-qubit state."""
    rng = np.random.default_rng(21)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    src = oracles.QMeasExOracle(qsim.PureState(5, v / np.linalg.norm(v)))
    return covertsq.shadow_collect(src, 6000, rng)


def _symbol_plane(part):
    # random supports of locality k; each estimate without a negative zero
    def each(coefficient, k):
        shadows = symbol_plane_shadows()
        rng = np.random.default_rng(100 * k + 7)
        for _ in range(6):
            qubits = rng.choice(shadows.n, size=k, replace=False)
            obs = covertsq.PauliObservable(
                axes=tuple(sorted((int(q), int(rng.integers(3))) for q in qubits)),
                coefficient=coefficient)
            if part == "shots":
                assert negative_zeros((yield shadows, obs)) == 0
            else:
                yield from ((shadows, obs, batches) for batches in (1, 7, 67))
    return each


def _zero_coefficient(part):
    # the reference writes negative zeros for a zero coefficient; the
    # symbol plane writes none
    def each():
        shadows = symbol_plane_shadows()
        obs = ref.pauli_observable({0: "X", 3: "Y"}, coefficient=0.0)
        assert negative_zeros(ref.shadow_single_shot_estimates_mask_product(shadows, obs)) > 0
        if part == "shots":
            assert negative_zeros((yield shadows, obs)) == 0
        else:
            yield shadows, obs, 7
    return each


def symbol_plane_groups(part) -> CaseGroups:
    return {**groups(_symbol_plane(part), [(c, k) for k in range(5) for c in (1.0, 0.37, -2.5)]),
            "zero-coefficient": _zero_coefficient(part)}


def check_cache(shadows, batches):
    """Only whole-register tables, the one for `batches` among them, each
    read-only and no larger than the shots, within the n * shots bound."""
    whole = tuple(range(shadows.n))
    assert (whole, batches) in shadows._counts
    for (support, rows), counts in shadows._counts.items():
        assert support == whole and counts.shape == (rows, 6**shadows.n)
        assert not counts.flags.writeable and counts.size <= shadows.shots
    assert sum(c.size for c in shadows._counts.values()) <= shadows.n * shadows.shots


WHOLE_REGISTER_BATCHES = (1, 3, 7, 67)


def _whole_register(n):
    # 67 batches of exactly 6^n shots, and a tail that no batch holds; the
    # estimate reads one whole-register count table per batches value
    rng = np.random.default_rng(500 + n)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    src = oracles.QMeasExOracle(qsim.PureState(n, v / np.linalg.norm(v)))
    shadows = covertsq.shadow_collect(src, 67 * 6**n + 5, rng)
    per_support = covertsq.ShadowSet(shadows.bases, shadows.bits)
    for k in range(n + 1):
        for qubits in itertools.combinations(range(n), k):
            for letters in itertools.product(range(3), repeat=k):
                for coefficient in (1.0, -2.0):
                    obs = covertsq.PauliObservable(tuple(zip(qubits, letters)), coefficient)
                    for batches in WHOLE_REGISTER_BATCHES:
                        yield Sides(shadows, per_support), obs, batches
                        check_cache(shadows, batches)
    # at n = 1 the four tables (78 x 6 cells) pass the bound of 407
    held = {(tuple(range(n)), b) for b in WHOLE_REGISTER_BATCHES} if n > 1 else set()
    assert held <= set(shadows._counts)


# N = 2, 15, 20 and 35 monomials: from 16 terms on, an OpenBLAS dot sums in
# SIMD lanes, which neither a left-to-right sum nor C @ m reproduces
SKETCH_SHAPES = [(1, 1), (4, 2), (3, 3), (4, 3)]


def random_target(n, d, rng, b_c=1.0):
    c = rng.normal(size=covertsq.monomial_count(n, d))
    return c / np.linalg.norm(c) * b_c * rng.uniform(0.3, 1.0)


def sketch_plan(n, d, seed):
    rng = np.random.default_rng(seed)
    return covertsq.sketch_encode(random_target(n, d, rng), n, d, 0.3, 0.3, 1.0, 1.0, rng)


def sq_oracle(n, policy, transcript=None):
    return oracles.SqOracle(bf.constant_fn(n), policy=policy, rng=np.random.default_rng(8),
                            transcript=transcript, visibility=oracles.PUBLIC)


def _sketch_expectations(seed, n, d):
    yield sketch_plan(n, d, seed), bf.constant_fn(n)


def _sketch_answers(policy, n, d):
    plan = sketch_plan(n, d, 3)
    got = yield plan, n, policy
    assert got[-1] == plan.m_e


def sketch_answers(plan, n, policy):
    """The public answers as logged, the estimates of a logged and of an
    unlogged sketch run, and the queries each oracle counted."""
    logged, plain = sq_oracle(n, policy, oracles.Transcript()), sq_oracle(n, policy)
    est_logged = covertsq.run_sketched_query(plan, logged)
    est_plain = covertsq.run_sketched_query(plan, plain)
    answers = np.array([e["payload"]["answer"] for e in logged.transcript.events])
    return answers, float.hex(est_logged), float.hex(est_plain), logged.count, plain.count


def sketch_answers_per_query(plan, n, policy):
    oracle = sq_oracle(n, policy)
    answers = ref.sketch_answers_per_query(plan, oracle)
    est = float.hex(covertsq.sketch_decode(plan, answers))
    return np.array(answers), est, est, oracle.count, oracle.count


def sketch_transcript(send):
    def run(plan, n):
        oracle = sq_oracle(n, oracles.GRID, oracles.Transcript())
        send(plan, oracle)
        return oracle.transcript.events
    return run


def _sketch_transcripts(n, d):
    # payload, payload_digest, seq and counters of every event
    plan = sketch_plan(n, d, 5)
    events = yield plan, n
    assert len(events) == plan.m_e and all(e["oracle_kind"] == "SQ" for e in events)
    assert all(set(e["payload"]) == {"query", "supports", "coeffs", "tau", "answer"}
               for e in events)


COVERTSQ_PAIRS = [
    Pair("covertsq.pauli_expectation_exact", covertsq.pauli_expectation_exact,
         (ref.pauli_expectation_kron,), groups(_pauli_strings, [(n,) for n in range(1, 5)])),
    Pair("covertsq.pauli_expectation_exact:bell", covertsq.pauli_expectation_exact,
         (ref.pauli_expectation_kron,), single(_bell_strings), VALUES),
    Pair("covertsq.shadow_single_shot_estimates", covertsq.shadow_single_shot_estimates,
         (ref.shadow_single_shot_estimates_mask_product,), symbol_plane_groups("shots"), VALUES),
    Pair("covertsq.shadow_estimate", covertsq.shadow_estimate,
         (ref.shadow_estimate_mask_product,), symbol_plane_groups("batches")),
    # the reference forms run on a fresh set of the same shots
    Pair("covertsq.shadow_estimate:whole-register", covertsq.shadow_estimate,
         (ref.shadow_estimate_mask_product, ref.shadow_estimate_per_support),
         groups(_whole_register, [(n,) for n in range(1, 5)])),
    Pair("covertsq.SketchPlan.expectations", lambda plan, f: plan.expectations,
         (ref.sketch_expectations_per_query,),
         groups(_sketch_expectations, [(seed, n, d) for n, d in SKETCH_SHAPES
                                       for seed in (0, 1, 2)])),
    Pair("covertsq.run_sketched_query", sketch_answers, (sketch_answers_per_query,),
         groups(_sketch_answers, [(p, n, d) for n, d in SKETCH_SHAPES for p in oracles.POLICIES])),
    Pair("covertsq.run_sketched_query:transcript", sketch_transcript(covertsq.run_sketched_query),
         (sketch_transcript(ref.sketch_answers_per_query),),
         groups(_sketch_transcripts, [(1, 1), (4, 2)])),
]



# --- acquisitions -----------------------------------------------------------

# mode -> (entangled, unmask) as `_collect_blocks` takes them
BLOCK_MODES = {
    "randomness": (False, True),
    "entangled": (True, True),
    "entangled-masked": (True, False),
}
# test id -> (tap, n, w, m, mode); w = 0 queries a QPh oracle, w > 0 a QMem
# oracle of that width; "honest" and "depolarize" are the original cases
BLOCK_CASES = {
    "honest": (None, 4, 0, 7, "randomness"),
    "depolarize": (adversary.depolarize(0.5), 4, 0, 7, "randomness"),
    "measure_z": (adversary.measure_z(), 4, 0, 7, "randomness"),
    "replace_zero": (adversary.replace_zero(), 4, 0, 7, "randomness"),
    "honest-n8": (None, 8, 0, 7, "randomness"),
    "honest-n9": (None, 9, 0, 7, "randomness"),
    "depolarize-n9": (adversary.depolarize(0.5), 9, 0, 7, "randomness"),
    "honest-m1": (None, 4, 0, 1, "randomness"),
    "measure_z-m1": (adversary.measure_z(), 4, 0, 1, "randomness"),
}
# every other path through the block loop, with and without a drawing tap
for _n, _w in ((3, 0), (2, 1), (2, 2), (3, 2)):
    _target = f"qmem-{_n}x{_w}" if _w else f"qph-{_n}"
    for _mode in BLOCK_MODES:
        if _w or _mode != "randomness":
            BLOCK_CASES[f"{_target}-{_mode}"] = (None, _n, _w, 3, _mode)
            BLOCK_CASES[f"{_target}-{_mode}-depolarize"] = (
                adversary.depolarize(0.5), _n, _w, 3, _mode)


def logged_oracle(strategy, n, w) -> oracles.QuantumChannelOracle:
    f = bf.random_truth_table(n, np.random.default_rng(30), w=w or 1)
    return oracles.QuantumChannelOracle(f, "QMem" if w else "QPh", strategy,
                                        transcript=oracles.Transcript())


def oracle_log(oracle) -> tuple:
    return (oracle.count, oracle.tap.memory.round, oracle.tap.memory.events,
            oracle.transcript.events)


def collect_blocks(strategy, n, w, m, mode, rng):
    """Three blocks of m copies from the block loop, and the oracle's log;
    the masks are drawn per block only for phase targets behind the
    identity tap, else one per masked query."""
    oracle, given = logged_oracle(strategy, n, w), []
    query = acquire.masked_query_phase_randomness

    def spy(*args, **kwargs):
        given.append(kwargs.get("r"))
        return query(*args, **kwargs)

    entangled, unmask = BLOCK_MODES[mode]
    with mock.patch.object(acquire, "masked_query_phase_randomness", spy):
        blocks = acquire._collect_blocks(oracle, m, 3, rng, entangled=entangled, unmask=unmask)
    if entangled:
        assert given == []
    elif strategy is None and not w:
        assert len(given) == 3 * m and None not in given
    else:
        assert given == [None] * (3 * m)
    return [block.amps for block in blocks], *oracle_log(oracle)


def collect_blocks_per_copy(strategy, n, w, m, mode, rng):
    oracle = logged_oracle(strategy, n, w)
    blocks = [ref.collect_block_per_copy(oracle, m, rng, mode) for _ in range(3)]
    return blocks, *oracle_log(oracle)


def _block_loop(case):
    # one tap round per response, whether or not the tap acts on it
    strategy, n, w, m, mode = BLOCK_CASES[case]
    count, rounds, events, _ = (yield strategy, n, w, m, mode, 31)[1:]
    assert count == rounds == 3 * m
    assert strategy is None or events  # the tap acted on some queries


def kind_strategy(kind):
    """The adversary of `kind`, each required field (a probability) at 1/2."""
    cls = adversary.KINDS[kind]
    return cls(**{f.name: 0.5 for f in dataclasses.fields(cls)
                  if f.default is dataclasses.MISSING})


def acquisition_outcome(res):
    output = res.output and [c.vec.tobytes() for c in res.output]
    return (res.accepted, res.record, res.pub_queries, res.pri_queries,
            res.blocks_used, res.paper_blocks, output)


ACQUISITIONS = {
    "randomness": lambda o, mem, rng: acquire.acquire_unidirectional(
        o, mem, 2, 0.1, 0.1, rng, n_blocks=6, mode="randomness"),
    "entangled": lambda o, mem, rng: acquire.acquire_unidirectional(
        o, mem, 2, 0.1, 0.1, rng, n_blocks=6, mode="entangled"),
    "ancilla-free": lambda o, mem, rng: acquire.acquire_ancilla_free(
        o, mem, 2, 0.1, 0.1, 0.5, rng, n_blocks=6),
}


def acquisition_run(kind, acquisition, rng):
    """One acquisition through a logged oracle of `kind`: its outcome (or
    the swap attack's fault on entangled registers), the oracle's log, the
    membership count and the response memo."""
    f = bf.random_truth_table(3, np.random.default_rng(41))
    oracle = oracles.QuantumChannelOracle(f, "QPh", kind_strategy(kind),
                                          transcript=oracles.Transcript())
    mem = oracles.MemOracle(f)
    try:
        outcome = acquisition_outcome(ACQUISITIONS[acquisition](oracle, mem, rng))
    except RuntimeError as e:
        outcome = repr(e)
    return (outcome, *oracle_log(oracle), mem.count), oracle.responses


def memoised_acquisition(kind, acquisition, rng):
    """acquisition_run with the QPh response memo; it fills whenever a
    read-only state reaches the oracle, which answers it afresh the first
    time, and it keeps only read-only states."""
    phase_response, fresh = oracles.QuantumChannelOracle._phase_response, []

    def spy(oracle, state, key):
        fresh.append(state.vec.flags.writeable)
        return phase_response(oracle, state, key)

    with mock.patch.object(oracles.QuantumChannelOracle, "_phase_response", spy):
        got, responses = acquisition_run(kind, acquisition, rng)
    assert bool(responses.memo) == (not all(fresh))
    for sent, response in responses.memo.values():
        assert not sent.vec.flags.writeable and not response.vec.flags.writeable
    return got


@contextlib.contextmanager
def response_memo_bypassed():
    """Send writeable copies of acquire's shared sent states, which the QPh
    response memo never keeps: with no kept mask table, every masked query
    asks `_phase_mask`, which here builds a fresh state. A measuring query
    tap still hands the oracle its read-only post-state, so the memo bound
    is 0 as well, and no response is kept."""
    coupled_pair = acquire._coupled_pair

    def fresh_mask(n, r):
        signs = qsim.z_signs(n, r)
        return qsim.PureState(n, signs * complex(2 ** (-n / 2))), signs

    def fresh_pair(n):
        pair = coupled_pair(n)
        return qsim.PureState(pair.n, pair.vec.copy())

    with mock.patch.object(acquire, "_PHASE_MASKS", {}), \
            mock.patch.object(acquire, "_phase_mask", fresh_mask), \
            mock.patch.object(acquire, "_coupled_pair", fresh_pair), \
            mock.patch.object(adversary, "MEASUREMENT_MEMO_BYTES", 0):
        yield


def unmemoised_acquisition(kind, acquisition, rng):
    with response_memo_bypassed():
        got, responses = acquisition_run(kind, acquisition, rng)
    assert responses.memo == {} and responses.nbytes == 0
    return got


def _acquisitions(kind, acquisition):
    count, rounds = (yield kind, acquisition, 42)[1:3]
    assert rounds == count


def _mask_draws(n):
    for k in (1, 7, 201):
        yield n, k, 500 + n


def _stack_draws(n):
    for count in (1, 3, 20):
        for m in (1, 7, 201):
            yield n, count, m, 700 + 10 * n + count


ACQUIRE_PAIRS = [
    Pair("acquire._collect_blocks", collect_blocks, (collect_blocks_per_copy,),
         {case: functools.partial(_block_loop, case) for case in BLOCK_CASES}, STREAM),
    Pair("oracles.QuantumChannelOracle.responses", memoised_acquisition,
         (unmemoised_acquisition,),
         groups(_acquisitions, [(k, a) for k in sorted(adversary.KINDS) for a in ACQUISITIONS]),
         STREAM),
    # the block loop's one draw of m masks, and of count x m masks, rely on
    # these numpy facts: the values and the generator end state of the
    # scalar draws, and of count draws of m masks each
    Pair("numpy.Generator.integers:masks",
         lambda n, k, rng: rng.integers(0, 1 << n, size=k).tolist(),
         (lambda n, k, rng: [int(rng.integers(0, 1 << n)) for _ in range(k)],),
         groups(_mask_draws, [(n,) for n in range(1, qsim.PURE_QUBIT_CAP + 1)]), STREAM),
    Pair("numpy.Generator.integers:stack",
         lambda n, count, m, rng: rng.integers(0, 1 << n, size=(count, m)),
         (lambda n, count, m, rng: np.stack([rng.integers(0, 1 << n, size=m)
                                             for _ in range(count)]),),
         groups(_stack_draws, [(n,) for n in range(1, qsim.PURE_QUBIT_CAP + 1)]), STREAM),
]


PAIRS: dict[str, Pair] = {pair.name: pair for pair in [
    *QSIM_PAIRS, *CERTIFY_PAIRS, *TASK_PAIRS, *ORACLE_PAIRS, *ADVERSARY_PAIRS, *COVERTSQ_PAIRS,
    *ACQUIRE_PAIRS]}
