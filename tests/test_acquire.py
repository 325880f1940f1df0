import dataclasses
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import certify, oracles, qsim
from covertsim.gf2 import dot
from reference import overlap_round_all_rows


def phase_oracle(f, strategy=None):
    return oracles.QuantumChannelOracle(f, "QPh", strategy)


def qmem_oracle(f, strategy=None):
    return oracles.QuantumChannelOracle(f, "QMem", strategy)


class TestMaskedQueries:
    def test_randomness_mode_recovers_phase_state(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            f = bf.random_truth_table(n, rng)
            got = acquire.masked_query_phase_randomness(phase_oracle(f), rng)
            assert qsim.fidelity(got, qsim.prepare_phase_state(f)) > 1 - 1e-12

    def test_entangled_mode_unmask_paths(self):
        # measure-and-correct unmasking recovers the target exactly
        rng = np.random.default_rng(1)
        n = 3
        f = bf.random_truth_table(n, rng)
        target = qsim.prepare_phase_state(f)
        joint = acquire.masked_query_phase_entangled(phase_oracle(f), rng)
        got = acquire.unmask_entangled(joint, n, rng)
        assert qsim.fidelity(got, target) > 1 - 1e-12

    def test_entangled_joint_is_masked_phase_state(self):
        # the ideal 2n-qubit response is the phase state of g(r,x)=r·x+f(x)
        rng = np.random.default_rng(2)
        n = 3
        f = bf.random_truth_table(n, rng)
        joint = acquire.masked_query_phase_entangled(phase_oracle(f), rng)
        table = [dot(z & 7, z >> 3) ^ f(z >> 3) for z in range(64)]
        g = bf.truth_table(table)
        assert qsim.states_equal(joint, qsim.prepare_phase_state(g), 1e-12)

    def test_mask_average_is_maximally_mixed(self):
        # exact mask-averaged response-register state = I/2^n for every f
        n = 3
        rng = np.random.default_rng(3)
        for _ in range(4):
            f = bf.random_truth_table(n, rng)
            avg = np.zeros((8, 8), dtype=complex)
            for r in range(8):
                sent = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
                resp = qsim.apply_phase_oracle(sent, f, range(n))
                avg += np.outer(resp.vec, resp.vec.conj()) / 8
            assert np.abs(avg - np.eye(8) / 8).max() < 1e-12
            # entangled mode: trace out the private register instead
            joint = acquire.masked_query_phase_entangled(phase_oracle(f), rng)
            red = qsim.partial_trace(joint, list(range(n, 2 * n)))
            assert np.abs(red.mat - np.eye(8) / 8).max() < 1e-12

    def test_qmem_randomness_gives_rotated_example_state(self):
        rng = np.random.default_rng(5)
        for n, w in ((2, 1), (2, 2), (3, 2)):
            f = bf.random_truth_table(n, rng, w=w)
            got = acquire.masked_query_phase_randomness(qmem_oracle(f), rng)
            expect = qsim.apply_hadamards(
                qsim.prepare_example_state(f), range(n, n + w)
            )
            assert qsim.states_equal(got, expect, 1e-10)

    def test_qmem_entangled_joint(self):
        rng = np.random.default_rng(6)
        n, w = 2, 1
        f = bf.random_truth_table(n, rng, w=w)
        joint = acquire.masked_query_phase_entangled(qmem_oracle(f), rng)
        nw = n + w
        # ideal joint = phase state of G(rho, zeta) = rho·zeta + zeta_out·f(zeta_in)
        table = []
        for z in range(1 << (2 * nw)):
            rho, zeta = z & ((1 << nw) - 1), z >> nw
            x, y = zeta & ((1 << n) - 1), zeta >> n
            table.append(dot(rho, zeta) ^ dot(y, f(x)))
        assert qsim.states_equal(joint, qsim.prepare_phase_state(bf.truth_table(table)), 1e-10)


@dataclass(frozen=True)
class recording(adv.Strategy):
    """Test-only tap: logs the reduced state of each response register it
    sees, as the oracle sends it back, and passes the response on."""

    def response_tap(self, state, qubits, memory, rng):
        memory.events.append({"register": qsim.partial_trace(state, list(qubits))})
        return state


class TestSentMaskViews:
    """The privacy view of the masked query the trials run: the response
    register that `masked_query_phase_randomness` sends back, averaged over
    its masks, is the same for every target."""

    def test_mask_averaged_views_factorize(self):
        n = 3
        rng = np.random.default_rng(73)
        views = []
        for _ in range(4):
            oracle = phase_oracle(bf.random_truth_table(n, rng), recording())
            for r in range(1 << n):
                acquire.masked_query_phase_randomness(oracle, rng, r=r)
            seen = [e["register"].mat for e in oracle.tap.memory.events]
            assert len(seen) == 1 << n
            views.append(qsim.MixedState(n, sum(seen) / (1 << n)))
        assert adv.factorization_distance(views) <= 1e-9

    def test_each_drawn_mask_is_the_one_sent(self):
        n = 3
        f = bf.random_truth_table(n, np.random.default_rng(74))
        oracle = phase_oracle(f, recording())
        rng = np.random.default_rng(75)
        for _ in range(16):
            acquire.masked_query_phase_randomness(oracle, rng)
        replay = np.random.default_rng(75)  # the tap draws nothing
        for event in oracle.tap.memory.events:
            sent = qsim.apply_z_mask(qsim.uniform_state(n), int(replay.integers(0, 1 << n)),
                                     range(n))
            want = qsim.apply_phase_oracle(sent, f, range(n)).density()
            assert np.abs(event["register"].mat - want.mat).max() <= 1e-12
        assert len(oracle.tap.memory.events) == 16


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
    "depolarize": (adv.depolarize(0.5), 4, 0, 7, "randomness"),
    "measure_z": (adv.measure_z(), 4, 0, 7, "randomness"),
    "replace_zero": (adv.replace_zero(), 4, 0, 7, "randomness"),
    "honest-n8": (None, 8, 0, 7, "randomness"),
    "honest-n9": (None, 9, 0, 7, "randomness"),
    "depolarize-n9": (adv.depolarize(0.5), 9, 0, 7, "randomness"),
    "honest-m1": (None, 4, 0, 1, "randomness"),
    "measure_z-m1": (adv.measure_z(), 4, 0, 1, "randomness"),
}
# every other path through the block loop, with and without a drawing tap
for _n, _w in ((3, 0), (2, 1), (2, 2), (3, 2)):
    _target = f"qmem-{_n}x{_w}" if _w else f"qph-{_n}"
    for _mode in BLOCK_MODES:
        if _w or _mode != "randomness":
            BLOCK_CASES[f"{_target}-{_mode}"] = (None, _n, _w, 3, _mode)
            BLOCK_CASES[f"{_target}-{_mode}-depolarize"] = (adv.depolarize(0.5), _n, _w, 3, _mode)


def per_copy_query(oracle, rng, mode):
    """One copy as the block loop must write it, from the public queries."""
    if mode == "randomness":
        return acquire.masked_query_phase_randomness(oracle, rng)
    joint = acquire.masked_query_phase_entangled(oracle, rng)
    if mode == "entangled":
        return acquire.unmask_entangled(joint, oracle.f.n + oracle.out_width, rng)
    return joint


def spy_stacks(monkeypatch):
    """Record the (rows, index) of every `ProductBlock.indexed` call, in
    call order."""
    seen = []
    indexed = certify.ProductBlock.indexed.__func__

    def spy_indexed(cls, rows, index):
        seen.append((rows, index))
        return indexed(cls, rows, index)

    monkeypatch.setattr(certify.ProductBlock, "indexed", classmethod(spy_indexed))
    return seen


def spy_rounds(monkeypatch):
    """Record the local qubit of every round table built and, for every
    `certify.overlap_round` call, the block's copies, the view, the qubit,
    the generator state before and after, the round and the block's memo."""
    builds, rounds = [], []

    class Counting(certify._RoundTable):
        __slots__ = ()

        def __init__(self, vec, local):
            builds.append(local)
            super().__init__(vec, local)

    real_round = certify.overlap_round

    def spy(block, view, gen, qubit=None):
        before = gen.bit_generator.state
        got = real_round(block, view, gen, qubit)
        rounds.append((block.amps, view, before, qubit, got, gen.bit_generator.state,
                       block.round_tables))
        return got

    monkeypatch.setattr(certify, "_RoundTable", Counting)
    monkeypatch.setattr(certify, "overlap_round", spy)
    return builds, rounds


def assert_rounds_match_the_reference(rounds):
    """Each recorded round has the fields and the generator end state of
    the all-rows reference, replayed on a fresh block of its copies."""
    for amps, view, before, qubit, got, after, _ in rounds:
        replay = np.random.default_rng()
        replay.bit_generator.state = before
        want = overlap_round_all_rows(certify.ProductBlock(amps.copy()), view, replay, qubit)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert replay.bit_generator.state == after


class TestStackedBlocks:
    @pytest.mark.parametrize("strategy, n, w, m, mode", list(BLOCK_CASES.values()),
                             ids=list(BLOCK_CASES))
    def test_block_rows_equal_per_copy_queries(self, strategy, n, w, m, mode, monkeypatch):
        # each row bit-equal to its own masked query (plus unmask), the same
        # oracle count, tap events and generator state afterwards; one masked
        # query per row, with the masks drawn per block only for phase
        # targets behind the identity tap
        count = 3
        f = bf.random_truth_table(n, np.random.default_rng(30), w=w or 1)
        kind = "QMem" if w else "QPh"
        oracle_a, oracle_b = (
            oracles.QuantumChannelOracle(f, kind, strategy, transcript=oracles.Transcript())
            for _ in "ab"
        )
        rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
        query = acquire.masked_query_phase_randomness
        given_masks = []

        def spy(*args, **kwargs):
            given_masks.append(kwargs.get("r"))
            return query(*args, **kwargs)

        monkeypatch.setattr(acquire, "masked_query_phase_randomness", spy)
        entangled, unmask = BLOCK_MODES[mode]
        blocks = acquire._collect_blocks(
            oracle_a, m, count, rng_a, entangled=entangled, unmask=unmask
        )
        monkeypatch.undo()
        if entangled:
            assert given_masks == []
        elif strategy is None and not w:
            assert len(given_masks) == m * count
            assert all(r is not None for r in given_masks)
        else:
            assert given_masks == [None] * (m * count)
        for block in blocks:
            want = [per_copy_query(oracle_b, rng_b, mode) for _ in range(m)]
            assert block.amps.tobytes() == np.stack([c.vec for c in want]).tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert oracle_a.count == oracle_b.count == m * count
        assert oracle_a.tap.memory.events == oracle_b.tap.memory.events
        # one tap round per response, whether or not the tap acts on it
        assert oracle_a.tap.memory.round == oracle_b.tap.memory.round == m * count
        assert oracle_a.transcript.events == oracle_b.transcript.events
        if strategy is not None:
            assert oracle_a.tap.memory.events  # the tap acted on some queries

    @pytest.mark.parametrize("n", range(1, qsim.PURE_QUBIT_CAP + 1))
    def test_one_mask_draw_equals_scalar_draws(self, n):
        # the block loop's one draw of m masks relies on this numpy fact:
        # the same values and the same generator end state as m scalar draws
        for k in (1, 7, 201):
            rng_a, rng_b = np.random.default_rng(500 + n), np.random.default_rng(500 + n)
            block = rng_a.integers(0, 1 << n, size=k).tolist()
            scalars = [int(rng_b.integers(0, 1 << n)) for _ in range(k)]
            assert block == scalars
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n", range(1, qsim.PURE_QUBIT_CAP + 1))
    def test_one_stack_draw_equals_block_draws(self, n):
        # the block loop's one draw of count x m masks relies on this numpy
        # fact: the same values and the same generator end state as count
        # draws of m masks each
        for count in (1, 3, 20):
            for m in (1, 7, 201):
                seed = 700 + 10 * n + count
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                stack = rng_a.integers(0, 1 << n, size=(count, m))
                blocks = np.stack([rng_b.integers(0, 1 << n, size=m) for _ in range(count)])
                assert stack.dtype == blocks.dtype and (stack == blocks).all()
                assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_given_mask_outside_its_range_is_refused(self):
        n = 3
        oracle = phase_oracle(bf.random_truth_table(n, np.random.default_rng(32)))
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        row = np.zeros(1 << n, dtype=complex)
        for r in (-1, 1 << n, 1 << 40):
            with pytest.raises(ValueError, match="outside"):
                acquire.masked_query_phase_randomness(oracle, rng, out=row, r=r)
            with pytest.raises(ValueError, match="outside"):
                acquire.masked_query_phase_randomness(oracle, rng, r=r)
        assert oracle.count == 0 and rng.bit_generator.state == before
        # the extremes of the range are taken, and the mask is the one given
        for r in (0, (1 << n) - 1):
            got = acquire.masked_query_phase_randomness(oracle, rng, r=r)
            assert qsim.fidelity(got, qsim.prepare_phase_state(oracle.f)) > 1 - 1e-12
        assert oracle.count == 2 and rng.bit_generator.state == before

    @pytest.mark.parametrize("r", (True, False, np.True_, 3.0, np.float64(3), "3", 3 + 0j),
                             ids=repr)
    def test_given_mask_that_is_not_an_int_is_refused(self, r):
        # before any draw or query; a bool is not taken as mask 0 or 1
        n = 3
        oracle = phase_oracle(bf.random_truth_table(n, np.random.default_rng(51)))
        rng = np.random.default_rng(52)
        before = rng.bit_generator.state
        row = np.zeros(1 << n, dtype=complex)
        for out in (row, None):
            with pytest.raises(ValueError, match="not an int"):
                acquire.masked_query_phase_randomness(oracle, rng, out=out, r=r)
        assert oracle.count == 0 and rng.bit_generator.state == before
        assert not row.any()

    @pytest.mark.parametrize("w", (0, 1))
    def test_given_numpy_int_mask_is_taken(self, w):
        # as the Python int, also where the QMem out mask sits above an
        # 8-bit input mask
        n = 8
        f = bf.random_truth_table(n, np.random.default_rng(53), w=w or 1)
        kind = "QMem" if w else "QPh"
        for r in (np.int64(5), np.uint8(5), np.uint8(255)):
            got, want = (
                acquire.masked_query_phase_randomness(
                    oracles.QuantumChannelOracle(f, kind), np.random.default_rng(54), r=mask)
                for mask in (r, int(r)))
            assert got.vec.tobytes() == want.vec.tobytes()

    def test_masked_query_over_the_cap_is_refused_before_any_draw(self, monkeypatch):
        # an oracle whose n + w qubits no mask can hold is refused when it
        # is built, so no masked query on it can draw
        monkeypatch.setattr(qsim, "PURE_QUBIT_CAP", 5)
        rng = np.random.default_rng(55)
        for make, f in ((phase_oracle, bf.random_truth_table(6, rng)),
                        (qmem_oracle, bf.random_truth_table(4, rng, w=2))):
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match="cap"):
                acquire.masked_query_phase_randomness(make(f), rng)
            assert rng.bit_generator.state == before

    def test_masked_plus_states_equal_the_z_masked_uniform_state(self):
        for n in (1, 3, 8, 9):
            for r in range(0, 1 << n, max(1, (1 << n) // 40)):
                got = acquire._phase_mask(n, r)[0].vec
                want = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n)).vec
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@dataclass(frozen=True)
class stretch_round_four(adv.Strategy):
    """Test-only tap: the response of round 4 comes back unnormalized."""

    def response_tap(self, state, qubits, memory, rng):
        return qsim._trusted(state.n, state.vec * 1.01) if memory.round == 4 else state


class TestKeyedStacks:
    @pytest.mark.parametrize("strategy, n, w, m, mode", list(BLOCK_CASES.values()),
                             ids=list(BLOCK_CASES))
    def test_only_identity_phase_stacks_are_keyed(self, strategy, n, w, m, mode,
                                                  monkeypatch):
        # randomness-masked phase copies behind the identity tap are held as
        # one table row per mask, indexed by the masks; every other table
        # holds one row per copy, in query order, indexed by consecutive rows
        f = bf.random_truth_table(n, np.random.default_rng(60), w=w or 1)
        oracle = oracles.QuantumChannelOracle(f, "QMem" if w else "QPh", strategy)
        seen = spy_stacks(monkeypatch)
        entangled, unmask = BLOCK_MODES[mode]
        blocks = acquire._collect_blocks(oracle, m, 3, np.random.default_rng(61),
                                         entangled, unmask)
        (rows, index), = seen
        assert index.shape == (3, m) and index.dtype.kind in "iu"
        assert all(b.rows is rows and b.index.shape == (m,)
                   and b.row_classes.shape == (m,) for b in blocks)
        if strategy is None and not w and mode == "randomness":
            assert rows.shape == (len(np.unique(index)), 1 << n)
        else:
            qubits = (n + w) * (2 if entangled and not unmask else 1)
            assert rows.shape == (3 * m, 1 << qubits)
            assert (index == np.arange(3 * m).reshape(3, m)).all()

    def test_a_strategy_that_taps_nothing_gets_the_mask_table(self, monkeypatch):
        # a Strategy subclass that overrides neither tap passes through, as
        # identity does: its acquisition holds one table row per distinct
        # mask and equals identity's byte for byte
        @dataclass(frozen=True)
        class bystander(adv.Strategy):
            pass

        f = bf.random_truth_table(3, np.random.default_rng(67))
        seen = spy_stacks(monkeypatch)
        runs = []
        for strategy in (adv.identity(), bystander()):
            oracle = phase_oracle(f, strategy)
            rng = np.random.default_rng(68)
            res = acquire.acquire_unidirectional(oracle, oracles.MemOracle(f), 5, 0.1, 0.1,
                                                 rng, n_blocks=6)
            assert oracle.pass_through and res.accepted
            runs.append((acquisition_outcome(res), oracle.count, oracle.tap.memory.round,
                         rng.bit_generator.state))
        assert runs[0] == runs[1]
        (rows, index), (rows_b, index_b) = seen
        assert len(rows_b) <= 1 << 3 < index_b.size
        assert rows.tobytes() == rows_b.tobytes() and (index == index_b).all()

    @pytest.mark.parametrize("memo", ("kept", "full"))
    @pytest.mark.parametrize("n, m, count", [(3, 5, 8), (8, 201, 3), (9, 40, 20)])
    def test_rows_with_equal_keys_are_byte_equal(self, n, m, count, memo, monkeypatch):
        # a mask's first query writes its table row, and every later query
        # with that mask would have written the same bytes: each copy equals
        # its own masked query, also above qsim.SIGN_TABLE_QUBITS (n = 9, no
        # kept mask table) and past the response memo's bound (responses
        # computed afresh); every row equals the target phase state
        if memo == "full":
            monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 2 * 16 << n)
        rng = np.random.default_rng(62 + n)
        f = bf.random_truth_table(n, rng)
        oracle, replay = phase_oracle(f), phase_oracle(f)
        seen = spy_stacks(monkeypatch)
        query = acquire.masked_query_phase_randomness
        masks = []

        def spy(*args, **kwargs):
            masks.append(kwargs["r"])
            return query(*args, **kwargs)

        monkeypatch.setattr(acquire, "masked_query_phase_randomness", spy)
        blocks = acquire._collect_blocks(oracle, m, count, rng, entangled=False,
                                         unmask=True)
        (rows, index), = seen
        assert len(masks) == m * count and sorted(set(index.flat)) == list(range(len(rows)))
        copies = np.concatenate([block.amps for block in blocks])
        for r, copy in zip(masks, copies):
            want = np.empty(1 << n, dtype=complex)
            query(replay, None, out=want, r=r)
            assert copy.tobytes() == want.tobytes()
        assert m * count - len(rows) > count
        assert (rows == qsim.prepare_phase_state(f).vec).all()
        if memo == "full" and n <= qsim.SIGN_TABLE_QUBITS:
            assert oracle.responses.nbytes == adv.MEASUREMENT_MEMO_BYTES
            assert len(oracle.responses.memo) == 2

    def test_a_forrelation_stack_builds_at_most_q_tables(self, monkeypatch):
        # an honest acquisition of 20 blocks of 201 copies of an 8-qubit
        # phase state: its rows differ only in the signs of zero imaginary
        # parts, so they form one class and its 19 rounds build at most one
        # table per local qubit, keyed by that class; each round answers as
        # the all-rows reference on a fresh block of its copies
        q = 8
        f = bf.random_truth_table(q, np.random.default_rng(63))
        seen = spy_stacks(monkeypatch)
        builds, rounds = spy_rounds(monkeypatch)
        res = acquire.acquire_unidirectional(
            phase_oracle(f), oracles.MemOracle(f), 201, 1e-4, 0.02, np.random.default_rng(64))
        assert res.accepted and len(rounds) == 19
        assert len(builds) <= q < len(rounds)
        (rows, index), = seen
        assert len({row.tobytes() for row in rows}) > 1
        assert len(np.unique(index)) == len(rows) > 1
        memo, = {id(r[-1]): r[-1] for r in rounds}.values()
        assert {key[0] for key in memo.memo} == {0} and len(memo.memo) == len(builds)
        monkeypatch.undo()
        assert_rounds_match_the_reference(rounds)

    def test_an_honest_simon_acquisition_reuses_its_round_tables(self, monkeypatch):
        # simon's shape: QMem kickback copies of a 4-bit Simon function with
        # 4 out qubits, 20 blocks of one copy, four acquisitions on one
        # oracle. Honest copies compare equal to row 0, so they share a class
        # and their rounds build fewer tables than they run; each round
        # answers as the all-rows reference on a fresh block of its copies
        rng = np.random.default_rng(67)
        n = 4
        f = bf.random_simon_fn(n, 0b0110, rng)
        oracle, mem = qmem_oracle(f), oracles.MemOracle(f)
        builds, rounds = spy_rounds(monkeypatch)
        for _ in range(4):
            assert acquire.acquire_unidirectional(oracle, mem, 1, 0.1, 0.1, rng).accepted
        assert len(rounds) == 4 * (acquire.DEFAULT_BLOCKS - 1)
        assert len(builds) < len(rounds)
        monkeypatch.undo()
        assert_rounds_match_the_reference(rounds)

    def test_an_honest_forrelation_acquisition_holds_one_small_table(self):
        # 20 blocks of 201 copies at q = 8 hold one table of at most 2^q
        # rows (1 MiB), shared by every block, where a stack of every copy
        # would take 16.5 MB; allocation peaks stay near the table's size
        q, m, count = 8, 201, 20
        f = bf.random_truth_table(q, np.random.default_rng(65))
        oracle = phase_oracle(f)
        rng = np.random.default_rng(66)
        acquire._collect_blocks(oracle, 1, 1, rng, entangled=False, unmask=True)
        tracemalloc.start()
        try:
            blocks = acquire._collect_blocks(oracle, m, count, rng, entangled=False,
                                             unmask=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = blocks[0].rows
        assert len(blocks) == count and all(b.rows is table for b in blocks)
        assert table.shape[0] <= 1 << q and table.nbytes <= 1 << 20
        assert all(b.index.shape == (m,) for b in blocks)
        assert oracle.count == 1 + m * count
        # the table, the memoised responses (another 1 MiB at most), the
        # (count, m) masks and their index; 16.5 MB if every copy were held
        assert peak < 3 << 20 < count * m * 16 << q


class TestBlockStack:
    @pytest.mark.parametrize("entangled", [False, True])
    def test_unnormalized_copy_is_refused_after_the_stack_is_filled(self, entangled):
        # the stack is checked once, so the queries all run, and no block is
        # handed out
        f = bf.random_truth_table(2, np.random.default_rng(34))
        oracle = phase_oracle(f, stretch_round_four())
        with pytest.raises(ValueError, match="not normalized"):
            acquire._collect_blocks(oracle, 2, 5, np.random.default_rng(35),
                                    entangled=entangled, unmask=False)
        assert oracle.count == 10

    def test_collected_blocks_share_one_read_only_stack(self):
        # one read-only table row per copy, in query order; each block's
        # copies are views of its rows
        f = bf.random_truth_table(3, np.random.default_rng(36))
        blocks = acquire._collect_blocks(phase_oracle(f, adv.ancilla_free(0.5)), 2, 4,
                                         np.random.default_rng(37),
                                         entangled=True, unmask=False)
        table = blocks[0].rows
        assert table.shape == (8, 64) and not table.flags.writeable
        for j, block in enumerate(blocks):
            assert block.rows is table and block.index.tolist() == [2 * j, 2 * j + 1]
            assert all(copy.vec.base is table for copy in block)
            assert block.amps.tobytes() == table[2 * j:2 * j + 2].tobytes()

    @pytest.mark.parametrize("mode, table_rows", [
        ("randomness", 7),  # a row per distinct mask
        ("entangled", 20),  # a row per copy
    ])
    def test_delivered_phase_block_is_the_certified_block(self, mode, table_rows, monkeypatch):
        # the block certification emits is delivered as it is: its read-only
        # table, index and row classes, neither gathered nor checked again
        certify_noniid = certify.certify_state_noniid
        emitted = []

        def spy(*args, **kwargs):
            record, out = certify_noniid(*args, **kwargs)
            emitted.append(out)
            return record, out

        row_classes, classed = certify._row_classes, []
        monkeypatch.setattr(certify, "certify_state_noniid", spy)
        monkeypatch.setattr(certify, "_row_classes",
                            lambda rows: classed.append(rows) or row_classes(rows))
        f = bf.random_truth_table(3, np.random.default_rng(38))
        res = acquire.acquire_unidirectional(phase_oracle(f), oracles.MemOracle(f), 4,
                                             0.1, 0.1, np.random.default_rng(39),
                                             n_blocks=5, mode=mode)
        (out,) = emitted
        assert res.accepted and res.output is out
        assert res.output.rows is out.rows and res.output.rows.shape == (table_rows, 8)
        assert res.output.index is out.index and res.output.row_classes is out.row_classes
        assert not out.rows.flags.writeable and not out.index.flags.writeable
        assert len(classed) == 1 and classed[0] is out.rows  # the table, classed once


class TestCoupledPair:
    def test_pair_is_the_phase_state_of_the_inner_product(self):
        # amplitude of |r> (mask, low) |x> (query, high) is 2^-n (-1)^{r.x}
        for n in (1, 3, 4):
            want = qsim.z_sign_table(n).reshape(-1) / (1 << n)
            np.testing.assert_allclose(acquire._coupled_pair(n).vec, want, rtol=0, atol=1e-15)

    def test_cache_stops_above_sign_table_size(self, monkeypatch):
        monkeypatch.setattr(qsim, "SIGN_TABLE_QUBITS", 2)
        monkeypatch.setattr(acquire, "_COUPLED_PAIRS", {})
        kept = acquire._coupled_pair(2)
        assert acquire._coupled_pair(2) is kept
        larger = acquire._coupled_pair(3)
        assert acquire._coupled_pair(3) is not larger
        assert list(acquire._COUPLED_PAIRS) == [2]
        for pair in (kept, larger):
            with pytest.raises(ValueError):
                pair.vec[0] = 0

    def test_measuring_taps_leave_the_shared_pair_unchanged(self):
        # both entangled query kinds share the 3-qubit-register pair
        rng = np.random.default_rng(40)
        pair = acquire._coupled_pair(3)
        before = pair.vec.tobytes()
        phase = phase_oracle(bf.random_truth_table(3, rng), adv.ancilla_free(1.0))
        qmem = qmem_oracle(bf.random_truth_table(2, rng), adv.ancilla_free(1.0))
        for _ in range(10):
            acquire.masked_query_phase_entangled(phase, rng)
            acquire.masked_query_phase_entangled(qmem, rng)
        for oracle in (phase, qmem):  # the taps measured every query
            assert len(oracle.tap.memory.events) == 20
        assert acquire._coupled_pair(3) is pair and pair.vec.tobytes() == before


def kind_strategy(kind):
    """The adversary of `kind`, each required field (a probability) at 1/2."""
    cls = adv.KINDS[kind]
    return cls(**{f.name: 0.5 for f in dataclasses.fields(cls)
                  if f.default is dataclasses.MISSING})


def bypass_response_memo(monkeypatch):
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

    monkeypatch.setattr(acquire, "_PHASE_MASKS", {})
    monkeypatch.setattr(acquire, "_phase_mask", fresh_mask)
    monkeypatch.setattr(acquire, "_coupled_pair", fresh_pair)
    monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 0)


def acquisition_outcome(res):
    output = res.output and [c.vec.tobytes() for c in res.output]
    return (res.accepted, res.record, res.pub_queries, res.pri_queries,
            res.blocks_used, res.paper_blocks, output)


class TestResponseMemo:
    ACQUISITIONS = {
        "randomness": lambda o, mem, rng: acquire.acquire_unidirectional(
            o, mem, 2, 0.1, 0.1, rng, n_blocks=6, mode="randomness"),
        "entangled": lambda o, mem, rng: acquire.acquire_unidirectional(
            o, mem, 2, 0.1, 0.1, rng, n_blocks=6, mode="entangled"),
        "ancilla-free": lambda o, mem, rng: acquire.acquire_ancilla_free(
            o, mem, 2, 0.1, 0.1, 0.5, rng, n_blocks=6),
    }

    @pytest.mark.parametrize("acquisition", list(ACQUISITIONS))
    @pytest.mark.parametrize("kind", sorted(adv.KINDS))
    def test_memoised_run_equals_a_run_without_it(self, kind, acquisition, monkeypatch):
        # the same records, transcript, tap events, counts, tap rounds and
        # generator state; the memo fills whenever a read-only state reaches
        # the oracle, which answers it afresh the first time
        f = bf.random_truth_table(3, np.random.default_rng(41))
        phase_response, fresh = oracles.QuantumChannelOracle._phase_response, []

        def spy(oracle, state, key):
            fresh.append(state.vec.flags.writeable)
            return phase_response(oracle, state, key)

        monkeypatch.setattr(oracles.QuantumChannelOracle, "_phase_response", spy)

        def run():
            oracle = oracles.QuantumChannelOracle(f, "QPh", kind_strategy(kind),
                                                  transcript=oracles.Transcript())
            mem, rng = oracles.MemOracle(f), np.random.default_rng(42)
            try:
                outcome = acquisition_outcome(self.ACQUISITIONS[acquisition](oracle, mem, rng))
            except RuntimeError as e:  # the swap attack faults on entangled registers
                outcome = repr(e)
            return oracle, mem, rng, outcome

        memoised = run()
        read_only_reached = not all(fresh)
        bypass_response_memo(monkeypatch)
        plain = run()
        (oracle_a, mem_a, rng_a, got), (oracle_b, mem_b, rng_b, want) = memoised, plain
        assert got == want
        assert oracle_a.transcript.events == oracle_b.transcript.events
        assert oracle_a.tap.memory.events == oracle_b.tap.memory.events
        assert oracle_a.count == oracle_b.count and mem_a.count == mem_b.count
        assert oracle_a.tap.memory.round == oracle_b.tap.memory.round == oracle_a.count
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert oracle_b.responses.memo == {} and oracle_b.responses.nbytes == 0
        assert bool(oracle_a.responses.memo) == read_only_reached
        for sent, response in oracle_a.responses.memo.values():
            assert not sent.vec.flags.writeable and not response.vec.flags.writeable

    def test_memoised_response_is_the_oracle_response_read_only(self):
        n = 4
        f = bf.random_truth_table(n, np.random.default_rng(43))
        oracle = phase_oracle(f)
        for r in (0, 5, 5, 0, 9):
            sent = acquire._phase_mask(n, r)[0]
            got = oracle.query(sent, range(n))
            want = qsim.apply_phase_oracle(sent, f, range(n))
            assert got.vec.tobytes() == want.vec.tobytes()
            assert not got.vec.flags.writeable
            assert oracle.responses.memo[id(sent), range(n)][1] is got
        assert len(oracle.responses.memo) == 3 and oracle.count == 5
        assert oracle.responses.nbytes == 3 * 16 << n
        # another register of the same state is a separate entry
        oracle.query(sent, [3, 2, 1, 0])
        assert (id(sent), (3, 2, 1, 0)) in oracle.responses.memo

    def test_a_measuring_query_tap_post_state_is_kept(self):
        # an ancilla-free tap that always measures hands the oracle its
        # read-only post-state, which the memo keeps, answered as any state
        n = 3
        f = bf.random_truth_table(n, np.random.default_rng(44))
        rng = np.random.default_rng(45)
        sent = acquire._phase_mask(n, 1)[0]
        oracle = phase_oracle(f, adv.ancilla_free(1.0, extract_post=False))
        assert oracle.tap.taps_query
        got = oracle.query(sent, range(n), rng=rng)
        (post, response), = oracle.responses.memo.values()
        assert post is not sent and not post.vec.flags.writeable and response is got
        assert got.vec.tobytes() == qsim.apply_phase_oracle(post, f, range(n)).vec.tobytes()
        assert oracle.count == 1

    def test_the_swap_attacks_swapped_in_state_is_never_kept(self):
        # the swap attack's swapped-in state is writeable: never kept
        n = 3
        f = bf.random_truth_table(n, np.random.default_rng(44))
        rng = np.random.default_rng(45)
        sent = acquire._phase_mask(n, 1)[0]
        oracle = phase_oracle(f, adv.swap_attack())
        assert oracle.tap.taps_query
        swapped = adv.swap_attack().query_tap(sent, range(n), adv.TapMemory(), rng)
        assert swapped.vec.flags.writeable
        oracle.query(sent, range(n), rng=rng)
        assert oracle.responses.memo == {} and oracle.count == 1

    def test_writeable_sent_states_never_fill_the_memo(self):
        n = 3
        oracle = phase_oracle(bf.random_truth_table(n, np.random.default_rng(46)))
        sent = qsim.PureState(n, acquire._phase_mask(n, 6)[0].vec.copy())
        for _ in range(3):
            assert oracle.query(sent, range(n)).vec.flags.writeable
        assert oracle.responses.memo == {} and oracle.count == 3

    def test_memo_bytes_stay_within_the_bound(self, monkeypatch):
        # through a bound of three 4-qubit responses: the rest are answered
        # as before, unkept, and the kept bytes never pass it
        n = 4
        monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 3 * 16 << n)
        f = bf.random_truth_table(n, np.random.default_rng(47))
        oracle = phase_oracle(f)
        for r in [*range(1 << n), *range(1 << n)]:
            sent = acquire._phase_mask(n, r)[0]
            got = oracle.query(sent, range(n))
            assert got.vec.tobytes() == qsim.apply_phase_oracle(sent, f, range(n)).vec.tobytes()
            assert oracle.responses.nbytes <= adv.MEASUREMENT_MEMO_BYTES
        assert len(oracle.responses.memo) == 3 and oracle.responses.nbytes == 3 * 16 << n

    def test_largest_shared_table_fits_the_bound(self):
        # every row of the largest kept mask table: exactly the 1 MiB bound
        n = qsim.SIGN_TABLE_QUBITS
        oracle = phase_oracle(bf.random_truth_table(n, np.random.default_rng(48)))
        for r in range(1 << n):
            oracle.query(acquire._phase_mask(n, r)[0], range(n))
        assert len(oracle.responses.memo) == 1 << n
        assert oracle.responses.nbytes == adv.MEASUREMENT_MEMO_BYTES

    def test_above_the_sign_table_size_only_read_only_states_are_kept(self):
        n = qsim.SIGN_TABLE_QUBITS + 1
        f = bf.random_truth_table(n, np.random.default_rng(49))
        oracle = phase_oracle(f)
        rng = np.random.default_rng(50)
        # no mask table is kept at this size: each mask row is built afresh,
        # writeable, and its response is not kept
        for _ in range(4):
            acquire.masked_query_phase_randomness(oracle, rng)
        assert oracle.responses.memo == {} and oracle.responses.nbytes == 0
        # a read-only state within the memo's bound is kept and answered from it
        frozen = qsim.uniform_state(n)
        frozen.vec.flags.writeable = False
        got = oracle.query(frozen, range(n))
        assert oracle.query(frozen, range(n)) is got
        assert got.vec.tobytes() == qsim.apply_phase_oracle(frozen, f, range(n)).vec.tobytes()
        assert list(oracle.responses.memo) == [(id(frozen), range(n))]
        assert oracle.responses.nbytes == 16 << n and oracle.count == 6


class TestAcquireUnidirectional:
    def test_completeness_no_adversary(self):
        rng = np.random.default_rng(7)
        n, m = 3, 1
        f = bf.random_truth_table(n, rng)
        oracle = phase_oracle(f)
        mem = oracles.MemOracle(f)
        res = acquire.acquire_unidirectional(oracle, mem, m, 0.1, 0.1, rng)
        assert res.accepted
        assert qsim.fidelity(res.output[0], qsim.prepare_phase_state(f)) > 1 - 1e-9
        assert res.pub_queries == acquire.DEFAULT_BLOCKS * m
        assert res.record.omega_hat == 1.0

    def test_completeness_multicopy_entangled_mode(self):
        rng = np.random.default_rng(8)
        n, m = 2, 2
        f = bf.random_truth_table(n, rng)
        res = acquire.acquire_unidirectional(
            phase_oracle(f), oracles.MemOracle(f), m, 0.1, 0.1, rng,
            mode=acquire.ENTANGLED,
        )
        assert res.accepted and len(res.output) == m
        target = qsim.prepare_phase_state(f)
        for c in res.output:
            assert qsim.fidelity(c, target) > 1 - 1e-9

    def test_soundness_response_replace(self):
        rng = np.random.default_rng(9)
        n = 3
        f = bf.random_truth_table(n, rng)
        target = qsim.prepare_phase_state(f)
        bad_joint = 0
        for t in range(60):
            trng = np.random.default_rng(800 + t)
            oracle = phase_oracle(f, adv.replace_zero())
            res = acquire.acquire_unidirectional(
                oracle, oracles.MemOracle(f), 1, 0.1, 0.1, trng
            )
            if res.accepted and qsim.fidelity(res.output[0], target) < 0.8:
                bad_joint += 1
        assert bad_joint <= 2

    def test_mem_count_weighting(self):
        rng = np.random.default_rng(10)
        n, m = 2, 2
        f = bf.random_truth_table(n, rng)
        mem = oracles.MemOracle(f)
        res = acquire.acquire_unidirectional(
            phase_oracle(f), mem, m, 0.1, 0.1, rng, n_blocks=10
        )
        # 2 view queries per round, m base queries each, 9 measured rounds
        assert res.pri_queries == 2 * m * 9


class TestRefusals:
    """Bad block counts and sizes are refused before any public query."""

    @pytest.mark.parametrize("acquire_with", [
        lambda o, mem, rng: acquire.acquire_unidirectional(
            o, mem, 1, 0.1, 0.1, rng, n_blocks=1),
        lambda o, mem, rng: acquire.acquire_unidirectional(
            o, mem, 1, 0.1, 0.1, rng, n_blocks=0, mode=acquire.ENTANGLED),
        lambda o, mem, rng: acquire.acquire_ancilla_free(
            o, mem, 1, 0.1, 0.1, 0.5, rng, n_blocks=0),
    ], ids=["unidirectional-1", "unidirectional-entangled-0", "ancilla-free-0"])
    def test_uncertifiable_block_count(self, acquire_with):
        f = bf.random_truth_table(2, np.random.default_rng(34))
        oracle, mem = phase_oracle(f, adv.ancilla_free(1.0)), oracles.MemOracle(f)
        rng = np.random.default_rng(35)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least"):
            acquire_with(oracle, mem, rng)
        assert oracle.count == mem.count == 0 and not oracle.tap.memory.events
        assert rng.bit_generator.state == before

    def test_schedules_refuse_uncertifiable_block_counts(self):
        with pytest.raises(ValueError, match="at least two blocks"):
            acquire.unidirectional_schedule(3, 1, 0.1, 0.1, 1)
        with pytest.raises(ValueError, match="at least one certification block"):
            acquire.ancilla_free_schedule(3, 1, 0.1, 0.1, 0.5, 0)
        assert acquire.unidirectional_schedule(3, 1, 0.1, 0.1, 2).cert_blocks == 2
        assert acquire.ancilla_free_schedule(3, 1, 0.1, 0.1, 0.5, 1).cert_blocks == 1

    def test_coupled_pair_over_the_cap_is_refused_before_any_query(self, monkeypatch):
        monkeypatch.setattr(qsim, "PURE_QUBIT_CAP", 5)
        monkeypatch.setattr(acquire, "_COUPLED_PAIRS", {})
        f = bf.random_truth_table(3, np.random.default_rng(36))
        oracle = phase_oracle(f)
        with pytest.raises(ValueError, match="cap"):
            acquire.acquire_unidirectional(
                oracle, oracles.MemOracle(f), 1, 0.1, 0.1,
                np.random.default_rng(37), mode=acquire.ENTANGLED,
            )
        assert oracle.count == 0 and acquire._COUPLED_PAIRS == {}

    def test_blocks_over_the_cap_are_refused_before_they_are_allocated(self, monkeypatch):
        # an ancilla-free copy keeps its 3-qubit mask register: 6 qubits
        monkeypatch.setattr(qsim, "PURE_QUBIT_CAP", 5)
        f = bf.random_truth_table(3, np.random.default_rng(38))
        oracle = phase_oracle(f)
        allocated = []
        monkeypatch.setattr(acquire.np, "empty", lambda *args, **kw: allocated.append(args))
        with pytest.raises(ValueError, match="6-qubit copy is above the pure-state cap"):
            acquire.acquire_ancilla_free(
                oracle, oracles.MemOracle(f), 1, 0.1, 0.1, 0.5,
                np.random.default_rng(39), n_blocks=1,
            )
        assert allocated == [] and oracle.count == 0


class TestAmplifiedTask:
    @staticmethod
    def parity_vs_constant_task(n):
        def task(copies):
            out, _ = qsim.measure_qubits(
                qsim.apply_hadamards(copies[0], range(n)), list(range(n)), "Z",
                np.random.default_rng(0),
            )
            return int(out != 0)  # 1 = parity, 0 = constant

        return task

    @classmethod
    def amplified_rounds(cls, n, oracle, mem, rng):
        """ell unidirectional rounds (delta_A = 0.1, delta = 0.1) of the
        parity-vs-constant task on one copy each."""
        return acquire.task_rounds(
            cls.parity_vs_constant_task(n),
            acquire.amplification_rounds(0.1, 0.1),
            lambda: acquire.acquire_unidirectional(
                oracle, mem, 1, 0.1, 0.1, rng, n_blocks=8
            ),
        )

    def test_round_formula(self):
        assert acquire.amplification_rounds(0.05, 0.1) == math.ceil(
            2 * math.log(20) / 0.36
        )
        assert acquire.amplification_rounds(0.05, 0.1) == 17
        with pytest.raises(ValueError):
            acquire.amplification_rounds(0.05, 0.3)

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_no_rounds_is_refused_before_any_acquisition(self, rounds):
        acquired = []
        with pytest.raises(ValueError, match=rf"task_rounds needs rounds >= 1, got {rounds}"):
            acquire.task_rounds(lambda copies: 0, rounds, lambda: acquired.append(1))
        assert acquired == []

    def test_honest_majority(self):
        rng = np.random.default_rng(11)
        n = 2
        f = bf.parity_fn(0b11, n)
        out = self.amplified_rounds(n, phase_oracle(f), oracles.MemOracle(f), rng)
        assert not out.rejected
        assert out.answer == 1
        assert out.rounds == acquire.amplification_rounds(0.1, 0.1)

    def test_corrupted_rounds_reject(self):
        rng = np.random.default_rng(12)
        n = 2
        f = bf.parity_fn(0b01, n)
        oracle = phase_oracle(f, adv.replace_zero())
        out = self.amplified_rounds(n, oracle, oracles.MemOracle(f), rng)
        assert out.rejected


class TestAcquireAncillaFree:
    def test_eps_leak_formula(self):
        assert acquire.eps_leak(0.5, 2) == pytest.approx(1 - 0.75**2)
        assert acquire.eps_leak(0.5, 2) == pytest.approx(0.4375)
        assert acquire.eps_leak(1.0, 1) == pytest.approx(0.5)

    def test_accuracy_rule(self):
        assert acquire.ancilla_free_accuracy(0.1, 0.5, 1) == min(
            0.1, 0.75 * acquire.eps_leak(0.5, 1)
        )
        assert acquire.ancilla_free_accuracy(0.5, 0.2, 1) == pytest.approx(0.75 * 0.1)
        # an adversary that never leaks leaves the accuracy at eps
        assert acquire.ancilla_free_accuracy(0.1, 0.0, 3) == 0.1

    def test_completeness_no_adversary(self):
        rng = np.random.default_rng(14)
        n, m = 2, 1
        f = bf.random_truth_table(n, rng)
        res = acquire.acquire_ancilla_free(
            phase_oracle(f), oracles.MemOracle(f), m, 0.1, 0.1, 0.5, rng,
            n_blocks=40,
        )
        assert res.accepted
        assert res.record.omega_hat == 1.0
        assert qsim.fidelity(res.output[0], qsim.prepare_phase_state(f)) > 1 - 1e-9

    def test_formula_block_count(self):
        # N from the linear copy formula at the min{eps, (1-c) eps_leak} accuracy
        acc = min(0.1, 0.75 * acquire.eps_leak(0.5, 1))
        expect = certify.adaptive_copy_count(4, acc, 0.1)
        rng = np.random.default_rng(15)
        f = bf.constant_fn(2)
        res = acquire.acquire_ancilla_free(
            phase_oracle(f), oracles.MemOracle(f), 1, 0.1, 0.1, 0.5, rng
        )
        assert res.blocks_used == expect + 1

    def test_leaky_adversary_detected(self):
        rng = np.random.default_rng(16)
        n, m = 2, 1
        f = bf.random_truth_table(n, rng)
        accepts = 0
        for t in range(30):
            trng = np.random.default_rng(900 + t)
            oracle = phase_oracle(f, adv.ancilla_free(1.0))
            res = acquire.acquire_ancilla_free(
                oracle, oracles.MemOracle(f), m, 0.1, 0.1, 1.0, trng,
                n_blocks=60,
            )
            accepts += res.accepted
        assert accepts == 0


class TestQMemAcquisition:
    def test_unidirectional_example_states(self):
        rng = np.random.default_rng(17)
        n, w = 2, 2
        f = bf.random_simon_fn(n, 0b11, rng)
        res = acquire.acquire_unidirectional(
            qmem_oracle(f), oracles.MemOracle(f), 1, 0.1, 0.1, rng,
            n_blocks=15,
        )
        assert res.accepted
        assert qsim.fidelity(res.output[0], qsim.prepare_example_state(f)) > 1 - 1e-9

    def test_unidirectional_entangled_mode_example_states(self):
        rng = np.random.default_rng(20)
        n, w = 2, 1
        f = bf.random_truth_table(n, rng, w=w)
        res = acquire.acquire_unidirectional(
            qmem_oracle(f), oracles.MemOracle(f), 1, 0.1, 0.1, rng,
            n_blocks=10, mode=acquire.ENTANGLED,
        )
        assert res.accepted and res.pub_queries == 10
        assert qsim.fidelity(res.output[0], qsim.prepare_example_state(f)) > 1 - 1e-9

    def test_unknown_mode_rejected(self):
        f = bf.constant_fn(2)
        with pytest.raises(ValueError):
            acquire.acquire_unidirectional(
                phase_oracle(f), oracles.MemOracle(f), 1, 0.1, 0.1,
                np.random.default_rng(0), mode="bogus",
            )

    def test_ancilla_free_example_states(self):
        rng = np.random.default_rng(18)
        n, w = 2, 1
        f = bf.random_truth_table(n, rng, w=w)
        res = acquire.acquire_ancilla_free(
            qmem_oracle(f), oracles.MemOracle(f), 1, 0.2, 0.1, 0.5, rng,
            n_blocks=30,
        )
        assert res.accepted
        assert qsim.fidelity(res.output[0], qsim.prepare_example_state(f)) > 1 - 1e-9

    def test_qmem_ancilla_free_detects_leak(self):
        rng = np.random.default_rng(19)
        n, w = 2, 1
        f = bf.random_truth_table(n, rng, w=w)
        accepts = 0
        for t in range(20):
            trng = np.random.default_rng(950 + t)
            oracle = qmem_oracle(f, adv.ancilla_free(1.0))
            res = acquire.acquire_ancilla_free(
                oracle, oracles.MemOracle(f), 1, 0.1, 0.1, 1.0, trng,
                n_blocks=40,
            )
            accepts += res.accepted
        assert accepts == 0
