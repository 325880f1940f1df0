import math

import numpy as np
import pytest

from covertsim import boolfunc as bf
from covertsim import certify, oracles, qsim
from equivalence import block_of, bound, flip_signs, memo_rows, random_pure
from reference import materialize_overlap_observable


def single_block(state):
    return block_of([state])


class TestOverlapRound:
    def test_exact_phase_state_always_scores(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5):
            f = bf.random_truth_table(n, rng)
            state = qsim.prepare_phase_state(f)
            mem = oracles.MemOracle(f)
            for _ in range(300):
                rnd = certify.overlap_round(single_block(state), mem, rng)
                assert rnd.score == 1
            assert mem.count == 600

    def test_global_sign_invisible(self):
        rng = np.random.default_rng(1)
        n = 3
        f = bf.random_truth_table(n, rng)
        g = bf.truth_table([1 ^ int(v) for v in bf.eval_all(f)])  # f xor 1
        state = qsim.prepare_phase_state(g)
        mem = oracles.MemOracle(f)  # certify g's state against f
        for _ in range(200):
            assert certify.overlap_round(single_block(state), mem, rng).score == 1

    def test_basis_state_scores_half(self):
        # |0...0>: the X outcome is uniform, E[score] = 1/2 (exact Born)
        rng = np.random.default_rng(2)
        n = 4
        f = bf.constant_fn(n)
        state = qsim.basis_state(n, 0)
        mem = oracles.MemOracle(f)
        scores = [
            certify.overlap_round(single_block(state), mem, rng).score
            for _ in range(4000)
        ]
        p = np.mean(scores)
        assert abs(p - 0.5) < 4 * math.sqrt(0.25 / 4000)

    def test_expected_score_equals_trace_formula(self):
        # E[score] = tr[L rho] with L materialized explicitly (n_block <= 3)
        rng = np.random.default_rng(3)
        n = 3
        f = bf.random_truth_table(n, rng)
        L = materialize_overlap_observable(f)
        # L is a valid observable: 0 <= L <= 1, and the phase state is a +1
        # eigenvector
        evals = np.linalg.eigvalsh(L)
        assert evals.min() > -1e-10 and evals.max() < 1 + 1e-10
        psi = qsim.prepare_phase_state(f)
        assert np.allclose(L @ psi.vec, psi.vec, atol=1e-10)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = qsim.PureState(3, v / np.linalg.norm(v))
        exact = float(np.vdot(state.vec, L @ state.vec).real)
        mem = oracles.MemOracle(f)
        scores = [
            certify.overlap_round(single_block(state), mem, rng).score
            for _ in range(20_000)
        ]
        assert abs(np.mean(scores) - exact) < 4 * math.sqrt(0.25 / 20_000)

    def test_multi_copy_block_tensor_power(self):
        # a block of m copies certified as one phase state of f^(x)m
        rng = np.random.default_rng(5)
        n, m = 2, 3
        f = bf.random_truth_table(n, rng)
        state = qsim.prepare_phase_state(f)
        block = block_of([state] * m)
        base = oracles.MemOracle(f)
        view = oracles.TensorMemView(base, m=m)
        for _ in range(200):
            assert certify.overlap_round(block, view, rng).score == 1
        assert base.count == 200 * 2 * m  # 2 view queries/round, m base each


    test_fast_path_matches_slow_distribution = staticmethod(
        bound("certify.overlap_scores_iid_fast"))


class TestStackedBlock:
    test_round_matches_per_copy_sampling = staticmethod(
        bound("certify.overlap_round:per-copy"))
    test_single_copy_block_draws_like_one_copy = staticmethod(
        bound("certify.overlap_round:one-copy"))

    def test_stacked_amplitudes_are_checked_and_frozen(self):
        rng = np.random.default_rng(22)
        amps = np.stack([random_pure(3, rng).vec for _ in range(4)])
        block = certify.ProductBlock(amps=amps)
        assert (block.m, block.qubits_per_copy, block.n_block) == (4, 3, 12)
        assert not amps.flags.writeable
        assert np.array_equal(block[2].vec, amps[2])
        bad = amps.copy()
        bad[1] *= 1.001
        with pytest.raises(ValueError, match="not normalized"):
            certify.ProductBlock(amps=bad)
        with pytest.raises(ValueError):
            certify.ProductBlock(amps=amps[:, :6])
        # no copies: refused by the shape rule of every block table
        with pytest.raises(ValueError, match=r"rows need shape \(k, 2\^q\), k >= 1"):
            certify.ProductBlock(amps=np.empty((0, 8), dtype=complex))


class TestBlockStack:
    def test_an_empty_draw_leaves_the_generator_state(self):
        # overlap_round skips rng.random(0) when copy 0 takes the X test
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rng.random(seed)
            before = rng.bit_generator.state
            assert rng.random(0).shape == (0,)
            assert rng.bit_generator.state == before

    def test_bad_row_anywhere_is_refused_before_any_block(self):
        # a table of one row per copy, as an acquisition behind a drawing
        # tap holds it
        rng = np.random.default_rng(23)
        table = np.stack([random_pure(3, rng).vec for _ in range(8)])
        index = np.arange(8).reshape(4, 2)
        for k in range(8):
            bad = table.copy()
            bad[k] *= 1.001
            with pytest.raises(ValueError, match="not normalized"):
                certify.ProductBlock.indexed(bad, index)
            assert bad.flags.writeable  # refused before it was frozen
        with pytest.raises(ValueError, match="shape"):
            certify.ProductBlock.indexed(table.reshape(4, 2, 8), index)

    def test_blocks_are_read_only_views_of_one_stack(self):
        # the blocks of a table of one row per copy read that table: each
        # copy a read-only view of its row, each gather read-only
        rng = np.random.default_rng(24)
        table = np.stack([random_pure(3, rng).vec for _ in range(8)])
        want = table.copy().reshape(4, 2, 8)
        blocks = certify.ProductBlock.indexed(table, np.arange(8).reshape(4, 2))
        assert len(blocks) == 4 and not table.flags.writeable
        for j, block in enumerate(blocks):
            assert block.rows is table and block.index.tolist() == [2 * j, 2 * j + 1]
            assert all(copy.vec.base is table for copy in block)
            assert not block.amps.flags.writeable
            assert (block.m, block.qubits_per_copy, block.n_block) == (2, 3, 6)
            assert block.amps.tobytes() == want[j].tobytes()
            with pytest.raises(ValueError):
                block.amps[0, 0] = 0
            with pytest.raises(ValueError):
                block[1].vec[0] = 0


class TestSharedRowCollapse:
    test_round_matches_the_all_rows_form = staticmethod(bound("certify.overlap_round"))
    test_thresholds_on_a_cumulative_weight = staticmethod(
        bound("certify.overlap_round:thresholds"))


class TestRoundTableMemo:
    test_rounds_match_an_unmemoised_block = staticmethod(bound("certify.overlap_round:memo"))
    test_kept_bytes_stay_within_the_bound = staticmethod(
        bound("certify.overlap_round:memo-bound"))
    test_a_zero_weight_pair_draws_one_half = staticmethod(
        bound("certify.overlap_round:zero-pair"))

    def test_a_public_block_keeps_its_own_memo(self):
        rng = np.random.default_rng(32)
        amps = np.stack([random_pure(3, rng).vec])
        a, b = certify.ProductBlock(amps), certify.ProductBlock(amps)
        certify.overlap_round(a, oracles.MemOracle(bf.constant_fn(3)), rng, 1)
        assert len(a.round_tables.memo) == 1 and not b.round_tables.memo


class TestKeyedStack:
    """Blocks that read a shared table of distinct rows through an index
    (`ProductBlock.indexed`), against the all-rows reference on a fresh
    block of the same copies."""

    test_rounds_match_an_unkeyed_stack = staticmethod(bound("certify.overlap_round:keyed"))

    def test_rows_get_classes_by_value(self):
        # rows differing only in signed zeros share a class; any other
        # difference, however small, splits them, whether or not the rows
        # compare equal to row 0 of the table
        rng = np.random.default_rng(1400)
        a, b, c = memo_rows("signed-zeros", 4, rng)
        d = a.copy()
        d[np.flatnonzero(a)[0]] *= 1 + 2**-52
        e = random_pure(4, rng).vec
        blocks = certify.ProductBlock.indexed(np.stack([a, b, c, d]),
                                              np.array([[0, 1], [2, 3]]))
        assert [blk.row_classes.tolist() for blk in blocks] == [[0, 0], [0, 1]]
        assert len({a.tobytes(), b.tobytes(), c.tobytes()}) == 3
        blocks = certify.ProductBlock.indexed(np.stack([e, a, d, b, c, e.copy()]),
                                              np.array([[0, 1, 2], [3, 4, 5]]))
        assert [blk.row_classes.tolist() for blk in blocks] == [[0, 1, 2], [1, 1, 0]]

    @pytest.mark.parametrize("q", (1, 2, 5, 8))
    def test_rows_sharing_a_print_are_classed_by_value(self, q, monkeypatch):
        # classes numbered by first appearance, from the prints and, with
        # every print made equal, from the bytes after + 0.0 once the group
        # check finds unequal rows in one group
        rng = np.random.default_rng(1404 + q)
        a, a1, a2 = memo_rows("signed-zeros", q, rng)
        b, c, d = memo_rows("repeated", q, rng)
        rows = np.stack([b, a, c, a1, b.copy(), d, a2, c.copy()])
        want = [0, 1, 2, 1, 0, 3, 1, 2]
        assert certify._row_classes(rows).tolist() == want
        monkeypatch.setattr(certify, "_print_weights", lambda width: np.zeros(width))
        assert certify._row_classes(rows).tolist() == want
        assert certify._row_classes(rows[:1]).tolist() == [0]

    @pytest.mark.parametrize("bad", ("stretched", "nan", "inf"))
    def test_a_bad_row_under_the_check_is_caught(self, bad):
        # every table row is checked, one used by many copies and one used
        # by none; a bad row is refused before the table is frozen
        rng = np.random.default_rng(1401)
        index = np.array([[0, 1], [2, 1], [0, 2]])
        for at in (1, 3):
            rows = np.stack([random_pure(3, rng).vec for _ in range(4)])
            if bad == "stretched":
                rows[at] *= 1.001
            else:
                rows[at, 3] = np.nan if bad == "nan" else np.inf
            with pytest.raises(ValueError, match="not normalized"):
                certify.ProductBlock.indexed(rows, index)
            assert rows.flags.writeable and index.flags.writeable

    def test_keys_of_the_wrong_shape_or_kind_are_refused(self):
        # each refusal names what it refused, before anything is frozen
        rng = np.random.default_rng(1402)
        rows = np.stack([random_pure(2, rng).vec for _ in range(3)])
        good = np.array([[0, 1, 2], [2, 1, 0]])
        cases = [
            (rows, np.zeros(6, dtype=int), "index needs shape"),
            (rows, np.zeros((2, 3, 1), dtype=int), "index needs shape"),
            (rows, np.zeros((2, 0), dtype=int), "index needs shape"),
            (rows, np.zeros((2, 3)), "index needs an int array"),
            (rows, np.zeros((2, 3), dtype=bool), "index needs an int array"),
            (rows, [[0, 1, 2], [2, 1, 0]], "index needs an int array"),
            (rows, np.array([[0, 1, 3], [2, 1, 0]]), "index entry outside"),
            (rows, np.array([[0, 1, -1], [2, 1, 0]]), "index entry outside"),
            (rows, np.array([[0, 1, 2], [2, 1, 2**63]], dtype=np.uint64), "index entry outside"),
            (rows[:, :3], good, "rows need shape"),
            (rows[None], good, "rows need shape"),
            (rows[0], good, "rows need shape"),
            (rows[:, :0], good, "rows need shape"),
            (rows.tolist(), good, "rows need shape"),
        ]
        for bad_rows, bad_index, what in cases:
            with pytest.raises(ValueError, match=what):
                certify.ProductBlock.indexed(bad_rows, bad_index)
        assert rows.flags.writeable and good.flags.writeable
        blocks = certify.ProductBlock.indexed(rows, good)
        assert not rows.flags.writeable and good.flags.writeable  # the index is copied
        assert all(not b.index.flags.writeable and b.rows is rows for b in blocks)

    def test_refused_under_optimization(self, run_optimized):
        # `python -O` strips asserts; the boundary checks are plain raises
        out = run_optimized("""
            import numpy as np
            from covertsim import certify
            rows = np.full((2, 4), 0.5, dtype=complex)
            for bad_rows, index in ((rows, np.zeros(4, dtype=int)),
                                    (rows, np.zeros((2, 2), dtype=bool)),
                                    (rows, np.full((2, 2), 2)),
                                    (rows[:, :3], np.zeros((2, 2), dtype=int))):
                try:
                    certify.ProductBlock.indexed(bad_rows, index)
                except ValueError as e:
                    print("raised:", e)
            print("writeable", rows.flags.writeable)
        """)
        for what in ("index needs shape", "index needs an int array, not bool",
                     "index entry outside [0, 2)", "rows need shape"):
            assert f"raised: block {what}" in out.stdout
        assert out.stdout.count("raised:") == 4 and "writeable True" in out.stdout

    def test_gathered_copies_and_states_read_the_table(self):
        # amps is a fresh read-only gather; block[j] and the block's copies
        # read the table row of copy j without a copy
        rng = np.random.default_rng(1403)
        rows = np.stack([random_pure(3, rng).vec for _ in range(3)])
        index = np.array([[2, 0, 2, 1]])
        block, = certify.ProductBlock.indexed(rows, index)
        assert (block.m, block.qubits_per_copy, block.n_block) == (4, 3, 12)
        amps = block.amps
        assert amps.tobytes() == rows[index[0]].tobytes() and not amps.flags.writeable
        assert amps is not block.amps
        for j, copy in enumerate(block):
            assert copy.vec.base is rows and copy.vec.tobytes() == rows[index[0, j]].tobytes()

    def test_a_block_is_the_sequence_of_its_copies(self):
        # len is m, iteration stops after copy m - 1, and an index counts
        # from the end as on a list
        rng = np.random.default_rng(1404)
        rows = np.stack([random_pure(2, rng).vec for _ in range(3)])
        block, = certify.ProductBlock.indexed(rows, np.array([[2, 0, 2, 1]]))
        copies = list(block)
        assert len(block) == len(copies) == 4 and block
        assert all(isinstance(c, qsim.PureState) and c.n == 2 for c in copies)
        assert [c.vec.tobytes() for c in copies] == [rows[r].tobytes() for r in (2, 0, 2, 1)]
        assert block[-1].vec.tobytes() == rows[1].tobytes()
        with pytest.raises(IndexError):
            block[4]


class TestQubitRefusal:
    BAD = (6, 7, -1, True, False, np.True_, 1.0, "1", np.int64(6))

    @pytest.mark.parametrize("qubit", BAD, ids=repr)
    def test_bad_qubit_is_refused_before_any_draw(self, qubit):
        rng = np.random.default_rng(33)
        block = block_of([random_pure(2, rng) for _ in range(3)])  # m = 3, q = 2
        mem = oracles.TensorMemView(oracles.MemOracle(bf.constant_fn(2)), m=3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"qubit .* is not an int in \[0, 6\)"):
            certify.overlap_round(block, mem, rng, qubit)
        assert rng.bit_generator.state == before
        assert mem.base.count == 0

    def test_numpy_ints_answer_as_ints(self):
        rng = np.random.default_rng(34)
        block = block_of([random_pure(2, rng) for _ in range(3)])
        f = bf.random_truth_table(6, rng)
        for qubit in range(6):
            rng_a, rng_b = np.random.default_rng(qubit), np.random.default_rng(qubit)
            got = certify.overlap_round(block, oracles.MemOracle(f), rng_a, np.int64(qubit))
            want = certify.overlap_round(block, oracles.MemOracle(f), rng_b, qubit)
            assert got == want and type(got.qubit) is int

    def test_refused_under_optimization(self, run_optimized):
        # `python -O` strips asserts; the range check is a plain raise
        out = run_optimized("""
            import numpy as np
            from covertsim import certify
            block = certify.ProductBlock(np.full((3, 4), 0.5, dtype=complex))
            try:
                certify.overlap_round(block, None, np.random.default_rng(0), 6)
            except ValueError as e:
                print("raised:", e)
        """)
        assert "raised: qubit 6 is not an int in [0, 6)" in out.stdout


class TestIidEstimator:
    def test_copy_count_formulas(self):
        assert certify.iid_copy_count(4, 0.2, 0.05) == math.ceil(
            2 * 16 * math.log(40) / 0.04
        )
        assert certify.adaptive_copy_count(4, 0.2, 0.05) == math.ceil(
            2 * 4 * math.log(40) / 0.2
        )

    def test_threshold_formula(self):
        assert certify.overlap_threshold(0.1, 4) == 1 - 0.075 / 4

    def test_exact_copies_accept_always(self):
        rng = np.random.default_rng(7)
        n = 3
        f = bf.random_truth_table(n, rng)
        state = qsim.prepare_phase_state(f)
        blocks = [single_block(state) for _ in range(60)]
        mem = oracles.MemOracle(f)
        rec = certify.overlap_estimate_iid(
            blocks, mem, eps=0.1, delta=0.05, rng=rng, rounds_override=60
        )
        assert rec.accepted and rec.omega_hat == 1.0
        assert rec.membership_queries == 120

    def test_zero_rounds_are_rejected_not_replaced(self):
        rng = np.random.default_rng(9)
        f = bf.constant_fn(3)
        state = qsim.prepare_phase_state(f)
        mem = oracles.MemOracle(f)
        with pytest.raises(ValueError, match="at least one round"):
            certify.overlap_estimate_iid([single_block(state)] * 5, mem, 0.1, 0.05,
                                         rng, rounds_override=0)
        with pytest.raises(ValueError, match="at least one round"):
            certify.overlap_estimate_iid_state(state, f, 0.1, 0.05, rng,
                                               rounds_override=0)
        rec = certify.overlap_estimate_iid_state(state, f, 0.1, 0.05, rng,
                                                 rounds_override=1)
        assert rec.rounds_used == 1

    def test_no_blocks_is_a_value_error(self):
        f = bf.constant_fn(3)
        with pytest.raises(ValueError, match="at least one block"):
            certify.overlap_estimate_iid([], oracles.MemOracle(f), 0.1, 0.05,
                                         np.random.default_rng(8), rounds_override=1)

    def test_insufficient_copies_raises(self):
        rng = np.random.default_rng(8)
        f = bf.constant_fn(3)
        blocks = [single_block(qsim.prepare_phase_state(f))] * 5
        with pytest.raises(ValueError):
            certify.overlap_estimate_iid(blocks, oracles.MemOracle(f), 0.1, 0.05, rng)

    def test_corrupted_state_rejected_at_formula_counts(self):
        rng = np.random.default_rng(9)
        n = 4
        f = bf.constant_fn(n)
        bad = qsim.prepare_phase_state(flip_signs(f, 1))
        fid = qsim.fidelity(bad, qsim.prepare_phase_state(f))
        assert fid == pytest.approx((1 - 2 / 16) ** 2, abs=1e-12)
        rejections = 0
        for t in range(40):
            rec = certify.overlap_estimate_iid_state(
                bad, f, eps=0.1, delta=0.05, rng=np.random.default_rng(600 + t)
            )
            rejections += not rec.accepted
        assert rejections >= 38

    def test_monotone_discrimination(self):
        # mean omega-hat non-increasing along the corruption ladder
        rng = np.random.default_rng(10)
        n = 4
        f = bf.constant_fn(n)
        means = []
        for flips in (1, 2, 4, 8):
            bad = qsim.prepare_phase_state(flip_signs(f, flips))
            scores = certify.overlap_scores_iid_fast(bad, f, 30_000, rng)
            means.append(scores.mean())
        sigma = math.sqrt(0.25 / 30_000)
        for a, b in zip(means, means[1:]):
            assert b <= a + 3 * sigma


class TestNonIid:
    def make_blocks(self, state, count):
        return [single_block(state) for _ in range(count)]

    def test_exact_blocks_always_accept_with_unit_fidelity(self):
        rng = np.random.default_rng(11)
        n = 3
        f = bf.random_truth_table(n, rng)
        state = qsim.prepare_phase_state(f)
        mem = oracles.MemOracle(f)
        for _ in range(30):
            rec, out = certify.certify_state_noniid(
                self.make_blocks(state, 20), mem, eps=0.1, delta=0.1, rng=rng
            )
            assert rec.accepted
            assert rec.omega_hat == 1.0
            assert qsim.fidelity(out[0], state) == pytest.approx(1.0)

    def test_all_zero_blocks_rejected(self):
        rng = np.random.default_rng(12)
        n = 3
        f = bf.constant_fn(n)
        junk = qsim.basis_state(n, 0)
        mem = oracles.MemOracle(f)
        rejections = 0
        for _ in range(60):
            rec, _ = certify.certify_state_noniid(
                self.make_blocks(junk, 20), mem, eps=0.1, delta=0.1, rng=rng
            )
            rejections += not rec.accepted
        # E[score] = 1/2 per round; accepting needs 19/19 ones: ~2^-19
        assert rejections == 60

    def test_one_bad_block_among_good(self):
        # Monte-Carlo over permutations: the bad block lands in the output
        # slot w.p. 1/N; conditional on acceptance the output is bad at most
        # ~that often
        rng = np.random.default_rng(13)
        n = 3
        f = bf.random_truth_table(n, rng)
        good = qsim.prepare_phase_state(f)
        bad = qsim.basis_state(n, 0)
        mem = oracles.MemOracle(f)
        n_blocks = 20
        accept_and_bad = 0
        trials = 200
        for _ in range(trials):
            blocks = self.make_blocks(good, n_blocks - 1) + [single_block(bad)]
            rec, out = certify.certify_state_noniid(
                blocks, mem, eps=0.1, delta=0.1, rng=rng
            )
            if rec.accepted and qsim.fidelity(out[0], good) < 0.8:
                accept_and_bad += 1
        # bad-block-in-output requires it to dodge all 19 measured slots AND
        # every measured good block scores 1: rate ~ 1/20; bound loosely
        assert accept_and_bad / trials < 0.12

    def test_permutation_invariance(self):
        # verdict distribution invariant under a fixed pre-permutation
        n = 3
        f = bf.constant_fn(n)
        good = qsim.prepare_phase_state(f)
        bad = qsim.basis_state(n, 0)
        mem = oracles.MemOracle(f)

        def accept_rate(order_seed, trials=200):
            accepts = 0
            for t in range(trials):
                rng = np.random.default_rng(9000 + t)
                blocks = [single_block(good)] * 10 + [single_block(bad)] * 10
                if order_seed is not None:
                    order = np.random.default_rng(order_seed).permutation(20)
                    blocks = [blocks[i] for i in order]
                rec, _ = certify.certify_state_noniid(
                    blocks, mem, eps=0.5, delta=0.1, rng=rng, cal_rounds=4
                )
                accepts += rec.accepted
            return accepts / trials

        base = accept_rate(None)
        shuffled = accept_rate(12345)
        assert abs(base - shuffled) < 0.15

    def test_coverage_path_exercised(self):
        rng = np.random.default_rng(14)
        n = 2
        f = bf.constant_fn(n)
        state = qsim.prepare_phase_state(f)
        mem = oracles.MemOracle(f)
        # few settings, many draws-with-replacement: coverage holds
        covered = []
        for _ in range(40):
            rec, _ = certify.certify_state_noniid(
                self.make_blocks(state, 12), mem, eps=0.2, delta=0.1, rng=rng,
                cal_rounds=2,
            )
            covered.append(rec.used_coverage_path)
            assert rec.accepted  # exact state accepts on either path
        assert sum(covered) >= 35
        # settings = draws: coverage fails a.s., the fallback re-draw runs
        fallback = []
        for _ in range(40):
            rec, _ = certify.certify_state_noniid(
                self.make_blocks(state, 12), mem, eps=0.2, delta=0.1, rng=rng,
            )
            fallback.append(rec.used_coverage_path)
            assert rec.accepted
        assert sum(fallback) <= 5

    def test_cal_rounds_below_one_are_refused(self):
        # refused before any draw; a count above N - 1 is clamped to N - 1
        f = bf.constant_fn(2)
        state = qsim.prepare_phase_state(f)
        for bad in (0, -3):
            rng = np.random.default_rng(15)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=f"cal_rounds must be at least 1, got {bad}"):
                certify.certify_state_noniid(self.make_blocks(state, 6),
                                             oracles.MemOracle(f), 0.2, 0.1, rng,
                                             cal_rounds=bad)
            assert rng.bit_generator.state == before
        runs = []
        for cal in (5, 50):
            rng = np.random.default_rng(16)
            rec, _ = certify.certify_state_noniid(self.make_blocks(state, 6),
                                                  oracles.MemOracle(f), 0.2, 0.1, rng,
                                                  cal_rounds=cal)
            runs.append((rec, rng.bit_generator.state))
        assert runs[0] == runs[1]
