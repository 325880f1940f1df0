import math

import numpy as np
import pytest
from scipy import stats

from covertsim import boolfunc as bf
from covertsim import covertex as cx
from covertsim import gf2, oracles, qsim
from reference import bell_povm


def make_parity_setup(n, s, seed, policy=oracles.GRID):
    rng = np.random.default_rng(seed)
    f = bf.parity_fn(s, n)
    pub = oracles.ExOracle(f, rng)
    pri = oracles.SqOracle(f, policy=policy, rng=rng)
    return pub, pri, rng


class TestParityLearner:
    def test_config_derivations(self):
        cfg = cx.ParityLearnerConfig(n=8, delta_c=0.1, delta_p=1 / 8)
        assert cfg.k == 3
        assert cfg.m_pub == 8 - 3 + 4 + cx.PARITY_BUDGET_SLACK
        assert cfg.m_pri_cap == 16

    def test_private_budget_check_survives_optimization(self, run_optimized):
        # a stub SQ oracle that charges 100 queries per answer overruns
        # m_pri_cap; the learner must raise even with asserts stripped
        out = run_optimized("""
            import numpy as np
            from covertsim import boolfunc as bf, covertex as cx, oracles

            class GreedySq:
                count = 0

                def query(self, q, tau):
                    self.count += 100
                    return 0.5

            rng = np.random.default_rng(0)
            pub = oracles.ExOracle(bf.parity_fn(5, 4), rng)
            cfg = cx.ParityLearnerConfig(n=4, delta_c=0.1, delta_p=0.25)
            try:
                cx.covert_parity_learn(pub, GreedySq(), cfg)
            except RuntimeError as e:
                print("raised:", e)
        """)
        assert "raised: private SQ budget exceeded" in out.stdout

    def test_k_must_be_below_n(self):
        with pytest.raises(ValueError):
            cx.ParityLearnerConfig(n=3, delta_c=0.1, delta_p=1 / 8)

    def test_planted_instance_recovery(self):
        rng = np.random.default_rng(0)
        n = 6
        cfg = cx.ParityLearnerConfig(n=n, delta_c=0.1, delta_p=1 / 4)
        for trial in range(40):
            s = int(rng.integers(0, 1 << n))
            pub, pri, _ = make_parity_setup(n, s, 100 + trial)
            res = cx.covert_parity_learn(pub, pri, cfg)
            if not res.aborted:
                assert res.s_hat == s
                assert res.pri_count <= cfg.m_pri_cap
                assert res.pub_count <= cfg.m_pub
                # stopped exactly at rank n-k: privacy requires no overshoot
                assert gf2.rank([x for x, _ in res.public_samples], n) == n - cfg.k

    def test_true_parity_wins_every_match(self):
        n, s = 5, 0b10110
        _, pri, _ = make_parity_setup(n, s, 7)
        # tournament over a candidate set containing s
        cands = [s, 0b00001, 0b01010, 0b11111]
        state = cx.run_tournament(cands, pri)
        assert state.matches[-1].winner == s
        for m in state.matches:
            if s in (m.t1, m.t2):
                assert m.winner == s

    def test_match_alpha_values(self):
        n = 4
        # s plays as t1: alpha >= 1/2 - 1/6 >= 1/3, t1 wins
        s = 0b0110
        _, pri, _ = make_parity_setup(n, s, 8, policy=oracles.PERTURB)
        state = cx.run_tournament([s, 0b1001], pri)
        assert state.matches[0].t1 == s
        assert state.matches[0].alpha >= 1 / 3
        assert state.matches[0].winner == s
        # s plays as t2: alpha <= 0 + 1/6 < 1/3, t2 wins
        s = 0b1001
        _, pri, _ = make_parity_setup(n, s, 9, policy=oracles.PERTURB)
        state = cx.run_tournament([s, 0b0110], pri)
        assert state.matches[0].t2 == s
        assert state.matches[0].alpha < 1 / 3
        assert state.matches[0].winner == s

    def test_private_budget_hard_cap(self):
        n = 6
        cfg = cx.ParityLearnerConfig(n=n, delta_c=0.1, delta_p=1 / 8)
        pub, pri, _ = make_parity_setup(n, 0b101010, 9)
        res = cx.covert_parity_learn(pub, pri, cfg)
        if not res.aborted:
            assert res.pri_count == (1 << cfg.k) - 1  # full bracket

    def test_abort_on_budget(self):
        # an example oracle that always returns x=0 can never reach rank n-k
        class StuckEx:
            def __init__(self):
                self.count = 0

            def sample(self):
                self.count += 1
                return 0, 0

        cfg = cx.ParityLearnerConfig(n=4, delta_c=0.5, delta_p=0.5)
        pri = oracles.SqOracle(bf.parity_fn(1, 4), policy=oracles.EXACT)
        res = cx.covert_parity_learn(StuckEx(), pri, cfg)
        assert res.aborted and res.s_hat is None
        assert res.pri_count == 0

    def test_adversary_guess(self):
        rng = np.random.default_rng(10)
        n = 4
        # full-rank transcript pins the parity uniquely
        s = 0b1011
        samples = [(1 << i, (s >> i) & 1) for i in range(n)]
        assert cx.parity_adversary_guess(samples, n, rng) == s
        # empty transcript: uniform over 2^n
        draws = {cx.parity_adversary_guess([], n, rng) for _ in range(300)}
        assert len(draws) > 8
        # rank n-k transcript: success rate ~ 2^-k over guess randomness
        k = 2
        samples = [(1 << i, (s >> i) & 1) for i in range(n - k)]
        hits = sum(
            cx.parity_adversary_guess(samples, n, rng) == s for _ in range(4000)
        )
        p = hits / 4000
        sigma = math.sqrt(0.25 * 0.75 / 4000)
        assert abs(p - 2.0**-k) < 4 * sigma


class TestBellSampling:
    def test_b_eleven_branch_identity(self):
        # b = 11 rounds satisfy z = (A+A^T) y always
        rng = np.random.default_rng(1)
        n = 3
        rows = cx.random_quadratic_rows(n, rng)
        offdiag = tuple(r & ~(1 << i) for i, r in enumerate(rows))
        copy = qsim.prepare_example_state(bf.quadratic_fn(rows, n))
        seen_b11 = 0
        for _ in range(200):
            joint = qsim.tensor(copy, copy)
            y, z, b = qsim.bell_sample_example_pair(joint, n, rng)
            if b == (1, 1):
                seen_b11 += 1
                assert z == gf2.matvec_sym_offdiag(offdiag, y, n)
        assert seen_b11 > 20

    def test_label_marginal_uniform(self):
        rng = np.random.default_rng(2)
        n = 2
        rows = cx.random_quadratic_rows(n, rng)
        dist = cx.quadratic_transcript_distribution(rows, n)
        b_marginal = dist.sum(axis=(1, 2))
        assert np.allclose(b_marginal, 0.25, atol=1e-12)

    def test_y_marginal_uniform(self):
        rng = np.random.default_rng(3)
        n = 3
        rows = cx.random_quadratic_rows(n, rng)
        dist = cx.quadratic_transcript_distribution(rows, n)
        y_marginal = dist.sum(axis=(0, 1))
        assert np.allclose(y_marginal, 2.0**-n, atol=1e-12)

    def test_z_uniform_on_non11_branches(self):
        rng = np.random.default_rng(4)
        n = 2
        rows = cx.random_quadratic_rows(n, rng)
        dist = cx.quadratic_transcript_distribution(rows, n)
        for b in range(3):  # 0b00, 0b01, 0b10
            cond = dist[b] / dist[b].sum()
            assert np.allclose(cond, cond[0, 0], atol=1e-12)

    def test_circuit_matches_materialized_povm(self):
        # the measurement circuit is unitarily equivalent to the explicit
        # footnote POVM: identical outcome distributions
        rng = np.random.default_rng(5)
        for n in (1, 2):
            rows = cx.random_quadratic_rows(n, rng)
            copy = qsim.prepare_example_state(bf.quadratic_fn(rows, n))
            povm = bell_povm(n)
            joint = qsim.tensor(copy, copy)
            exact = np.array(
                [np.vdot(joint.vec, e @ joint.vec).real for e in povm.elements]
            )
            dist = cx.quadratic_transcript_distribution(rows, n)
            for p, (y, z, b) in zip(exact, povm.labels):
                assert p == pytest.approx(dist[b[0] + 2 * b[1], z, y], abs=1e-10)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(6)
        rows = cx.random_quadratic_rows(3, rng)
        dist = cx.quadratic_transcript_distribution(rows, 3)
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n, draws", [(1, 2000), (2, 3000), (3, 4000)])
    def test_samples_follow_the_audited_law(self, n, draws):
        # seeded draws of the sampler against bell_pair_distribution: no
        # draw lands on a zero-probability cell, and a chi-square test over
        # the others keeps the law at alpha = 1e-3 (every expected count is
        # at least 15)
        rng = np.random.default_rng(70 + n)
        copy = qsim.prepare_example_state(bf.quadratic_fn(cx.random_quadratic_rows(n, rng), n))
        law = qsim.bell_pair_distribution(copy, n)
        joint = qsim.tensor(copy, copy)
        counts = np.zeros_like(law)
        for _ in range(draws):
            y, z, b = qsim.bell_sample_example_pair(joint, n, rng)
            counts[b[0] + 2 * b[1], z, y] += 1
        live = law > 1e-12
        assert counts[~live].sum() == 0
        assert counts[3].sum() > 0  # b = 11 draws are among them
        expected = law[live] * draws / law[live].sum()
        assert expected.min() >= 15
        assert stats.chisquare(counts[live], expected).pvalue > 1e-3

    @pytest.mark.parametrize("copy_qubits", [1, 3, 4])
    def test_law_refuses_a_copy_of_the_wrong_size(self, copy_qubits):
        # a copy for n = 1 holds 2 qubits; the sampler's named refusal
        with pytest.raises(ValueError, match=r"two \(n\+1\)-qubit copies"):
            qsim.bell_pair_distribution(qsim.uniform_state(copy_qubits), 1)

    def test_zero_probability_label_outcomes_contribute_zeros(self):
        # a label qubit in |+> never reads b = 1 after its Hadamard
        copy = qsim.tensor(qsim.uniform_state(2), qsim.uniform_state(1))
        law = qsim.bell_pair_distribution(copy, 2)
        assert (law[1:] == 0).all()
        assert law[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestQuadraticLearner:
    def test_budget_formula(self):
        assert cx.quadratic_public_budget(4, 0.1) == math.ceil(
            (4 + math.log2(10)) / math.log2(8 / 7)
        )

    def test_planted_recovery(self):
        rng = np.random.default_rng(7)
        n = 3
        hits = 0
        trials = 30
        for t in range(trials):
            trng = np.random.default_rng(500 + t)
            rows = cx.random_quadratic_rows(n, trng)
            f = bf.quadratic_fn(rows, n)
            pub = oracles.QMeasExOracle(qsim.prepare_example_state(f))
            pri = oracles.QsqOracle(f, policy=oracles.GRID)
            res = cx.covert_quadratic_learn(pub, pri, n, 0.1, trng)
            if res.a_rows is not None:
                hits += res.a_rows == rows
                assert res.pri_count == n  # exactly n private QSQs
                assert res.pub_weighted == 2 * res.pub_queries
        assert hits >= trials * 0.75  # delta_c = 0.1 plus sampling slack

    def test_abort_is_typed(self):
        # impossible budget: force rank abort by using a 1-query budget
        rng = np.random.default_rng(8)
        n = 3
        rows = cx.random_quadratic_rows(n, rng)
        f = bf.quadratic_fn(rows, n)
        pub = oracles.QMeasExOracle(qsim.prepare_example_state(f))
        pri = oracles.QsqOracle(f, policy=oracles.EXACT)
        import covertsim.covertex as cxm

        orig = cxm.quadratic_public_budget
        try:
            cxm.quadratic_public_budget = lambda n, d: 1
            res = cx.covert_quadratic_learn(pub, pri, n, 0.1, rng)
        finally:
            cxm.quadratic_public_budget = orig
        assert res.a_rows is None and res.abort_reason == "rank"
        assert res.pri_count == 0

    def test_diagonal_privacy_exact(self):
        # diagonal-differing quadratic forms give identical transcript
        # distributions: total variation 0 within 1e-12
        rng = np.random.default_rng(9)
        for n in (2, 3):
            for _ in range(3):
                base = cx.random_quadratic_rows(n, rng)
                offdiag = tuple(r & ~(1 << i) for i, r in enumerate(base))
                other = tuple(
                    r | (int(rng.integers(2)) << i) for i, r in enumerate(offdiag)
                )
                tv = cx.transcript_total_variation(base, other, n)
                assert tv <= 1e-12

    def test_offdiagonal_difference_is_detectable(self):
        # sanity: the audit tool does see off-diagonal changes
        rows_a = (0b010, 0, 0)  # A12 = 1
        rows_b = (0, 0, 0)
        assert cx.transcript_total_variation(rows_a, rows_b, 3) > 1e-3
