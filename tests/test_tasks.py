import math

import numpy as np
import pytest

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import gf2, qsim, tasks
from equivalence import block_of, bound


class TestForrelationInstances:
    def test_constant_pair_is_valid_small_case(self):
        # Phi(const, const) = 2^{-n/2} <= 1/100 for n >= 14; at small n it is
        # a large-phi pair instead
        f = bf.constant_fn(4)
        assert bf.forrelation_phi(f, f) == pytest.approx(0.25)

    def test_generated_instances_respect_promise(self):
        rng = np.random.default_rng(0)
        for case in (tasks.PHI_SMALL, tasks.PHI_LARGE):
            for _ in range(10):
                inst = tasks.gen_forrelation_instance(4, case, rng)
                phi = bf.forrelation_phi(inst.f, inst.g)
                assert phi == inst.phi
                if case == tasks.PHI_SMALL:
                    assert abs(phi) <= 1 / 100
                else:
                    assert phi >= 3 / 5

    def test_large_case_construction_rarely_rejects(self):
        rng = np.random.default_rng(1)
        n = 6
        accepted_first_try = 0
        for _ in range(50):
            f = bf.random_truth_table(n, rng)
            wht = bf.walsh_hadamard(bf.sign_vector(f))
            g = bf.truth_table([1 if v < 0 else 0 for v in wht])
            accepted_first_try += bf.forrelation_phi(f, g) >= 3 / 5
        assert accepted_first_try >= 50 * 0.99

    def test_h_tensor_structure(self):
        rng = np.random.default_rng(2)
        inst = tasks.gen_forrelation_instance(3, tasks.PHI_SMALL, rng)
        h_state = qsim.prepare_phase_state(inst.h())
        product = qsim.tensor(
            qsim.prepare_phase_state(inst.f), qsim.prepare_phase_state(inst.g)
        )
        assert qsim.states_equal(h_state, product, 1e-12)


class TestSwapTest:
    def test_identical_halves_always_accept(self):
        rng = np.random.default_rng(3)
        f = bf.random_truth_table(3, rng)
        psi = qsim.prepare_phase_state(f)
        state = qsim.tensor(psi, psi)
        for _ in range(50):
            ok, _ = tasks.swap_test(state, range(3), range(3, 6), rng)
            assert ok

    def test_accept_probability_tracks_overlap(self):
        rng = np.random.default_rng(4)
        # product state with known overlap: accept prob (1 + |<a|b>|^2) / 2
        a = qsim.basis_state(1, 0)
        b = qsim.apply_gate(qsim.basis_state(1), "H", [0])
        state = qsim.tensor(a, b)
        hits = sum(
            tasks.swap_test(state, [0], [1], rng)[0] for _ in range(20_000)
        )
        expect = (1 + abs(np.vdot(a.vec, b.vec)) ** 2) / 2
        assert abs(hits / 20_000 - expect) < 4 * math.sqrt(0.25 / 20_000)

    def test_forrelated_phi_one_accepts_surely(self):
        # f with g = exact Walsh sign and Phi = 1 occurs for bent-free cases;
        # instead check the exact-aligned pair f = g = constant at n = 1,
        # where Phi = 2^{-1/2}: accept prob (1 + 1/2) / 2
        rng = np.random.default_rng(5)
        f = bf.constant_fn(1)
        inst_state = qsim.tensor(
            qsim.prepare_phase_state(f), qsim.prepare_phase_state(f)
        )
        rotated = qsim.apply_hadamards(inst_state, [1])
        hits = sum(
            tasks.swap_test(rotated, [0], [1], rng)[0] for _ in range(20_000)
        )
        assert abs(hits / 20_000 - 0.75) < 4 * math.sqrt(0.25 / 20_000)


class TestForrelationDecide:
    def exact_copies(self, inst, m):
        state = qsim.prepare_phase_state(inst.h())
        return block_of([state] * m)

    def test_base_error_at_declared_copies(self):
        rng = np.random.default_rng(6)
        n = 3
        errors = {tasks.PHI_SMALL: 0, tasks.PHI_LARGE: 0}
        trials = 120
        for case in errors:
            for t in range(trials):
                trng = np.random.default_rng(3000 + t)
                inst = tasks.gen_forrelation_instance(n, case, trng)
                got = tasks.forrelation_decide(
                    self.exact_copies(inst, tasks.FORRELATION_COPIES), n, trng
                )
                errors[case] += got != case
        # declared base error 0.01; allow 3-sigma slack at 120 trials
        for case, err in errors.items():
            assert err <= math.ceil(trials * 0.01 + 3 * math.sqrt(trials * 0.01))

    def test_uncorrelated_accept_rate_half(self):
        # case (i) with Phi = 0 exactly: accept probability 1/2 per copy
        rng = np.random.default_rng(7)
        n = 2
        f = g = None
        for fi in range(16):
            for gi in range(16):
                cand_f = bf.truth_table([(fi >> v) & 1 for v in range(4)])
                cand_g = bf.truth_table([(gi >> v) & 1 for v in range(4)])
                if abs(bf.forrelation_phi(cand_f, cand_g)) < 1e-12:
                    f, g = cand_f, cand_g
                    break
            if f is not None:
                break
        assert f is not None
        phi = bf.forrelation_phi(f, g)
        assert abs(phi) < 1e-12
        state = qsim.prepare_phase_state(bf.padded_xor(f, g))
        rotated = qsim.apply_hadamards(state, range(n, 2 * n))
        hits = sum(
            tasks.swap_test(rotated, range(n), range(n, 2 * n), rng)[0]
            for _ in range(20_000)
        )
        assert abs(hits / 20_000 - 0.5) < 4 * math.sqrt(0.25 / 20_000)

    def test_49_repetition_error_rate(self):
        # at 49 repetitions the majority decision meets the <= 0.25 target
        rng = np.random.default_rng(8)
        n = 3
        wrong = 0
        trials = 400
        for t in range(trials):
            trng = np.random.default_rng(4000 + t)
            case = tasks.PHI_LARGE if t % 2 else tasks.PHI_SMALL
            inst = tasks.gen_forrelation_instance(n, case, trng)
            got = tasks.forrelation_decide(self.exact_copies(inst, 49), n, trng)
            wrong += got != case
        assert wrong / trials <= 0.25


class TestBatchedDecision:
    test_matches_per_copy_swap_tests = staticmethod(bound("tasks.forrelation_decide:per-copy"))

    def test_wrong_register_size_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="2n qubits"):
            tasks.forrelation_decide(block_of([qsim.uniform_state(3)]), 2, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestDecisionOverDistinctCopies:
    """forrelation_decide rotates one copy per row class of its block; the
    all-copies reference rotates every copy. Sweeping the threshold over
    every j/k pins the accept count; the generators end in one state."""

    test_matches_all_copies_reference = staticmethod(bound("tasks.forrelation_decide"))
    test_block_of_a_shared_table = staticmethod(bound("tasks.forrelation_decide:shared-table"))
    test_honest_output_block = staticmethod(bound("tasks.forrelation_decide:honest"))


class TestCovertForrelation:
    def test_honest_end_to_end(self):
        rng = np.random.default_rng(9)
        n = 3
        correct = 0
        for t in range(6):
            case = tasks.PHI_LARGE if t % 2 else tasks.PHI_SMALL
            trng = np.random.default_rng(5000 + t)
            inst = tasks.gen_forrelation_instance(n, case, trng)
            out = tasks.covert_forrelation(
                inst, trng, delta=0.1, copies=49, base_error=0.02, n_blocks=8
            )
            assert not out.rejected
            correct += out.answer == case
        assert correct >= 5

    def test_corrupted_runs_reject(self):
        rng = np.random.default_rng(10)
        n = 2
        inst = tasks.gen_forrelation_instance(n, tasks.PHI_SMALL, rng)
        strategy = adv.replace_zero()
        out = tasks.covert_forrelation(
            inst, rng, delta=0.1, adversary=strategy, copies=9,
            base_error=0.02, n_blocks=8,
        )
        assert out.rejected

    def test_ancilla_free_leak_rejected(self):
        rng = np.random.default_rng(11)
        n = 2
        inst = tasks.gen_forrelation_instance(n, tasks.PHI_LARGE, rng)
        out = tasks.covert_forrelation(
            inst, rng, delta=0.1, adversary=adv.ancilla_free(1.0),
            ancilla_free=True, delta_leak=1.0, copies=3, base_error=0.02,
            n_blocks=40,
        )
        assert out.rejected


class TestSimon:
    def test_instances_match_promise(self):
        rng = np.random.default_rng(12)
        per = tasks.gen_simon_instance(3, tasks.SIMON_PERIODIC, rng)
        assert per.period != 0
        table = bf.eval_all(per.f)
        for x in range(8):
            assert table[x] == table[x ^ per.period]
        one = tasks.gen_simon_instance(3, tasks.SIMON_ONE_TO_ONE, rng)
        assert len(set(bf.eval_all(one.f).tolist())) == 8

    def test_harvest_orthogonal_to_period(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            inst = tasks.gen_simon_instance(4, tasks.SIMON_PERIODIC, rng)
            copy = qsim.prepare_example_state(inst.f)
            for _ in range(30):
                y = tasks.simon_harvest(copy, 4, rng)
                assert gf2.dot(y, inst.period) == 0

    def test_n2_exhaustive_case(self):
        # s = 11: harvested strings lie in {00, 11}; the nullspace solve
        # returns s' = 11
        rng = np.random.default_rng(14)
        f = bf.random_simon_fn(2, 0b11, rng)
        copy = qsim.prepare_example_state(f)
        seen = set()
        for _ in range(60):
            seen.add(tasks.simon_harvest(copy, 2, rng))
        assert seen == {0b00, 0b11}
        assert gf2.solve_simon_nullspace([0b11], 2) == 0b11

    def test_decide_periodic(self):
        hits = 0
        for t in range(40):
            trng = np.random.default_rng(6000 + t)
            inst = tasks.gen_simon_instance(4, tasks.SIMON_PERIODIC, trng)
            out = tasks.covert_simon(inst, trng, delta=0.1, copy_budget=12, n_blocks=2)
            dec = out.decision
            if dec.label != tasks.SIMON_INCONCLUSIVE:
                assert dec.label == tasks.SIMON_PERIODIC
                assert dec.candidate == inst.period
                assert dec.decision_mem_queries == 2
                hits += 1
        assert hits >= 27  # paper target: success probability 2/3

    def test_decide_one_to_one(self):
        for t in range(20):
            trng = np.random.default_rng(7000 + t)
            inst = tasks.gen_simon_instance(3, tasks.SIMON_ONE_TO_ONE, trng)
            out = tasks.covert_simon(inst, trng, delta=0.1, copy_budget=9, n_blocks=2)
            if out.decision.label != tasks.SIMON_INCONCLUSIVE:
                assert out.decision.label == tasks.SIMON_ONE_TO_ONE

    def test_rank_shortfall_is_inconclusive(self):
        rng = np.random.default_rng(17)
        inst = tasks.gen_simon_instance(4, tasks.SIMON_PERIODIC, rng)
        # one copy is far too few for rank n - 1
        out = tasks.covert_simon(inst, rng, delta=0.1, copy_budget=1, n_blocks=2)
        assert not out.rejected and out.copies_used == 1
        assert out.decision.label == tasks.SIMON_INCONCLUSIVE
        assert out.decision.decision_mem_queries == 0

    def test_covert_simon_honest(self):
        rng = np.random.default_rng(18)
        correct = 0
        for t in range(6):
            case = tasks.SIMON_PERIODIC if t % 2 else tasks.SIMON_ONE_TO_ONE
            trng = np.random.default_rng(8000 + t)
            inst = tasks.gen_simon_instance(3, case, trng)
            out = tasks.covert_simon(inst, trng, delta=0.1, n_blocks=8)
            assert not out.rejected
            if out.decision.label == case:
                correct += 1
                if case == tasks.SIMON_PERIODIC:
                    assert out.decision.decision_mem_queries == 2
        assert correct >= 5

    def test_covert_simon_corrupted_rejects(self):
        rng = np.random.default_rng(19)
        n = 2
        inst = tasks.gen_simon_instance(n, tasks.SIMON_PERIODIC, rng)
        # the tapped register is (in, aux) = n + w qubits
        strategy = adv.replace_zero()
        out = tasks.covert_simon(
            inst, rng, delta=0.1, adversary=strategy, n_blocks=8
        )
        assert out.rejected

    def test_covert_simon_ancilla_free_leak(self):
        rng = np.random.default_rng(20)
        inst = tasks.gen_simon_instance(2, tasks.SIMON_PERIODIC, rng)
        out = tasks.covert_simon(
            inst, rng, delta=0.1, adversary=adv.ancilla_free(1.0),
            ancilla_free=True, delta_leak=1.0, n_blocks=40,
        )
        assert out.rejected

    def test_explicit_zero_leak_reaches_the_acquisition(self, monkeypatch):
        seen = []
        inner = acquire.acquire_ancilla_free

        def spy(*args, **kwargs):
            seen.append(args[5])  # delta_leak
            return inner(*args, **kwargs)

        monkeypatch.setattr(acquire, "acquire_ancilla_free", spy)
        rng = np.random.default_rng(21)
        inst = tasks.gen_simon_instance(2, tasks.SIMON_PERIODIC, rng)
        tasks.covert_simon(
            inst, rng, delta=0.1, ancilla_free=True, delta_leak=0.0, n_blocks=4
        )
        assert seen and all(v == 0.0 for v in seen)
