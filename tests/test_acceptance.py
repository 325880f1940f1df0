"""Acceptance suite: one test per criterion, each printing a pass line.

Statistical margins are pinned here as three binomial standard deviations at
the stated target rate and trial count; exact claims use the stated absolute
tolerances. Run `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines.
"""
import math
import time

import numpy as np
import pytest

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import certify, covertex, covertsq, experiments as exp
from covertsim import gf2, oracles, qsim, tasks


def margin(rate, trials):
    return 3.0 * math.sqrt(rate * (1.0 - rate) / trials)


def report(criterion, detail, elapsed):
    print(f"\n[criterion {criterion:>2}] PASS  {detail}  ({elapsed:.1f}s)")


def phase_oracle(f, strategy=None):
    return oracles.QuantumChannelOracle(f, "QPh", strategy)


def test_c01_mask_factorization_exact():
    """All 16 parities at n=4, both masking algorithms, each unidirectional
    adversary: trace_distance(rho_FA, uniform x rho_A) <= 1e-9."""
    start = time.time()
    n = 4
    strategies = [
        adv.identity(),
        adv.depolarize(0.3),
        adv.measure_z(),
    ]
    worst = 0.0
    for strategy in strategies:
        for mode in ("randomness", "entangled"):
            views = []
            for s in range(1 << n):
                f = bf.parity_fn(s, n)
                if mode == "randomness":
                    avg = np.zeros((1 << n, 1 << n), dtype=complex)
                    for r in range(1 << n):
                        sent = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
                        resp = qsim.apply_phase_oracle(sent, f, range(n))
                        avg += np.outer(resp.vec, resp.vec.conj()) / (1 << n)
                    reg = qsim.MixedState(n, avg)
                else:
                    joint = acquire.masked_query_phase_entangled(
                        phase_oracle(f), np.random.default_rng(0)
                    )
                    reg = qsim.partial_trace(joint, list(range(n, 2 * n)))
                views.append(strategy.exact_response_view(reg))
            dist = adv.factorization_distance(views)
            worst = max(worst, dist)
            assert dist <= 1e-9, f"{strategy.kind}/{mode}: distance {dist}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"mask factorization, worst trace distance {worst:.2e}", elapsed)


def test_c02_acquire_unidirectional_completeness():
    """n=3, m=1, N=20, no adversary, 200 trials: accept rate 1.0 and output
    fidelity 1 within 1e-9 in every trial."""
    start = time.time()
    n, trials = 3, 200
    accepts = 0
    for t in range(trials):
        rng = exp.trial_rng(202, t)
        f = bf.random_truth_table(n, rng)
        res = acquire.acquire_unidirectional(
            phase_oracle(f), oracles.MemOracle(f), 1, 0.1, 0.1, rng, n_blocks=20
        )
        assert res.accepted
        fid = qsim.fidelity(res.output[0], qsim.prepare_phase_state(f))
        assert fid >= 1.0 - 1e-9
        accepts += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"Alg-4 completeness, {accepts}/{trials} accepts at fidelity 1", elapsed)


def test_c03_acquire_unidirectional_soundness():
    """ResponseReplace(|000>): Wilson upper bound of
    P(accept and fidelity < 0.8) <= 0.05 over 400 trials."""
    start = time.time()
    n, trials = 3, 400
    bad = 0
    for t in range(trials):
        rng = exp.trial_rng(303, t)
        f = bf.random_truth_table(n, rng)
        oracle = phase_oracle(f, adv.replace_zero())
        res = acquire.acquire_unidirectional(
            oracle, oracles.MemOracle(f), 1, 0.1, 0.1, rng, n_blocks=20
        )
        if res.accepted:
            fid = qsim.fidelity(res.output[0], qsim.prepare_phase_state(f))
            bad += fid < 0.8
    _, hi = exp.wilson_interval(bad, trials)
    assert hi <= 0.05, f"accept-and-bad Wilson upper {hi}"
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(3, f"Alg-4 soundness, accept-and-bad {bad}/{trials}, Wilson upper {hi:.4f}", elapsed)


def test_c04_nogo_swap_attack():
    """Parity class n=4 under the swap attack: the learner accepts (rate >=
    0.99) while the adversary recovers s in 100% of 200 trials."""
    start = time.time()
    n, trials = 4, 200
    accepts = 0
    learned = 0
    for t in range(trials):
        rng = exp.trial_rng(404, t)
        s = int(rng.integers(0, 1 << n))
        f = bf.parity_fn(s, n)
        oracle = oracles.QuantumChannelOracle(f, "QPh", adv.swap_attack())
        res = acquire.acquire_unidirectional(
            oracle, oracles.MemOracle(f), 1, 0.1, 0.1, rng, n_blocks=20
        )
        accepts += res.accepted
        recs = [e["s_hat"] for e in oracle.tap.memory.events if e["action"] == "bv_readout"]
        learned += bool(recs and recs[0] == s)
    assert accepts / trials >= 0.99
    assert learned == trials
    elapsed = time.time() - start
    report(4, f"no-go: accept rate {accepts/trials:.3f}, adversary recovery {learned}/{trials}", elapsed)


def test_c05_schmidt_fidelity_drop_exact():
    """Measuring ancilla-free branches: per-trial fidelity <= 1/2 + 1e-9 at
    delta_leak=1 for n in {2,3,4}; exact mixture fidelity <= 3/4 + 1e-9 at
    delta_leak=0.5 (paper bound 1 - delta_leak/2)."""
    start = time.time()
    for n in (2, 3, 4):
        for t in range(40):
            rng = exp.trial_rng(505 + n, t)
            f = bf.random_truth_table(n, rng)
            strategy = adv.ancilla_free(1.0, extract_post=False)
            joint = acquire.masked_query_phase_entangled(
                phase_oracle(f, strategy), rng
            )
            assert qsim.schmidt_rank(joint, list(range(n, 2 * n))) <= 1 << (n - 1)
            table = [
                gf2.dot(z & ((1 << n) - 1), z >> n) ^ f(z >> n)
                for z in range(1 << (2 * n))
            ]
            target = qsim.prepare_phase_state(bf.truth_table(table))
            assert qsim.fidelity(joint, target) <= 0.5 + 1e-9
        # exact mixture at delta_leak = 0.5: enumerate the adversary branches
        rng = exp.trial_rng(515, n)
        f = bf.random_truth_table(n, rng)
        pre = qsim.tensor(qsim.uniform_state(n), qsim.uniform_state(n))
        for i in range(n):
            pre = qsim.apply_gate(pre, "CZ", [i, n + i])
        ideal = qsim.apply_phase_oracle(pre, f, list(range(n, 2 * n)))
        dim = 1 << (2 * n)
        mix = 0.5 * np.outer(ideal.vec, ideal.vec.conj())
        rotated = qsim.apply_unitary(pre, qsim.GATES_1Q["H"], [n])
        t_r = rotated.vec.reshape([2] * (2 * n))
        for b in (0, 1):
            sl = [slice(None)] * (2 * n)
            sl[2 * n - 1 - n] = 1 - b
            branch = t_r.copy()
            branch[tuple(sl)] = 0.0
            v = branch.reshape(-1)
            p_b = float(np.vdot(v, v).real)
            post = qsim.apply_unitary(
                qsim.PureState(2 * n, v / math.sqrt(p_b)), qsim.GATES_1Q["H"], [n]
            )
            after = qsim.apply_phase_oracle(post, f, list(range(n, 2 * n)))
            mix += 0.5 * p_b * np.outer(after.vec, after.vec.conj())
        sigma = qsim.MixedState(2 * n, mix)
        fid = qsim.fidelity(sigma, ideal)
        assert fid <= 0.75 + 1e-9, f"n={n}: mixture fidelity {fid}"
    elapsed = time.time() - start
    report(5, "Schmidt/fidelity drop: 1/2 per measured branch, 3/4 mixtures", elapsed)


def test_c06_ancilla_free_privacy_detection():
    """Alg 6 at n=3, m=1, delta=0.1, delta_leak=0.5, N from the linear copy
    formula with constant 2: accept rate <= 0.1 + Wilson margin, 300 trials."""
    start = time.time()
    n, trials = 3, 300
    accepts = 0
    blocks = None
    for t in range(trials):
        rng = exp.trial_rng(606, t)
        f = bf.random_truth_table(n, rng)
        oracle = phase_oracle(f, adv.ancilla_free(0.5))
        res = acquire.acquire_ancilla_free(
            oracle, oracles.MemOracle(f), 1, 0.1, 0.1, 0.5, rng
        )
        blocks = res.blocks_used
        accepts += res.accepted
    lo, _ = exp.wilson_interval(accepts, trials)
    assert lo <= 0.1, f"accept rate {accepts/trials} confidently above delta"
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(6, f"Alg-6 detection: {accepts}/{trials} accepts at N={blocks-1}", elapsed)


def test_c07_covert_parity():
    """n=8, delta_c=0.1, delta_p=1/8 (k=3), 1000 trials: success >= 0.9 -
    margin; adversary guesses within 2^-3 +- 3 sigma; <= 16 private SQs."""
    start = time.time()
    n, trials = 8, 1000
    cfg = covertex.ParityLearnerConfig(n=n, delta_c=0.1, delta_p=1 / 8)
    assert cfg.k == 3
    wins = 0
    guesses = 0
    for t in range(trials):
        rng = exp.trial_rng(707, t)
        s = int(rng.integers(0, 1 << n))
        f = bf.parity_fn(s, n)
        pub = oracles.ExOracle(f, rng)
        pri = oracles.SqOracle(f, policy=oracles.GRID)
        res = covertex.covert_parity_learn(pub, pri, cfg)
        assert res.pri_count <= 16
        wins += (not res.aborted) and res.s_hat == s
        if not res.aborted:
            guesses += covertex.parity_adversary_guess(res.public_samples, n, rng) == s
    rate = wins / trials
    assert rate >= 0.9 - margin(0.9, trials)
    guess_rate = guesses / trials
    assert abs(guess_rate - 2**-3) <= margin(0.125, trials)
    elapsed = time.time() - start
    report(7, f"parity: success {rate:.3f}, adversary {guess_rate:.4f} vs 0.125", elapsed)


def test_c08_covert_quadratic():
    """n=4, delta_c=0.1, 500 trials: exact recovery >= 0.9 - margin with
    exactly n private QSQs per completed run; exact transcript-distribution
    identity across diagonal-differing forms at n=3 (TV <= 1e-12)."""
    start = time.time()
    n, trials = 4, 500
    wins = 0
    for t in range(trials):
        rng = exp.trial_rng(808, t)
        rows = covertex.random_quadratic_rows(n, rng)
        f = bf.quadratic_fn(rows, n)
        pub = oracles.QMeasExOracle(qsim.prepare_example_state(f))
        pri = oracles.QsqOracle(f, policy=oracles.GRID)
        res = covertex.covert_quadratic_learn(pub, pri, n, 0.1, rng)
        if res.a_rows is None:
            assert res.pri_count == 0
        else:
            assert res.pri_count == n
            wins += res.a_rows == rows
    rate = wins / trials
    assert rate >= 0.9 - margin(0.9, trials)
    rng = np.random.default_rng(1808)
    worst_tv = 0.0
    for _ in range(5):
        base = covertex.random_quadratic_rows(3, rng)
        offdiag = tuple(r & ~(1 << i) for i, r in enumerate(base))
        other = tuple(r | (int(rng.integers(2)) << i) for i, r in enumerate(offdiag))
        tv = covertex.transcript_total_variation(base, other, 3)
        worst_tv = max(worst_tv, tv)
        assert tv <= 1e-12
    elapsed = time.time() - start
    report(8, f"quadratic: recovery {rate:.3f}, diagonal TV <= {worst_tv:.1e}", elapsed)


def test_c09_jl_covert_sq():
    """n=4, d=2, delta=0.1, delta_c=0.05, B_c=B_m=1, grid-policy oracle, 500
    trials: |v_est - c·m| <= delta in >= 95% - margin; encoder and simulator
    query streams bit-exact under equal seeds."""
    start = time.time()
    n, d, delta, delta_c, trials = 4, 2, 0.1, 0.05, 500
    hits = 0
    moments = covertsq.exact_moment_vector(n, d)
    for t in range(trials):
        rng = exp.trial_rng(909, t)
        c = rng.normal(size=covertsq.monomial_count(n, d))
        c = c / np.linalg.norm(c) * rng.uniform(0.3, 1.0)
        plan = covertsq.sketch_encode(c, n, d, delta, delta_c, 1.0, 1.0, rng)
        oracle = oracles.SqOracle(bf.constant_fn(n), policy=oracles.GRID)
        est = covertsq.run_sketched_query(plan, oracle)
        hits += abs(est - float(c @ moments)) <= delta
    rate = hits / trials
    assert rate >= 0.95 - margin(0.95, trials)
    # bit-exact simulator/encoder identity at equal seeds
    c = np.zeros(covertsq.monomial_count(n, d))
    c[0] = 0.7
    enc = covertsq.sketch_encode(c, n, d, delta, delta_c, 1.0, 1.0, np.random.default_rng(1909))
    sim = covertsq.sketch_simulator(n, d, delta, delta_c, 1.0, 1.0, np.random.default_rng(1909))
    assert np.array_equal(enc.projection, sim.projection)
    assert np.array_equal(enc.oracle_taus, sim.oracle_taus)
    for qa, qb in zip(enc.queries, sim.queries):
        assert qa.coeffs == qb.coeffs and qa.supports == qb.supports
    elapsed = time.time() - start
    report(9, f"JL covert SQ: within-delta rate {rate:.3f}, streams bit-exact", elapsed)


def test_c10_shadows_covert_qsq():
    """5 random 4-qubit states x 20 random 2-local Paulis per seed, shot
    count from the formula at tau=0.1, delta_p=0.01: estimates within tau in
    >= 99% - margin of pairs over 50 seeds."""
    start = time.time()
    params = {"n": 4, "k": 2, "tau": 0.1, "delta_p": 0.01,
              "n_states": 5, "n_observables": 20}
    ok = 0
    total = 0
    for seed in range(50):
        rng = exp.trial_rng(1010, seed)
        rec = exp._run_shadows(params, None, rng)
        ok += rec["pairs_ok"]
        total += rec["pairs"]
    rate = ok / total
    assert rate >= 0.99 - margin(0.99, total)
    elapsed = time.time() - start
    report(10, f"shadows QSQ: {ok}/{total} pairs within tau ({rate:.4f})", elapsed)


def test_c11_certification_dichotomy():
    """Exact phase states at n_block in {3,4,6}: omega-hat 1 and accept in
    100% of 500 trials; fidelity-0.77 corruption at eps=0.1 rejected at rate
    >= 0.95 - margin with the formula copy count (constant 2)."""
    start = time.time()
    eps, delta = 0.1, 0.05
    for n_block in (3, 4, 6):
        for t in range(500):
            rng = exp.trial_rng(1111 + n_block, t)
            f = bf.random_truth_table(n_block, rng)
            rec = certify.overlap_estimate_iid_state(
                qsim.prepare_phase_state(f), f, eps, delta, rng
            )
            assert rec.omega_hat == 1.0 and rec.accepted
    n_block, trials = 4, 500
    rejects = 0
    f = bf.constant_fn(n_block)
    table = [int(v) for v in bf.eval_all(f)]
    table[0] ^= 1
    bad = qsim.prepare_phase_state(bf.truth_table(table))
    fid = qsim.fidelity(bad, qsim.prepare_phase_state(f))
    assert fid == pytest.approx((1 - 2 / 16) ** 2, abs=1e-12)
    for t in range(trials):
        rng = exp.trial_rng(1119, t)
        rec = certify.overlap_estimate_iid_state(bad, f, eps, delta, rng)
        rejects += not rec.accepted
    rate = rejects / trials
    assert rate >= 0.95 - margin(0.95, trials)
    elapsed = time.time() - start
    report(11, f"certification dichotomy: exact always accepts, reject rate {rate:.3f} at fid {fid:.4f}", elapsed)


def test_c12_covert_forrelation_end_to_end():
    """n=4, 100 instances (50 per case), unidirectional identity adversary,
    delta=0.1: accuracy >= 0.9 - margin; exact factorization audit at n=3
    over a 16-instance prior (trace distance <= 1e-9)."""
    start = time.time()
    n, trials = 4, 100
    correct = 0
    for t in range(trials):
        rng = exp.trial_rng(1212, t)
        case = tasks.PHI_LARGE if t % 2 else tasks.PHI_SMALL
        inst = tasks.gen_forrelation_instance(n, case, rng)
        out = tasks.covert_forrelation(
            inst, rng, delta=0.1, adversary=adv.identity()
        )
        correct += (not out.rejected) and out.answer == case
    rate = correct / trials
    assert rate >= 0.9 - margin(0.9, trials)
    # exact factorization audit at n=3 over a 16-instance prior
    rng = np.random.default_rng(2212)
    views = []
    for i in range(16):
        case = tasks.PHI_LARGE if i % 2 else tasks.PHI_SMALL
        inst = tasks.gen_forrelation_instance(3, case, rng)
        h = inst.h()
        n2 = h.n
        avg = np.zeros((1 << n2, 1 << n2), dtype=complex)
        for r in range(1 << n2):
            sent = qsim.apply_z_mask(qsim.uniform_state(n2), r, range(n2))
            resp = qsim.apply_phase_oracle(sent, h, range(n2))
            avg += np.outer(resp.vec, resp.vec.conj()) / (1 << n2)
        views.append(qsim.MixedState(n2, avg))
    dist = adv.factorization_distance(views)
    assert dist <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(12, f"covert Forrelation: accuracy {rate:.3f}, audit distance {dist:.1e}", elapsed)


def test_c13_covert_simon_end_to_end():
    """n=4, m=1, 200 instances (100 per case), delta=0.1: accuracy >= 0.9 -
    margin; exactly 2 private membership queries per decision post-harvest;
    harvested strings orthogonal to s in 100% of periodic trials."""
    start = time.time()
    n, trials = 4, 200
    correct = 0
    for t in range(trials):
        rng = exp.trial_rng(1313, t)
        case = tasks.SIMON_PERIODIC if t % 2 else tasks.SIMON_ONE_TO_ONE
        inst = tasks.gen_simon_instance(n, case, rng)
        out = tasks.covert_simon(inst, rng, delta=0.1)
        assert not out.rejected
        dec = out.decision
        if dec.label != tasks.SIMON_INCONCLUSIVE:
            assert dec.decision_mem_queries == 2
        if case == tasks.SIMON_PERIODIC:
            assert all(gf2.dot(y, inst.period) == 0 for y in dec.harvested)
        correct += dec.label == case
    rate = correct / trials
    assert rate >= 0.9 - margin(0.9, trials)
    elapsed = time.time() - start
    report(13, f"covert Simon: accuracy {rate:.3f} over {trials} instances", elapsed)


def test_c14_exact_algebra_suite():
    """Closed forms and operator identities asserted exactly."""
    start = time.time()
    # Phi(const, const) = 2^{-n/2} for n <= 12
    for n in range(1, 13):
        f = bf.constant_fn(n)
        assert bf.forrelation_phi(f, f) == pytest.approx(2 ** (-n / 2), abs=1e-10)
    # phase/example unitary equivalence
    rng = np.random.default_rng(1414)
    for w in (1, 2):
        f = bf.random_truth_table(3, rng, w=w)
        rotated = qsim.apply_hadamards(
            qsim.prepare_example_state(f), range(3, 3 + w)
        )
        table = [
            gf2.dot(z >> 3, f(z & 7)) for z in range(1 << (3 + w))
        ]
        assert qsim.states_equal(
            rotated, qsim.prepare_phase_state(bf.truth_table(table)), 1e-12
        )
    # [Z^r, QPh(f)] = 0 as a state identity on random inputs
    for _ in range(20):
        n = int(rng.integers(1, 5))
        f = bf.random_truth_table(n, rng)
        r = int(rng.integers(0, 1 << n))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = qsim.PureState(n, v / np.linalg.norm(v))
        a = qsim.apply_phase_oracle(qsim.apply_z_mask(psi, r, range(n)), f, range(n))
        b = qsim.apply_z_mask(qsim.apply_phase_oracle(psi, f, range(n)), r, range(n))
        assert np.abs(a.vec - b.vec).max() <= 1e-12
    # Bell sampling: every b=11 draw satisfies z = (A+A^T) y, 10^4 draws at n=3
    n = 3
    rows = covertex.random_quadratic_rows(n, rng)
    offdiag = tuple(rw & ~(1 << i) for i, rw in enumerate(rows))
    copy = qsim.prepare_example_state(bf.quadratic_fn(rows, n))
    b11 = 0
    for _ in range(10_000):
        joint = qsim.tensor(copy, copy)
        y, z, b = qsim.bell_sample_example_pair(joint, n, rng)
        if b == (1, 1):
            b11 += 1
            assert z == gf2.matvec_sym_offdiag(offdiag, y, n)
    assert b11 > 2000
    elapsed = time.time() - start
    report(14, f"exact algebra: closed forms hold, {b11} b=11 Bell draws checked", elapsed)
