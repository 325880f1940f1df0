import numpy as np
import pytest

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import experiments as exp
from covertsim import oracles, qsim
from reference import extract_product_register_eigh, measure_unmemoised


def masked_query_roundtrip(f, n, strategy, rng):
    """One randomness-masked phase query through a tapped oracle."""
    oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
    r = int(rng.integers(0, 1 << n))
    sent = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
    got = oracle.query(sent, list(range(n)), rng=rng)
    return qsim.apply_z_mask(got, r, range(n)), oracle.tap


def taps_query(cls) -> bool:
    """Whether a kind taps learner->oracle traffic: it overrides `query_tap`."""
    return cls.query_tap is not adv.Strategy.query_tap


# the kinds that tap both directions
BIDIRECTIONAL = ["swap_attack", "ancilla_free"]


class TestKinds:
    def test_class_constants(self):
        bidirectional = [k for k, cls in adv.KINDS.items() if taps_query(cls)]
        quantum = [k for k, cls in adv.KINDS.items() if cls.quantum_memory]
        assert bidirectional == BIDIRECTIONAL
        assert quantum == ["swap_attack"]
        assert all(cls().kind == k for k, cls in adv.KINDS.items()
                   if k not in ("depolarize", "ancilla_free"))

    @pytest.mark.parametrize("build", [
        lambda: adv.depolarize(7),
        lambda: adv.depolarize(-0.1),
        lambda: adv.depolarize(float("nan")),
        lambda: adv.depolarize(True),
        lambda: adv.depolarize("0.5"),
        lambda: adv.ancilla_free(float("inf")),
        lambda: adv.ancilla_free(0.5, extract_post=1),
    ], ids=["p-above-one", "p-negative", "p-nan", "p-bool", "p-text",
            "leak-infinite", "extract-post-int"])
    def test_fields_checked_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_probability_bounds_are_inclusive(self):
        assert adv.depolarize(0).p == 0 and adv.depolarize(1.0).p == 1.0
        assert adv.ancilla_free(1, extract_post=False).delta_leak == 1


def acting_strategy(kind):
    """A strategy of `kind` whose probability fields make it act every round."""
    cls = adv.KINDS[kind]
    return {"depolarize": lambda: cls(1.0), "ancilla_free": lambda: cls(1.0)}.get(kind, cls)()


class TestPassThrough:
    def test_overridden_hooks(self):
        # exactly the two bidirectional kinds override query_tap; identity
        # alone leaves response_tap to the base
        for kind, cls in adv.KINDS.items():
            assert taps_query(cls) == (kind in BIDIRECTIONAL), kind
        passing = [k for k, cls in adv.KINDS.items()
                   if cls.response_tap is adv.Strategy.response_tap]
        assert passing == ["identity"]

    @pytest.mark.parametrize("kind", adv.KINDS)
    def test_only_acting_directions_reach_the_tap(self, kind, monkeypatch):
        strategy = acting_strategy(kind)
        f = bf.random_truth_table(2, np.random.default_rng(60))
        oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
        tap = oracle.tap
        assert tap.taps_query == (kind in BIDIRECTIONAL)
        assert tap.taps_response == (kind != "identity")
        seen = []
        apply = oracles.TapChannel.apply

        def spy(self, direction, *args):
            seen.append(direction)
            return apply(self, direction, *args)

        monkeypatch.setattr(oracles.TapChannel, "apply", spy)
        rng = np.random.default_rng(61)
        for k in range(3):
            oracle.query(qsim.uniform_state(3), [0, 1], rng=rng)
            assert tap.memory.round == k + 1  # one round per response, acting or not
        acting = [d for d, acts in (("query", tap.taps_query),
                                    ("response", tap.taps_response)) if acts]
        assert seen == acting * 3
        if kind == "identity":
            assert tap.memory.events == []
        else:
            assert tap.memory.events


class TestTaps:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(0)
        f = bf.random_truth_table(3, rng)
        out, _ = masked_query_roundtrip(f, 3, adv.identity(), rng)
        assert qsim.states_equal(out, qsim.prepare_phase_state(f), 1e-12)

    def test_unidirectional_query_tap_is_identity(self):
        rng = np.random.default_rng(1)
        psi = qsim.uniform_state(2)
        mem = adv.TapMemory()
        out = adv.apply_tap(adv.measure_z(), "query", psi, [0, 1], mem, rng)
        assert out is psi  # literally untouched

    def test_response_replace_overwrites(self):
        rng = np.random.default_rng(2)
        f = bf.random_truth_table(2, rng)
        repl = qsim.basis_state(2, 0)
        oracle = oracles.QuantumChannelOracle(f, "QPh", adv.replace_zero())
        out = oracle.query(qsim.uniform_state(2), [0, 1], rng=rng)
        assert qsim.states_equal(out, repl, 1e-12)

    def test_replace_register_in_larger_state(self):
        # replacing an entangled register decouples it from the rest
        rng = np.random.default_rng(3)
        bell = qsim.apply_gate(
            qsim.apply_gate(qsim.basis_state(2), "H", [0]), "CNOT", [0, 1]
        )
        repl = qsim.basis_state(1, 1)
        out = adv._replace_register(bell, [1], repl, rng)
        assert qsim.schmidt_rank(out, [1]) == 1
        red = qsim.partial_trace(out, [1])
        assert np.allclose(red.mat, np.diag([0, 1.0]), atol=1e-12)

    def test_depolarize_p1_register_maximally_mixed(self):
        rng = np.random.default_rng(4)
        f = bf.random_truth_table(2, rng)
        # average many trajectories of the p=1 depolarizing response
        acc = np.zeros((4, 4), dtype=complex)
        trials = 2000
        for i in range(trials):
            r = np.random.default_rng(1000 + i)
            out, _ = masked_query_roundtrip(f, 2, adv.depolarize(1.0), r)
            acc += np.outer(out.vec, out.vec.conj())
        assert np.abs(acc / trials - np.eye(4) / 4).max() < 0.05

    def test_measure_z_records_outcome(self):
        rng = np.random.default_rng(5)
        f = bf.random_truth_table(2, rng)
        _, tap = masked_query_roundtrip(f, 2, adv.measure_z(), rng)
        assert len(tap.memory.events) == 1
        assert tap.memory.events[0]["action"] == "measured_z"


class TestAncillaFree:
    def test_delta_zero_is_identity(self):
        rng = np.random.default_rng(6)
        psi = qsim.uniform_state(3)
        strat = adv.ancilla_free(0.0)
        mem = adv.TapMemory()
        out = adv.apply_tap(strat, "query", psi, [0, 1, 2], mem, rng)
        out = adv.apply_tap(strat, "response", out, [0, 1, 2], mem, rng)
        assert np.allclose(out.vec, psi.vec)
        assert mem.events == []

    def test_pre_measurement_halves_schmidt_rank(self):
        # entangled-mode query: R entangled with Q; measuring one Q qubit in
        # the Hadamard basis caps the Schmidt rank at 2^{n-1}
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            state = qsim.tensor(qsim.uniform_state(n), qsim.uniform_state(n))
            for i in range(n):
                state = qsim.apply_gate(state, "CZ", [i, n + i])
            q_reg = list(range(n, 2 * n))
            assert qsim.schmidt_rank(state, q_reg) == 1 << n
            strat = adv.ancilla_free(1.0, extract_post=False)
            mem = adv.TapMemory()
            post = adv.apply_tap(strat, "query", state, q_reg, mem, rng)
            assert qsim.schmidt_rank(post, q_reg) <= 1 << (n - 1)
            # rank stays bounded through the oracle and local post-processing
            f = bf.random_truth_table(n, rng)
            after = qsim.apply_phase_oracle(post, f, q_reg)
            assert qsim.schmidt_rank(after, q_reg) <= 1 << (n - 1)
            local = qsim.apply_hadamards(after, q_reg)
            assert qsim.schmidt_rank(local, q_reg) <= 1 << (n - 1)


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


class TestBoundedMemo:
    def test_keep_stores_only_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 100)
        memo = adv.BoundedMemo()
        value = object()
        assert memo.keep("a", value, 60) is value
        # 60 + 50 would pass the bound: returned, not kept, not counted
        rejected = object()
        assert memo.keep("b", rejected, 50) is rejected
        assert memo.keep("c", 3, 40) == 3  # exactly at the bound is kept
        assert memo.memo == {"a": value, "c": 3} and memo.nbytes == 60 + 40
        assert memo.keep("d", 4, 1) == 4 and "d" not in memo.memo

    def test_the_bound_is_read_at_each_keep(self, monkeypatch):
        memo = adv.BoundedMemo()
        memo.keep("a", 1, 10)
        monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 10)
        memo.keep("b", 2, 1)
        assert memo.memo == {"a": 1} and memo.nbytes == 10
        monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", 15)
        memo.keep("b", 2, 5)
        assert memo.memo == {"a": 1, "b": 2} and memo.nbytes == 15


class TestMeasurementMemo:
    @pytest.mark.parametrize("mode", ["entangled", "randomness"])
    def test_memoised_tap_equals_one_without_the_memo(self, mode, monkeypatch):
        # 1,200 rounds per mode over n = 1..3, both leak rates and both
        # extract_post settings: the same events, response bytes and
        # generator states as a fresh measure_qubits per measurement
        cases = [(adv.ancilla_free(leak, extract_post=post), n, 100, 40 + n)
                 for n in (1, 2, 3) for leak in (0.5, 1.0) for post in (True, False)]
        memoised = [tapped_queries(s, n, mode, q, seed) for s, n, q, seed in cases]
        monkeypatch.setattr(adv.TapMemory, "measure", measure_unmemoised)
        fresh = [tapped_queries(s, n, mode, q, seed) for s, n, q, seed in cases]
        rounds = 0
        for (trace, memory), (want, want_memory) in zip(memoised, fresh):
            assert trace == want
            assert memory.events == want_memory.events and memory.events
            assert want_memory.measure_memo.memo == {} and memory.measure_memo.memo
            rounds += len(trace)
        assert rounds == 1200

    def test_memo_keys_on_the_qubits_and_the_basis(self):
        # one state measured on two registers in each basis: six tables, and
        # every draw as a fresh measure_qubits makes it
        psi = random_state(3, np.random.default_rng(41))
        memory = adv.TapMemory()
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(20):
            for qubits in ([0], [2, 1]):
                for basis in ("X", "Y", "Z"):
                    outcome, post = memory.measure(psi, qubits, basis, rng_a)
                    want, want_post = qsim.measure_qubits(psi, qubits, basis, rng_b)
                    assert outcome == want and post.vec.tobytes() == want_post.vec.tobytes()
        assert len(memory.measure_memo.memo) == 6
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_an_acquire_af_trial_needs_three_tables(self):
        # every entangled query sends the same coupled pair: one table before
        # the oracle, one after it per pre-measurement outcome
        rng = np.random.default_rng(606)
        f = bf.random_truth_table(3, rng)
        oracle = oracles.QuantumChannelOracle(f, "QPh", adv.ancilla_free(0.5))
        acquire.acquire_ancilla_free(oracle, oracles.MemOracle(f), 1, 0.1, 0.1, 0.5, rng)
        memo = oracle.tap.memory.measure_memo.memo
        assert oracle.count == 361 and len(memo) == 3
        assert sum(len(t.posts) for t in memo.values()) <= 18
        assert oracle.tap.memory.measure_memo.nbytes == sum(
            len(key[0]) + t.max_nbytes for key, t in memo.items())

    def test_memo_stays_under_its_bound(self, monkeypatch):
        # randomness-mode acquire-uni at n = 6: the distinct registers' tables
        # would pass the bound, so the memo stops admitting, the bytes it
        # holds never pass the bound, and the records equal a memo-less run
        cfg = exp.ExperimentConfig(
            scenario="acquire-uni", params={"n": 6, "m": 8, "n_blocks": 20},
            adversary={"kind": "ancilla_free", "delta_leak": 0.5}, seed=22)
        measure = adv.TapMemory.measure
        seen, held = {}, []  # each trial's memory -> the registers it measured

        def watched(memory, state, qubits, basis, rng):
            out = measure(memory, state, qubits, basis, rng)
            seen.setdefault(memory, set()).add((state.vec.tobytes(), tuple(qubits), basis))
            held.append(memory.measure_memo.nbytes)
            return out

        monkeypatch.setattr(adv.TapMemory, "measure", watched)
        records = [exp.run_trial(cfg, t) for t in range(2)]
        assert len(seen) == 2 and max(held) <= adv.MEASUREMENT_MEMO_BYTES
        # each trial saw more registers than its memo kept tables for
        assert all(len(keys) > len(memory.measure_memo.memo) for memory, keys in seen.items())
        monkeypatch.setattr(adv.TapMemory, "measure", measure_unmemoised)
        assert records == [exp.run_trial(cfg, t) for t in range(2)]


class TestSwapAttack:
    def test_learns_parity_and_learner_sees_nothing(self):
        rng = np.random.default_rng(8)
        n = 4
        for _ in range(20):
            s = int(rng.integers(0, 1 << n))
            f = bf.parity_fn(s, n)
            oracle = oracles.QuantumChannelOracle(f, "QPh", adv.swap_attack())
            r = int(rng.integers(0, 1 << n))
            sent = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
            got = oracle.query(sent, list(range(n)), rng=rng)
            unmasked = qsim.apply_z_mask(got, r, range(n))
            # adversary learned s exactly
            events = oracle.tap.memory.events
            assert [e["s_hat"] for e in events if e["action"] == "bv_readout"] == [s]
            # learner's view is bit-identical to a no-adversary run
            assert qsim.states_equal(unmasked, qsim.prepare_phase_state(f), 1e-12)
            # subsequent queries pass through (oracle already learned)
            got2 = oracle.query(sent, list(range(n)), rng=rng)
            assert qsim.states_equal(
                qsim.apply_z_mask(got2, r, range(n)), qsim.prepare_phase_state(f), 1e-12
            )

    def test_cannot_steal_entangled_register(self):
        rng = np.random.default_rng(9)
        bell = qsim.apply_gate(
            qsim.apply_gate(qsim.basis_state(2), "H", [0]), "CNOT", [0, 1]
        )
        strat = adv.swap_attack()
        mem = adv.TapMemory()
        with pytest.raises(RuntimeError):
            adv.apply_tap(strat, "query", bell, [1], mem, rng)


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qsim.PureState(n, v / np.linalg.norm(v))


class TestProductRegister:
    """The amplitude form of `_extract_product_register` against the
    density-matrix form it replaced, equal up to global phase."""

    def assert_split(self, reg, rest, qubits):
        state = adv._reinsert_register(rest, reg, qubits)
        got = adv._extract_product_register(state, qubits)
        want = extract_product_register_eigh(state, qubits)
        for g, w, factor in zip(got, want, (reg, rest)):
            assert qsim.states_equal(g, w, 1e-10) and qsim.states_equal(g, factor, 1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_split_matches_the_eigh_form(self, n):
        rng = np.random.default_rng(300 + n)
        for k in range(1, n):
            for _ in range(3):
                qubits = [int(q) for q in rng.permutation(n)[:k]]
                self.assert_split(random_state(k, rng), random_state(n - k, rng), qubits)

    def test_non_contiguous_and_whole_registers(self):
        rng = np.random.default_rng(310)
        self.assert_split(random_state(2, rng), random_state(2, rng), [0, 2])
        self.assert_split(random_state(2, rng), random_state(1, rng), [2, 0])
        # factors with a zero first amplitude: the first row and column of
        # the reshape are zero, so each factor must come from the largest
        self.assert_split(qsim.basis_state(2, 3), random_state(3, rng), [1, 4])
        self.assert_split(random_state(2, rng), qsim.basis_state(3, 6), [1, 4])
        empty = qsim.basis_state(0)  # the rest has 0 qubits
        for n in (1, 3, 6):
            self.assert_split(random_state(n, rng), empty, list(range(n)))
            self.assert_split(random_state(n, rng), empty, [int(q) for q in rng.permutation(n)])

    def test_weight_of_an_orthogonal_product_is_refused(self):
        rng = np.random.default_rng(311)
        a, b = random_state(2, rng), random_state(3, rng)
        # the parts of two more random states orthogonal to a and to b
        a_perp, b_perp = (
            v - np.vdot(u.vec, v) * u.vec
            for u, v in ((a, random_state(2, rng).vec), (b, random_state(3, rng).vec))
        )
        # a on qubits 3 and 4 (the high factor of kron), b on 0..2
        near = np.sqrt(1 - 1e-6) * np.kron(a.vec, b.vec) + np.sqrt(1e-6) * np.kron(
            a_perp / np.linalg.norm(a_perp), b_perp / np.linalg.norm(b_perp))
        state = qsim.PureState(5, near)
        assert qsim.states_equal(adv._reinsert_register(b, a, [3, 4]),
                                 qsim.PureState(5, np.kron(a.vec, b.vec)), 1e-12)
        for extract in (adv._extract_product_register, extract_product_register_eigh):
            with pytest.raises(RuntimeError, match="entangled"):
                extract(state, [3, 4])


class TestExactViews:
    def test_identity_view_factorizes_under_masking(self):
        # mask-averaged response register is I/2^n for every f
        n = 3
        views = []
        for fbits in range(4):
            f = bf.truth_table([(fbits >> (x % 2)) & 1 for x in range(8)])
            avg = np.zeros((8, 8), dtype=complex)
            for r in range(8):
                masked = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
                resp = qsim.apply_phase_oracle(masked, f, range(n))
                avg += np.outer(resp.vec, resp.vec.conj()) / 8
            views.append(
                adv.identity().exact_response_view(qsim.MixedState(n, avg))
            )
        assert adv.factorization_distance(views) < 1e-12

    def test_measure_z_view_is_diagonal(self):
        rho = qsim.uniform_state(2).density()
        view = adv.measure_z().exact_response_view(rho)
        assert np.allclose(view.mat, np.eye(4) / 4)

    def test_depolarize_view(self):
        rho = qsim.basis_state(2, 3).density()
        view = adv.depolarize(0.4).exact_response_view(rho)
        expect = 0.6 * rho.mat + 0.4 * np.eye(4) / 4
        assert np.allclose(view.mat, expect)

    def test_factorization_distance_detects_leak(self):
        # views that depend on f must have nonzero distance
        views = [
            qsim.basis_state(1, 0).density(),
            qsim.basis_state(1, 1).density(),
        ]
        assert adv.factorization_distance(views) == pytest.approx(0.5)


class TestSwapAttackInformation:
    def test_mutual_information_equals_prior_entropy(self):
        # the swap attacker's record determines F exactly, so I(F; record)
        # equals the prior entropy (exact classical computation)
        import math

        from covertsim import oracles, acquire

        n = 3
        rng = np.random.default_rng(40)
        joint_counts = {}
        for s in range(1 << n):
            f = bf.parity_fn(s, n)
            oracle = oracles.QuantumChannelOracle(f, "QPh", adv.swap_attack())
            acquire.masked_query_phase_randomness(oracle, rng)
            events = oracle.tap.memory.events
            rec = [e["s_hat"] for e in events if e["action"] == "bv_readout"][0]
            joint_counts[(s, rec)] = joint_counts.get((s, rec), 0) + 1
        # uniform prior over 2^n parities; record = s with probability 1
        total = sum(joint_counts.values())
        p_joint = {k: v / total for k, v in joint_counts.items()}
        h_prior = n  # bits
        mi = 0.0
        for (s, rec), p in p_joint.items():
            p_s = 1 / (1 << n)
            p_rec = sum(v for (s2, r2), v in p_joint.items() if r2 == rec)
            mi += p * math.log2(p / (p_s * p_rec))
        assert mi == pytest.approx(h_prior, abs=1e-9)
