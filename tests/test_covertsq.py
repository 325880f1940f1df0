import itertools
import math

import numpy as np
import pytest
from scipy import stats

from covertsim import boolfunc as bf
from covertsim import covertsq as csq
from covertsim import experiments as exp
from covertsim import oracles, qsim
from equivalence import PAIRS, bound, negative_zeros, random_target, symbol_plane_shadows
from reference import pauli_observable


class TestBasis:
    def test_monomial_count(self):
        assert len(csq.monomial_basis(4, 2)) == math.comb(6, 2) == 15
        assert csq.monomial_count(4, 2) == 15

    def test_graded_order(self):
        basis = csq.monomial_basis(3, 2)
        degrees = [len(m) for m in basis]
        assert degrees == sorted(degrees)
        assert basis[0] == ()

    def test_moment_vector(self):
        mv = csq.exact_moment_vector(2, 2)
        basis = csq.monomial_basis(2, 2)
        for m, v in zip(basis, mv):
            assert v == 2.0 ** (-csq.support_mask(m).bit_count())
        # degree-2 monomial x0*x0 has support {0}: moment 1/2, not 1/4
        i = basis.index((0, 0))
        assert mv[i] == 0.5


class TestSketch:
    def test_width_formula(self):
        m_e, eps0, tau_e = csq.sketch_width(0.1, 0.05, 1.0, 1.0)
        assert eps0 == 0.05
        assert m_e == math.ceil(csq.JL_CONSTANT * math.log(20) / 0.05**2)
        assert tau_e == 0.1 / (4 * math.sqrt(m_e))

    def test_zero_target_decodes_zero(self):
        rng = np.random.default_rng(0)
        plan = csq.sketch_encode([0.0] * 15, 4, 2, 0.1, 0.05, 1.0, 1.0, rng)
        fake = rng.uniform(0, 1, size=plan.m_e)
        assert csq.sketch_decode(plan, fake) == 0.0

    def test_identity_projection_hook_is_exact(self):
        rng = np.random.default_rng(1)
        n, d = 3, 2
        big_n = csq.monomial_count(n, d)
        c = random_target(n, d, rng)
        plan = csq.sketch_encode(
            c, n, d, 0.1, 0.05, 1.0, 1.0, rng, projection_override=np.eye(big_n)
        )
        moments = csq.exact_moment_vector(n, d)
        responses = (moments - plan.shifts) / plan.scales
        got = csq.sketch_decode(plan, responses)
        assert got == pytest.approx(float(c @ moments), abs=1e-12)

    def test_norm_bound_enforced(self):
        rng = np.random.default_rng(2)
        c = np.full(15, 1.0)
        with pytest.raises(ValueError):
            csq.sketch_encode(c, 4, 2, 0.1, 0.05, 1.0, 1.0, rng)

    def test_simulator_bit_exact_under_equal_seed(self):
        n, d = 4, 2
        c1 = random_target(n, d, np.random.default_rng(3))
        c2 = random_target(n, d, np.random.default_rng(4))
        plans = [
            csq.sketch_encode(c1, n, d, 0.2, 0.2, 1.0, 1.0, np.random.default_rng(99)),
            csq.sketch_encode(c2, n, d, 0.2, 0.2, 1.0, 1.0, np.random.default_rng(99)),
            csq.sketch_simulator(n, d, 0.2, 0.2, 1.0, 1.0, np.random.default_rng(99)),
        ]
        base = plans[0]
        for other in plans[1:]:
            assert np.array_equal(base.projection, other.projection)
            assert np.array_equal(base.oracle_taus, other.oracle_taus)
            for qa, qb in zip(base.queries, other.queries):
                assert qa.supports == qb.supports
                assert qa.coeffs == qb.coeffs

    def test_projection_entries_gaussian(self):
        plan = csq.sketch_simulator(3, 1, 0.3, 0.3, 1.0, 1.0, np.random.default_rng(5))
        entries = plan.projection.reshape(-1) * math.sqrt(plan.m_e)
        assert stats.kstest(entries, "norm").pvalue > 1e-4

    def test_end_to_end_exact_oracle(self):
        rng = np.random.default_rng(6)
        n, d = 4, 2
        delta = 0.1
        failures = 0
        trials = 60
        for i in range(trials):
            trng = np.random.default_rng(1000 + i)
            c = random_target(n, d, trng)
            f = bf.constant_fn(n)
            oracle = oracles.SqOracle(f, policy=oracles.GRID)
            plan = csq.sketch_encode(c, n, d, delta, 0.05, 1.0, 1.0, trng)
            est = csq.run_sketched_query(plan, oracle)
            truth = float(c @ csq.exact_moment_vector(n, d))
            if abs(est - truth) > delta:
                failures += 1
        assert failures <= 3  # delta_c = 0.05 plus slack at 60 trials

    def test_tiny_basis_caps_the_tolerance(self):
        # n = d = 1 has two monomials, so some projection rows have an L1
        # norm near 0 and tau_e / (2 * norm) of 1 or more, which no oracle
        # takes: capped at 1/2, every trial answers and decodes within delta
        cfg = exp.ExperimentConfig(scenario="covert-sq", params={"n": 1, "d": 1},
                                   seed=0, trials=30)
        records = [exp.run_trial(cfg, i) for i in range(cfg.trials)]
        assert all(r["within_delta"] for r in records)
        plan = csq.sketch_encode([0.6, 0.8], 1, 1, 0.1, 0.05, 1.0, 1.0,
                                 np.random.default_rng(0))
        assert plan.oracle_taus.max() == 0.5

    def test_noise_term_bounded_by_design(self):
        # worst-case +-tau_e responses: Cauchy-Schwarz noise <= delta/2 when
        # the JL norm event ||Rc|| <= 2 B_c holds
        rng = np.random.default_rng(7)
        n, d, delta = 4, 2, 0.1
        for i in range(20):
            trng = np.random.default_rng(2000 + i)
            c = random_target(n, d, trng)
            plan = csq.sketch_encode(c, n, d, delta, 0.05, 1.0, 1.0, trng)
            rc_norm = np.linalg.norm(plan.projected_coeffs)
            assert rc_norm <= 2.0  # JL event, overwhelmingly likely
            noise_bound = rc_norm * plan.tau_e * math.sqrt(plan.m_e)
            assert noise_bound <= delta / 2 + 1e-12


class TestShadows:
    def test_shot_count_formula(self):
        shots, batches = csq.shadow_shot_count(20, 2, 0.1, 0.01)
        assert batches == math.ceil(8 * math.log(2 * 20 / 0.01))
        assert shots == batches * math.ceil(4 * 16 / 0.01)

    def test_identity_estimates_one_exactly(self):
        rng = np.random.default_rng(8)
        src = oracles.QMeasExOracle(qsim.uniform_state(2))
        shadows = csq.shadow_collect(src, 300, rng)
        obs = pauli_observable({})
        assert csq.shadow_estimate(shadows, obs, batches=5) == 1.0

    def test_z_on_zero_state(self):
        rng = np.random.default_rng(9)
        src = oracles.QMeasExOracle(qsim.basis_state(4, 0))
        shadows = csq.shadow_collect(src, 10_000, rng)
        obs = pauli_observable({0: "Z"})
        est = csq.shadow_estimate(shadows, obs, batches=10)
        assert abs(est - 1.0) <= 0.05

    def test_xx_on_bell_pair(self):
        rng = np.random.default_rng(10)
        bell = qsim.apply_gate(
            qsim.apply_gate(qsim.basis_state(2), "H", [0]), "CNOT", [0, 1]
        )
        assert csq.pauli_expectation_exact(bell, pauli_observable({0: "X", 1: "X"})) == pytest.approx(1.0)
        src = oracles.QMeasExOracle(bell)
        shadows = csq.shadow_collect(src, 20_000, rng)
        est = csq.shadow_estimate(shadows, pauli_observable({0: "X", 1: "X"}), batches=10)
        assert abs(est - 1.0) <= 0.15

    def test_collection_is_observable_agnostic(self):
        # no observable parameter exists; equal seeds give equal shadows for
        # different downstream targets by construction
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        src_a = oracles.QMeasExOracle(qsim.basis_state(2, 0))
        src_b = oracles.QMeasExOracle(qsim.basis_state(2, 0))
        sa = csq.shadow_collect(src_a, 500, rng_a)
        sb = csq.shadow_collect(src_b, 500, rng_b)
        assert np.array_equal(sa.bases, sb.bases)
        assert np.array_equal(sa.bits, sb.bits)
        assert src_a.count == 500

    def test_unbiased_convergence_on_random_states(self):
        rng = np.random.default_rng(12)
        errs = []
        for shots in (1000, 16_000):
            total = 0.0
            for i in range(5):
                srng = np.random.default_rng(300 + i)
                v = srng.normal(size=16) + 1j * srng.normal(size=16)
                psi = qsim.PureState(4, v / np.linalg.norm(v))
                obs = pauli_observable({0: "Z", 2: "X"})
                src = oracles.QMeasExOracle(psi)
                shadows = csq.shadow_collect(src, shots, np.random.default_rng(7000 + i))
                est = csq.shadow_single_shot_estimates(shadows, obs).mean()
                total += abs(est - csq.pauli_expectation_exact(psi, obs))
            errs.append(total / 5)
        assert errs[-1] < errs[0]


class TestSketchRows:
    """The plan's coefficient matrix and precomputed expectations against
    one PolynomialSqQuery per public query, byte for byte."""

    test_expectations_equal_per_query = staticmethod(bound("covertsq.SketchPlan.expectations"))
    test_answers_equal_per_query = staticmethod(bound("covertsq.run_sketched_query"))
    test_transcript_equals_per_query = staticmethod(
        bound("covertsq.run_sketched_query:transcript"))


class TestPauliExpectationExact:
    test_bit_equal_to_the_kron_matrix_on_every_string = staticmethod(
        bound("covertsq.pauli_expectation_exact"))

    def test_known_values_on_basis_and_bell_states(self):
        PAIRS["covertsq.pauli_expectation_exact:bell"].check()  # against the kron matrix
        one = qsim.basis_state(2, 0b01)  # qubit 0 in |1>, qubit 1 in |0>
        assert csq.pauli_expectation_exact(one, pauli_observable({0: "Z"})) == -1.0
        assert csq.pauli_expectation_exact(one, pauli_observable({1: "Z"})) == 1.0
        assert csq.pauli_expectation_exact(one, pauli_observable({0: "X"})) == 0.0
        bell = qsim.apply_gate(
            qsim.apply_gate(qsim.basis_state(2), "H", [0]), "CNOT", [0, 1]
        )
        for spec, want in (({0: "X", 1: "X"}, 1.0), ({0: "Y", 1: "Y"}, -1.0),
                           ({0: "Z", 1: "Z"}, 1.0), ({0: "X", 1: "Y"}, 0.0)):
            obs = pauli_observable(spec, coefficient=0.5)
            assert csq.pauli_expectation_exact(bell, obs) == pytest.approx(0.5 * want, abs=1e-15)


class TestSymbolPlaneEstimator:
    test_matches_mask_product_estimator = staticmethod(
        bound("covertsq.shadow_single_shot_estimates", "covertsq.shadow_estimate"))

    @pytest.fixture(scope="class")
    def shadows(self):
        return symbol_plane_shadows()

    def test_zero_coefficient_writes_no_negative_zero(self, shadows):
        obs = pauli_observable({0: "X", 3: "Y"}, coefficient=0.0)
        got = csq.shadow_single_shot_estimates(shadows, obs)
        assert not got.any() and negative_zeros(got) == 0

    def test_locality_above_four_rejected(self, shadows):
        obs = pauli_observable({q: "Z" for q in range(5)})
        with pytest.raises(ValueError, match="k <= 4"):
            csq.shadow_single_shot_estimates(shadows, obs)
        for coefficient in (1.0, 0.37):  # counts path, gather path
            obs = pauli_observable({q: "Z" for q in range(5)}, coefficient=coefficient)
            with pytest.raises(ValueError, match="k <= 4"):
                csq.shadow_estimate(shadows, obs, 7)

    def test_symbol_plane_is_built_once_and_frozen(self, shadows):
        assert shadows.sym.shape == (shadows.n, shadows.shots)
        assert shadows.sym.dtype == np.uint8 and shadows.sym.flags.c_contiguous
        assert np.array_equal(shadows.sym, (2 * shadows.bases + shadows.bits).T)
        for arr in (shadows.bases, shadows.bits, shadows.sym):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0
        with pytest.raises(AttributeError):
            shadows.bits = shadows.bits


class TestCountsPathEstimator:
    """shadow_estimate through the set's cached per-batch support counts."""

    @staticmethod
    def fresh(shadows):
        return csq.ShadowSet(shadows.bases, shadows.bits)

    @pytest.fixture(scope="class")
    def shadows(self):
        rng = np.random.default_rng(22)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        src = oracles.QMeasExOracle(qsim.PureState(5, v / np.linalg.norm(v)))
        return csq.shadow_collect(src, 2000, rng)

    def test_estimates_do_not_depend_on_call_order_or_cache_hits(self, shadows):
        shared = self.fresh(shadows)
        a = pauli_observable({0: "X", 3: "Z"})
        b = pauli_observable({0: "Y", 3: "Y"})  # same support as a: a cache hit
        c = pauli_observable({1: "Z", 2: "X", 4: "Y"})
        # (a, 67) has 29 shots per batch, fewer than 6^2: the gather path
        calls = [(a, 7), (b, 7), (c, 7), (a, 7), (a, 1), (b, 7), (a, 67)]
        got = [csq.shadow_estimate(shared, obs, batches) for obs, batches in calls]
        want = [csq.shadow_estimate(self.fresh(shadows), obs, batches)
                for obs, batches in calls]
        assert got == want
        assert got[0] == got[3]
        assert got == [PAIRS["covertsq.shadow_estimate"].compare(self.fresh(shadows), obs, batches)
                       for obs, batches in calls]
        assert set(shared._counts) == {((0, 3), 7), ((1, 2, 4), 7), ((0, 3), 1)}
        assert not any(c.flags.writeable for c in shared._counts.values())

    def test_cache_stays_within_its_bound(self, shadows):
        shared = self.fresh(shadows)
        bound = shadows.n * shadows.shots  # 10,000 cells
        rng = np.random.default_rng(5)
        held, cleared = 0, 0
        # every support, so that the tables together pass the bound (the ten
        # k = 3 tables alone hold 10 * 7 * 216 cells); a k = 4 table needs one
        # batch to have 6^4 shots in it
        for k in range(1, 5):
            batches = 1 if k == 4 else 7
            for qubits in itertools.combinations(range(shadows.n), k):
                obs = csq.PauliObservable(axes=tuple((q, int(rng.integers(3))) for q in qubits))
                PAIRS["covertsq.shadow_estimate"].compare(shared, obs, batches)
                sizes = [c.size for c in shared._counts.values()]
                assert sum(sizes) <= bound and max(sizes, default=0) <= shadows.shots
                cleared += sum(sizes) < held
                held = sum(sizes)
        assert cleared

    @pytest.mark.parametrize("obs, batches", [
        (pauli_observable({0: "X", 3: "Z"}, coefficient=0.37), 7),  # inexact sums
        (pauli_observable({0: "X", 3: "Z"}), 67),  # 29 shots per batch < 6^2
        (pauli_observable({0: "X", 1: "Y", 2: "Z", 3: "Y"}), 7),  # 285 < 6^4
    ])
    def test_gather_path_keeps_no_counts(self, shadows, obs, batches):
        shared = self.fresh(shadows)
        PAIRS["covertsq.shadow_estimate"].compare(shared, obs, batches)
        assert not shared._counts

    def test_no_count_table_larger_than_the_shots(self, shadows):
        with pytest.raises(ValueError, match="needs >= 1296 shots per batch, got 285"):
            self.fresh(shadows).batch_counts((0, 1, 2, 3), 7)

    @pytest.mark.parametrize("coefficient", [1.0, 0.37])  # counts path, gather path
    def test_fewer_shots_than_batches_rejected(self, shadows, coefficient):
        few = csq.ShadowSet(shadows.bases[:5], shadows.bits[:5])
        obs = pauli_observable({0: "X", 3: "Z"}, coefficient=coefficient)
        with pytest.raises(ValueError, match="fewer shots than batches"):
            csq.shadow_estimate(few, obs, 6)
        PAIRS["covertsq.shadow_estimate"].compare(few, obs, 5)

    @pytest.mark.parametrize("batches", [0, -3, True, False, 2.0, 6])
    def test_batch_count_outside_one_to_shots_refused_before_any_work(
        self, shadows, batches, monkeypatch
    ):
        # on both paths and in batch_counts: the same refusal, before any
        # code, estimate or count table is computed
        few = csq.ShadowSet(shadows.bases[:5], shadows.bits[:5])

        def refuse(*args):
            raise AssertionError("computed before the batch check")

        monkeypatch.setattr(csq.ShadowSet, "support_code", refuse)
        monkeypatch.setattr(csq, "shadow_single_shot_estimates", refuse)
        needle = rf"batches {batches!r} is not an int in \[1, 5\]: .* fewer shots than batches"
        for coefficient in (1.0, 0.37):  # counts path, gather path
            obs = pauli_observable({0: "X", 3: "Z"}, coefficient=coefficient)
            with pytest.raises(ValueError, match=needle):
                csq.shadow_estimate(few, obs, batches)
        with pytest.raises(ValueError, match=needle):
            few.batch_counts((0,), batches)
        assert not few._counts

    def test_batch_refusals_hold_under_optimization(self, run_optimized):
        # `python -O` strips asserts; the batch checks are plain raises
        out = run_optimized("""
            import numpy as np
            from covertsim import covertsq as csq
            from reference import pauli_observable
            few = csq.ShadowSet(np.zeros((5, 4), dtype=int), np.zeros((5, 4), dtype=int))
            obs = pauli_observable({0: "X"})
            for call in (lambda: csq.shadow_estimate(few, obs, True),
                         lambda: csq.shadow_estimate(few, obs, 6),
                         lambda: few.batch_counts((0,), 0)):
                try:
                    call()
                except ValueError as e:
                    print("raised:", e)
        """)
        for batches in ("True", "6", "0"):
            assert (f"raised: batches {batches} is not an int in [1, 5]: not a count, "
                    "or fewer shots than batches") in out.stdout
        assert out.stdout.count("raised:") == 3

    def test_numpy_int_batch_count_equals_the_int(self, shadows):
        obs = pauli_observable({0: "X", 3: "Z"})
        assert csq.shadow_estimate(self.fresh(shadows), obs, np.int64(7)) == (
            csq.shadow_estimate(self.fresh(shadows), obs, 7))

    def test_collected_set_equals_checked_set(self):
        v = np.random.default_rng(23).normal(size=16) + 0j
        psi = qsim.PureState(4, v / np.linalg.norm(v))
        collected = csq.shadow_collect(
            oracles.QMeasExOracle(psi), 2000, np.random.default_rng(24)
        )
        bases, bits = oracles.QMeasExOracle(psi).sample_product_pauli(
            2000, np.random.default_rng(24)
        )
        checked = csq.ShadowSet(bases, bits)
        for name in ("bases", "bits", "sym"):
            got, want = getattr(collected, name), getattr(checked, name)
            assert got.dtype == want.dtype == np.uint8 and not got.flags.writeable
            assert np.array_equal(got, want)
        assert np.array_equal(collected.bases, bases) and np.array_equal(collected.bits, bits)


class TestWholeRegisterCounts:
    """shadow_estimate on sets of n <= 4 qubits: one whole-register count
    table per batches value, times the observable's lifted weights."""

    test_equals_both_reference_forms = staticmethod(
        bound("covertsq.shadow_estimate:whole-register"))

    def test_lifted_weights_are_constant_off_the_support(self):
        obs = pauli_observable({1: "Y", 3: "X"}, coefficient=-2.0)
        lifted = csq._lifted_weights(obs, 4).reshape((6,) * 4)  # axes: qubits 3, 2, 1, 0
        table = csq._weight_table(obs).reshape(6, 6)  # axes: qubits 3, 1
        for d2, d0 in itertools.product(range(6), repeat=2):
            assert np.array_equal(lifted[:, d2, :, d0], table)

    @pytest.mark.parametrize("shots, batches", [(2000, 3), (1295, 1)])
    def test_batches_under_six_to_the_n_keep_the_support_table(self, shots, batches):
        rng = np.random.default_rng(31)
        src = oracles.QMeasExOracle(qsim.uniform_state(4))
        shadows = csq.shadow_collect(src, shots, rng)
        obs = pauli_observable({0: "X", 2: "Z"})
        PAIRS["covertsq.shadow_estimate"].compare(shadows, obs, batches)
        assert set(shadows._counts) == {((0, 2), batches)}


class TestObservableBoundary:
    @pytest.mark.parametrize("axes, needle", [
        (((-1, 0),), "non-negative, distinct and ascending"),
        (((0, 3),), "axes must lie in 0..2"),
        (((0, -1),), "axes must lie in 0..2"),
        (((2, 0), (1, 1)), "non-negative, distinct and ascending"),
        (((1, 0), (1, 2)), "non-negative, distinct and ascending"),
        (((0, 1.0),), "integers"),
        (((1.5, 0),), "integers"),
        (((True, 2),), "integers"),
    ])
    def test_malformed_axes_rejected(self, axes, needle):
        with pytest.raises(ValueError, match=needle):
            csq.PauliObservable(axes)

    @pytest.mark.parametrize("axes, outside", [
        (((5, 0),), r"\[5\]"),
        (((4, 2),), r"\[4\]"),
        (((1, 1), (4, 0), (6, 2)), r"\[4, 6\]"),
    ])
    def test_qubits_outside_the_register_rejected_before_any_work(
        self, axes, outside, monkeypatch
    ):
        rng = np.random.default_rng(41)
        psi = qsim.uniform_state(4)
        shadows = csq.shadow_collect(oracles.QMeasExOracle(psi), 2000, rng)

        def refuse(*args):
            raise AssertionError("computed before the register check")

        for name in ("support_code", "batch_counts"):
            monkeypatch.setattr(csq.ShadowSet, name, refuse)
        monkeypatch.setattr(csq, "z_signs", refuse)
        obs = csq.PauliObservable(axes)
        needle = outside + " lie outside the 4-qubit register"
        for batches in (1, 7):
            with pytest.raises(ValueError, match=needle):
                csq.shadow_estimate(shadows, obs, batches)
        with pytest.raises(ValueError, match=needle):
            csq.pauli_expectation_exact(psi, obs)


class TestShadowSetBoundary:
    @pytest.mark.parametrize("bases, bits, needle", [
        ([[0, 3]], [[0, 0]], "bases must lie in 0..2"),
        ([[0, -1]], [[0, 0]], "bases must lie in 0..2"),
        ([[0, 2]], [[0, 2]], "bits must lie in 0..1"),
        ([[0, 2]], [[0, 1], [1, 1]], "one shape"),
        ([0, 2], [0, 1], "one shape"),
        ([[0.0, 2.0]], [[0, 1]], "integers"),
    ])
    def test_bad_arrays_rejected(self, bases, bits, needle):
        with pytest.raises(ValueError, match=needle):
            csq.ShadowSet(np.array(bases), np.array(bits))

    def test_zero_shots_allowed(self):
        s = csq.ShadowSet(np.zeros((0, 3), dtype=int), np.zeros((0, 3), dtype=int))
        assert s.shots == 0 and s.n == 3 and s.sym.shape == (3, 0)

    @pytest.mark.parametrize("coefficient", [1.0, 0.37])  # counts path, gather path
    def test_zero_shots_cannot_be_estimated(self, coefficient):
        # a single batch needs one shot: no NaN from an empty mean
        s = csq.ShadowSet(np.zeros((0, 3), dtype=int), np.zeros((0, 3), dtype=int))
        obs = pauli_observable({0: "X"}, coefficient=coefficient)
        with pytest.raises(ValueError, match=r"batches 1 is not an int in \[1, 0\]"):
            csq.shadow_estimate(s, obs, 1)
