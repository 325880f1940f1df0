import functools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import covertex, covertsq, oracles, qsim
from covertsim.gf2 import dot
from reference import (
    basis_probability_tables_loop,
    choice_by_group_searchsorted,
    outcome_bits_unpackbits,
    polynomial_value,
    quadratic_from_matrix,
    tensor_view_query_shifts,
)


class TestSqOracle:
    def test_tolerance_audit_raises_under_optimization(self, run_optimized):
        # `python -O` strips asserts; the audit must still reject a NaN truth
        out = run_optimized("""
            import math
            from covertsim import oracles
            try:
                oracles._policy_answer(oracles.EXACT, math.nan, 0.1, None)
            except RuntimeError as e:
                print("raised:", e)
        """)
        assert "raised: tolerance audit failed" in out.stdout

    def test_parity_pair_closed_form(self):
        # t1 = s -> 1/2; t2 = s -> 0 (paper's tournament case analysis)
        s = 0b1011
        f = bf.parity_fn(s, 4)
        oracle = oracles.SqOracle(f, policy=oracles.EXACT)
        q_win = oracles.ParityPairSqQuery(t1=s, t2=0b0001)
        q_lose = oracles.ParityPairSqQuery(t1=0b0001, t2=s)
        assert oracle.query(q_win, 1 / 6) == 0.5
        assert oracle.query(q_lose, 1 / 6) == 0.0
        assert oracle.count == 2

    def test_parity_pair_closed_form_vs_bruteforce(self):
        rng = np.random.default_rng(0)
        n = 4
        for _ in range(30):
            s, t1, t2 = (int(v) for v in rng.integers(0, 1 << n, size=3))
            f = bf.parity_fn(s, n)
            q = oracles.ParityPairSqQuery(t1, t2)
            brute = np.mean([
                float(dot(t1, x) != dot(t2, x) and dot(t1, x) == f(x))
                for x in range(1 << n)
            ])
            assert q.exact_expectation(f) == pytest.approx(brute, abs=1e-12)

    def test_perturb_policy_within_tau(self):
        rng = np.random.default_rng(1)
        f = bf.parity_fn(0b11, 2)
        oracle = oracles.SqOracle(f, policy=oracles.PERTURB, rng=rng)
        q = oracles.ParityPairSqQuery(0b11, 0b01)
        for tau in (0.05, 0.3):
            v = oracle.query(q, tau)
            assert abs(v - q.exact_expectation(f)) <= tau

    def test_grid_policy_deterministic(self):
        f = bf.parity_fn(0b1, 2)
        oracle = oracles.SqOracle(f, policy=oracles.GRID)
        q = oracles.ParityPairSqQuery(0b1, 0b10)
        assert oracle.query(q, 1 / 6) == oracle.query(q, 1 / 6)

    def test_invalid_tau(self):
        oracle = oracles.SqOracle(bf.constant_fn(2), policy=oracles.EXACT)
        with pytest.raises(ValueError):
            oracle.query(oracles.ParityPairSqQuery(1, 2), 0.0)

    def test_polynomial_closed_form_vs_enumeration(self):
        rng = np.random.default_rng(2)
        n = 5
        supports = tuple(int(v) for v in rng.integers(0, 1 << n, size=8))
        coeffs = tuple(float(c) for c in rng.normal(size=8))
        q = oracles.PolynomialSqQuery(supports, coeffs)
        enum = np.mean([polynomial_value(q, x) for x in range(1 << n)])
        assert q.exact_expectation(bf.constant_fn(n)) == pytest.approx(enum, abs=1e-12)

    def test_affine_normalization(self):
        # each public query of a sketch plan lies in [0, 1], and its affine
        # de-normalization scale * q' + shift is the raw projection row
        plan = covertsq.sketch_simulator(3, 2, 0.3, 0.3, 1.0, 1.0, np.random.default_rng(7))
        supports = plan.queries[0].supports
        for q, row, scale, shift in zip(
            plan.queries[:20], plan.projection, plan.scales, plan.shifts
        ):
            raw = oracles.PolynomialSqQuery(supports, tuple(row))
            for x in range(8):
                v = polynomial_value(q, x)
                assert -1e-12 <= v <= 1.0 + 1e-12
                assert scale * v + shift == pytest.approx(polynomial_value(raw, x), abs=1e-12)


class TestQsqOracle:
    def test_influence_of_parity_is_bit(self):
        s = 0b1010
        oracle = oracles.QsqOracle(bf.parity_fn(s, 4), policy=oracles.EXACT)
        for i in range(4):
            got = oracle.query(oracles.InfluenceQuery(i), tau=1 / 3)
            assert got == float((s >> i) & 1)

    def test_influence_equals_fourier_mass_on_ti(self):
        rng = np.random.default_rng(4)
        f = bf.random_truth_table(4, rng)
        masses = (bf.walsh_hadamard(bf.sign_vector(f)) / 16) ** 2
        for i in range(4):
            inf = oracles.InfluenceQuery(i).exact_expectation(f)
            mass = sum(masses[s] for s in range(16) if (s >> i) & 1)
            assert inf == pytest.approx(mass, abs=1e-10)

    def test_corrected_influence_strips_offdiagonals(self):
        # quadratic f: after off-diagonal correction only the diagonal parity
        # remains, so influences are exactly the diagonal bits
        rng = np.random.default_rng(5)
        n = 4
        mat = np.triu(rng.integers(0, 2, (n, n)), k=1)
        diag = rng.integers(0, 2, n)
        full = mat + np.diag(diag)
        f = quadratic_from_matrix(full)
        offdiag_rows = tuple(
            int(sum((mat[i][j] & 1) << j for j in range(n))) for i in range(n)
        )
        for i in range(n):
            got = oracles.InfluenceQuery(i, offdiag_rows).exact_expectation(f)
            assert got == float(diag[i])


class TestExMemOracles:
    def test_ex_uniform_and_labelled(self):
        rng = np.random.default_rng(6)
        f = bf.parity_fn(0b1, 1)
        oracle = oracles.ExOracle(f, rng)
        xs = []
        for _ in range(10_000):
            x, y = oracle.sample()
            assert y == f(x)
            xs.append(x)
        assert oracle.count == 10_000
        assert stats.binomtest(sum(xs), 10_000, 0.5).pvalue > 1e-4

    def test_mem_matches_eval_and_counts(self):
        rng = np.random.default_rng(7)
        f = bf.random_truth_table(3, rng, w=2)
        mem = oracles.MemOracle(f)
        for x in range(8):
            assert mem.query(x) == f(x)
        assert mem.count == 8

    @pytest.mark.parametrize("x", [-1, 1 << 3])
    def test_mem_query_outside_the_domain_is_refused(self, x):
        mem = oracles.MemOracle(bf.random_truth_table(3, np.random.default_rng(8)))
        with pytest.raises(ValueError, match=rf"input {x} is outside \[0, 2\^3\)"):
            mem.query(x)
        assert mem.count == 0

    def test_tensor_mem_costs_m_base_queries(self):
        f = bf.parity_fn(0b1, 2)
        base = oracles.MemOracle(f)
        view = oracles.TensorMemView(base, m=3)
        for x in (0, 0b010101, 0b111111):
            # F(x_1, x_2, x_3) = f(x_1) xor f(x_2) xor f(x_3), 2-bit chunks
            assert view.query(x) == (x & 1) ^ (x >> 2 & 1) ^ (x >> 4 & 1)
        assert base.count == 9  # 3 view queries x 3 base queries

    @pytest.mark.parametrize("m", [1, 2, 201])
    def test_tensor_mem_matches_the_shift_loop(self, m):
        # same answers, base count and base transcript (so the same Python
        # int inputs in the same order) as one shift per copy
        rng = np.random.default_rng(80 + m)
        n_base = 3
        f = bf.random_truth_table(n_base, rng)
        n = m * n_base
        xs = [0, (1 << n) - 1] + [
            int.from_bytes(rng.bytes(n // 8 + 1), "little") & ((1 << n) - 1)
            for _ in range(5)
        ]
        runs = []
        for query in (oracles.TensorMemView.query, tensor_view_query_shifts):
            t = oracles.Transcript()
            base = oracles.MemOracle(f, transcript=t)
            view = oracles.TensorMemView(base, m=m)
            runs.append(([query(view, x) for x in xs], base.count, t.events))
        assert runs[0] == runs[1]
        assert runs[0][1] == len(xs) * m

    @pytest.mark.parametrize("m, n_base", [(0, 2), (-1, 2), (2, 0), (2, -3)])
    def test_tensor_mem_refuses_an_empty_register(self, m, n_base):
        # the base's width is read off the base: a 0-bit function, or a stub
        # whose n is negative
        if n_base >= 0:
            base = oracles.MemOracle(bf.random_truth_table(n_base, np.random.default_rng(81)))
        else:
            base = SimpleNamespace(n=n_base)
        with pytest.raises(ValueError, match=rf"m >= 1 copies of n_base >= 1 bits, "
                                             rf"got m={m}, n_base={n_base}"):
            oracles.TensorMemView(base, m=m)

    def test_masked_mem_view(self):
        rng = np.random.default_rng(8)
        f = bf.random_truth_table(3, rng)
        base = oracles.MemOracle(f)
        view = oracles.MaskedMemView(base)
        assert view.n == 6
        for z in range(64):
            r, x = z & 7, z >> 3
            assert view.query(z) == dot(r, x) ^ f(x)
        assert base.count == 64

    def test_example_mem_view(self):
        rng = np.random.default_rng(9)
        f = bf.random_truth_table(2, rng, w=2)
        base = oracles.MemOracle(f)
        view = oracles.ExampleMemView(base)
        assert view.n == 4
        for z in range(16):
            x, y = z & 3, z >> 2
            assert view.query(z) == dot(y, f(x))

    @pytest.mark.parametrize("make, n", [
        (lambda base: oracles.TensorMemView(base, m=2), 4),
        (oracles.MaskedMemView, 4),
        (oracles.ExampleMemView, 3),
    ], ids=["tensor", "masked", "example"])
    def test_view_query_outside_its_domain_is_refused(self, make, n):
        # refused in the view's own n, before any base query is charged
        base = oracles.MemOracle(bf.random_truth_table(2, np.random.default_rng(10)))
        view = make(base)
        assert view.n == n
        for x in (-1, 1 << n):
            with pytest.raises(ValueError, match=rf"^input {x} is outside \[0, 2\^{n}\)$"):
                view.query(x)
        assert base.count == 0
        view.query((1 << n) - 1)
        assert base.count > 0

    @pytest.mark.parametrize("w", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_views_read_their_widths_from_their_base(self, n, w):
        # the target t = f, or f~(x, y) = y·f(x) over an f of width w; its
        # masked form g(r, z) = r·z xor t(z); two copies of t; and the
        # compositions an acquisition certifies against: each reports the
        # composed width and answers the composed function on every input
        f = bf.random_truth_table(n, np.random.default_rng(90 + 3 * n + w), w=max(w, 1))
        mem = oracles.MemOracle(f)
        assert mem.n == n
        q = n + w

        def target(z):
            return dot(z >> n, f(z & ((1 << n) - 1))) if w else f(z)

        def masked(z):
            return dot(z & ((1 << q) - 1), z >> q) ^ target(z >> q)

        def pair(z):
            return target(z & ((1 << q) - 1)) ^ target(z >> q)

        base = oracles.ExampleMemView(mem) if w else mem
        views = [
            (base, q, target),
            (oracles.MaskedMemView(base), 2 * q, masked),
            (oracles.TensorMemView(base, m=2), 2 * q, pair),
            (oracles.TensorMemView(oracles.MaskedMemView(base), m=1), 2 * q, masked),
            (acquire._membership_view(mem, w, 1, masked=True), 2 * q, masked),
            (acquire._membership_view(mem, w, 2, masked=False), 2 * q, pair),
        ]
        for view, width, want in views:
            assert view.n == width
            assert [view.query(z) for z in range(1 << width)] == [
                want(z) for z in range(1 << width)]


class TestQMeasEx:
    def test_multi_copy_weighting(self):
        # each two-copy Bell measurement of the quadratic learner counts 2
        f = bf.quadratic_fn(covertex.random_quadratic_rows(3, np.random.default_rng(11)), 3)
        oracle = oracles.QMeasExOracle(qsim.prepare_example_state(f))
        res = covertex.covert_quadratic_learn(
            oracle, oracles.QsqOracle(f), 3, 0.1, np.random.default_rng(12)
        )
        assert oracle.count == res.pub_weighted == 2 * res.pub_queries

    def test_bulk_pauli_matches_slow_path(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = qsim.PureState(3, v / np.linalg.norm(v))
        oracle = oracles.QMeasExOracle(psi)
        shots = 40_000
        axes, bits = oracle.sample_product_pauli(shots, np.random.default_rng(13))
        assert oracle.count == shots
        # check the Z-basis-only shots against exact Born probabilities
        sel = np.all(axes == 2, axis=1)
        outcomes = (bits[sel] * (1 << np.arange(3))).sum(axis=1)
        exact = np.abs(psi.vec) ** 2
        freqs = np.bincount(outcomes, minlength=8) / max(1, sel.sum())
        sigma = np.sqrt(exact * (1 - exact) / max(1, sel.sum()))
        assert np.all(np.abs(freqs - exact) < 5 * sigma + 0.02)
        # basis-label marginal uniform over 3^n
        _, counts = np.unique(
            (axes * 3 ** np.arange(3)).sum(axis=1), return_counts=True
        )
        assert stats.chisquare(counts).pvalue > 1e-4


def per_basis_choice_reference(oracle, shots, rng):
    """The per-basis sampler the grouped one replaced: one boolean mask and
    one rng.choice per basis that occurs, in ascending basis order."""
    n = oracle.state().n
    tables = oracle._basis_probability_tables()
    axes = rng.integers(0, 3, size=(shots, n))
    basis_idx = (axes * (3 ** np.arange(n))).sum(axis=1)
    outcomes = np.empty(shots, dtype=np.int64)
    for b in np.unique(basis_idx):
        sel = basis_idx == b
        p = np.clip(tables[b], 0, None)
        outcomes[sel] = rng.choice(1 << n, size=sel.sum(), p=p / p.sum())
    return axes, (outcomes[:, None] >> np.arange(n)) & 1


class TestOutcomeBitsTable:
    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_table_equals_the_unpackbits_form(self, n):
        table = oracles._outcome_bits_table(n)
        assert table.dtype == np.uint8 and table.shape == (1 << n, n)
        every = np.arange(1 << n, dtype=np.uint8)
        assert np.array_equal(table, outcome_bits_unpackbits(every, n))
        assert oracles._outcome_bits_table(n) is table  # built once
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1

    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_sampled_bits_unpack_the_drawn_outcomes(self, n, monkeypatch):
        drawn = []

        def spy(*args):
            drawn.append(real(*args))
            return drawn[-1]

        real = oracles._choice_by_group
        monkeypatch.setattr(oracles, "_choice_by_group", spy)
        g = np.random.default_rng(60 + n)
        v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
        oracle = oracles.QMeasExOracle(qsim.PureState(n, v / np.linalg.norm(v)))
        _, bits = oracle.sample_product_pauli(3000, np.random.default_rng(n))
        (outcomes,) = drawn
        assert outcomes.dtype == np.uint8
        assert bits.dtype == np.uint8 and bits.flags.writeable
        assert np.array_equal(bits, outcome_bits_unpackbits(outcomes, n))


class TestGroupedPauliSampler:
    @pytest.mark.parametrize("shots, n", [
        *((shots, n) for n in (1, 2, 3, 4, 5) for shots in (0, 1, 7, 200, 3000)),
        # the qubit cap, where the outcome bytes unpack to their widest
        (3000, oracles.PAULI_TABLE_QUBIT_CAP),
    ])
    def test_matches_per_basis_choice(self, n, shots):
        # shots < 3^n leaves some bases without shots
        g = np.random.default_rng(40 + n)
        v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
        psi = qsim.PureState(n, v / np.linalg.norm(v))
        ref_rng = np.random.default_rng(1000 * n + shots)
        rng = np.random.default_rng(1000 * n + shots)
        want_axes, want_bits = per_basis_choice_reference(
            oracles.QMeasExOracle(psi), shots, ref_rng
        )
        oracle = oracles.QMeasExOracle(psi)
        axes, bits = oracle.sample_product_pauli(shots, rng)
        # the reference returns int64; the oracle, the uint8 shadow record
        assert axes.dtype == np.uint8 and bits.dtype == np.uint8
        assert np.array_equal(axes, want_axes)
        assert np.array_equal(bits, want_bits)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert oracle.count == shots

    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_int32_basis_draw_equals_int64_draw(self, n):
        # the sampler draws its bases in int32 and narrows them: the same
        # values and the same generator end state as the default int64 draw
        for shots in (1, 7, 201):
            rng_a, rng_b = np.random.default_rng(700 + n), np.random.default_rng(700 + n)
            narrow = rng_a.integers(0, 3, size=(shots, n), dtype=np.int32)
            wide = rng_b.integers(0, 3, size=(shots, n))
            assert np.array_equal(narrow, wide)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_basis_index_in_smallest_unsigned_dtype(self, n):
        # the group keys only reach bincount and the stable argsort, which
        # sorts the narrowest keys fastest
        axes = np.random.default_rng(800 + n).integers(0, 3, size=(500, n)).astype(np.uint8)
        axes[0] = 2  # the largest key, 3^n - 1
        index = oracles._basis_index(axes)
        assert index.dtype == (np.uint8 if n <= 5 else np.uint16)
        assert index.tolist() == (axes.astype(np.int64) @ 3 ** np.arange(n)).tolist()

    def test_basis_state_table_is_deterministic(self):
        # a product state: every Z-basis shot reads |0>, every other basis
        # is a fair coin, so the zero-probability cdf steps are never hit
        oracle = oracles.QMeasExOracle(qsim.basis_state(2, 0))
        axes, bits = oracle.sample_product_pauli(5000, np.random.default_rng(3))
        assert not bits[axes == 2].any()
        assert 0.45 < bits[axes != 2].mean() < 0.55

    def test_table_cap_checked_before_allocation(self):
        n = oracles.PAULI_TABLE_QUBIT_CAP + 1
        oracle = oracles.QMeasExOracle(qsim.basis_state(n, 0))
        with pytest.raises(ValueError, match="cap"):
            oracle._basis_probability_tables()
        with pytest.raises(ValueError, match="cap"):
            oracle.sample_product_pauli(1, np.random.default_rng(0))


_PRODUCT_FACTORS = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j], dtype=complex) / np.sqrt(2),
)


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


class StreamStub:
    """Generator stand-in: random(size) hands out the next `size` values of a
    fixed stream, and `drawn` counts the values taken."""

    def __init__(self, stream: np.ndarray):
        self.stream = stream
        self.drawn = 0

    def random(self, size: int) -> np.ndarray:
        out = self.stream[self.drawn:self.drawn + size].copy()
        assert len(out) == size
        self.drawn += size
        return out


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


class TestGuideTableSampler:
    """The guide-table lookup against one searchsorted per group, byte for
    byte and by generator end state."""

    KINDS = ("random", "dyadic", "trailing-zeros")

    @staticmethod
    def assert_same_draws(cdfs, groups, make_rng):
        rng, ref_rng = make_rng(), make_rng()
        got = oracles._choice_by_group(cdfs, groups, rng)
        want = choice_by_group_searchsorted(cdfs, groups, ref_rng)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        return rng, ref_rng

    @staticmethod
    def crafted_case(cdfs, rows, edges, seed):
        """Shots in shuffled order whose sorted uniform stream gives each
        listed row its crafted uniforms."""
        parts = [crafted_uniforms(cdfs[r], edges) for r in rows]
        groups = np.repeat(np.array(rows, dtype=np.int16), [len(p) for p in parts])
        return np.random.default_rng(seed).permutation(groups), np.concatenate(parts)

    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_bucket_count_bounds_the_table(self, n):
        # the most buckets, a power of two, with at most 64 per outcome and
        # at most one table cell per shot; a single bucket below 3^n shots
        n_groups, k = 3**n, 1 << n
        for shots in (0, 1, n_groups - 1, n_groups, 2 * n_groups + 1, 428_800, 10**7):
            width = 1 << oracles._guide_bits(shots, n_groups, k)
            if shots < n_groups:
                assert width == 1
                continue
            assert width <= 64 * k and n_groups * width <= shots
            assert 2 * width > 64 * k or 2 * n_groups * width > shots

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_crafted_uniforms_on_the_finest_grid(self, n, kind):
        # the edges of 2^(n+6) buckets hold those of every coarser table
        cdfs = sampler_cdfs(n, kind)
        n_groups, k = cdfs.shape
        rows = range(n_groups) if n_groups <= 81 else sorted(
            {0, 1, n_groups // 3, n_groups // 2, n_groups - 2, n_groups - 1})
        groups, stream = self.crafted_case(cdfs, rows, k << 6, seed=n)
        assert oracles._guide_bits(len(groups), n_groups, k) >= 1
        stub, ref_stub = self.assert_same_draws(cdfs, groups, lambda: StreamStub(stream))
        assert stub.drawn == ref_stub.drawn == len(groups)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_fewer_shots_than_bases_search_every_key(self, n, kind):
        # below 3^n shots the table has one bucket per basis, so every basis
        # with an interior cdf entry falls back to the search
        cdfs = sampler_cdfs(n, kind)
        n_groups, k = cdfs.shape
        crafted = crafted_uniforms(cdfs[-1], 1)
        for start in range(0, len(crafted), n_groups - 1):
            stream = crafted[start:start + n_groups - 1]
            groups = np.full(len(stream), n_groups - 1, dtype=np.int16)
            assert oracles._guide_bits(len(groups), n_groups, k) == 0
            stub, ref_stub = self.assert_same_draws(cdfs, groups, lambda: StreamStub(stream))
            assert stub.drawn == ref_stub.drawn == len(groups)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_generator_draws_and_end_state(self, n, kind):
        cdfs = sampler_cdfs(n, kind)
        for shots in (0, 1, len(cdfs) - 1, 3 * len(cdfs) + 5, 20_000):
            groups = np.random.default_rng(shots).integers(0, len(cdfs), shots).astype(np.int16)
            rng, ref_rng = self.assert_same_draws(
                cdfs, groups, lambda: np.random.default_rng(500 + n))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, oracles.PAULI_TABLE_QUBIT_CAP + 1))
    def test_depth_first_tables_match_the_basis_loop(self, n, kind):
        state = sampler_state(n, kind)
        tables = oracles.QMeasExOracle(state)._basis_probability_tables()
        want = basis_probability_tables_loop(state)
        assert tables.dtype == want.dtype and tables.tobytes() == want.tobytes()


class TestQuantumChannelOracle:
    def test_identity_taps_equal_bare_oracle(self):
        rng = np.random.default_rng(14)
        f = bf.random_truth_table(3, rng)
        oracle = oracles.QuantumChannelOracle(f, "QPh")
        psi = qsim.uniform_state(3)
        out = oracle.query(psi, [0, 1, 2], rng=rng)
        bare = qsim.apply_phase_oracle(psi, f, [0, 1, 2])
        assert np.allclose(out.vec, bare.vec, atol=1e-12)
        assert oracle.count == 1

    def test_uniform_input_gives_phase_state(self):
        rng = np.random.default_rng(15)
        f = bf.random_truth_table(2, rng)
        oracle = oracles.QuantumChannelOracle(f, "QPh")
        out = oracle.query(qsim.uniform_state(2), [0, 1], rng=rng)
        assert qsim.states_equal(out, qsim.prepare_phase_state(f), 1e-12)

    def test_qmem_roundtrip(self):
        rng = np.random.default_rng(16)
        f = bf.random_truth_table(2, rng, w=2)
        oracle = oracles.QuantumChannelOracle(f, "QMem")
        start = qsim.tensor(qsim.uniform_state(2), qsim.basis_state(2))
        out = oracle.query(start, [0, 1], [2, 3], rng=rng)
        assert qsim.states_equal(out, qsim.prepare_example_state(f), 1e-12)

    @pytest.mark.parametrize("out_qubits", [np.array([2, 3]), (2, 3), range(2, 4)])
    def test_out_register_may_be_any_sequence(self, out_qubits):
        # an array, tuple or range out register is read as the list [2, 3]:
        # the same response bytes, count, tap round, tap events, transcript
        # and generator state
        f = bf.random_truth_table(2, np.random.default_rng(16), w=2)
        start = qsim.tensor(qsim.uniform_state(2), qsim.basis_state(2))
        runs = []
        for out in ([2, 3], out_qubits):
            oracle = oracles.QuantumChannelOracle(f, "QMem", adv.depolarize(0.5),
                                                  transcript=oracles.Transcript())
            rng = np.random.default_rng(20)
            got = oracle.query(start, [0, 1], out, rng=rng)
            runs.append((got.vec.tobytes(), oracle.count, oracle.tap.memory.round,
                         oracle.tap.memory.events, oracle.transcript.to_jsonl(),
                         rng.bit_generator.state))
        assert runs[0] == runs[1]
        with pytest.raises(TypeError):  # a qubit is an int, not a float
            oracle.query(start, [0, 1], np.array([2.0, 3.0]), rng=rng)
        assert oracle.count == 1

    @pytest.mark.parametrize("in_qubits", [np.array([0, 1]), (0, 1), range(2)],
                             ids=["array", "tuple", "range"])
    @pytest.mark.parametrize("kind", ["QPh", "QMem"])
    def test_in_register_may_be_any_sequence(self, kind, in_qubits):
        # an array, tuple or range in register is read as the list [0, 1]:
        # the same response bytes, count, tap round, tap events, transcript
        # (its payload digest included) and generator state
        f = bf.random_truth_table(2, np.random.default_rng(17), w=2 if kind == "QMem" else 1)
        if kind == "QMem":
            start, out = qsim.tensor(qsim.uniform_state(2), qsim.basis_state(2)), [2, 3]
        else:
            start, out = qsim.uniform_state(2), None
        runs = []
        for register in ([0, 1], in_qubits):
            oracle = oracles.QuantumChannelOracle(f, kind, adv.depolarize(0.5),
                                                  transcript=oracles.Transcript())
            rng = np.random.default_rng(21)
            got = oracle.query(start, register, out, rng=rng)
            runs.append((got.vec.tobytes(), oracle.count, oracle.tap.memory.round,
                         oracle.tap.memory.events, oracle.transcript.to_jsonl(),
                         rng.bit_generator.state))
        assert runs[0] == runs[1]
        assert oracle.transcript.events[0]["payload"]["in_qubits"] == [0, 1]
        for floats in ([0.0, 1.0], np.array([0.0, 1.0])):
            with pytest.raises(TypeError):  # a qubit is an int, not a float
                oracle.query(start, floats, out, rng=rng)
        assert oracle.count == 1 and len(oracle.transcript.events) == 1

    def test_an_oracle_no_state_can_hold_is_refused(self, monkeypatch):
        # n + out_width qubits over the cap, read when the oracle is built
        monkeypatch.setattr(qsim, "PURE_QUBIT_CAP", 5)
        rng = np.random.default_rng(22)
        for f, kind in ((bf.random_truth_table(6, rng), "QPh"),
                        (bf.random_truth_table(4, rng, w=2), "QMem")):
            with pytest.raises(ValueError, match=rf"^a {kind} oracle on 6 qubits is above "
                                                 r"the pure-state cap of 5 qubits$"):
                oracles.QuantumChannelOracle(f, kind)
        for f, kind in ((bf.random_truth_table(5, rng), "QPh"),
                        (bf.random_truth_table(3, rng, w=2), "QMem")):
            assert oracles.QuantumChannelOracle(f, kind).count == 0

    def test_construction_refusal_holds_under_optimization(self, run_optimized):
        # `python -O` strips asserts; the cap check must not be one
        out = run_optimized("""
            from covertsim import boolfunc as bf, oracles, qsim
            qsim.PURE_QUBIT_CAP = 5
            try:
                oracles.QuantumChannelOracle(bf.constant_fn(6), "QPh")
            except ValueError as e:
                print("raised:", e)
        """)
        assert "raised: a QPh oracle on 6 qubits is above the pure-state cap" in out.stdout

    def test_mismatched_registers_are_refused_before_the_tap(self):
        # a measuring tap would log an event and draw from rng on the query
        rng = np.random.default_rng(19)
        qmem = oracles.QuantumChannelOracle(
            bf.random_truth_table(2, rng, w=1), "QMem", adv.ancilla_free(1.0))
        qph = oracles.QuantumChannelOracle(
            bf.random_truth_table(2, rng), "QPh", adv.ancilla_free(1.0))
        state = qsim.uniform_state(3)
        before = rng.bit_generator.state
        for oracle, in_qubits, out_qubits in (
            (qmem, [0, 1], None), (qmem, [0, 1], [2, 0]), (qmem, [0], [2]),
            (qph, [0, 1, 2], None), (qph, [0], None), (qph, [0, 1], [2]),
        ):
            with pytest.raises(ValueError, match="query needs"):
                oracle.query(state, in_qubits, out_qubits, rng=rng)
        for oracle in (qmem, qph):
            assert oracle.count == 0 and oracle.tap.memory.events == []
        assert rng.bit_generator.state == before
        # the same taps act on well-formed queries
        qmem.query(state, [0, 1], [2], rng=rng)
        assert qmem.count == 1 and qmem.tap.memory.events

    def test_replace_tap_forces_response(self):
        rng = np.random.default_rng(17)
        f = bf.random_truth_table(2, rng)
        oracle = oracles.QuantumChannelOracle(f, "QPh", adv.replace_zero())
        out = oracle.query(qsim.uniform_state(2), [0, 1], rng=rng)
        assert qsim.states_equal(out, qsim.basis_state(2, 0), 1e-12)

    def test_transcript_visibility_separation(self):
        rng = np.random.default_rng(18)
        t = oracles.Transcript()
        pub = oracles.ExOracle(bf.parity_fn(1, 2), rng, transcript=t, visibility=oracles.PUBLIC)
        pri = oracles.MemOracle(bf.parity_fn(1, 2), transcript=t, visibility=oracles.PRIVATE)
        pub.sample()
        pri.query(0b01)
        pub_events = t.public_events()
        assert len(pub_events) == 1 and pub_events[0]["oracle_kind"] == "Ex"
        assert len(t.events) == 2
        jsonl = t.to_jsonl()
        assert jsonl.count("\n") == 1

    def test_every_oracle_kind_logs_one_event_per_answer(self):
        # one transcript shared by every oracle kind: each answer adds one
        # event carrying its oracle's kind, visibility and count after it
        rng = np.random.default_rng(19)
        t = oracles.Transcript()
        parity = bf.parity_fn(0b01, 2)
        quad = bf.quadratic_fn((0b011, 0b110, 0b100), 3)
        sq = oracles.SqOracle(parity, transcript=t)
        qsq = oracles.QsqOracle(quad, transcript=t)
        ex = oracles.ExOracle(parity, rng, transcript=t)
        mem = oracles.MemOracle(parity, transcript=t)
        qmeasex = oracles.QMeasExOracle(qsim.prepare_example_state(quad), transcript=t)
        qph = oracles.QuantumChannelOracle(parity, "QPh", transcript=t)
        qmem = oracles.QuantumChannelOracle(
            bf.random_truth_table(2, rng, w=2), "QMem", transcript=t,
            visibility=oracles.PRIVATE,
        )
        answers = [
            (sq, lambda: sq.query(oracles.ParityPairSqQuery(1, 2), 1 / 6)),
            (qsq, lambda: qsq.query(oracles.InfluenceQuery(0), 1 / 3)),
            (ex, ex.sample),
            (mem, lambda: mem.query(3)),
            (qmeasex, lambda: qmeasex.sample_product_pauli(5, rng)),
            (qmeasex, lambda: qmeasex.bell_sample(rng)),
            (qph, lambda: qph.query(qsim.uniform_state(2), [0, 1], rng=rng)),
            (qmem, lambda: qmem.query(
                qsim.tensor(qsim.uniform_state(2), qsim.basis_state(2)),
                [0, 1], [2, 3], rng=rng)),
        ]
        kinds = []
        for oracle, answer in answers * 2:
            answer()
            event = t.events[-1]
            assert len(t.events) == len(kinds) + 1
            assert event["oracle_kind"] == oracle.kind
            assert event["visibility"] == oracle.visibility
            assert event["counters"] == {oracle.kind: oracle.count}
            kinds.append(event["oracle_kind"])
        assert kinds[:8] == ["SQ", "QSQ", "Ex", "Mem", "QMeasEx", "QMeasEx", "QPh", "QMem"]
        assert [e["visibility"] for e in t.events[:8]] == [
            oracles.PRIVATE, oracles.PRIVATE, oracles.PUBLIC, oracles.PRIVATE,
            oracles.PUBLIC, oracles.PUBLIC, oracles.PUBLIC, oracles.PRIVATE,
        ]
        # a Pauli shot counts 1 and a two-copy Bell measurement 2
        assert [sq.count, qsq.count, ex.count, mem.count, qph.count, qmem.count] == [2] * 6
        assert qmeasex.count == 2 * (5 + 2)
        assert sum("bell" in e["payload"] for e in t.events) == 2
        assert [e["direction"] for e in t.events[6:8]] == ["roundtrip"] * 2
