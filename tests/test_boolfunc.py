import numpy as np
import pytest

from covertsim import boolfunc as bf
from covertsim import gf2
from equivalence import bound
from reference import quadratic_from_matrix


def bits(x: int, n: int) -> np.ndarray:
    return np.array([(x >> j) & 1 for j in range(n)])


class TestEval:
    def test_table_is_cached_on_the_instance(self):
        f = bf.random_truth_table(4, np.random.default_rng(3))
        table = bf.eval_all(f)
        assert bf.eval_all(f) is table
        twin = bf.truth_table(list(table))
        assert twin == f and hash(twin) == hash(f)
        assert bf.eval_all(twin) is not table
        assert np.array_equal(bf.eval_all(twin), table)

    def test_evaluate_reads_the_built_table(self):
        # every body but Parity builds its table on the first evaluate;
        # Parity is evaluated in closed form until the table is built
        rng = np.random.default_rng(4)
        g = bf.random_truth_table(3, rng)
        for f in (
            bf.random_truth_table(4, rng, w=2),
            bf.parity_fn(0b1011, 4),
            quadratic_from_matrix(np.triu(rng.integers(0, 2, (4, 4)))),
            bf.padded_xor(g, bf.random_truth_table(2, rng)),
            bf.random_simon_fn(3, 0b101, rng),
        ):
            before = [bf.evaluate(f, x) for x in range(1 << f.n)]
            assert bool(f._table) != isinstance(f.body, bf.Parity)
            table = bf.eval_all(f)
            after = [bf.evaluate(f, x) for x in range(1 << f.n)]
            assert after == before == table.tolist()
            assert all(type(v) is int for v in before + after)
            with pytest.raises(ValueError):
                bf.evaluate(f, 1 << f.n)

    @pytest.mark.parametrize("make", [
        lambda: bf.random_truth_table(3, np.random.default_rng(5)),
        lambda: bf.parity_fn(0b101, 3),
    ])
    @pytest.mark.parametrize("x", [-1, 1 << 3])
    def test_input_outside_the_domain_is_named(self, make, x):
        f = make()
        with pytest.raises(ValueError, match=rf"input {x} is outside \[0, 2\^3\)"):
            bf.evaluate(f, x)

    def test_parity_past_the_table_arity(self):
        n = bf.MAX_TABLE_ARITY + 43
        s = (1 << n) - 1 - (1 << 30)
        f = bf.parity_fn(s, n)
        for x in (0, 1 << 30, (1 << n) - 1, 0b1011 << 50):
            assert f(x) == gf2.dot(s, x)
        with pytest.raises(ValueError):
            bf.eval_all(f)

    def test_random_table_above_the_cap_refused_before_drawing(self):
        class NoDraws:
            def integers(self, *args, **kwargs):
                raise AssertionError("drew a table above the cap")

        for n in (bf.MAX_TABLE_ARITY + 1, 30):
            with pytest.raises(ValueError, match=f"cap of {bf.MAX_TABLE_ARITY}"):
                bf.random_truth_table(n, NoDraws())

    def test_parity_example(self):
        f = bf.parity_fn(0b101, 3)
        assert f(0b111) == 0

    def test_quadratic_example(self):
        # A = [[1,1],[0,0]]: x=11 -> x1 A11 x1 + x1 A12 x2 = 1+1 = 0
        f = quadratic_from_matrix([[1, 1], [0, 0]])
        assert f(0b11) == 0
        assert f(0b01) == 1  # x1 alone: A11 term

    def test_quadratic_zero_input(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            rows = []
            for i in range(n):
                mask = int(rng.integers(0, 1 << n))
                rows.append((mask >> i) << i)  # keep upper-triangular incl diag
            f = bf.quadratic_fn(rows, n)
            assert f(0) == 0

    def test_quadratic_vs_matrix_product(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            mat = np.triu(rng.integers(0, 2, size=(n, n)))
            f = quadratic_from_matrix(mat)
            x = int(rng.integers(0, 1 << n))
            xv = np.array([(x >> j) & 1 for j in range(n)])
            assert f(x) == int(xv @ mat @ xv) % 2

    def test_arity_mismatch(self):
        f = bf.parity_fn(0b1, 2)
        with pytest.raises(ValueError):
            f(0b100)

    def test_upper_triangular_enforced(self):
        with pytest.raises(ValueError):
            bf.quadratic_fn((0, 0b01), 2)  # entry below the diagonal

    def test_padded_xor(self):
        f = bf.parity_fn(0b1, 1)
        g = bf.parity_fn(0b10, 2)
        h = bf.padded_xor(f, g)
        assert h.n == 3
        for x in range(8):
            assert h(x) == f(x & 1) ^ g(x >> 1)

    def test_eval_all_matches_pointwise(self):
        # each body's table against a formula that does not read a table;
        # the Simon body's is a registry pair (equivalence.py)
        rng = np.random.default_rng(3)
        mat = np.triu(rng.integers(0, 2, (5, 5)))
        lo, hi = bf.random_truth_table(2, rng), bf.random_truth_table(3, rng)
        cases = [
            (bf.parity_fn(0b1011, 4), lambda x: gf2.dot(0b1011, x)),
            (quadratic_from_matrix(mat), lambda x: int(bits(x, 5) @ mat @ bits(x, 5)) % 2),
            (bf.truth_table([5, 0, 7, 3, 1, 6, 2, 4], w=3), [5, 0, 7, 3, 1, 6, 2, 4].__getitem__),
            (bf.padded_xor(lo, hi),
             lambda x: lo.body.values[x & 3] ^ hi.body.values[x >> 2]),
        ]
        for f, reference in cases:
            assert bf.eval_all(f).tolist() == [reference(x) for x in range(1 << f.n)]


class TestSimon:
    test_table_matches_the_scalar_coset_formula = staticmethod(bound("boolfunc.eval_all:simon"))

    def test_period_wider_than_arity_is_refused(self):
        for s in (0b100, -1):
            with pytest.raises(ValueError, match="period"):
                bf.simon_fn(s, [0, 1], 2)

    def test_periodic_is_two_to_one(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 6):
            s = int(rng.integers(1, 1 << n))
            f = bf.random_simon_fn(n, s, rng)
            vals = bf.eval_all(f)
            assert len(set(vals.tolist())) == 1 << (n - 1)
            for x in range(1 << n):
                assert f(x) == f(x ^ s)

    def test_zero_period_injective(self):
        rng = np.random.default_rng(5)
        f = bf.random_simon_fn(3, 0, rng)
        vals = bf.eval_all(f)
        assert len(set(vals.tolist())) == 8

    def test_labeling_must_be_injective(self):
        with pytest.raises(ValueError):
            bf.simon_fn(0b01, [0, 0], 2)

    def test_labels_follow_representatives_in_increasing_order(self):
        # labels[i] belongs to the i-th smallest x with x <= x xor s
        for n in (1, 2, 3, 4):
            for s in range(1 << n):
                reps = [x for x in range(1 << n) if x <= x ^ s]
                labels = list(range(len(reps)))[::-1]
                f = bf.simon_fn(s, labels, n)
                for x in range(1 << n):
                    assert f(x) == labels[reps.index(min(x, x ^ s))]


class TestForrelation:
    def test_constant_pair_closed_form(self):
        for n in range(1, 13):
            f = bf.constant_fn(n)
            g = bf.constant_fn(n)
            assert bf.forrelation_phi(f, g) == pytest.approx(2 ** (-n / 2), abs=1e-12)

    def test_n1_value(self):
        f = bf.constant_fn(1)
        assert bf.forrelation_phi(f, f) == pytest.approx(0.7071067812, abs=1e-9)

    test_double_sum_vs_walsh = staticmethod(bound("boolfunc.forrelation_phi"))

    def test_random_pair_matches_literal_sum(self):
        rng = np.random.default_rng(7)
        n = 6
        f = bf.random_truth_table(n, rng)
        g = bf.random_truth_table(n, rng)
        # O(4^n) literal double sum, scalar loop
        tf = bf.eval_all(f)
        tg = bf.eval_all(g)
        total = 0.0
        for x in range(1 << n):
            for y in range(1 << n):
                total += (-1.0) ** (int(tf[x]) + gf2.dot(x, y) + int(tg[y]))
        assert bf.forrelation_phi(f, g) == pytest.approx(
            total / 2 ** (3 * n / 2), abs=1e-9
        )

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            f = bf.random_truth_table(n, rng)
            g = bf.random_truth_table(n, rng)
            phi = bf.forrelation_phi(f, g)
            assert -1.0 - 1e-9 <= phi <= 1.0 + 1e-9

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            bf.forrelation_phi(bf.constant_fn(2), bf.constant_fn(3))
