"""GF(2) solver tests; derived values come from brute-force enumeration."""
import numpy as np
import pytest

from covertsim import gf2


def brute_force_parities(samples, n):
    """Independent oracle: filter all 2^n candidate parities."""
    return sorted(
        t
        for t in range(1 << n)
        if all(gf2.dot(t, x) == b for x, b in samples)
    )


class TestBitHelpers:
    def test_parity_and_dot(self):
        assert gf2.dot(0b101, 0b111) == 0  # 1+0+1
        assert gf2.dot(0b110, 0b010) == 1


class TestRowEchelon:
    def test_rank(self):
        assert gf2.rank([0b110, 0b011, 0b101], 3) == 2  # third = xor of first two
        assert gf2.rank([], 4) == 0
        assert gf2.rank([0b1, 0b10, 0b100], 3) == 3

    def test_nullspace(self):
        basis = gf2.nullspace_basis([0b110, 0b011], 3)
        assert len(basis) == 1
        assert basis[0] == 0b111
        for v in (0b110, 0b011):
            assert gf2.dot(v, basis[0]) == 0

    def test_nullspace_random_vs_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            vecs = [int(v) for v in rng.integers(0, 1 << n, size=rng.integers(0, n + 2))]
            basis = gf2.nullspace_basis(vecs, n)
            members = set()
            for mask in range(1 << len(basis)):
                t = 0
                for i, b in enumerate(basis):
                    if (mask >> i) & 1:
                        t ^= b
                members.add(t)
            expect = {t for t in range(1 << n) if all(gf2.dot(v, t) == 0 for v in vecs)}
            assert members == expect


class TestConsistentParities:
    def test_no_constraints_full_space(self):
        sol = gf2.solve_consistent_parities([], 3)
        assert sol.dimension == 3
        assert len(sol) == 8

    def test_full_rank_single_point(self):
        sol = gf2.solve_consistent_parities([(0b01, 1), (0b10, 0)], 2)
        assert sol.dimension == 0
        assert list(sol.members()) == [0b01]

    def test_two_samples_dim2_matches_bruteforce(self):
        # n=4, two independent samples -> dim-2 subspace with 4 members
        samples = [(0b0011, 1), (0b0101, 0)]
        sol = gf2.solve_consistent_parities(samples, 4)
        assert sol.dimension == 2
        assert sorted(sol.members()) == brute_force_parities(samples, 4)

    def test_inconsistent_returns_none(self):
        samples = [(0b11, 0), (0b11, 1)]
        assert gf2.solve_consistent_parities(samples, 2) is None

    def test_random_systems_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 2))
            samples = [
                (int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)))
                for _ in range(k)
            ]
            sol = gf2.solve_consistent_parities(samples, n)
            expect = brute_force_parities(samples, n)
            if sol is None:
                assert expect == []
            else:
                assert sorted(sol.members()) == expect

    def test_membership(self):
        sol = gf2.solve_consistent_parities([(0b0011, 1)], 4)
        for t in sol.members():
            assert t in sol
        assert 0b0000 not in sol  # 0·0011 = 0 != 1


class TestSimonNullspace:
    def test_n2_single_sample(self):
        assert gf2.solve_simon_nullspace([0b01], 2) == 0b10

    def test_n3_derived_by_bruteforce(self):
        samples = [0b011, 0b110]
        got = gf2.solve_simon_nullspace(samples, 3)
        candidates = [
            s
            for s in range(1, 8)
            if all(gf2.dot(s, y) == 0 for y in samples)
        ]
        assert candidates == [0b111]
        assert got == 0b111

    def test_underdetermined(self):
        assert gf2.solve_simon_nullspace([0b011], 3) is None

    def test_full_span_faults(self):
        with pytest.raises(ValueError):
            gf2.solve_simon_nullspace([0b01, 0b10], 2)


def random_upper_rows(n, rng):
    rows = []
    for i in range(n):
        mask = 0
        for j in range(i + 1, n):
            if rng.integers(2):
                mask |= 1 << j
        rows.append(mask)
    return tuple(rows)


class TestOffdiagonalQuadratic:
    def test_standard_basis_reads_columns(self):
        n = 4
        rng = np.random.default_rng(3)
        rows = random_upper_rows(n, rng)
        samples = [
            (1 << k, gf2.matvec_sym_offdiag(rows, 1 << k, n)) for k in range(n)
        ]
        assert gf2.solve_offdiagonal_quadratic(samples, n) == rows

    def test_n3_single_matvec(self):
        # A with A12=1 only: (A+A^T) @ 110 = 110
        rows = (0b010, 0, 0)
        y = 0b011  # x1=x2=1
        z = gf2.matvec_sym_offdiag(rows, y, 3)
        assert z == 0b011

    def test_rank_deficient_underdetermined(self):
        rows = (0b10, 0)
        samples = [(0b01, gf2.matvec_sym_offdiag(rows, 0b01, 2))]
        assert gf2.solve_offdiagonal_quadratic(samples, 2) is None

    def test_random_spanning_samples_recover(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            rows = random_upper_rows(n, rng)
            samples = []
            while gf2.rank([y for y, _ in samples], n) < n:
                y = int(rng.integers(0, 1 << n))
                samples.append((y, gf2.matvec_sym_offdiag(rows, y, n)))
            assert gf2.solve_offdiagonal_quadratic(samples, n) == rows

    def test_inconsistent_faults(self):
        samples = [(0b01, 0b10), (0b10, 0b01), (0b11, 0b00)]
        # (A+A^T)(y1 xor y2) must equal z1 xor z2 = 0b11, contradicting 0b00
        with pytest.raises(ValueError):
            gf2.solve_offdiagonal_quadratic(samples, 2)


class TestDigits:
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("count", [0, 1, 2, 201])
    def test_split_then_join_is_the_identity(self, width, count):
        rng = np.random.default_rng(1000 * width + count)
        nbits = width * count
        samples = [0, (1 << nbits) - 1] + [
            int.from_bytes(rng.bytes(nbits // 8 + 1), "little") & ((1 << nbits) - 1)
            for _ in range(5)
        ]
        for x in samples:
            digits = gf2.split_digits(x, width, count)
            assert len(digits) == count
            # digit j is bits [j width, (j + 1) width), a Python int
            assert digits == [(x >> (j * width)) & ((1 << width) - 1) for j in range(count)]
            assert all(type(d) is int for d in digits)
            for given in (digits, np.array(digits, dtype=np.int64)):
                joined = gf2.join_digits(given, width)
                assert joined == x and type(joined) is int

    def test_join_of_no_digits_is_zero(self):
        assert gf2.join_digits(np.array([], dtype=np.int64), 5) == 0
        assert gf2.join_digits([], 3) == 0
