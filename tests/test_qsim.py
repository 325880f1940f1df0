import math

import numpy as np
import pytest
from scipy import stats

from covertsim import boolfunc as bf
from covertsim import gf2, qsim
from reference import Povm, quadratic_from_matrix


def random_pure(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qsim.PureState(n, v / np.linalg.norm(v))


def kron_chain(mats):
    """Brute-force full operator, mats[0] acting on qubit 0 (low bit)."""
    full = np.eye(1, dtype=complex)
    for m in mats:
        full = np.kron(m, full)
    return full


class TestStates:
    def test_phase_state_constant(self):
        s = qsim.prepare_phase_state(bf.constant_fn(1))
        assert np.allclose(s.vec, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_phase_state_parity1(self):
        s = qsim.prepare_phase_state(bf.parity_fn(0b1, 1))
        assert np.allclose(s.vec, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_phase_state_quadratic_fourier_weights(self):
        # Walsh transform squared of the amplitudes = Fourier weights of (-1)^f
        rng = np.random.default_rng(0)
        f = quadratic_from_matrix(np.triu(rng.integers(0, 2, (3, 3))))
        s = qsim.prepare_phase_state(f)
        # direct 8-term evaluation of the Fourier coefficients
        signs = bf.sign_vector(f)
        for mask in range(8):
            coef = sum(
                signs[x] * (-1) ** gf2.dot(mask, x) for x in range(8)
            ) / 8
            wht = bf.walsh_hadamard(s.vec.real)[mask] / math.sqrt(8)
            assert wht**2 == pytest.approx(coef**2, abs=1e-12)

    def test_example_state_constant(self):
        # support is {|x, 0>} for both x; with the x-register in the low bits
        # the nonzero amplitudes sit at indices 0 and 1
        s = qsim.prepare_example_state(bf.constant_fn(1))
        assert np.allclose(s.vec, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        f = bf.truth_table([1, 0])
        s2 = qsim.prepare_example_state(f)
        expect = np.zeros(4)
        for x in range(2):
            expect[x | (f(x) << 1)] = 1 / math.sqrt(2)
        assert np.allclose(s2.vec, expect)

    def test_example_state_support_simon(self):
        rng = np.random.default_rng(1)
        f = bf.random_simon_fn(2, 0b11, rng)
        s = qsim.prepare_example_state(f)
        assert np.count_nonzero(np.abs(s.vec) > 1e-12) == 4

    def test_example_phase_equivalence(self):
        # (1 x H^w) |psi_f^Ex> equals the phase state of f~(x,y) = y·f(x)
        rng = np.random.default_rng(2)
        for w in (1, 2):
            f = bf.random_truth_table(2, rng, w=w)
            ex = qsim.prepare_example_state(f)
            rotated = qsim.apply_hadamards(ex, range(f.n, f.n + w))
            table = [
                gf2.dot(x >> f.n, f(x & ((1 << f.n) - 1)))
                for x in range(1 << (f.n + w))
            ]
            ft = bf.truth_table(table)
            assert qsim.states_equal(rotated, qsim.prepare_phase_state(ft), 1e-12)

    def test_mixed_state_validation(self):
        with pytest.raises(ValueError):
            qsim.MixedState(1, np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(ValueError):
            qsim.MixedState(1, np.array([[1.5, 0], [0, -0.5]], dtype=complex))


NON_FINITE = {
    "all-nan": [np.nan] * 4,
    "inf": [np.inf, 0, 0, 0],
    "one-nan": [np.nan, 1, 0, 0],
    "nan-imaginary": [1, 0, 0, complex(0, np.nan)],
}


@pytest.mark.parametrize("vec", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_amplitudes_are_refused(vec):
    # a NaN norm deviation fails the check (NaN > tol would let it through)
    vec = np.array(vec, dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        qsim.PureState(2, vec)
    with pytest.raises(ValueError, match="not normalized"):
        qsim.check_rows_normalized(np.stack([qsim.uniform_state(2).vec, vec]))


@pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_non_finite_density_matrix_is_refused(bad, where):
    mat = np.eye(2, dtype=complex) / 2
    if where == "diagonal":
        mat[0, 0] = bad
    else:
        mat[0, 1] = mat[1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="density matrix"):
        qsim.MixedState(1, mat)  # inf - inf is NaN in the Hermitian check


def test_tensor_checks_the_cap_before_building_the_product(monkeypatch):
    products = []
    monkeypatch.setattr(qsim, "PURE_QUBIT_CAP", 4)
    monkeypatch.setattr(qsim.np, "kron", lambda *args: products.append(args))
    with pytest.raises(ValueError, match="cap"):
        qsim.tensor(qsim.uniform_state(3), qsim.uniform_state(2))
    assert products == []


def test_partial_trace_checks_the_cap_before_forming_the_matrix(monkeypatch):
    formed = []
    state = qsim.uniform_state(4)
    mixed = qsim.partial_trace(state, [0, 1, 2])
    monkeypatch.setattr(qsim, "MIXED_QUBIT_CAP", 2)
    for name in ("transpose", "outer", "einsum"):
        monkeypatch.setattr(qsim.np, name, lambda *args, **kw: formed.append(args))
    for source in (state, mixed):
        with pytest.raises(ValueError, match="cap"):
            qsim.partial_trace(source, [0, 1, 2])
    with pytest.raises(ValueError, match="cap"):
        state.density()
    assert formed == []


def test_example_state_checks_the_table_arity_before_allocating(monkeypatch):
    f = bf.quadratic_fn((0b011, 0b110, 0b100), 3)  # not yet tabulated
    allocated = []
    monkeypatch.setattr(bf, "MAX_TABLE_ARITY", 2)
    monkeypatch.setattr(qsim.np, "zeros", lambda *args, **kw: allocated.append(args))
    with pytest.raises(ValueError, match="arity"):
        qsim.prepare_example_state(f)
    assert allocated == [] and not f._table


class TestGatesAndOracles:
    def test_h_on_zero(self):
        s = qsim.apply_gate(qsim.basis_state(1), "H", [0])
        assert np.allclose(s.vec, qsim.uniform_state(1).vec)

    def test_cz_on_11(self):
        s = qsim.apply_gate(qsim.basis_state(2, 0b11), "CZ", [0, 1])
        assert s.vec[0b11] == pytest.approx(-1)

    def test_gates_vs_kron_bruteforce(self):
        rng = np.random.default_rng(3)
        n = 3
        psi = random_pure(n, rng)
        for name, q in [("H", 0), ("X", 1), ("Z", 2), ("S", 1)]:
            got = qsim.apply_gate(psi, name, [q])
            mats = [np.eye(2, dtype=complex)] * n
            mats[q] = qsim.GATES_1Q[name]
            assert np.allclose(got.vec, kron_chain(mats) @ psi.vec)

    def test_cnot_direction(self):
        # control qubit 0, target qubit 1: |01> (x1=1) -> |11>
        s = qsim.apply_gate(qsim.basis_state(2, 0b01), "CNOT", [0, 1])
        assert abs(s.vec[0b11]) == pytest.approx(1)

    def test_two_qubit_on_arbitrary_pair(self):
        rng = np.random.default_rng(4)
        psi = random_pure(3, rng)
        # SWAP qubits 0 and 2 == permutation
        got = qsim.apply_gate(psi, "SWAP", [0, 2])
        perm = qsim.permute_qubits(psi, [2, 1, 0])
        assert np.allclose(got.vec, perm.vec)

    def test_phase_oracle_prepares_phase_state(self):
        rng = np.random.default_rng(5)
        f = bf.random_truth_table(3, rng)
        s = qsim.apply_phase_oracle(qsim.uniform_state(3), f, [0, 1, 2])
        assert qsim.states_equal(s, qsim.prepare_phase_state(f), 1e-12)

    def test_phase_oracle_constant_identity(self):
        rng = np.random.default_rng(6)
        psi = random_pure(3, rng)
        out = qsim.apply_phase_oracle(psi, bf.constant_fn(3), [0, 1, 2])
        assert np.allclose(out.vec, psi.vec)

    def test_phase_oracle_commutes_with_z_mask(self):
        rng = np.random.default_rng(7)
        f = bf.random_truth_table(3, rng)
        psi = random_pure(3, rng)
        r = 0b101
        a = qsim.apply_phase_oracle(qsim.apply_z_mask(psi, r, [0, 1, 2]), f, [0, 1, 2])
        b = qsim.apply_z_mask(qsim.apply_phase_oracle(psi, f, [0, 1, 2]), r, [0, 1, 2])
        assert np.allclose(a.vec, b.vec, atol=1e-12)

    def test_phase_oracle_on_sub_register(self):
        rng = np.random.default_rng(8)
        f = bf.random_truth_table(2, rng)
        psi = random_pure(3, rng)
        out = qsim.apply_phase_oracle(psi, f, [2, 0])  # f input bit0 = qubit 2
        for idx in range(8):
            x = (((idx >> 2) & 1) << 0) | (((idx >> 0) & 1) << 1)
            assert out.vec[idx] == pytest.approx(psi.vec[idx] * (-1) ** f(x))

    def test_qmem_oracle_basis_action(self):
        rng = np.random.default_rng(9)
        f = bf.random_truth_table(2, rng, w=2)
        for x in range(4):
            s = qsim.apply_qmem_oracle(qsim.basis_state(4, x), f, [0, 1], [2, 3])
            assert abs(s.vec[x | (f(x) << 2)]) == pytest.approx(1)

    def test_qmem_involution(self):
        rng = np.random.default_rng(10)
        f = bf.random_truth_table(2, rng, w=1)
        psi = random_pure(3, rng)
        twice = qsim.apply_qmem_oracle(
            qsim.apply_qmem_oracle(psi, f, [0, 1], [2]), f, [0, 1], [2]
        )
        assert np.allclose(twice.vec, psi.vec)

    def test_qmem_on_uniform_gives_example_state(self):
        rng = np.random.default_rng(11)
        f = bf.random_truth_table(2, rng, w=2)
        start = qsim.tensor(qsim.uniform_state(2), qsim.basis_state(2))
        out = qsim.apply_qmem_oracle(start, f, [0, 1], [2, 3])
        assert qsim.states_equal(out, qsim.prepare_example_state(f), 1e-12)

    def test_qmem_overlap_fault(self):
        f = bf.constant_fn(2)
        with pytest.raises(ValueError):
            qsim.apply_qmem_oracle(qsim.basis_state(3), f, [0, 1], [1])

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        psi = random_pure(4, rng)
        f = bf.random_truth_table(4, rng)
        for out in [
            qsim.apply_gate(psi, "H", [2]),
            qsim.apply_gate(psi, "CNOT", [3, 1]),
            qsim.apply_phase_oracle(psi, f, [0, 1, 2, 3]),
        ]:
            assert abs(np.linalg.norm(out.vec) - 1) < 1e-10


class TestMeasurement:
    def test_plus_measured_in_x(self):
        rng = np.random.default_rng(0)
        plus = qsim.apply_gate(qsim.basis_state(1), "H", [0])
        for _ in range(20):
            outcome, post = qsim.measure_qubits(plus, [0], "X", rng)
            assert outcome == 0
            assert np.allclose(post.vec, plus.vec)

    def test_maximally_entangled_z_measurement(self):
        # |Omega> = 2^{-n/2} sum_r |r>|r>: Z on first half gives uniform r,
        # post-state |r>|r>
        n = 2
        vec = np.zeros(1 << (2 * n), dtype=complex)
        for r in range(1 << n):
            vec[r | (r << n)] = 2 ** (-n / 2)
        omega = qsim.PureState(2 * n, vec)
        rng = np.random.default_rng(1)
        counts = np.zeros(1 << n)
        for _ in range(400):
            r, post = qsim.measure_qubits(omega, [0, 1], "Z", rng)
            counts[r] += 1
            assert abs(post.vec[r | (r << n)]) == pytest.approx(1)
        assert stats.chisquare(counts).pvalue > 1e-4

    def test_masked_state_hadamard_readout(self):
        # H-basis measurement of |psi^(r)> yields r deterministically
        rng = np.random.default_rng(2)
        n = 4
        for _ in range(10):
            r = int(rng.integers(0, 1 << n))
            state = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
            outcome, _ = qsim.measure_qubits(state, list(range(n)), "X", rng)
            assert outcome == r

    def test_measurement_deterministic_given_seed(self):
        psi = random_pure(3, np.random.default_rng(3))
        o1, p1 = qsim.measure_qubits(psi, [0, 2], "Z", np.random.default_rng(42))
        o2, p2 = qsim.measure_qubits(psi, [0, 2], "Z", np.random.default_rng(42))
        assert o1 == o2
        assert np.allclose(p1.vec, p2.vec)

    def test_remove_qubits(self):
        rng = np.random.default_rng(5)
        sub = random_pure(2, rng)
        full = qsim.tensor(sub, qsim.basis_state(2, 0b10))
        got = qsim.remove_qubits(full, [2, 3], 0b10)
        assert np.allclose(got.vec, sub.vec)


class TestPovm:
    def test_elements_must_sum_to_identity(self):
        with pytest.raises(ValueError):
            Povm(1, 1, (np.eye(2, dtype=complex) * 0.5,), (0,))


class TestDiagnostics:
    def test_fidelity_trivial(self):
        rng = np.random.default_rng(0)
        psi = random_pure(3, rng)
        assert qsim.fidelity(psi, psi) == pytest.approx(1)
        assert qsim.fidelity(qsim.basis_state(2, 0), qsim.basis_state(2, 3)) == 0

    def test_masked_vs_phase_state_fidelity(self):
        # |<psi_f | psi^(r)>|^2 = |2^-n sum_x (-1)^{r·x+f(x)}|^2
        rng = np.random.default_rng(1)
        n = 3
        f = bf.random_truth_table(n, rng)
        r = int(rng.integers(0, 1 << n))
        masked = qsim.apply_z_mask(qsim.uniform_state(n), r, range(n))
        target = qsim.prepare_phase_state(f)
        direct = sum((-1) ** (gf2.dot(r, x) ^ f(x)) for x in range(1 << n)) / 2**n
        assert qsim.fidelity(masked, target) == pytest.approx(direct**2, abs=1e-12)

    def test_partial_trace_product(self):
        rng = np.random.default_rng(2)
        a, b = random_pure(2, rng), random_pure(1, rng)
        joint = qsim.tensor(a, b)
        red = qsim.partial_trace(joint, [0, 1])
        assert np.allclose(red.mat, np.outer(a.vec, a.vec.conj()), atol=1e-12)
        red_b = qsim.partial_trace(joint, [2])
        assert np.allclose(red_b.mat, np.outer(b.vec, b.vec.conj()), atol=1e-12)

    def test_omega_traces_to_maximally_mixed(self):
        n = 2
        vec = np.zeros(1 << (2 * n), dtype=complex)
        for r in range(1 << n):
            vec[r | (r << n)] = 2 ** (-n / 2)
        omega = qsim.PureState(2 * n, vec)
        red = qsim.partial_trace(omega, [2, 3])
        assert np.allclose(red.mat, np.eye(4) / 4, atol=1e-12)

    def test_partial_trace_composes(self):
        rng = np.random.default_rng(3)
        psi = random_pure(4, rng)
        one = qsim.partial_trace(psi, [0, 1, 3])
        two = qsim.partial_trace(one, [0, 1])
        direct = qsim.partial_trace(psi, [0, 1])
        assert np.allclose(two.mat, direct.mat, atol=1e-10)

    def test_partial_trace_mixed_matches_pure(self):
        rng = np.random.default_rng(4)
        psi = random_pure(3, rng)
        a = qsim.partial_trace(psi, [1, 2])
        b = qsim.partial_trace(psi.density(), [1, 2])
        assert np.allclose(a.mat, b.mat, atol=1e-12)

    def test_schmidt_rank(self):
        rng = np.random.default_rng(5)
        prod = qsim.tensor(random_pure(2, rng), random_pure(2, rng))
        assert qsim.schmidt_rank(prod, [0, 1]) == 1
        n = 2
        vec = np.zeros(1 << (2 * n), dtype=complex)
        for r in range(1 << n):
            vec[r | (r << n)] = 2 ** (-n / 2)
        assert qsim.schmidt_rank(qsim.PureState(2 * n, vec), [0, 1]) == 4

    def test_schmidt_rank_local_unitary_invariant(self):
        rng = np.random.default_rng(6)
        psi = random_pure(4, rng)
        cut = [0, 1]
        base = qsim.schmidt_rank(psi, cut)
        from scipy.stats import unitary_group

        u = unitary_group.rvs(4, random_state=7)
        rotated = qsim.apply_unitary(psi, u, [0, 1])
        assert qsim.schmidt_rank(rotated, cut) == base
        v = unitary_group.rvs(4, random_state=8)
        rotated2 = qsim.apply_unitary(psi, v, [2, 3])
        assert qsim.schmidt_rank(rotated2, cut) == base

    def test_trace_distance(self):
        rng = np.random.default_rng(7)
        psi = random_pure(2, rng)
        assert qsim.trace_distance(psi, psi) == pytest.approx(0, abs=1e-12)
        assert qsim.trace_distance(
            qsim.basis_state(1, 0), qsim.basis_state(1, 1)
        ) == pytest.approx(1)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = random_pure(2, rng), random_pure(2, rng)
            td = qsim.trace_distance(a, b)
            fid = qsim.fidelity(a, b)
            assert td <= math.sqrt(1 - fid) + 1e-9
