"""Seeded property tests of the qubit-local engine kernels against the
moveaxis reference form, and of the engine's qubit convention and round
trips."""
import numpy as np
import pytest

from covertsim import boolfunc as bf
from covertsim import qsim
from reference import apply_unitary_moveaxis

# single-qubit gates whose kernel output equals the reference exactly
EXACT_1Q = {
    **qsim.GATES_1Q,
    "V_X": qsim.BASIS_V["X"],
    "V_Y": qsim.BASIS_V["Y"],
    "V_X_dagger": qsim.BASIS_V_DAGGER["X"],
}
Y_DAGGER = qsim.BASIS_V_DAGGER["Y"]


def random_state(n: int, seed: int, sparse: bool) -> qsim.PureState:
    """A random n-qubit state; a sparse one has about half its amplitudes,
    and some real or imaginary parts, exactly zero."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if sparse:
        vec[rng.random(1 << n) < 0.5] = 0.0
        vec.real[rng.random(1 << n) < 0.3] = 0.0
        vec.imag[rng.random(1 << n) < 0.3] = 0.0
        if not vec.any():
            vec[0] = 1.0
    return qsim.PureState(n, vec / np.linalg.norm(vec))


# (n, seed, sparse): two dense and two sparse states for each n = 1..9
CASES = [(n, 10 * n + k, k >= 2) for n in range(1, 10) for k in range(4)]


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_single_qubit_kernel_equals_reference(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for name, u in EXACT_1Q.items():
        for q in range(n):
            got = qsim.apply_unitary(psi, u, [q]).vec
            assert np.array_equal(got, apply_unitary_moveaxis(psi, u, [q])), (name, q)


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_y_dagger_kernel_against_reference(n, seed, sparse):
    """Exact from qubit 2 up. On qubits 0 and 1 the last bit may differ:
    within 2 ulp of each output's term scale |V^dagger| (|Re| + |Im|), the
    bound that fits a two-term sum whose terms may cancel."""
    psi = random_state(n, seed, sparse)
    mags = np.abs(psi.vec.real) + np.abs(psi.vec.imag)
    for q in range(n):
        got = qsim.apply_unitary(psi, Y_DAGGER, [q]).vec
        want = apply_unitary_moveaxis(psi, Y_DAGGER, [q])
        if q >= 2:
            assert np.array_equal(got, want), q
            continue
        view = mags.reshape(1 << (n - 1 - q), 2, 1 << q)
        ulp = np.spacing(np.matmul(np.abs(Y_DAGGER), view).reshape(-1))
        assert (np.abs(got.real - want.real) <= 2 * ulp).all(), q
        assert (np.abs(got.imag - want.imag) <= 2 * ulp).all(), q


@pytest.mark.parametrize("n, seed, sparse", [c for c in CASES if c[0] >= 2])
def test_two_qubit_gates_equal_reference(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for name, u in qsim.GATES_2Q.items():
        for a in range(n):
            for b in range(n):
                if a != b:
                    got = qsim.apply_gate(psi, name, [a, b]).vec
                    assert np.array_equal(got, apply_unitary_moveaxis(psi, u, [a, b])), (name, a, b)


@pytest.mark.parametrize("n, seed, sparse", [c for c in CASES if 2 <= c[0] <= 8])
def test_gate_sequences_preserve_norm(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    gates = [*qsim.GATES_1Q, *qsim.GATES_2Q]
    for _ in range(30):
        gate = gates[rng.integers(len(gates))]
        width = 1 if gate in qsim.GATES_1Q else 2
        qubits = [int(q) for q in rng.permutation(n)[:width]]
        psi = qsim.apply_gate(psi, gate, qubits)
        assert abs(np.vdot(psi.vec, psi.vec).real - 1.0) < 1e-12


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_little_endian_convention(n, seed, sparse):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        x, q = int(rng.integers(1 << n)), int(rng.integers(n))
        flipped = qsim.apply_gate(qsim.basis_state(n, x), "X", [q])
        assert np.array_equal(flipped.vec, qsim.basis_state(n, x ^ (1 << q)).vec)
        bit = (x >> q) & 1
        signed = qsim.apply_gate(qsim.basis_state(n, x), "Z", [q])
        assert signed.vec[x] == (-1) ** bit
        outcome, _ = qsim.measure_qubits(qsim.basis_state(n, x), [q], "Z", rng)
        assert outcome == bit


@pytest.mark.parametrize("n, seed, sparse", [c for c in CASES if c[0] <= 8])
def test_z_mask_commutes_with_phase_oracle(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    qubits = [int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
    k = len(qubits)
    f = bf.truth_table(rng.integers(0, 2, size=1 << k).tolist())
    r = int(rng.integers(1 << k))
    masked_first = qsim.apply_phase_oracle(qsim.apply_z_mask(psi, r, qubits), f, qubits)
    oracle_first = qsim.apply_z_mask(qsim.apply_phase_oracle(psi, f, qubits), r, qubits)
    assert np.array_equal(masked_first.vec, oracle_first.vec)


@pytest.mark.parametrize("n, seed, sparse", [c for c in CASES if c[0] <= 8])
def test_permute_and_remove_round_trips(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    perm = [int(j) for j in rng.permutation(n)]
    inverse = [perm.index(j) for j in range(n)]
    back = qsim.permute_qubits(qsim.permute_qubits(psi, perm), inverse)
    assert back.vec.tobytes() == psi.vec.tobytes()
    k = int(rng.integers(1, 4))
    x = int(rng.integers(1 << k))
    padded = qsim.tensor(psi, qsim.basis_state(k, x))
    # remove_qubits renormalises: a division by a norm within an ulp of 1
    got = qsim.remove_qubits(padded, range(n, n + k), x).vec
    np.testing.assert_allclose(got, psi.vec, rtol=0, atol=1e-15)


def test_basis_constants_are_read_only_and_contiguous():
    for basis, v in qsim.BASIS_V.items():
        dagger = qsim.BASIS_V_DAGGER[basis]
        assert dagger.flags.c_contiguous
        assert np.array_equal(dagger, v.conj().T)
        assert np.allclose(dagger @ v, np.eye(2))
        for mat in (v, dagger):
            with pytest.raises(ValueError):
                mat[0, 0] = 0
