"""Seeded property tests of the qubit-local engine kernels against the
moveaxis reference forms (pairs of equivalence.py, run here under their
test names), of the engine's qubit convention and round trips, and of the
checks at its trust boundary."""

import tracemalloc

import numpy as np
import pytest

from covertsim import boolfunc as bf
from covertsim import qsim
from equivalence import STATE_CASES as CASES, bound, random_state

test_single_qubit_kernel_equals_reference = bound("qsim.apply_unitary")
test_y_dagger_kernel_against_reference = bound("qsim.apply_unitary:Y-dagger")
test_two_qubit_gates_equal_reference = bound("qsim.apply_gate")


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


# --- measurement and diagonal kernels against their reference forms ----------

test_marginal_equals_moveaxis_reference = bound("qsim._marginal_probs")
test_projection_equals_sliced_reference = bound("qsim._project_z")
test_measurement_equals_moveaxis_reference = bound("qsim.measure_qubits")
test_measurement_table_and_draw_equal_both_references = bound("qsim.measure_qubits:registers")
test_measurement_table_posts_every_outcome = bound("qsim.MeasurementTable.post")
test_sample_index_equals_clipped_draw = bound("qsim.sample_index")
test_complex_diagonals_equal_float_products = bound("qsim.apply_z_mask", "qsim.apply_phase_oracle")


@pytest.mark.parametrize("n", range(1, 10))
def test_sign_diagonals_are_complex_with_positive_zero_imaginary_parts(n):
    f = bf.truth_table([1, 0] * (1 << (n - 1)))
    diagonals = [qsim.z_signs(n, (1 << n) - 1), qsim.phase_signs(f, n, range(n))]
    if n <= qsim.SIGN_TABLE_QUBITS:
        table = qsim.z_sign_table(n)
        assert not table.flags.writeable
        diagonals.append(table)
    for d in diagonals:
        assert d.dtype == np.complex128
        assert not np.ascontiguousarray(d.imag).view(np.uint64).any()


test_overlap_round_halves_equal_indexed_reference = bound("certify._RoundTable.draw")


# --- trust boundary -------------------------------------------------------------

NOT_UNITARY = np.array([[1, 1], [0, 1]], dtype=complex)


def trust_boundary_misses() -> list[str]:
    """The names of the checked inputs below that did not raise."""
    one = qsim.basis_state(1, 1)
    three = qsim.tensor(one, qsim.uniform_state(2))
    cases = {
        "wrong length": lambda: qsim.PureState(2, np.ones(3, dtype=complex) / np.sqrt(3)),
        "unnormalized": lambda: qsim.PureState(1, np.ones(2, dtype=complex)),
        "over the cap": lambda: qsim.PureState(qsim.PURE_QUBIT_CAP + 1, np.ones(1, dtype=complex)),
        "non-unitary on qubit 0": lambda: qsim.apply_unitary(one, NOT_UNITARY, [0]),
        "non-unitary on qubit 2": lambda: qsim.apply_unitary(
            qsim.tensor(qsim.basis_state(2), one), NOT_UNITARY, [2]),
        "non-unitary on two qubits": lambda: qsim.apply_unitary(
            three, 2 * np.eye(4, dtype=complex), [0, 2]),
        "unitary of the wrong shape": lambda: qsim.apply_unitary(three, np.eye(4), [0]),
        "unitary on a repeated qubit": lambda: qsim.apply_unitary(three, np.eye(4), [1, 1]),
        "gate on a missing qubit": lambda: qsim.apply_gate(three, "H", [3]),
        "gate on a negative qubit": lambda: qsim.apply_gate(three, "X", [-1]),
        "gate on a repeated qubit": lambda: qsim.apply_gate(three, "CZ", [2, 2]),
        "measurement of a missing qubit": lambda: qsim.measure_qubits(
            three, [0, 3], "X", np.random.default_rng(0)),
        "Bell law of a copy of the wrong size": lambda: qsim.bell_pair_distribution(three, 1),
        "Bell draw on a pair of the wrong size": lambda: qsim.bell_sample_example_pair(
            three, 1, np.random.default_rng(0)),
    }
    # the constructors refuse by a named ValueError, before they allocate
    constructors = {
        "basis state of a negative index": lambda: qsim.basis_state(3, -1),
        "basis state of an index past 2^n": lambda: qsim.basis_state(3, 8),
        "basis state of negative size": lambda: qsim.basis_state(-1),
        "basis state over the cap": lambda: qsim.basis_state(qsim.PURE_QUBIT_CAP + 1),
        "uniform state of negative size": lambda: qsim.uniform_state(-1),
        "uniform state over the cap": lambda: qsim.uniform_state(qsim.PURE_QUBIT_CAP + 1),
    }
    misses = []
    for name, call in cases.items():
        try:
            call()
        except (ValueError, IndexError):
            continue
        misses.append(name)
    for name, call in constructors.items():
        try:
            call()
        except ValueError as e:
            if "pure-state cap" in str(e) or "basis index" in str(e):
                continue
        misses.append(name)
    return misses


def test_trust_boundary_checks_raise():
    assert trust_boundary_misses() == []


@pytest.mark.parametrize("make", [lambda n: qsim.basis_state(n), qsim.uniform_state],
                         ids=["basis", "uniform"])
def test_over_the_cap_is_refused_before_allocating(make):
    # a 25-qubit register would take 512 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="pure-state cap"):
            make(qsim.PURE_QUBIT_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trust_boundary_checks_raise_under_optimization(run_optimized):
    # `python -O` strips asserts; the checks must not be asserts
    out = run_optimized("""
        from test_qsim_kernels import trust_boundary_misses
        print("misses", trust_boundary_misses())
    """)
    assert "misses []" in out.stdout
