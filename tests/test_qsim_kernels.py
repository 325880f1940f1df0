"""Seeded property tests of the qubit-local engine kernels against the
moveaxis reference forms, of the engine's qubit convention and round trips,
and of the checks at its trust boundary."""

import tracemalloc

import numpy as np
import pytest

from covertsim import boolfunc as bf
from covertsim import certify, qsim
from reference import (
    apply_unitary_moveaxis,
    marginal_probs_moveaxis,
    measure_qubits_moveaxis,
    measure_qubits_rotate_project,
    phase_signs_float,
    post_state_moveaxis,
    project_z_sliced,
    rotated_moveaxis,
    round_on_copy_indexed,
    sample_index_clipped,
    z_signs_float,
)

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


# --- measurement and diagonal kernels against their reference forms ----------
#
# Compared as bytes, so that a zero's sign counts.


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                               np.ascontiguousarray(want).view(np.uint64)))


def qubit_sets(n: int, rng) -> list[list[int]]:
    """Each single qubit, the whole register in and against order, and a
    few random subsets in random order."""
    sets = [[q] for q in range(n)] + [list(range(n)), list(range(n))[::-1]]
    for _ in range(4):
        sets.append([int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]])
    return sets


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_marginal_equals_moveaxis_reference(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for qubits in qubit_sets(n, np.random.default_rng(seed)):
        got = qsim._marginal_probs(psi, qubits)
        assert same_bytes(got, marginal_probs_moveaxis(psi, qubits)), qubits


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_projection_equals_sliced_reference(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    for qubits in qubit_sets(n, rng):
        probs = marginal_probs_moveaxis(psi, qubits)
        for outcome in {0, 1, int(rng.integers(len(probs))), len(probs) - 1}:
            if probs[outcome] < 1e-24:
                with pytest.raises(ValueError):
                    qsim._project_z(psi, qubits, outcome)
                continue
            got = qsim._project_z(psi, qubits, outcome).vec
            assert same_bytes(got, project_z_sliced(psi, qubits, outcome)), (qubits, outcome)


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_measurement_equals_moveaxis_reference(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for basis in qsim.BASIS_V:
        for k, qubits in enumerate(qubit_sets(n, np.random.default_rng(seed))):
            rng_got, rng_want = np.random.default_rng(k), np.random.default_rng(k)
            outcome, post = qsim.measure_qubits(psi, qubits, basis, rng_got)
            want_outcome, want_vec = measure_qubits_moveaxis(psi, qubits, basis, rng_want)
            assert outcome == want_outcome, (basis, qubits)
            assert same_bytes(post.vec, want_vec), (basis, qubits)
            assert rng_got.random() == rng_want.random()


def measured_states(n: int) -> dict[str, qsim.PureState]:
    """A random state, a sparse one (exact zeros) and a real one."""
    rng = np.random.default_rng(700 + n)
    real = rng.normal(size=1 << n)
    real[rng.random(1 << n) < 0.3] = 0.0
    real[0] = 1.0
    return {"random": random_state(n, 600 + n, False),
            "sparse": random_state(n, 650 + n, True),
            "real": qsim.PureState(n, (real / np.linalg.norm(real)).astype(complex))}


def measured_registers(n: int) -> list[list[int]]:
    """Every single qubit, every top-k register and one non-contiguous pair."""
    return ([[q] for q in range(n)] + [list(range(n - k, n)) for k in range(2, n + 1)]
            + ([[0, 2]] if n >= 3 else []))


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
@pytest.mark.parametrize("n", range(1, 9))
def test_measurement_table_and_draw_equal_both_references(n, basis):
    # measure_qubits (a table and its draw) against the moveaxis form and
    # against the one-body form it replaced: the outcome, the post-state's
    # bytes and the generator's end state
    for kind, psi in measured_states(n).items():
        for qubits in measured_registers(n):
            for seed in range(3):
                rngs = [np.random.default_rng(seed) for _ in range(3)]
                outcome, post = qsim.measure_qubits(psi, qubits, basis, rngs[0])
                old_outcome, old_post = measure_qubits_rotate_project(psi, qubits, basis, rngs[1])
                ref_outcome, ref_vec = measure_qubits_moveaxis(psi, qubits, basis, rngs[2])
                case = (kind, qubits, seed)
                assert outcome == old_outcome == ref_outcome, case
                assert same_bytes(post.vec, old_post.vec), case
                assert same_bytes(post.vec, ref_vec), case
                states = [r.bit_generator.state for r in rngs]
                assert states[0] == states[1] == states[2], case


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
@pytest.mark.parametrize("n", range(1, 7))
def test_measurement_table_posts_every_outcome(n, basis):
    # one table: its cumulative marginal is the reference's, every outcome of
    # nonzero weight has the reference post-state (built once, read-only),
    # and a zero-weight outcome is refused as the reference refuses it
    for kind, psi in measured_states(n).items():
        for qubits in measured_registers(n):
            table = qsim.MeasurementTable(psi, qubits, basis)
            probs = marginal_probs_moveaxis(rotated_moveaxis(psi, qubits, basis), qubits)
            assert same_bytes(table.cum, np.cumsum(probs)), (kind, qubits)
            for outcome, p in enumerate(probs):
                if p < 1e-24:
                    with pytest.raises(ValueError):
                        table.post(outcome)
                    continue
                post = table.post(outcome)
                want = post_state_moveaxis(psi, qubits, basis, outcome)
                assert same_bytes(post.vec, want), (kind, qubits, outcome)
                assert table.post(outcome) is post and not post.vec.flags.writeable
            assert table.max_nbytes == psi.vec.nbytes * (1 + len(probs)) + table.cum.nbytes


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_sample_index_equals_clipped_draw(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    weights = [np.abs(psi.vec) ** 2, np.ones(1 << n),
               np.concatenate((np.abs(psi.vec[:-1]) ** 2, [0.0])),
               np.concatenate(([1.0], np.zeros((1 << n) - 1)))]
    for k, w in enumerate(weights):
        rng_got, rng_want = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(50):
            assert qsim.sample_index(w, rng_got) == sample_index_clipped(w, rng_want)


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_complex_diagonals_equal_float_products(n, seed, sparse):
    rng = np.random.default_rng(seed)
    psi = random_state(n, seed, sparse)
    for qubits in qubit_sets(n, rng):
        for r in {1, int(rng.integers(1, 1 << len(qubits))), (1 << len(qubits)) - 1}:
            mask = sum(1 << q for j, q in enumerate(qubits) if (r >> j) & 1)
            got = qsim.apply_z_mask(psi, r, qubits).vec
            assert same_bytes(got, psi.vec * z_signs_float(n, mask)), (qubits, r)
        f = bf.truth_table(rng.integers(0, 2, size=1 << len(qubits)).tolist())
        got = qsim.apply_phase_oracle(psi, f, qubits).vec
        assert same_bytes(got, psi.vec * phase_signs_float(f, n, qubits)), qubits


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


@pytest.mark.parametrize("n, seed, sparse", CASES)
def test_overlap_round_halves_equal_indexed_reference(n, seed, sparse):
    psi = random_state(n, seed, sparse)
    for local in range(n):
        for k in range(5):
            rng_got, rng_want = np.random.default_rng(k), np.random.default_rng(k)
            got = certify._round_on_copy(psi, local, rng_got)
            assert got == round_on_copy_indexed(psi, local, rng_want), (local, k)


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
