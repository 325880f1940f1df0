"""Reference implementations the unit tests compare the library against, or
use as constructors: literal, slow forms kept out of the package. Each
reference form is compared with its fast path through a `Pair` in
equivalence.py; the constructors are listed there as exempt."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from covertsim import boolfunc as bf
from covertsim import acquire, certify, covertsq, oracles, qsim, tasks


def apply_unitary_moveaxis(state: qsim.PureState, u: np.ndarray,
                           qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes of a 2^k x 2^k unitary applied to the listed qubits
    (qubits[0] = low bit): the qubit axes of the (2,)*n view moved to the
    front, one matmul, and moved back."""
    n, k = state.n, len(qubits)
    t = state.vec.reshape([2] * n)
    # u's row/col index has qubits[0] as the LOW bit -> axis order reversed
    axes = [n - 1 - q for q in qubits][::-1]
    t = np.moveaxis(t, axes, range(k))
    t = (u @ t.reshape(1 << k, -1)).reshape([2] * n)
    t = np.moveaxis(t, range(k), axes)
    return np.ascontiguousarray(t.reshape(-1))


def marginal_probs_moveaxis(state: qsim.PureState, qubits: Sequence[int]) -> np.ndarray:
    """Z-measurement outcome distribution on the listed qubits (bit j of the
    outcome on qubits[j]): the measured axes of the (2,)*n view of |amp|^2
    moved to the front, then one sum per outcome."""
    n, k = state.n, len(qubits)
    p = np.abs(state.vec.reshape([2] * n)) ** 2
    axes = [n - 1 - q for q in qubits][::-1]
    p = np.moveaxis(p, axes, range(k))
    return p.reshape(1 << k, -1).sum(axis=1)


def project_z_sliced(state: qsim.PureState, qubits: Sequence[int],
                     outcome: int) -> np.ndarray:
    """Amplitudes after projecting the listed qubits onto `outcome` and
    renormalizing: one slice of the (2,)*n copy zeroed per qubit. A branch
    of zero weight is refused."""
    n = state.n
    t = state.vec.reshape([2] * n).copy()
    sl: list = [slice(None)] * n
    for j, q in enumerate(qubits):
        sl[n - 1 - q] = 1 - ((outcome >> j) & 1)
        t[tuple(sl)] = 0.0
        sl[n - 1 - q] = slice(None)
    v = t.reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise ValueError("projection onto a zero-probability branch")
    return v / nrm


def sample_index_clipped(probs: np.ndarray, rng) -> int:
    """One index drawn from unnormalized weights, the searchsorted result
    clipped as a numpy scalar."""
    cum = np.cumsum(probs)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, len(probs) - 1))


def _rotated_moveaxis(state: qsim.PureState, qubits: Sequence[int], basis: str) -> qsim.PureState:
    """The listed qubits rotated into the measurement basis by checked
    single-qubit unitaries."""
    for q in qubits if basis != "Z" else ():
        state = qsim.apply_unitary(state, qsim.BASIS_V_DAGGER[basis], [q])
    return state


def _post_state_moveaxis(state: qsim.PureState, qubits: Sequence[int], basis: str,
                        outcome: int) -> np.ndarray:
    """Amplitudes after measuring the listed qubits with `outcome`: checked
    basis rotations around the sliced projection."""
    work = _rotated_moveaxis(state, qubits, basis)
    post = qsim.PureState(state.n, project_z_sliced(work, qubits, outcome))
    for q in qubits if basis != "Z" else ():
        post = qsim.apply_unitary(post, qsim.BASIS_V[basis], [q])
    return post.vec


def measure_qubits_moveaxis(state: qsim.PureState, qubits: Sequence[int], basis: str,
                            rng) -> tuple[int, np.ndarray]:
    """qsim.measure_qubits by the forms above: checked basis rotations, the
    moveaxis marginal clipped at 0, the clipped draw and the sliced
    projection."""
    probs = np.clip(marginal_probs_moveaxis(_rotated_moveaxis(state, qubits, basis), qubits),
                    0.0, None)
    outcome = sample_index_clipped(probs, rng)
    return outcome, _post_state_moveaxis(state, qubits, basis, outcome)


def measurement_table_moveaxis(state: qsim.PureState, qubits: Sequence[int], basis: str,
                               outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """qsim.MeasurementTable's cumulative marginal and the post-state of
    `outcome`, by the forms above; an outcome of zero weight is refused."""
    probs = marginal_probs_moveaxis(_rotated_moveaxis(state, qubits, basis), qubits)
    if probs[outcome] < 1e-24:
        raise ValueError("projection onto a zero-probability branch")
    return np.cumsum(probs), _post_state_moveaxis(state, qubits, basis, outcome)


def measure_qubits_rotate_project(state: qsim.PureState, qubits: Sequence[int], basis: str,
                                  rng) -> tuple[int, qsim.PureState]:
    """qsim.measure_qubits as one body, without a measurement table: rotate
    each listed qubit into the basis, draw the outcome from the Z marginal
    with sample_index, project, and rotate back."""
    if basis not in qsim.BASIS_V:
        raise ValueError(f"unknown basis {basis!r}")
    n = state.n
    qsim._check_qubits(n, qubits)
    v, v_dagger = qsim.BASIS_V[basis], qsim.BASIS_V_DAGGER[basis]
    work = state
    if basis != "Z":
        vec = work.vec
        for q in qubits:
            vec = qsim._apply_kernel(vec, n, v_dagger, [q])
        work = qsim._trusted(n, vec)
    outcome = qsim.sample_index(qsim._marginal_probs(work, qubits), rng)
    post = qsim._project_z(work, qubits, outcome)
    if basis != "Z":
        vec = post.vec
        for q in qubits:
            vec = qsim._apply_kernel(vec, n, v, [q])
        post = qsim._trusted(n, vec)
    return outcome, post


def measure_unmemoised(memory, state: qsim.PureState, qubits: Sequence[int], basis: str,
                       rng) -> tuple[int, qsim.PureState]:
    """adversary.TapMemory.measure without its memo: a fresh
    qsim.measure_qubits on every call."""
    return qsim.measure_qubits(state, list(qubits), basis, rng)


def apply_z_mask_float(state: qsim.PureState, r: int, qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes times the diagonal of Z^r on `qubits` (bit j of r on
    qubits[j]) as float64 +-1."""
    mask = sum(1 << q for j, q in enumerate(qubits) if (r >> j) & 1)
    idx = np.arange(1 << state.n, dtype=np.uint64)
    return state.vec * (1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(mask)) & 1)
                        .astype(np.float64))


def apply_phase_oracle_float(state: qsim.PureState, f: bf.BooleanFunction,
                             qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes times the diagonal of the phase oracle of f on `qubits`,
    as float64 +-1."""
    signs = 1.0 - 2.0 * bf.eval_all(f).astype(np.float64)
    return state.vec * signs[qsim._gather_bits(state.n, qubits)]


def _pair_indices(q: int, local: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-bit indices with bit `local` 0, in increasing order, and the
    same indices with it set."""
    idx = np.arange(1 << q)
    x0 = idx[(idx >> local) & 1 == 0]
    return x0, x0 | (1 << local)


def round_on_copy(copy: qsim.PureState, local: int, rng) -> tuple[int, int]:
    """One overlap round's draws on the X-tested copy, from a fresh round
    table: Z-measure all qubits but `local`, then X-measure `local`.

    Returns (compact rest bits, x outcome bit). The compact index keeps the
    remaining bits in order with position `local` removed.
    """
    return certify._RoundTable(copy.vec, local).draw(rng)


def round_on_copy_indexed(copy: qsim.PureState, local: int, rng) -> tuple[int, int]:
    """round_on_copy with the amplitude halves (bit `local` 0 and
    1) gathered by fancy indexing in increasing index order."""
    x0, x1 = _pair_indices(copy.n, local)
    a0, a1 = copy.vec[x0], copy.vec[x1]
    p_pair = np.clip(np.abs(a0) ** 2 + np.abs(a1) ** 2, 0.0, None)
    plus_mass = np.abs(a0 + a1) ** 2 / 2.0
    j = sample_index_clipped(p_pair, rng)
    p_plus = plus_mass[j] / p_pair[j] if p_pair[j] > 0 else 0.5
    return j, int(rng.random() >= min(1.0, p_plus))


def overlap_round_per_copy(copies: Sequence[qsim.PureState], mem_view, rng,
                           qubit=None) -> certify.OverlapRound:
    """certify.overlap_round with every untested copy collapsed by its own
    qsim.sample_index call, in copy order."""
    q = copies[0].n
    i = int(rng.integers(q * len(copies))) if qubit is None else qubit
    c, local = divmod(i, q)
    rest = shift = 0
    for j, copy in enumerate(copies):
        if j == c:
            compact, x_bit = round_on_copy(copy, local, rng)
            rest |= compact << shift
            shift += q - 1
        else:
            rest |= qsim.sample_index(np.abs(copy.vec) ** 2, rng) << shift
            shift += q
    f0 = mem_view.query(certify._insert_bit(rest, i, 0))
    f1 = mem_view.query(certify._insert_bit(rest, i, 1))
    return certify.OverlapRound(qubit=i, rest_bits=rest, x_bit=x_bit, f0=f0, f1=f1)


def overlap_scores_by_rounds(copy: qsim.PureState, f: bf.BooleanFunction, rounds: int,
                             rng) -> np.ndarray:
    """certify.overlap_scores_iid_fast as `rounds` overlap rounds, each on a
    fresh one-copy block of `copy` against a membership oracle of f."""
    return np.array([certify.overlap_round(certify.ProductBlock(np.stack([copy.vec])),
                                           oracles.MemOracle(f), rng).score
                     for _ in range(rounds)])


def overlap_round_all_rows(block: certify.ProductBlock, mem_view, rng,
                           qubit=None) -> certify.OverlapRound:
    """certify.overlap_round with every untested copy collapsed by its own
    row of one cumulative-sum compare over the block's |amp|^2 rows."""
    m, q = block.m, block.qubits_per_copy
    i = int(rng.integers(m * q)) if qubit is None else qubit
    c, local = divmod(i, q)
    u_low = rng.random(c) if c else ()
    compact, x_bit = round_on_copy(block[c], local, rng)
    rest = compact << (c * q)
    if m > 1:
        u = np.concatenate((u_low, [0.0], rng.random(m - 1 - c)))
        cum = np.square(np.abs(block.amps))
        np.cumsum(cum, axis=1, out=cum)
        hits = (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)
        for j, z in enumerate(np.minimum(hits, (1 << q) - 1).tolist()):
            if j != c:
                rest |= z << (j * q - (j > c))
    f0 = mem_view.query(certify._insert_bit(rest, i, 0))
    f1 = mem_view.query(certify._insert_bit(rest, i, 1))
    return certify.OverlapRound(qubit=i, rest_bits=rest, x_bit=x_bit, f0=f0, f1=f1)


def forrelation_decide_per_copy(copies: Sequence[qsim.PureState], n: int, rng,
                                threshold: float = tasks.SWAP_TEST_THRESHOLD) -> str:
    """tasks.forrelation_decide as one rotation and one tasks.swap_test per
    copy."""
    accepts = 0
    for copy in copies:
        rotated = qsim.apply_hadamards(copy, range(n, 2 * n))
        accepts += tasks.swap_test(rotated, range(n), range(n, 2 * n), rng)[0]
    freq = accepts / len(copies)
    return tasks.PHI_LARGE if freq >= threshold else tasks.PHI_SMALL


def forrelation_decide_all_copies(copies: Sequence[qsim.PureState], n: int, rng,
                                  threshold: float = tasks.SWAP_TEST_THRESHOLD) -> str:
    """tasks.forrelation_decide with every copy rotated and summed: one H^n
    on all the stacked g halves, one symmetric-projection probability per
    copy, one uniform per copy."""
    if any(copy.n != 2 * n for copy in copies):
        raise ValueError("copies must hold 2n qubits")
    k = len(copies)
    rotated = (qsim.z_sign_table(n) / 2 ** (n / 2)) @ np.stack(
        [copy.vec for copy in copies]
    ).reshape(k, 1 << n, 1 << n)
    mass = np.abs(rotated + rotated.transpose(0, 2, 1))
    p_sym = np.square(mass, out=mass).sum(axis=(1, 2)) / 4.0
    accepts = int(np.count_nonzero(rng.random(k) < p_sym))
    return tasks.PHI_LARGE if accepts / k >= threshold else tasks.PHI_SMALL


def collect_block_per_copy(oracle: oracles.QuantumChannelOracle, m: int, rng,
                           mode: str) -> np.ndarray:
    """(m, 2^q) amplitudes of one block as acquire._collect_blocks must
    write it, one public masked query (and its unmask) per copy."""
    copies = []
    for _ in range(m):
        if mode == "randomness":
            copy = acquire.masked_query_phase_randomness(oracle, rng)
        else:
            copy = acquire.masked_query_phase_entangled(oracle, rng)
            if mode == "entangled":
                copy = acquire.unmask_entangled(copy, oracle.f.n + oracle.out_width, rng)
        copies.append(copy.vec)
    return np.stack(copies)


def tensor_view_query_shifts(view: oracles.TensorMemView, x: int) -> int:
    """oracles.TensorMemView.query with the base queries made on x's
    n_base-bit chunks, low chunk first, cut off by one shift per copy."""
    oracles._check_view_input(x, view.n)
    mask = (1 << view.n_base) - 1
    acc = 0
    for _ in range(view.m):
        acc ^= view.base.query(x & mask)
        x >>= view.n_base
    return acc


def phi_double_sum(f: bf.BooleanFunction, g: bf.BooleanFunction) -> float:
    """Phi(f, g) as the literal double sum over (x, y): the 2^n x 2^n
    character matrix (-1)^{x·y} between the two sign vectors."""
    n = f.n
    xs = np.arange(1 << n, dtype=np.uint64)
    chi = 1.0 - 2.0 * (np.bitwise_count(xs[:, None] & xs[None, :]) & 1).astype(
        np.float64
    )
    return float(bf.sign_vector(f) @ chi @ bf.sign_vector(g)) / 2 ** (3 * n / 2)


def quadratic_from_matrix(mat: Sequence[Sequence[int]]) -> bf.BooleanFunction:
    """f(x) = x^T A x over GF(2) from an upper-triangular 0/1 matrix A."""
    n = len(mat)
    rows = [sum((int(mat[i][j]) & 1) << j for j in range(n)) for i in range(n)]
    return bf.quadratic_fn(rows, n)


def simon_value(s: int, labels: Sequence[int], x: int) -> int:
    """f(x) of a Simon function, one input at a time: labels[i] is the value
    on the i-th coset representative (the x with x <= x xor s, whose bit h,
    the top bit of s, is 0); a representative's rank is itself with bit h
    removed."""
    if s == 0:
        return labels[x]
    h = s.bit_length() - 1
    rep = x ^ s if x >> h & 1 else x
    return labels[(rep >> (h + 1) << h) | (rep & ((1 << h) - 1))]


def polynomial_value(q, x: int) -> float:
    """q(x) of a PolynomialSqQuery: the sum of the coefficients whose monomial
    support is contained in x."""
    return float(sum(c for s, c in zip(q.supports, q.coeffs) if (x & s) == s))


def sketch_answers_per_query(plan: covertsq.SketchPlan, oracle: oracles.SqOracle) -> list[float]:
    """A sketch's public answers sent one frozen PolynomialSqQuery per
    coefficient row, each with its numpy-scalar tolerance: every query takes
    its expectation by np.dot against its moment vector."""
    return [oracle.query(oracles.PolynomialSqQuery(plan.supports, tuple(row)), tau)
            for row, tau in zip(plan.query_coeffs, plan.oracle_taus)]


def sketch_expectations_per_query(plan: covertsq.SketchPlan, f: bf.BooleanFunction
                                  ) -> np.ndarray:
    """A sketch's expectations under f, one PolynomialSqQuery per
    coefficient row."""
    return np.array([oracles.PolynomialSqQuery(plan.supports, tuple(row)).exact_expectation(f)
                     for row in plan.query_coeffs])


def shadow_single_shot_estimates_mask_product(shadows: covertsq.ShadowSet,
                                              obs: covertsq.PauliObservable) -> np.ndarray:
    """The estimator the symbol plane replaced: one match mask and one float
    product pass per support qubit over the (shots, n) arrays."""
    est = np.full(shadows.shots, obs.coefficient * 3.0**obs.locality)
    match = np.ones(shadows.shots, dtype=bool)
    for q, axis in obs.axes:
        match &= shadows.bases[:, q] == axis
        est *= 1.0 - 2.0 * shadows.bits[:, q]
    est[~match] = 0.0
    return est


def shadow_estimate_mask_product(shadows: covertsq.ShadowSet, obs: covertsq.PauliObservable,
                                 batches: int) -> float:
    """covertsq.shadow_estimate as the median of batch means of the mask
    product estimates (the mean of them all for one batch)."""
    est = shadow_single_shot_estimates_mask_product(shadows, obs)
    if batches <= 1:
        return float(est.mean())
    usable = (len(est) // batches) * batches
    return float(np.median(est[:usable].reshape(batches, -1).mean(axis=1)))


def shadow_estimate_per_support(shadows: covertsq.ShadowSet, obs: covertsq.PauliObservable,
                                batches: int) -> float:
    """covertsq.shadow_estimate's count path through the support's own
    count table, never the whole register's."""
    rows = max(batches, 1)
    counts = shadows.batch_counts(obs.support, rows)
    means = counts @ covertsq._weight_table(obs) / (shadows.shots // rows)
    return float(np.median(means)) if batches > 1 else float(means[0])


def pauli_observable(spec: dict[int, str], coefficient: float = 1.0) -> covertsq.PauliObservable:
    """PauliObservable from {qubit: 'X' | 'Y' | 'Z'}."""
    axes = tuple(sorted((q, "XYZ".index(a)) for q, a in spec.items()))
    return covertsq.PauliObservable(axes=axes, coefficient=coefficient)


def materialize_overlap_observable(f_block: bf.BooleanFunction) -> np.ndarray:
    """L = avg_i P_i with P_i the rank-2^{n-1} projector whose +1 space holds
    the phase state; explicit matrix for the E[score] = tr[L rho] cross-check
    (n_block <= 3)."""
    n = f_block.n
    dim = 1 << n
    table = bf.eval_all(f_block)
    L = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        x0, x1 = _pair_indices(n, i)
        P = np.zeros((dim, dim), dtype=complex)
        for a, b in zip(x0, x1):
            v = np.zeros(dim, dtype=complex)
            sign = -1.0 if table[a] != table[b] else 1.0
            v[a] = 1 / math.sqrt(2)
            v[b] = sign / math.sqrt(2)
            P += np.outer(v, v.conj())
        L += P / n
    return L


@dataclass(frozen=True)
class Povm:
    """POVM on m copies of an n-qubit system, with outcome labels."""

    copies: int
    qubits_per_copy: int
    elements: tuple[np.ndarray, ...]
    labels: tuple

    def __post_init__(self):
        dim = 1 << (self.copies * self.qubits_per_copy)
        total = np.zeros((dim, dim), dtype=complex)
        for e in self.elements:
            if e.shape != (dim, dim):
                raise ValueError("POVM element has wrong shape")
            total = total + e
        if np.abs(total - np.eye(dim)).max() > 1e-8:
            raise ValueError("POVM elements do not sum to the identity")


def _embed_single(u2: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """Tensor a single-qubit unitary onto each listed qubit of an n-qubit system."""
    full = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        full = np.kron(full, u2 if q in qubits else np.eye(2, dtype=complex))
    return full


def bell_povm(n: int) -> Povm:
    """Explicitly materialized POVM elements E_{y,z,b} of the two-copy Bell
    sampling that qsim.bell_sample_example_pair runs as a circuit (n <= 3)."""
    if n > 3:
        raise ValueError("materialized Bell POVM is for n <= 3")
    n_tot = 2 * (n + 1)
    dim = 1 << n_tot
    lab1, lab2 = n, 2 * n + 1
    h_labels = _embed_single(qsim.GATES_1Q["H"], n_tot, [lab1, lab2])
    idx = np.arange(dim)
    # transversal CNOTs copy1 -> copy2 as a permutation matrix
    targ = idx ^ ((idx & ((1 << n) - 1)) << (n + 1))
    cnots = np.zeros((dim, dim), dtype=complex)
    cnots[targ, idx] = 1.0
    h_data1 = _embed_single(qsim.GATES_1Q["H"], n_tot, list(range(n)))

    def proj(qubits: Sequence[int], value: int) -> np.ndarray:
        return np.diag((qsim._gather_bits(n_tot, qubits) == value).astype(complex))

    elements = []
    labels = []
    data1 = list(range(n))
    data2 = list(range(n + 1, 2 * n + 1))
    for b2 in (0, 1):
        for b1 in (0, 1):
            p_label = proj([lab1, lab2], b1 | (b2 << 1))
            for y in range(1 << n):
                for z in range(1 << n):
                    if (b1, b2) == (1, 1):
                        b_op = proj(data1, z) @ h_data1 @ proj(data2, y) @ cnots
                    else:
                        b_op = proj(data1, z) @ proj(data2, y)
                    f_op = b_op @ p_label @ h_labels
                    elements.append(f_op.conj().T @ f_op)
                    labels.append((y, z, (b1, b2)))
    return Povm(copies=2, qubits_per_copy=n + 1, elements=tuple(elements), labels=tuple(labels))


_PAULI_MATRICES = {
    0: np.array([[0, 1], [1, 0]], dtype=complex),
    1: np.array([[0, -1j], [1j, 0]], dtype=complex),
    2: np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_expectation_kron(state: qsim.PureState, obs: covertsq.PauliObservable) -> float:
    """<psi|M|psi> with the Pauli string materialized as a 2^n x 2^n matrix,
    one np.kron per qubit (little-endian: qubit q at bit q)."""
    lookup = dict(obs.axes)
    full = np.eye(1, dtype=complex)
    for q in range(state.n):
        m = _PAULI_MATRICES[lookup[q]] if q in lookup else np.eye(2, dtype=complex)
        full = np.kron(m, full)
    return float(obs.coefficient * np.vdot(state.vec, full @ state.vec).real)


def sample_product_pauli_per_basis(state: qsim.PureState, shots: int, rng
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """oracles.QMeasExOracle.sample_product_pauli as the per-basis sampler
    it replaced: one boolean mask and one rng.choice per basis that occurs,
    in ascending basis order; axes and bits as uint8, the shadow record's
    type."""
    n = state.n
    tables = basis_probability_tables_loop(state)
    axes = rng.integers(0, 3, size=(shots, n))
    basis_idx = (axes * (3 ** np.arange(n))).sum(axis=1)
    outcomes = np.empty(shots, dtype=np.int64)
    for b in np.unique(basis_idx):
        sel = basis_idx == b
        p = np.clip(tables[b], 0, None)
        outcomes[sel] = rng.choice(1 << n, size=sel.sum(), p=p / p.sum())
    bits = (outcomes[:, None] >> np.arange(n)) & 1
    return axes.astype(np.uint8), bits.astype(np.uint8)


def choice_by_group_searchsorted(cdfs: np.ndarray, groups: np.ndarray, rng) -> np.ndarray:
    """oracles._choice_by_group with each group's slice of the sorted uniform
    stream looked up by its own searchsorted on the group's cdf."""
    order = np.argsort(groups, kind="stable")
    u = rng.random(len(groups))
    drawn = np.empty(len(groups), dtype=np.min_scalar_type(cdfs.shape[1] - 1))
    start = 0
    for g, count in enumerate(np.bincount(groups, minlength=len(cdfs)).tolist()):
        if count:
            group = slice(start, start + count)
            drawn[group] = cdfs[g].searchsorted(u[group], side="right")
            start += count
    outcomes = np.empty_like(drawn)
    outcomes[order] = drawn
    return outcomes


def outcome_bits_unpackbits(outcomes: np.ndarray, n: int) -> np.ndarray:
    """(shots, n) uint8 bits of uint8 outcomes, qubit 0 first: the form
    QMeasExOracle.sample_product_pauli used before its bits table."""
    return np.unpackbits(outcomes[:, None], axis=1, count=n, bitorder="little")


def basis_probability_tables_loop(state: qsim.PureState) -> np.ndarray:
    """QMeasExOracle._basis_probability_tables one basis at a time: every
    basis rotates a fresh copy of the state, qubit 0 first."""
    n = state.n
    tables = np.empty((3**n, 1 << n))
    for b_idx in range(3**n):
        rotated = state
        rem = b_idx
        for q in range(n):
            axis = "XYZ"[rem % 3]
            rem //= 3
            if axis != "Z":
                rotated = qsim.apply_unitary(rotated, qsim.BASIS_V_DAGGER[axis], [q])
        tables[b_idx] = np.abs(rotated.vec) ** 2
    return tables


def extract_product_register_eigh(state: qsim.PureState, qubits: Sequence[int]
                                  ) -> tuple[qsim.PureState, qsim.PureState]:
    """adversary._extract_product_register by density matrices: a Schmidt
    rank check (a full SVD), then the top eigenvector of each reduced state
    (keep[j] as qubit j), the register's and the rest's."""
    if qsim.schmidt_rank(state, list(qubits), tol=1e-9) != 1:
        raise RuntimeError("register is entangled with the learner; cannot steal it")
    rest_qubits = [q for q in range(state.n) if q not in qubits]
    factors = []
    for keep in (list(qubits), rest_qubits):
        vecs = np.linalg.eigh(qsim.partial_trace(state, keep).mat)[1]
        factors.append(qsim.PureState(len(keep), vecs[:, -1] / np.linalg.norm(vecs[:, -1])))
    return tuple(factors)
