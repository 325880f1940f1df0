"""Exact small-n quantum state engine on dense amplitude vectors.

Qubit j is bit j of the little-endian basis index (qubit 0 = least
significant). All operations are pure functions returning new states; states
are value-semantic and safe to share across concurrent trials.

Gate kernels are qubit-local: viewed as a (2^(n-1-q), 2, 2^q) array, the
amplitudes put qubit q on axis 1, so a single-qubit gate is one reshape and
one matmul over that axis, and a single-qubit Z measurement reads and
zeroes that axis. Multi-qubit gates move their axes to the front and back.

Trust boundary. Every public constructor (`PureState(...)`, `basis_state`,
`tensor`, the `prepare_*` states, `remove_qubits`) checks length, the qubit
cap and the norm, and so does `apply_unitary`, whose matrix comes from the
caller. A few outputs are normalized by construction from a state that was
already checked, and are built by `_trusted` without the norm pass:
- the +-1 diagonals of `apply_z_mask` and `apply_phase_oracle`;
- `apply_gate` and the basis rotations of a `MeasurementTable`, whose
  matrices are this module's own unitary constants (through `_apply_kernel`);
- the renormalized projection of `_project_z`.
The diagonals (`z_sign_table`, `z_signs`, `phase_signs`) are complex128
with +0 imaginary parts: NumPy casts a float operand of a complex product
exactly so, so the bytes are the same and the multiply runs the same-dtype
loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .boolfunc import BooleanFunction, eval_all

PURE_QUBIT_CAP = 24
MIXED_QUBIT_CAP = 12
NORM_SQ_TOL = 2e-8  # |norm^2 - 1| a pure state may show
PSD_FLOOR = -1e-8

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

GATES_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
# two-qubit gate matrices indexed with qubits[0] as the LOW bit; CNOT control
# is qubits[0], target qubits[1]
GATES_2Q = {
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

# measurement-basis rotations: columns of V are the +1/-1 eigenvectors,
# so measuring Pauli P == apply V^dagger, Z-measure, apply V; read-only, the
# daggers C-contiguous
BASIS_V = {
    "Z": np.eye(2, dtype=complex),
    "X": GATES_1Q["H"],
    "Y": GATES_1Q["S"] @ GATES_1Q["H"],
}
BASIS_V_DAGGER = {b: np.ascontiguousarray(v.conj().T) for b, v in BASIS_V.items()}
for _v in (*BASIS_V.values(), *BASIS_V_DAGGER.values()):
    _v.flags.writeable = False


@dataclass(frozen=True)
class PureState:
    n: int
    vec: np.ndarray  # 2^n complex amplitudes

    def __post_init__(self):
        _check_register(self.n)
        if self.vec.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        dev = abs(np.vdot(self.vec, self.vec).real - 1.0)
        if not dev <= NORM_SQ_TOL:  # written so that NaN fails too
            raise ValueError(f"state not normalized: |norm^2-1| = {dev:.3g}")

    def density(self) -> "MixedState":
        _check_mixed_cap(self.n)
        return MixedState(self.n, np.outer(self.vec, self.vec.conj()))


def _check_register(n: int) -> None:
    """Refuse a pure register of n qubits outside 0..PURE_QUBIT_CAP, before
    its 2^n amplitudes exist."""
    if not 0 <= n <= PURE_QUBIT_CAP:
        raise ValueError(f"a {n}-qubit pure state is outside 0..{PURE_QUBIT_CAP} "
                         "(the pure-state cap)")


def _check_mixed_cap(n: int) -> None:
    """Refuse an n-qubit density matrix over the cap before it is formed."""
    if n > MIXED_QUBIT_CAP:
        raise ValueError(f"mixed-state cap is {MIXED_QUBIT_CAP} qubits")


@dataclass(frozen=True)
class MixedState:
    n: int
    mat: np.ndarray  # 2^n x 2^n density operator

    def __post_init__(self):
        _check_mixed_cap(self.n)
        dim = 1 << self.n
        if self.mat.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        # each check is written so that NaN fails it too
        if not np.abs(self.mat - self.mat.conj().T).max() <= 1e-8:
            raise ValueError("density matrix not Hermitian")
        if not abs(np.trace(self.mat).real - 1.0) <= 1e-8:
            raise ValueError("density matrix trace != 1")
        if not np.linalg.eigvalsh(self.mat).min() >= PSD_FLOOR:
            raise ValueError("density matrix not positive semidefinite")


State = Union[PureState, MixedState]

def _trusted(n: int, vec: np.ndarray) -> PureState:
    """A PureState built without `__post_init__`'s checks; only for
    amplitudes normalized by construction from a checked state."""
    state = object.__new__(PureState)
    fields = state.__dict__
    fields["n"] = n
    fields["vec"] = vec
    return state


def check_rows_normalized(amps: np.ndarray) -> None:
    """The PureState checks on every row of a stacked (k, 2^n) amplitude
    array, in one vectorised pass. A non-finite row fails."""
    if amps.ndim != 2 or amps.shape[1] & (amps.shape[1] - 1):
        raise ValueError("stacked amplitudes need shape (k, 2^n)")
    if amps.shape[1] > 1 << PURE_QUBIT_CAP:
        raise ValueError(f"pure-state cap is {PURE_QUBIT_CAP} qubits")
    parts = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    dev = np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0).max(initial=0.0)
    if not dev <= NORM_SQ_TOL:  # written so that NaN fails too
        raise ValueError(f"state not normalized: |norm^2-1| = {dev:.3g}")


# --- state constructors ------------------------------------------------------


def basis_state(n: int, x: int = 0) -> PureState:
    _check_register(n)
    if not 0 <= x < 1 << n:
        raise ValueError(f"basis index {x} is outside [0, 2^{n})")
    vec = np.zeros(1 << n, dtype=complex)
    vec[x] = 1.0
    return PureState(n, vec)


def uniform_state(n: int) -> PureState:
    _check_register(n)
    vec = np.full(1 << n, 2 ** (-n / 2), dtype=complex)
    return PureState(n, vec)


def tensor(*states: PureState) -> PureState:
    """Product state; the first argument occupies the low qubits. The qubit
    cap is checked before the product is built."""
    n = sum(s.n for s in states)
    _check_register(n)
    vec = states[0].vec
    for s in states[1:]:
        vec = np.kron(s.vec, vec)  # little-endian: later registers are high bits
    return PureState(n, vec)


def prepare_phase_state(f: BooleanFunction) -> PureState:
    """2^{-n/2} sum_x (-1)^{f(x)} |x> for a width-1 function."""
    if f.w != 1:
        raise ValueError("phase states need width-1 functions")
    _check_register(f.n)
    return PureState(f.n, _signs(eval_all(f)) * 2 ** (-f.n / 2))


def prepare_example_state(f: BooleanFunction) -> PureState:
    """2^{-n/2} sum_x |x, f(x)> on n + w qubits (input register low)."""
    n, w = f.n, f.w
    _check_register(n + w)
    vals = eval_all(f)  # checks the table arity before the state is allocated
    vec = np.zeros(1 << (n + w), dtype=complex)
    xs = np.arange(1 << n, dtype=np.uint64)
    vec[(vals << np.uint64(n)) | xs] = 2 ** (-n / 2)
    return PureState(n + w, vec)


# --- unitaries ---------------------------------------------------------------


def _axes(n: int, qubits: Sequence[int]) -> list[int]:
    return [n - 1 - q for q in qubits]


def _check_qubits(n: int, qubits: Sequence[int]) -> None:
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise IndexError("bad qubit indices")


def _apply_kernel(vec: np.ndarray, n: int, u: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Amplitudes of u applied to the listed qubits (qubits[0] = low bit);
    no checks."""
    k = len(qubits)
    if k == 1:
        q = qubits[0]
        if q == 0:
            return (vec.reshape(-1, 2) @ u.T).reshape(-1)
        return np.matmul(u, vec.reshape(1 << (n - 1 - q), 2, 1 << q)).reshape(-1)
    t = vec.reshape([2] * n)
    # u's row/col index has qubits[0] as the LOW bit -> axis order reversed
    axes = _axes(n, qubits)[::-1]
    t = np.moveaxis(t, axes, range(k))
    t = (u @ t.reshape(1 << k, -1)).reshape([2] * n)
    t = np.moveaxis(t, range(k), axes)
    return np.ascontiguousarray(t.reshape(-1))


def apply_unitary(state: PureState, u: np.ndarray, qubits: Sequence[int]) -> PureState:
    """Apply a 2^k x 2^k unitary to the listed qubits (qubits[0] = low bit).

    The matrix is the caller's, so the output is norm-checked."""
    k = len(qubits)
    if u.shape != (1 << k, 1 << k):
        raise ValueError("unitary has wrong shape")
    _check_qubits(state.n, qubits)
    return PureState(state.n, _apply_kernel(state.vec, state.n, u, qubits))


def apply_gate(state: PureState, gate: str, qubits: Sequence[int]) -> PureState:
    """Standard gate from {H, X, Z, S, CZ, CNOT, SWAP}.

    For CNOT, qubits = (control, target).
    """
    if gate in GATES_1Q:
        if len(qubits) != 1:
            raise ValueError(f"{gate} is a single-qubit gate")
        u = GATES_1Q[gate]
    elif gate in GATES_2Q:
        if len(qubits) != 2:
            raise ValueError(f"{gate} is a two-qubit gate")
        u = GATES_2Q[gate]
    else:
        raise ValueError(f"unknown gate {gate!r}")
    _check_qubits(state.n, qubits)
    return _trusted(state.n, _apply_kernel(state.vec, state.n, u, qubits))


def apply_hadamards(state: PureState, qubits: Sequence[int]) -> PureState:
    for q in qubits:
        state = apply_gate(state, "H", [q])
    return state


SIGN_TABLE_QUBITS = 8  # z_sign_table is kept up to this size (1 MiB)
_Z_SIGN_TABLES: dict[int, np.ndarray] = {}


def _signs(bits: np.ndarray) -> np.ndarray:
    """(-1)^bits as complex128 with +0 imaginary parts."""
    return (1.0 - 2.0 * bits.astype(np.float64)).astype(complex)


def z_sign_table(n: int) -> np.ndarray:
    """The (2^n, 2^n) complex table of (-1)^{popcount(r & x)}, read-only: row
    r is the diagonal of Z^r, and the table over 2^{n/2} is H^n."""
    table = _Z_SIGN_TABLES.get(n)
    if table is None:
        idx = np.arange(1 << n, dtype=np.uint64)
        table = _signs(np.bitwise_count(idx[:, None] & idx) & 1)
        table.flags.writeable = False
        if n <= SIGN_TABLE_QUBITS:
            _Z_SIGN_TABLES[n] = table
    return table


def z_signs(n: int, mask: int) -> np.ndarray:
    """Diagonal of Z^mask on n qubits, (-1)^{popcount(x & mask)}: a read-only
    row of z_sign_table up to SIGN_TABLE_QUBITS, computed afresh above it."""
    if n <= SIGN_TABLE_QUBITS:
        return z_sign_table(n)[mask]
    idx = np.arange(1 << n, dtype=np.uint64)
    return _signs(np.bitwise_count(idx & np.uint64(mask)) & 1)


def apply_z_mask(state: PureState, r: int, qubits: Sequence[int]) -> PureState:
    """Z^r on the listed qubits: Z on qubits[j] where bit j of r is set.

    Diagonal, so applied in one vectorized pass with the cached signs.
    """
    mask = 0
    for j, q in enumerate(qubits):
        if (r >> j) & 1:
            mask |= 1 << q
    if mask == 0:
        return state
    return _trusted(state.n, state.vec * z_signs(state.n, mask))


def _gather_bits(n: int, qubits: Sequence[int]) -> np.ndarray:
    """For each n-qubit basis index, the bits at `qubits` packed into an int
    (bit j of the result is qubit qubits[j])."""
    idx = np.arange(1 << n, dtype=np.uint64)
    x = np.zeros(1 << n, dtype=np.uint64)
    for j, q in enumerate(qubits):
        x |= ((idx >> np.uint64(q)) & 1) << np.uint64(j)
    return x


def phase_signs(f: BooleanFunction, n: int, qubits: Sequence[int]) -> np.ndarray:
    """Diagonal of the phase oracle of f on `qubits` of an n-qubit state,
    complex as `z_signs`."""
    signs = _signs(eval_all(f))
    if list(qubits) == list(range(n)):
        return signs
    return signs[_gather_bits(n, qubits)]


def apply_phase_oracle(
    state: PureState, f: BooleanFunction, qubits: Sequence[int],
    signs: Optional[np.ndarray] = None,
) -> PureState:
    """|x> -> (-1)^{f(x)} |x> on the designated qubits (qubits[j] = input bit
    j); `signs` is phase_signs(f, state.n, qubits) if the caller holds it."""
    if f.w != 1:
        raise ValueError("phase oracles need width-1 functions")
    if len(qubits) != f.n:
        raise ValueError("target set must match the oracle arity")
    if signs is None:
        signs = phase_signs(f, state.n, qubits)
    return _trusted(state.n, state.vec * signs)


def apply_qmem_oracle(
    state: PureState,
    f: BooleanFunction,
    in_qubits: Sequence[int],
    out_qubits: Sequence[int],
) -> PureState:
    """|x, y> -> |x, y xor f(x)>; input and output registers must be disjoint."""
    if len(in_qubits) != f.n or len(out_qubits) != f.w:
        raise ValueError("register sizes must match the oracle signature")
    if set(in_qubits) & set(out_qubits):
        raise ValueError("input and output registers overlap")
    n = state.n
    fx = eval_all(f)[_gather_bits(n, in_qubits)]
    flip = np.zeros(1 << n, dtype=np.uint64)
    for j, q in enumerate(out_qubits):
        flip |= ((fx >> np.uint64(j)) & 1) << np.uint64(q)
    new_vec = np.zeros_like(state.vec)
    new_vec[np.arange(1 << n, dtype=np.uint64) ^ flip] = state.vec
    return PureState(n, new_vec)


def permute_qubits(state: PureState, perm: Sequence[int]) -> PureState:
    """Move qubit j to position perm[j]."""
    n = state.n
    t = state.vec.reshape([2] * n)
    # axis of old qubit j is n-1-j; its new axis must be n-1-perm[j]
    t = np.moveaxis(t, [n - 1 - j for j in range(n)], [n - 1 - perm[j] for j in range(n)])
    return PureState(n, np.ascontiguousarray(t.reshape(-1)))


def swap_registers(state: PureState, reg_a: Sequence[int], reg_b: Sequence[int]) -> PureState:
    if len(reg_a) != len(reg_b):
        raise ValueError("register length mismatch")
    out = state
    for a, b in zip(reg_a, reg_b):
        out = apply_gate(out, "SWAP", [a, b])
    return out


# --- measurement -------------------------------------------------------------


def sample_index(probs: np.ndarray, rng) -> int:
    """Draw one index from an unnormalized nonnegative weight vector."""
    return _draw_cumulative(np.cumsum(probs), rng)


def _draw_cumulative(cum: np.ndarray, rng) -> int:
    """`sample_index`'s draw on its cumulative weights: the first index whose
    cumulative weight exceeds one uniform times the total."""
    return min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), len(cum) - 1)


def _marginal_probs(state: PureState, qubits: Sequence[int]) -> np.ndarray:
    """Outcome distribution of a Z measurement on the listed qubits.

    Entry o corresponds to outcome bits with bit j of o observed on qubits[j].
    Each entry sums its weights in the order of the (2,)*n view with the
    measured axes moved to the front.
    """
    n = state.n
    p = np.abs(state.vec) ** 2
    if len(qubits) == 1:
        q = qubits[0]
        p = p.reshape(1 << (n - 1 - q), 2, 1 << q).transpose(1, 0, 2)
        return p.reshape(2, -1).sum(axis=1)
    axes = _axes(n, qubits)[::-1]  # qubits[0] = low bit of the outcome
    order = axes + [a for a in range(n) if a not in axes]
    p = p.reshape([2] * n).transpose(order)
    return p.reshape(1 << len(qubits), -1).sum(axis=1)


def _project_z(state: PureState, qubits: Sequence[int], outcome: int) -> PureState:
    n = state.n
    v = state.vec.copy()
    if len(qubits) == 1:
        q = qubits[0]
        v.reshape(1 << (n - 1 - q), 2, 1 << q)[:, 1 - (outcome & 1)] = 0.0
    else:
        t = v.reshape([2] * n)
        sl: list = [slice(None)] * n
        for j, q in enumerate(qubits):
            sl[n - 1 - q] = 1 - ((outcome >> j) & 1)
            t[tuple(sl)] = 0.0
            sl[n - 1 - q] = slice(None)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise ValueError("projection onto a zero-probability branch")
    return _trusted(n, v / nrm)


class MeasurementTable:
    """A projective single-qubit-basis measurement of the listed qubits of a
    state, before its draw: the amplitudes rotated into the basis (`work`)
    and the cumulative Z marginal of the outcomes (`cum`), as
    `sample_index` builds it. `draw` takes one `rng.random()`; each
    outcome's post-state is built on its first `post` call and kept,
    read-only (unless `keep=False`). Bit j of an outcome belongs to qubits[j], with 0 the +1
    eigenvalue (e.g. '+' for the X basis)."""

    __slots__ = ("qubits", "basis", "work", "cum", "posts")

    def __init__(self, state: PureState, qubits: Sequence[int], basis: str):
        if basis not in BASIS_V:
            raise ValueError(f"unknown basis {basis!r}")
        n = state.n
        _check_qubits(n, qubits)
        if basis != "Z":
            vec = state.vec
            for q in qubits:
                vec = _apply_kernel(vec, n, BASIS_V_DAGGER[basis], [q])
            state = _trusted(n, vec)
        self.qubits, self.basis, self.work = qubits, basis, state
        self.cum = np.cumsum(_marginal_probs(state, qubits))
        self.posts: dict[int, PureState] = {}

    def draw(self, rng) -> int:
        return _draw_cumulative(self.cum, rng)

    def post(self, outcome: int, keep: bool = True) -> PureState:
        post = self.posts.get(outcome)
        if post is None:
            n, vec = self.work.n, _project_z(self.work, self.qubits, outcome).vec
            if self.basis != "Z":
                for q in self.qubits:
                    vec = _apply_kernel(vec, n, BASIS_V[self.basis], [q])
            vec.flags.writeable = False
            post = _trusted(n, vec)
            if keep:
                self.posts[outcome] = post
        return post

    @property
    def max_nbytes(self) -> int:
        """Bytes the table holds once every outcome's post-state is built."""
        return self.work.vec.nbytes * (1 + len(self.cum)) + self.cum.nbytes


def measure_qubits(
    state: PureState, qubits: Sequence[int], basis: str, rng
) -> tuple[int, PureState]:
    """Projective single-qubit-basis measurement of the listed qubits: a
    `MeasurementTable` and its one draw.

    Returns (outcome, post-state); bit j of the outcome belongs to qubits[j],
    with 0 the +1 eigenvalue (e.g. '+' for the X basis). Deterministic given
    the rng state.
    """
    table = MeasurementTable(state, qubits, basis)
    outcome = table.draw(rng)
    return outcome, table.post(outcome)


def remove_qubits(state: PureState, qubits: Sequence[int], outcome: int) -> PureState:
    """Drop qubits known to be in the given computational basis state."""
    n = state.n
    t = state.vec.reshape([2] * n)
    sl: list = [slice(None)] * n
    for j, q in enumerate(qubits):
        sl[n - 1 - q] = (outcome >> j) & 1
    v = np.ascontiguousarray(t[tuple(sl)].reshape(-1))
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError("removed qubits were not in the stated basis state")
    return PureState(n - len(qubits), v / nrm)


# --- diagnostics -------------------------------------------------------------


def fidelity(state: State, target: PureState) -> float:
    """<target| rho |target>; for pure inputs the squared overlap."""
    if isinstance(state, PureState):
        if state.n != target.n:
            raise ValueError("dimension mismatch")
        return float(abs(np.vdot(target.vec, state.vec)) ** 2)
    if state.n != target.n:
        raise ValueError("dimension mismatch")
    return float(np.real(np.vdot(target.vec, state.mat @ target.vec)))


def partial_trace(state: State, keep: Sequence[int]) -> MixedState:
    """Reduced state on the listed qubits; keep[j] becomes qubit j. The
    mixed-state cap is checked before the 2^k x 2^k matrix is formed."""
    n = state.n
    k = len(keep)
    _check_mixed_cap(k)
    if isinstance(state, PureState):
        t = state.vec.reshape([2] * n)
        order = _axes(n, keep)[::-1] + [n - 1 - q for q in range(n) if q not in keep]
        m = np.transpose(t, order).reshape(1 << k, -1)
        rho = m @ m.conj().T
    else:
        t = state.mat.reshape([2] * (2 * n))
        keep_axes = _axes(n, keep)[::-1]
        drop_axes = [n - 1 - q for q in range(n) if q not in keep]
        order = (
            keep_axes
            + drop_axes
            + [a + n for a in keep_axes]
            + [a + n for a in drop_axes]
        )
        t = np.transpose(t, order).reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
        rho = np.einsum("ajbj->ab", t)
    return MixedState(k, rho)


def schmidt_rank(state: PureState, cut: Sequence[int], tol: float = 1e-9) -> int:
    """Schmidt rank across cut : rest; singular values below tol count as zero."""
    n = state.n
    t = state.vec.reshape([2] * n)
    order = _axes(n, cut)[::-1] + [n - 1 - q for q in range(n) if q not in cut]
    m = np.transpose(t, order).reshape(1 << len(cut), -1)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > tol))


def _as_density(state: State) -> np.ndarray:
    return state.mat if isinstance(state, MixedState) else np.outer(
        state.vec, state.vec.conj()
    )


def trace_distance(a: State, b: State) -> float:
    """(1/2) || a - b ||_1 via eigendecomposition."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    diff = _as_density(a) - _as_density(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def states_equal(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """Equality up to global phase."""
    if a.n != b.n:
        return False
    return abs(abs(np.vdot(a.vec, b.vec)) - 1.0) <= tol


# --- two-copy Bell sampling on example-state pairs ----------------------------
#
# Realized as a measurement circuit, unitarily equivalent to the POVM
# {E_{y,z,b}}: per-copy Hadamard on the label qubit, Z-measure both labels to
# get b; on b = 11, transversal CNOTs copy1 -> copy2 followed by Hadamards on
# copy 1's data register, then Z-measurements yielding (y, z) with
# z = (A+A^T)y for quadratic-function example states. Copy 1 occupies qubits
# 0..n (label qubit n), copy 2 qubits n+1..2n+1 (label qubit 2n+1).


def _bell_label_table(joint: PureState, n: int) -> MeasurementTable:
    """The label table: both label qubits after a Hadamard on each (outcome
    b1 + 2 b2)."""
    if joint.n != 2 * (n + 1):
        raise ValueError("joint state must hold two (n+1)-qubit copies")
    lab1, lab2 = n, 2 * n + 1
    return MeasurementTable(apply_gate(apply_gate(joint, "H", [lab1]), "H", [lab2]),
                            [lab1, lab2], "Z")


def _bell_data_table(st: PureState, b: int, n: int) -> MeasurementTable:
    """The data table of label outcome b, on that outcome's post-state: both
    data registers (outcome z | y << n), after the CNOTs and copy 1's
    Hadamards when b = 11."""
    data1 = list(range(n))
    if b == 3:
        for i in data1:
            st = apply_gate(st, "CNOT", [i, n + 1 + i])
        st = apply_hadamards(st, data1)
    return MeasurementTable(st, data1 + list(range(n + 1, 2 * n + 1)), "Z")


def bell_sample_example_pair(joint: PureState, n: int, rng) -> tuple[int, int, tuple[int, int]]:
    """One Bell-sampling draw on a pair of example-state copies, a draw from
    the label table and one from its outcome's data table: (y, z, b) with y
    from copy 2's data register, z from copy 1's, b the two label bits."""
    labels = _bell_label_table(joint, n)
    b = labels.draw(rng)
    out = _bell_data_table(labels.post(b), b, n).draw(rng)
    return out >> n, out & ((1 << n) - 1), (b & 1, b >> 1)


def bell_pair_distribution(copy: PureState, n: int) -> np.ndarray:
    """Exact joint distribution P[b, z, y] of one Bell-sampling draw on two
    copies, P[b] P[z, y | b] read off the sampler's tables; b indexes
    (b1, b2) as b1 + 2*b2. The result sums to 1. Each label outcome's
    post-state is built for its data table and dropped, not kept in the
    label table, so one lives at a time."""
    labels = _bell_label_table(tensor(copy, copy), n)
    p_label = np.diff(labels.cum, prepend=0.0)
    out = np.zeros((4, 1 << n, 1 << n))
    for b in range(4):
        try:  # held by no name here, so the b = 11 gates can free each step
            cum = _bell_data_table(labels.post(b, keep=False), b, n).cum
        except ValueError:  # a zero-probability label outcome has no post-state
            continue
        p_data = np.diff(cum, prepend=0.0)  # z | (y << n)
        out[b] = (p_label[b] * p_data).reshape(1 << n, 1 << n).T  # [z, y]
    return out
