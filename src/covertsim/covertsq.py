"""Strategy-covert statistical queries.

Two pipelines: a sketching compiler that turns one low-degree polynomial SQ
into a batch of random dense polynomial SQs whose distribution carries no
information about the target (the public queries are the rows of one
coefficient matrix, a normalized Gaussian random projection, whose exact
expectations are computed once; each row still reaches the oracle as its own
query), and the random-Pauli classical-shadows pipeline that answers k-local
QSQs from observable-agnostic public measurement examples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .oracles import PolynomialSqQuery, QMeasExOracle, SqOracle
from .qsim import PureState, z_signs

JL_CONSTANT = 8  # declared implementation constant in the sketch-width formula
# largest supported observable locality; 6^4 support codes fit in uint16
MAX_LOCALITY = 4
# largest shadow set a config may ask for, in shots per state: the sampler's
# (shots, n) int32 basis draw is 320 MB at this cap and n = 8
MAX_SHADOW_SHOTS = 10**7
# largest m_e x N float64 projection a config may ask for, in bytes; the
# plan holds it and its normalized copy, so 512 MiB at this cap
MAX_PROJECTION_BYTES = 2**28

# --- monomial basis -----------------------------------------------------------


def monomial_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """Formal monomials of degree <= d over n variables, graded order.

    Monomials are exponent multisets (tuples of variable indices, repeats
    allowed); the count is C(n+d, d). Over {0,1}^n a monomial evaluates as
    the product over its support, so repeated variables collapse in value but
    remain distinct basis elements. Order: by degree, then lexicographic;
    the columns of a sketch plan follow it.
    """
    basis: list[tuple[int, ...]] = []
    for deg in range(d + 1):
        basis.extend(sorted(combinations_with_replacement(range(n), deg)))
    return basis


def monomial_count(n: int, d: int) -> int:
    return math.comb(n + d, d)


def support_mask(monomial: tuple[int, ...]) -> int:
    mask = 0
    for i in monomial:
        mask |= 1 << i
    return mask


def exact_moment_vector(n: int, d: int) -> np.ndarray:
    """E[monomial] under uniform bits: 2^{-|support|} per basis element."""
    return np.array(
        [2.0 ** (-support_mask(m).bit_count()) for m in monomial_basis(n, d)]
    )


# --- sketch plans -------------------------------------------------------------


@dataclass
class SketchPlan:
    m_e: int
    tau_e: float
    projection: np.ndarray  # m_e x N, private
    projected_coeffs: Optional[np.ndarray]  # R c, private; None for the simulator
    scales: np.ndarray  # per-query affine de-normalization y = scale*resp + shift
    shifts: np.ndarray
    supports: tuple[int, ...]  # monomial supports as bit masks, one per column
    query_coeffs: np.ndarray  # m_e x N, public: row i is public query i
    expectations: np.ndarray  # of each public query under uniform inputs
    oracle_taus: np.ndarray

    @property
    def queries(self) -> list[PolynomialSqQuery]:
        """The public queries as PolynomialSqQuerys, built on each access."""
        return [PolynomialSqQuery(self.supports, tuple(row)) for row in self.query_coeffs]


@dataclass(slots=True)
class _PublicQuery:
    """Public query i of a plan; its payload is built only when a transcript logs it."""

    plan: SketchPlan
    i: int
    expectation: float

    def exact_expectation(self, f) -> float:
        return self.expectation

    def describe(self) -> dict:
        row = self.plan.query_coeffs[self.i]
        return PolynomialSqQuery(self.plan.supports, tuple(row)).describe()


def sketch_width(delta: float, delta_c: float, b_c: float, b_m: float) -> tuple[int, float, float]:
    """(m_e, eps0, tau_e) from the declared-constant formulas."""
    eps0 = delta / (2.0 * b_c * b_m)
    m_e = math.ceil(JL_CONSTANT * math.log(1.0 / delta_c) / eps0**2)
    tau_e = delta / (4.0 * b_c * math.sqrt(m_e))
    return m_e, eps0, tau_e


def _build_plan(
    n: int,
    d: int,
    delta: float,
    delta_c: float,
    b_c: float,
    b_m: float,
    rng,
    coeffs: Optional[np.ndarray],
    projection_override: Optional[np.ndarray] = None,
) -> SketchPlan:
    basis = monomial_basis(n, d)
    big_n = len(basis)
    m_e, _, tau_e = sketch_width(delta, delta_c, b_c, b_m)
    if projection_override is not None:
        projection = np.asarray(projection_override, dtype=float)
        m_e = projection.shape[0]
    else:
        # drawn before any target-dependent work: the simulator runs this
        # exact code path, so equal seeds give bit-identical query streams
        projection = rng.normal(size=(m_e, big_n)) / math.sqrt(m_e)
    supports = tuple(support_mask(m) for m in basis)
    # vectorized affine normalization into [0, 1]: q' = (q + B) / 2B with
    # B = sum |coeffs| (monomials take values in {0, 1})
    bounds = np.abs(projection).sum(axis=1)
    bounds[bounds == 0.0] = 1.0
    norm_coeffs = projection / (2.0 * bounds[:, None])
    const_col = supports.index(0)  # graded order starts with the empty monomial
    norm_coeffs[:, const_col] += 0.5
    # np.vecdot takes each row's dot as np.dot does, so every value equals
    # PolynomialSqQuery.exact_expectation bit for bit; C @ m sums otherwise
    expectations = np.vecdot(norm_coeffs, exact_moment_vector(n, d))
    scales = 2.0 * bounds
    shifts = -bounds
    # a row with a tiny L1 norm would get a tolerance of 1 or more, which no
    # oracle takes; at 1/2 (the answer 1/2 is within it of any value in
    # [0, 1]) the decoded error scale * tau stays within tau_e
    taus = np.minimum(tau_e / scales, 0.5)
    projected = None if coeffs is None else projection @ coeffs
    return SketchPlan(
        m_e=m_e, tau_e=tau_e, projection=projection, projected_coeffs=projected,
        scales=scales, shifts=shifts, supports=supports, query_coeffs=norm_coeffs,
        expectations=expectations, oracle_taus=taus,
    )


def sketch_encode(
    coeffs: Sequence[float],
    n: int,
    d: int,
    delta: float,
    delta_c: float,
    b_c: float,
    b_m: float,
    rng,
    projection_override: Optional[np.ndarray] = None,
) -> SketchPlan:
    """Compile the private target polynomial into m_e public dense queries.

    `coeffs` is aligned with monomial_basis(n, d) and must satisfy
    ||c||_2 <= b_c. The public queries (plan.query_coeffs rows, sent at
    plan.oracle_taus) lie in [0, 1]; the plan privately retains R and R c.
    """
    c = np.asarray(coeffs, dtype=float)
    if len(c) != monomial_count(n, d):
        raise ValueError("coefficient vector does not match the monomial basis")
    if np.linalg.norm(c) > b_c + 1e-12:
        raise ValueError("||c||_2 exceeds the public bound B_c")
    return _build_plan(n, d, delta, delta_c, b_c, b_m, rng, c, projection_override)


def sketch_simulator(
    n: int, d: int, delta: float, delta_c: float, b_c: float, b_m: float, rng
) -> SketchPlan:
    """Target-independent query stream from the encoder's own sampler."""
    return _build_plan(n, d, delta, delta_c, b_c, b_m, rng, coeffs=None)


def sketch_decode(plan: SketchPlan, responses: Sequence[float]) -> float:
    """(R c) · y where y undoes the per-query affine normalization."""
    if plan.projected_coeffs is None:
        raise ValueError("simulator plans hold no private coefficients")
    resp = np.asarray(responses, dtype=float)
    if resp.shape != (plan.m_e,):
        raise ValueError("response length mismatch")
    y = plan.scales * resp + plan.shifts
    return float(plan.projected_coeffs @ y)


def run_sketched_query(plan: SketchPlan, oracle: SqOracle) -> float:
    """Send every public query to the oracle, one query each, and decode."""
    rows = enumerate(zip(plan.expectations.tolist(), plan.oracle_taus.tolist()))
    responses = [oracle.query(_PublicQuery(plan, i, e), tau) for i, (e, tau) in rows]
    return sketch_decode(plan, responses)


# --- classical shadows --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShadowSet:
    """Per-shot Pauli bases (0/1/2 = X/Y/Z) and outcome bits (0 = +1), stored
    as read-only (shots, n) uint8 arrays.

    The constructor checks the arrays (shape, integer dtype, range) and
    narrows them to uint8, without a copy when they already are uint8. It
    builds once the per-qubit symbol plane `sym`: a read-only (n, shots)
    uint8 array holding 2 * basis + bit, one contiguous row per qubit, which
    is all the estimator reads.

    The set also caches, per (support, batches) pair, the per-batch counts of
    the support's mixed-radix-6 code (`batch_counts`), so that observables
    sharing a support share one bincount; on a set of at most MAX_LOCALITY
    qubits the estimator asks for the whole register's counts, which every
    observable shares. Each table has at most `shots` cells, and the cache
    holds at most n * shots cells in all, as many as `sym` (each cell a
    float64): a table that would pass that bound clears it first. This rule
    stays outside `adversary.BoundedMemo` on purpose: its bound scales with
    the set (n * shots cells, not a fixed 1 MiB), and on overflow it clears
    the cache rather than refusing the new table, so a shared `keep` would
    have to branch on which caller it serves."""

    bases: np.ndarray
    bits: np.ndarray
    sym: np.ndarray = field(init=False, repr=False)
    _counts: dict = field(init=False, repr=False)

    def __post_init__(self):
        bases, bits = np.asarray(self.bases), np.asarray(self.bits)
        if bases.ndim != 2 or bits.shape != bases.shape:
            raise ValueError(
                f"bases and bits must be (shots, n) arrays of one shape, "
                f"got {bases.shape} and {bits.shape}"
            )
        for name, arr, top in (("bases", bases, 2), ("bits", bits, 1)):
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be integers, got {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() > top):
                raise ValueError(f"{name} must lie in 0..{top}")
        bases, bits = bases.astype(np.uint8, copy=False), bits.astype(np.uint8, copy=False)
        sym = bases * np.uint8(2)
        sym += bits
        sym = np.ascontiguousarray(sym.T)
        for arr in (bases, bits, sym):
            arr.flags.writeable = False
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "_counts", {})

    @property
    def n(self) -> int:
        return self.bases.shape[1]

    @property
    def shots(self) -> int:
        return self.bases.shape[0]

    def support_code(self, support: Sequence[int]) -> np.ndarray:
        """sum_j sym[support[j]] 6^j per shot, as uint16 (6^k fits while
        k <= MAX_LOCALITY)."""
        if len(support) > MAX_LOCALITY:
            raise ValueError(f"supported locality is k <= {MAX_LOCALITY}")
        code = np.zeros(self.shots, dtype=np.uint16)
        for q in reversed(support):
            code *= 6
            code += self.sym[q]
        return code

    def batch_counts(self, support: tuple[int, ...], batches: int) -> np.ndarray:
        """(batches, 6^k) float64 counts of the support code over the first
        batches * (shots // batches) shots, split into `batches` equal
        consecutive batches; cached and read-only. Needs at least 6^k shots
        per batch, so that no table holds more cells than there are shots."""
        _check_batches(batches, self.shots)
        key = (support, batches)
        counts = self._counts.get(key)
        if counts is None:
            code = self.support_code(support)  # checks k first
            cells, per = 6 ** len(support), self.shots // batches
            if per < cells:
                raise ValueError(f"batch_counts needs >= {cells} shots per batch, got {per}")
            code = code[: batches * per].reshape(batches, per)
            offsets = np.arange(0, batches * cells, cells)[:, None]
            counts = np.bincount((code + offsets).ravel(), minlength=batches * cells)
            counts = counts.reshape(batches, cells).astype(np.float64)
            counts.flags.writeable = False
            if sum(c.size for c in self._counts.values()) + counts.size > self.n * self.shots:
                self._counts.clear()
            self._counts[key] = counts
        return counts


@dataclass(frozen=True)
class PauliObservable:
    """Tensor of Paulis on a support set, identity elsewhere; ||M|| = |coefficient|."""

    axes: tuple[tuple[int, int], ...]  # (qubit, axis 0/1/2 = X/Y/Z), sorted
    coefficient: float = 1.0

    def __post_init__(self):
        qubits, letters = [q for q, _ in self.axes], [a for _, a in self.axes]
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                   for x in qubits + letters):
            raise ValueError(f"qubits and axes must be integers, got {self.axes}")
        if any(q < 0 for q in qubits) or any(a >= b for a, b in zip(qubits, qubits[1:])):
            raise ValueError(f"qubits must be non-negative, distinct and ascending, got {qubits}")
        if any(a not in (0, 1, 2) for a in letters):
            raise ValueError(f"axes must lie in 0..2 (X/Y/Z), got {letters}")

    @property
    def locality(self) -> int:
        return len(self.axes)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.axes)


def _check_register(obs: PauliObservable, n: int) -> None:
    """Refuse an observable whose support does not lie in an n-qubit register."""
    outside = [q for q in obs.support if q >= n]
    if outside:
        raise ValueError(f"observable qubits {outside} lie outside the {n}-qubit register")


def shadow_batches(m_targets: int, delta_p: float) -> int:
    """Median-of-means batch count K = ceil(8 log(2 m / delta_p))."""
    return math.ceil(8.0 * math.log(2.0 * m_targets / delta_p))


def shadow_shot_count(m_targets: int, k: int, tau: float, delta_p: float) -> tuple[int, int]:
    """(total shots, batch count) for m_targets k-local queries at tolerance tau."""
    batches = shadow_batches(m_targets, delta_p)
    per_batch = math.ceil(4.0 * 4**k / tau**2)
    return batches * per_batch, batches


def shadow_collect(source: QMeasExOracle, shots: int, rng) -> ShadowSet:
    """Collect observable-agnostic random-Pauli measurement examples.

    Every shot queries the public oracle with the same single-copy POVM
    (measure each qubit in an independently uniform Pauli basis); the public
    transcript logs one event per call, holding only the shot count. The
    oracle's uint8 (bases, bits) become the set's arrays without a copy.
    """
    return ShadowSet(*source.sample_product_pauli(shots, rng))


def _weight_table(obs: PauliObservable) -> np.ndarray:
    """Single-shot estimates indexed by the mixed-radix-6 code
    sum_j sym[q_j] 6^j over the support qubits q_0 < q_1 < ...: +-coef 3^k
    (the product of the outcomes) when every support qubit was measured in
    the observable's basis, else +0.0."""
    k = obs.locality
    table = np.zeros(6**k)
    scale = obs.coefficient * 3.0**k
    for outcome in range(1 << k):
        code, sign = 0, 1.0
        for j in reversed(range(k)):
            bit = outcome >> j & 1
            code = 6 * code + 2 * obs.axes[j][1] + bit
            sign = -sign if bit else sign
        # + 0.0 turns the -0.0 of a zero coefficient into +0.0
        table[code] = sign * scale + 0.0
    return table


def shadow_single_shot_estimates(shadows: ShadowSet, obs: PauliObservable) -> np.ndarray:
    """Inverse-channel single-shot estimators: 3^k * prod of outcomes on the
    support when every support qubit was measured in the matching basis,
    else 0. One pass per support qubit over its symbol row, then one gather."""
    code = shadows.support_code(obs.support)  # checks k first
    return _weight_table(obs)[code]


def _lifted_weights(obs: PauliObservable, n: int) -> np.ndarray:
    """The weight table over the whole register's code sum_q sym[q] 6^q:
    obs's table, constant in the qubits off its support. Its C-order axes
    run from qubit n - 1 down to qubit 0, so the support's table, whose axes
    run from its top qubit down, reshapes onto them in place."""
    shape = [6 if q in obs.support else 1 for q in reversed(range(n))]
    return np.broadcast_to(_weight_table(obs).reshape(shape), (6,) * n).reshape(-1)


def _sums_exact(obs: PauliObservable, per_batch: int) -> bool:
    """Whether every partial sum of per_batch single-shot estimates is exact:
    each is an integer multiple j of scale = coef 3^k with |j| <= per_batch,
    exact while |numerator(scale)| * per_batch < 2^53."""
    scale = obs.coefficient * 3.0**obs.locality
    return math.isfinite(scale) and abs(scale.as_integer_ratio()[0]) * per_batch < 2**53


def _check_batches(batches, shots: int) -> None:
    """Refuse a batch count that is not an int (a bool included) in [1, shots]."""
    if (isinstance(batches, bool) or not isinstance(batches, (int, np.integer))
            or not 1 <= batches <= shots):
        raise ValueError(f"batches {batches!r} is not an int in [1, {shots}]: "
                         "not a count, or fewer shots than batches")


def shadow_estimate(shadows: ShadowSet, obs: PauliObservable, batches: int) -> float:
    """Median of `batches` batch means of the single-shot estimators, for
    an int `batches` (not a bool) in [1, shots], refused before any work.

    When a batch holds at least 6^k shots and every batch sum is exact
    (`_sums_exact`; always so for coefficient 1 at k <= 4), the batch sums
    are per-batch code counts (`ShadowSet.batch_counts`) times a weight
    table, bit for bit what summing the estimators gives. On a set of
    n <= MAX_LOCALITY qubits whose batches hold at least 6^n shots, the
    counts are of the whole register's code, one table that every
    observable shares, and the weights are lifted onto all n qubits: each
    nonzero weight is still +-scale, so the sums stay exact. Else they are
    of the support's code.

    In the other cases the estimators are gathered and averaged: a smaller
    batch would make the (batches, 6^k) count table larger than the gather,
    and a coefficient such as 0.37 is reproduced only by np.mean's
    rounding."""
    _check_register(obs, shadows.n)
    _check_batches(batches, shadows.shots)
    per = shadows.shots // batches
    if per >= 6**obs.locality and _sums_exact(obs, per):
        n = shadows.n
        if n <= MAX_LOCALITY and per >= 6**n:
            counts = shadows.batch_counts(tuple(range(n)), batches)
            weights = _lifted_weights(obs, n)
        else:
            counts = shadows.batch_counts(obs.support, batches)  # checks k first
            weights = _weight_table(obs)
        means = (counts @ weights) / per
        return float(np.median(means))
    est = shadow_single_shot_estimates(shadows, obs)
    return float(np.median(est[: batches * per].reshape(batches, -1).mean(axis=1)))


def pauli_expectation_exact(state: PureState, obs: PauliObservable) -> float:
    """<psi|M|psi>, the exact value shadow estimates are checked against.

    Row x of the Pauli string has one nonzero entry, in column x xor (the X
    and Y qubits), equal to (-i)^#Y (-1)^popcount(x & (the Y and Z qubits));
    so M|psi> is a gather times that phase, O(2^n) with no 2^n x 2^n matrix.
    Each entry is +-1 or +-i, so the product is exact and the value is bit
    for bit that of the dense matrix product, up to the sign of a zero.
    """
    _check_register(obs, state.n)
    flip = phased = n_y = 0
    for q, a in obs.axes:  # a = 0/1/2 = X/Y/Z
        if a != 2:
            flip |= 1 << q
        if a != 0:
            phased |= 1 << q
        n_y += a == 1
    phase = z_signs(state.n, phased)
    if n_y % 4:
        phase = phase * (-1j) ** n_y
    moved = state.vec[np.arange(1 << state.n) ^ flip] * phase
    return float(obs.coefficient * np.vdot(state.vec, moved).real)
