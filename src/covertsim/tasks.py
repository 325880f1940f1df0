"""End-task instantiations: Forrelation and Simon's problem.

Forrelation instances pair two width-1 functions promised to be either
nearly uncorrelated (|Phi| <= 1/100) or strongly forrelated (Phi >= 3/5);
the base decision algorithm swap-tests the two halves of each phase-state
copy of h(x, y) = f(x) xor g(y) after rotating the g half. Simon instances
carry a width-n function that is either injective or two-to-one with a
hidden period; the base algorithm harvests period-orthogonal strings from
quantum example states and finishes with two membership queries. Both
read the `certify.ProductBlock` of copies their acquisitions deliver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import acquire, certify, gf2, qsim
from .boolfunc import (
    BooleanFunction,
    forrelation_phi,
    padded_xor,
    random_simon_fn,
    random_truth_table,
    sign_vector,
    truth_table,
    walsh_hadamard,
)
from .oracles import MemOracle, QuantumChannelOracle
from .qsim import PureState

PHI_SMALL = "phi_small"  # case (i): |Phi| <= 1/100
PHI_LARGE = "phi_large"  # case (ii): Phi >= 3/5
SMALL_BOUND = 1.0 / 100.0
LARGE_BOUND = 3.0 / 5.0
SWAP_TEST_THRESHOLD = 0.59  # splits (1 + 0.01^2)/2 from (1 + 0.36)/2 with margin

SIMON_ONE_TO_ONE = "one_to_one"
SIMON_PERIODIC = "periodic"
SIMON_INCONCLUSIVE = "inconclusive"

# defaults for the covert Forrelation wrappers: declared base error of the
# repetition-majority decision at this copy count (validated empirically),
# robustified by forrelation_targets
FORRELATION_COPIES = 201
FORRELATION_BASE_ERROR = 0.01
# certification accuracy of each example-state acquisition in covert_simon
SIMON_EPS = 0.1
# rejection-sampling budget of gen_forrelation_instance
FORRELATION_MAX_TRIES = 20_000
# largest n gen_forrelation_instance takes
FORRELATION_MAX_N = 10


@dataclass(frozen=True)
class ForrelationInstance:
    n: int
    f: BooleanFunction
    g: BooleanFunction
    label: str
    phi: float

    def h(self) -> BooleanFunction:
        return padded_xor(self.f, self.g)


@dataclass(frozen=True)
class SimonInstance:
    n: int
    f: BooleanFunction
    label: str
    period: int  # 0 for one-to-one instances


class RejectionBudgetExceeded(RuntimeError):
    pass


def gen_forrelation_instance(n: int, case: str, rng) -> ForrelationInstance:
    """Planted promise instance, re-verified against the exact Phi oracle.

    Case (i) rejection-samples independent uniform pairs; case (ii) draws f
    uniform and sets g to the sign of the Walsh transform of (-1)^f, which
    lands at Phi ~ sqrt(2/pi) and is rejection-verified against 3/5.
    """
    if n > FORRELATION_MAX_N:
        raise ValueError(f"instance generation is bounded at n <= {FORRELATION_MAX_N}")
    for attempt in range(FORRELATION_MAX_TRIES):
        f = random_truth_table(n, rng)
        if case == PHI_SMALL:
            g = random_truth_table(n, rng)
        elif case == PHI_LARGE:
            wht = walsh_hadamard(sign_vector(f))
            g = truth_table(wht < 0)
        else:
            raise ValueError(f"unknown case {case!r}")
        phi = forrelation_phi(f, g)
        if case == PHI_SMALL and abs(phi) <= SMALL_BOUND:
            return ForrelationInstance(n=n, f=f, g=g, label=case, phi=phi)
        if case == PHI_LARGE and phi >= LARGE_BOUND:
            return ForrelationInstance(n=n, f=f, g=g, label=case, phi=phi)
    raise RejectionBudgetExceeded(
        f"no {case} instance at n={n} within {FORRELATION_MAX_TRIES} tries"
    )


def swap_test(state: PureState, reg_a: Sequence[int], reg_b: Sequence[int], rng) -> tuple[bool, PureState]:
    """Two-outcome symmetric/antisymmetric projection across reg_a : reg_b.

    Equivalent to the ancilla circuit (H, controlled-SWAP, H, measure);
    returns (accept = symmetric outcome, post-state).
    """
    swapped = qsim.swap_registers(state, list(reg_a), list(reg_b))
    sym = (state.vec + swapped.vec) / 2.0
    p_sym = float(np.vdot(sym, sym).real)
    if rng.random() < p_sym:
        return True, PureState(state.n, sym / math.sqrt(p_sym))
    anti = (state.vec - swapped.vec) / 2.0
    return False, PureState(state.n, anti / math.sqrt(max(1.0 - p_sym, 1e-300)))


def forrelation_decide(
    block: certify.ProductBlock, n: int, rng,
    threshold: float = SWAP_TEST_THRESHOLD,
) -> str:
    """Majority/threshold decision over per-copy swap tests.

    Each 2n-qubit copy holds |psi_f> (low half) (x) |psi_g> (high half) when
    honest; the g half is Hadamard-rotated and swap-tested against the f
    half, accepting with probability (1 + Phi^2) / 2. All copies are tested
    at once: one symmetric-projection probability per copy and one uniform
    per copy in copy order (as `swap_test` draws them). Copies of one row
    class compare equal (a signed zero matches either sign), so they have
    bit-equal probabilities, and one H^n on the g halves of one copy per
    class gives them all.
    """
    if block.qubits_per_copy != 2 * n:
        raise ValueError("copies must hold 2n qubits")
    _, first, of_class = np.unique(block.row_classes, return_index=True,
                                   return_inverse=True)
    # [class, g index, f index]: the g half holds the high qubits
    rotated = (qsim.z_sign_table(n) / 2 ** (n / 2)) @ block.rows[
        block.index[first]
    ].reshape(-1, 1 << n, 1 << n)
    # |(B + B^T) / 2|^2 summed: the mass of the symmetric projection
    mass = np.abs(rotated + rotated.transpose(0, 2, 1))
    masses = np.square(mass, out=mass).sum(axis=(1, 2)) / 4.0
    k = len(block)
    freq = np.count_nonzero(rng.random(k) < masses[of_class]) / k
    return PHI_LARGE if freq >= threshold else PHI_SMALL


def forrelation_targets(base_error: float) -> tuple[float, float]:
    """(eps_A, delta_A) = (base^2, 2 base): the Fuchs-van de Graaf
    robustification of the base decision error."""
    return base_error**2, 2.0 * base_error


def _acquisition(f, kind, adversary, m, eps, delta, delta_uni, ancilla_free,
                 delta_leak, n_blocks, rng):
    """A round of a covert task: a function of no arguments that acquires m
    certified copies through one public `kind` oracle on f, tapped by
    `adversary`, and one private membership oracle on f. It runs ancilla-free
    at confidence delta against the leak delta_leak, or unidirectional at
    confidence delta_uni."""
    oracle = QuantumChannelOracle(f, kind, adversary)
    mem = MemOracle(f)
    if ancilla_free:
        return lambda: acquire.acquire_ancilla_free(
            oracle, mem, m, eps, delta, delta_leak, rng, n_blocks=n_blocks
        )
    return lambda: acquire.acquire_unidirectional(
        oracle, mem, m, eps, delta_uni, rng, n_blocks=n_blocks
    )


def covert_forrelation(
    instance: ForrelationInstance,
    rng,
    delta: float = 0.1,
    adversary=None,
    ancilla_free: bool = False,
    delta_leak: float = 0.5,
    copies: int = FORRELATION_COPIES,
    base_error: float = FORRELATION_BASE_ERROR,
    n_blocks: int = acquire.DEFAULT_BLOCKS,
) -> acquire.TaskOutcome:
    """Covert verifiable Forrelation: ell amplified unidirectional rounds at
    confidence delta_A, or one ancilla-free round at confidence delta.

    One phase query to h(x, y) = f(x) xor g(y) is a single tapped oracle
    round trip; the padded body makes it one f- and one g-evaluation.
    The acquisitions certify at `forrelation_targets(base_error)`.
    """
    eps_a, delta_a = forrelation_targets(base_error)
    acquire_round = _acquisition(
        instance.h(), "QPh", adversary, copies, eps_a, delta,
        delta_a, ancilla_free, delta_leak, n_blocks, rng,
    )
    rounds = 1 if ancilla_free else acquire.amplification_rounds(delta, delta_a)
    return acquire.task_rounds(
        lambda block: forrelation_decide(block, instance.n, rng),
        rounds, acquire_round,
    )


# --- Simon's problem -----------------------------------------------------------


def gen_simon_instance(n: int, case: str, rng) -> SimonInstance:
    if case == SIMON_PERIODIC:
        s = int(rng.integers(1, 1 << n))
    elif case == SIMON_ONE_TO_ONE:
        s = 0
    else:
        raise ValueError(f"unknown case {case!r}")
    return SimonInstance(n=n, f=random_simon_fn(n, s, rng), label=case, period=s)


def simon_harvest(copy: PureState, n: int, rng) -> int:
    """Hadamard the input register of an example-state copy and Z-measure it,
    yielding a string orthogonal to the period."""
    rotated = qsim.apply_hadamards(copy, range(n))
    y, _ = qsim.measure_qubits(rotated, list(range(n)), "Z", rng)
    return y


@dataclass
class SimonDecision:
    label: str
    candidate: Optional[int]
    harvested: list[int]
    decision_mem_queries: int


def simon_decide_from_harvest(
    harvested: Sequence[int], n: int, mem: MemOracle
) -> SimonDecision:
    """Post-harvest decision: solve for the candidate period, then spend
    exactly two membership queries on f(s') vs f(0^n)."""
    candidate = gf2.solve_simon_nullspace(list(harvested), n)
    if candidate is None:
        return SimonDecision(SIMON_INCONCLUSIVE, None, list(harvested), 0)
    before = mem.count
    same = mem.query(candidate) == mem.query(0)
    used = mem.count - before
    label = SIMON_PERIODIC if same else SIMON_ONE_TO_ONE
    return SimonDecision(label, candidate, list(harvested), used)


@dataclass
class CovertSimonOutcome:
    rejected: bool
    decision: Optional[SimonDecision]
    copies_used: int


def covert_simon(
    instance: SimonInstance,
    rng,
    delta: float = 0.1,
    adversary=None,
    ancilla_free: bool = False,
    delta_leak: float = 0.5,
    copy_budget: Optional[int] = None,
    n_blocks: int = acquire.DEFAULT_BLOCKS,
) -> CovertSimonOutcome:
    """Covert verifiable Simon: example states are acquired one certified
    copy at a time through the QMem masking, harvested immediately, and the
    run rejects on any failed acquisition."""
    n = instance.n
    budget = copy_budget if copy_budget is not None else 3 * n
    acquire_copy = _acquisition(
        instance.f, "QMem", adversary, 1, SIMON_EPS, delta, delta,
        ancilla_free, delta_leak, n_blocks, rng,
    )
    harvested: list[int] = []
    # inconclusive unless the harvest reaches rank n - 1; None on rejection
    decision = SimonDecision(SIMON_INCONCLUSIVE, None, harvested, 0)
    copies_used = 0
    for copies_used in range(1, budget + 1):
        res = acquire_copy()
        if not res.accepted:
            decision = None
            break
        harvested.append(simon_harvest(res.output[0], n, rng))
        if gf2.rank(harvested, n) == n - 1:
            decision = simon_decide_from_harvest(harvested, n, MemOracle(instance.f))
            break
    return CovertSimonOutcome(
        rejected=decision is None, decision=decision, copies_used=copies_used
    )
