"""Target-covert learning from public examples plus private statistical
oracles: the parity learner (public random examples, private SQ tournament)
and the quadratic learner (public Bell sampling, private influence QSQs),
with exact privacy audit tools.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import gf2, qsim
from .boolfunc import quadratic_fn
from .oracles import (
    ExOracle,
    InfluenceQuery,
    ParityPairSqQuery,
    QMeasExOracle,
    QsqOracle,
    SqOracle,
)

PARITY_SQ_TOLERANCE = 1.0 / 6.0
QUADRATIC_QSQ_TOLERANCE = 1.0 / 3.0
# extra example budget so the chance of not reaching rank n-k within
# m_pub = n - k + ceil(log2(1/delta_c)) + slack samples is <= delta_c
PARITY_BUDGET_SLACK = 4


def parity_k(delta_p: float) -> int:
    """Secret bits the private SQs fix: k = ceil(log2(1/delta_p))."""
    return math.ceil(math.log2(1.0 / delta_p))


@dataclass(frozen=True)
class ParityLearnerConfig:
    n: int
    delta_c: float
    delta_p: float

    def __post_init__(self):
        if not 0 < self.delta_p < 1 or not 0 < self.delta_c < 1:
            raise ValueError("confidence parameters must lie in (0, 1)")
        if self.k >= self.n:
            raise ValueError("k = ceil(log2(1/delta_p)) must be below n")

    @property
    def k(self) -> int:
        return parity_k(self.delta_p)

    @property
    def m_pub(self) -> int:
        return (
            self.n - self.k
            + math.ceil(math.log2(1.0 / self.delta_c))
            + PARITY_BUDGET_SLACK
        )

    @property
    def m_pri_cap(self) -> int:
        return math.floor(2.0 / self.delta_p)


@dataclass
class MatchRecord:
    t1: int
    t2: int
    alpha: float
    winner: int


@dataclass
class TournamentState:
    candidates: list[int]
    matches: list[MatchRecord] = field(default_factory=list)


@dataclass
class ParityLearnResult:
    s_hat: Optional[int]
    aborted: bool
    public_samples: list[tuple[int, int]]
    pub_count: int
    pri_count: int
    tournament: Optional[TournamentState]


def run_tournament(candidates: Sequence[int], sq: SqOracle) -> TournamentState:
    """Single-elimination bracket; match (t1, t2) queries q_{t1,t2} at
    tolerance 1/6 and t1 wins iff alpha >= 1/3. Byes go to the
    lexicographically smallest entrant."""
    state = TournamentState(candidates=sorted(candidates))
    alive = sorted(candidates)
    while len(alive) > 1:
        nxt = []
        if len(alive) % 2 == 1:
            nxt.append(alive[0])  # bye
            playing = alive[1:]
        else:
            playing = alive
        for t1, t2 in zip(playing[0::2], playing[1::2]):
            alpha = sq.query(ParityPairSqQuery(t1, t2), PARITY_SQ_TOLERANCE)
            winner = t1 if alpha >= 1.0 / 3.0 else t2
            state.matches.append(MatchRecord(t1, t2, alpha, winner))
            nxt.append(winner)
        alive = sorted(nxt)
    return state


def covert_parity_learn(
    pub_ex: ExOracle, pri_sq: SqOracle, config: ParityLearnerConfig
) -> ParityLearnResult:
    """Two-phase covert exact parity learner.

    Phase 1 draws public random examples until the inputs span an
    (n-k)-dimensional space, aborting when the example budget runs out.
    Phase 2 enumerates the 2^k consistent parities and plays the private SQ
    tournament; with honest oracles the true parity wins every match.
    """
    n, k = config.n, config.k
    samples: list[tuple[int, int]] = []
    inputs: list[int] = []
    while gf2.rank(inputs, n) < n - k:
        if len(samples) >= config.m_pub:
            return ParityLearnResult(
                s_hat=None, aborted=True, public_samples=samples,
                pub_count=pub_ex.count, pri_count=pri_sq.count, tournament=None,
            )
        x, y = pub_ex.sample()
        samples.append((x, y))
        inputs.append(x)
    space = gf2.solve_consistent_parities(samples, n)
    if space is None:
        raise RuntimeError("inconsistent public examples from an honest oracle")
    candidates = list(space.members())
    tournament = run_tournament(candidates, pri_sq)
    winner = tournament.matches[-1].winner if tournament.matches else candidates[0]
    if pri_sq.count > config.m_pri_cap:
        raise RuntimeError(
            f"private SQ budget exceeded: {pri_sq.count} > {config.m_pri_cap}"
        )
    return ParityLearnResult(
        s_hat=winner, aborted=False, public_samples=samples,
        pub_count=pub_ex.count, pri_count=pri_sq.count, tournament=tournament,
    )


def parity_adversary_guess(public_samples: Sequence[tuple[int, int]], n: int, rng) -> int:
    """Information-theoretic optimum from the public transcript alone:
    compute the consistent set and guess a uniform member."""
    space = gf2.solve_consistent_parities(list(public_samples), n)
    if space is None:
        raise ValueError("transcript is inconsistent")
    return space.sample(rng)


# --- covert quadratic learning ------------------------------------------------


def quadratic_public_budget(n: int, delta_c: float) -> int:
    """Bell-pair query budget ceil((n + log2(1/delta_c)) / log2(8/7))."""
    return math.ceil((n + math.log2(1.0 / delta_c)) / math.log2(8.0 / 7.0))


@dataclass
class QuadraticLearnResult:
    a_rows: Optional[tuple[int, ...]]  # upper-triangular incl diagonal
    abort_reason: Optional[str]
    bell_outcomes: list[tuple[int, int, tuple[int, int]]]
    pub_queries: int
    pub_weighted: int
    pri_count: int


def covert_quadratic_learn(
    pub_qmeasex: QMeasExOracle,
    pri_qsq: QsqOracle,
    n: int,
    delta_c: float,
    rng,
) -> QuadraticLearnResult:
    """Covert exact learner for purely quadratic functions.

    Public phase: Bell-sample pairs of example-state copies; the b = 11
    rounds expose z = (A+A^T) y, which determines every off-diagonal entry
    once the y's span. Private phase: n influence QSQs (tolerance 1/3) on
    the off-diagonal-corrected function, thresholded at 1/2, fix the
    diagonal. The public transcript carries no diagonal information.
    """
    m_pub = quadratic_public_budget(n, delta_c)
    outcomes = [pub_qmeasex.bell_sample(rng) for _ in range(m_pub)]
    kept = [(y, z) for y, z, b in outcomes if b == (1, 1)]
    if gf2.rank([y for y, _ in kept], n) < n:
        return QuadraticLearnResult(
            a_rows=None, abort_reason="rank", bell_outcomes=outcomes,
            pub_queries=m_pub, pub_weighted=2 * m_pub, pri_count=pri_qsq.count,
        )
    offdiag = gf2.solve_offdiagonal_quadratic(kept, n)
    rows = list(offdiag)
    for i in range(n):
        i_hat = pri_qsq.query(
            InfluenceQuery(i, offdiag_rows=offdiag), QUADRATIC_QSQ_TOLERANCE
        )
        if i_hat > 0.5:
            rows[i] |= 1 << i
    return QuadraticLearnResult(
        a_rows=tuple(rows), abort_reason=None, bell_outcomes=outcomes,
        pub_queries=m_pub, pub_weighted=2 * m_pub, pri_count=pri_qsq.count,
    )


def random_quadratic_rows(n: int, rng) -> tuple[int, ...]:
    """Uniform upper-triangular (incl diagonal) quadratic form."""
    rows = []
    for i in range(n):
        mask = 0
        for j in range(i, n):
            if rng.integers(2):
                mask |= 1 << j
        rows.append(mask)
    return tuple(rows)


def quadratic_transcript_distribution(rows: Sequence[int], n: int) -> np.ndarray:
    """Exact single-round public-transcript distribution P[b, z, y].

    Rounds are i.i.d., so the full transcript distribution is the product;
    equality of single-round distributions is equality of transcript
    distributions for any round count. Used to verify, as an exact
    distribution identity, that diagonal-differing quadratic forms are
    indistinguishable from the public transcript.
    """
    copy = qsim.prepare_example_state(quadratic_fn(tuple(rows), n))
    return qsim.bell_pair_distribution(copy, n)


def transcript_total_variation(rows_a, rows_b, n: int) -> float:
    pa = quadratic_transcript_distribution(rows_a, n)
    pb = quadratic_transcript_distribution(rows_b, n)
    return float(0.5 * np.abs(pa - pb).sum())
