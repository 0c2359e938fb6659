"""Auction engines for the two regulatory mechanisms.

Both engines draw one population of agent valuations and evaluate the
corresponding strategy. Reserve thresholding grants deployment to every
participant at the clearing price and awards no premium. The SIRA
engine additionally runs the all-pay premium contest: accepted agents
are paired, the higher bid in a comparison wins the premium, ties fall
to a fair coin, and every submitted bid is sunk whether or not it wins.

Payments are sunk once. In the repeated engine the bid is unchanged
across rounds and the regulator prices cumulative safety, so no
incremental payment is due after round one; deployment value is granted
in the first accepted round only, while the premium can be won in every
round.

Randomness is split into named substreams of the config seed (see
seeding), so reports are reproducible and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .seeding import (
    STREAM_OPPONENTS,
    STREAM_TIES,
    STREAM_VALUATIONS,
    check_seed,
    substream,
)
from .strategy import (
    DecisionArrays,
    check_p_eps,
    realized_utilities,
    reserve_decision_arrays,
    sira_decision_arrays,
)
from .value_model import SafetyCostModel, ValueFamily, sample_valuations

RESERVE_THRESHOLD = "reserve-threshold"
SIRA = "sira"


class PairingMode(Enum):
    """How accepted agents are matched for premium comparisons."""

    INDEPENDENT_OPPONENT = "independent"
    PERFECT_MATCHING = "perfect"


@dataclass(frozen=True)
class AuctionConfig:
    """Immutable description of one simulated auction run."""

    n_agents: int
    p_eps: float
    family: ValueFamily
    seed: int
    gamma: float = 1.0
    rounds: int = 1
    pairing: PairingMode = PairingMode.INDEPENDENT_OPPONENT

    def __post_init__(self) -> None:
        if not isinstance(self.n_agents, int) or self.n_agents < 2:
            raise ConfigError(f"n_agents must be an integer >= 2, got {self.n_agents}")
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ConfigError(f"rounds must be an integer >= 1, got {self.rounds}")
        try:
            check_p_eps(self.p_eps)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.family, ValueFamily):
            raise ConfigError(f"family must be a ValueFamily, got {self.family!r}")
        if not (self.gamma > 0.0) or not np.isfinite(self.gamma):
            raise ConfigError(f"gamma must be a positive real, got {self.gamma}")
        check_seed(self.seed)
        if not isinstance(self.pairing, PairingMode):
            raise ConfigError(f"pairing must be a PairingMode, got {self.pairing!r}")

    @property
    def model(self) -> SafetyCostModel:
        return SafetyCostModel(gamma=self.gamma)


# ---------------------------------------------------------------------------
# The contest rule and its scalar views


def beats(bid, other, coins):
    """The contest rule: the higher bid wins the premium, a coin settles a tie.

    Elementwise over broadcast arrays; coins[i] decides comparison i
    only when its two bids are equal.
    """
    return np.where(bid == other, coins, bid > other)


def compare_pair(bid_i: float, bid_j: float, rng: np.random.Generator) -> bool:
    """Return True when agent i beats agent j for the premium.

    Draws one coin from rng, and only when the bids tie.
    """
    if bid_i < 0.0 or bid_j < 0.0:
        raise DomainError("bids must be non-negative")
    return bool(beats(bid_i, bid_j, bid_i == bid_j and rng.random() < 0.5))


def realize_utility(
    bid: float, accepted: bool, won_premium: bool, v_d: float, v_p: float
) -> float:
    """Scalar view of realized_utilities with its flags validated."""
    if not (0.0 <= bid <= 1.0):
        raise DomainError(f"bid outside [0, 1]: {bid}")
    if won_premium and not accepted:
        raise DomainError("inconsistent flags: premium won without acceptance")
    return float(realized_utilities(v_d, v_p, bid, accepted, won_premium))


def award_premiums_independent(
    bids: np.ndarray, opponent_ranks: np.ndarray, coins: np.ndarray
) -> np.ndarray:
    """Resolve one comparison per accepted agent against a drawn opponent.

    opponent_ranks[i] indexes another accepted agent (never i itself);
    coins break exact ties. Returns the win flags.
    """
    return beats(bids, bids[opponent_ranks], coins)


def _draw_opponent_ranks(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform opponent index over the other m - 1 accepted agents."""
    r = rng.integers(0, m - 1, size=m)
    return r + (r >= np.arange(m))


def _award_round_independent(
    bids: np.ndarray, opp_rng: np.random.Generator, tie_rng: np.random.Generator
) -> np.ndarray:
    m = bids.size
    if m < 2:
        return np.zeros(m, dtype=bool)
    ranks = _draw_opponent_ranks(m, opp_rng)
    coins = tie_rng.random(m) < 0.5
    return award_premiums_independent(bids, ranks, coins)


def _award_round_perfect(
    bids: np.ndarray, opp_rng: np.random.Generator, tie_rng: np.random.Generator
) -> np.ndarray:
    """Disjoint random pairs; an odd agent out faces a drawn opponent."""
    m = bids.size
    won = np.zeros(m, dtype=bool)
    if m < 2:
        return won
    perm = opp_rng.permutation(m)
    n_pairs = m // 2
    first = perm[0 : 2 * n_pairs : 2]
    second = perm[1 : 2 * n_pairs : 2]
    coins = tie_rng.random(n_pairs) < 0.5
    first_wins = beats(bids[first], bids[second], coins)
    won[first] = first_wins
    won[second] = ~first_wins
    if m % 2 == 1:
        leftover = int(perm[-1])
        r = int(opp_rng.integers(0, m - 1))
        other = r + (r >= leftover)
        coin = bool(tie_rng.random() < 0.5)
        won[leftover] = beats(bids[leftover], bids[other], coin)
    return won


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, eq=False)
class AuctionReport:
    """Struct-of-arrays record of a full run plus its aggregates.

    Aggregates are computed once from the per-agent arrays; value_by_round
    holds the gross value granted per agent and round, so
    realized_utility equals the column sum minus bid_paid exactly.
    """

    config: AuctionConfig
    mechanism: str
    total_value: np.ndarray
    scaling_factor: np.ndarray
    premium_value: np.ndarray
    deployment_value: np.ndarray
    raw_bid: np.ndarray
    bid: np.ndarray
    predicted_utility: np.ndarray
    participates: np.ndarray
    accepted: np.ndarray
    bid_paid: np.ndarray
    safety: np.ndarray
    won_by_round: np.ndarray
    value_by_round: np.ndarray
    realized_utility: np.ndarray
    participation_rate: float
    mean_bid: float
    mean_realized_utility: float
    premium_award_count: int

    @property
    def n_agents(self) -> int:
        return int(self.total_value.size)

    @property
    def rounds(self) -> int:
        return int(self.won_by_round.shape[0])

    @property
    def won_premium(self) -> np.ndarray:
        """Whether each agent won the premium in at least one round."""
        return self.won_by_round.any(axis=0)

    @property
    def cumulative_utility_by_round(self) -> np.ndarray:
        """Running utility after each round: value to date minus the sunk bid."""
        return np.cumsum(self.value_by_round, axis=0) - self.bid_paid[None, :]


def _aggregate(
    config: AuctionConfig,
    mechanism: str,
    total: np.ndarray,
    lam: np.ndarray,
    premium: np.ndarray,
    deployment: np.ndarray,
    decision: DecisionArrays,
    won_by_round: np.ndarray,
    value_by_round: np.ndarray,
) -> AuctionReport:
    participates = decision.participates
    bid_paid = np.where(participates, decision.bid, 0.0)
    realized = value_by_round.sum(axis=0) - bid_paid
    any_participant = bool(participates.any())
    return AuctionReport(
        config=config,
        mechanism=mechanism,
        total_value=total,
        scaling_factor=lam,
        premium_value=premium,
        deployment_value=deployment,
        raw_bid=decision.raw_bid,
        bid=decision.bid,
        predicted_utility=decision.predicted_utility,
        participates=participates,
        accepted=participates,
        bid_paid=bid_paid,
        safety=decision.safety,
        won_by_round=won_by_round,
        value_by_round=value_by_round,
        realized_utility=realized,
        participation_rate=float(participates.mean()),
        mean_bid=float(decision.bid[participates].mean()) if any_participant else float("nan"),
        mean_realized_utility=float(realized.mean()),
        premium_award_count=int(won_by_round.sum()),
    )


# ---------------------------------------------------------------------------
# Engines


def _draw_population(config: AuctionConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = substream(config.seed, STREAM_VALUATIONS)
    return sample_valuations(config.family, rng, config.n_agents)


def run_reserve_threshold(config: AuctionConfig) -> AuctionReport:
    """Simulate reserve thresholding on a fresh population.

    Participants bid exactly the clearing price; acceptance grants the
    deployment value and nothing else. Uses the same valuation
    substream as the SIRA engine, so runs on an identical config share
    their population draw.
    """
    total, lam = _draw_population(config)
    return _reserve_from_population(config, total, lam)


def _reserve_from_population(
    config: AuctionConfig, total: np.ndarray, lam: np.ndarray
) -> AuctionReport:
    premium = lam * total
    deployment = total - premium
    decision = reserve_decision_arrays(deployment, config.p_eps, config.model)
    won_by_round = np.zeros((1, total.size), dtype=bool)
    value_by_round = np.where(decision.participates, deployment, 0.0)[None, :]
    return _aggregate(
        config, RESERVE_THRESHOLD, total, lam, premium, deployment, decision,
        won_by_round, value_by_round,
    )


def _sira_from_population(
    config: AuctionConfig, total: np.ndarray, lam: np.ndarray, rounds: int
) -> AuctionReport:
    n = total.size
    decision = sira_decision_arrays(total, lam, config.p_eps, config.family, config.model)
    # Every participant is accepted: the equilibrium bid never falls below
    # the clearing price, and the cap at 1 lies above it.
    accepted = decision.participates
    if np.any(accepted & (decision.bid < config.p_eps)):
        raise NumericalError("a participant's bid fell below the clearing price")
    premium = lam * total
    deployment = total - premium

    accepted_index = np.flatnonzero(accepted)
    accepted_bids = decision.bid[accepted_index]
    won_by_round = np.zeros((rounds, n), dtype=bool)
    value_by_round = np.zeros((rounds, n))
    deployed = np.zeros(n, dtype=bool)
    for r in range(rounds):
        opp_rng = substream(config.seed, STREAM_OPPONENTS, r)
        tie_rng = substream(config.seed, STREAM_TIES, r)
        if config.pairing is PairingMode.INDEPENDENT_OPPONENT:
            won_accepted = _award_round_independent(accepted_bids, opp_rng, tie_rng)
        else:
            won_accepted = _award_round_perfect(accepted_bids, opp_rng, tie_rng)
        won = np.zeros(n, dtype=bool)
        won[accepted_index] = won_accepted
        newly_deployed = accepted & ~deployed
        gain = np.where(newly_deployed, deployment, 0.0)
        gain = np.where(won, gain + premium, gain)
        deployed |= accepted
        won_by_round[r] = won
        value_by_round[r] = gain
    return _aggregate(
        config, SIRA, total, lam, premium, deployment, decision,
        won_by_round, value_by_round,
    )


def run_sira(config: AuctionConfig) -> AuctionReport:
    """Simulate one SIRA round on a fresh population.

    Always runs a single round; config.rounds only drives the repeated
    engine.
    """
    total, lam = _draw_population(config)
    return _sira_from_population(config, total, lam, rounds=1)


def run_repeated_sira(config: AuctionConfig) -> AuctionReport:
    """Simulate config.rounds SIRA rounds with bids held fixed.

    With rounds = 1 this reproduces run_sira bit for bit on the same
    seed: the population, pairing, and tie substreams coincide.
    """
    total, lam = _draw_population(config)
    return _sira_from_population(config, total, lam, rounds=config.rounds)
