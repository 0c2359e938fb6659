"""Auction engines for the two regulatory mechanisms.

Both engines draw one population of agent valuations and evaluate the
corresponding strategy. Reserve thresholding grants deployment to every
participant at the clearing price and awards no premium. The SIRA
engine additionally runs the all-pay premium contest: accepted agents
are paired, the higher bid in a comparison wins the premium, ties fall
to a fair coin, and every submitted bid is sunk whether or not it wins.
A pairing mode only draws each participant's opponent and coin; every
round is then one beats comparison over all participants.
Every participant is accepted: the SIRA decision kernel raises
NumericalError if a participant's bid falls below the clearing price.

Payments are sunk once. In the repeated engine the bid is unchanged
across rounds and the regulator prices cumulative safety, so no
incremental payment is due after round one; deployment value is granted
in round 0 only, while the premium can be won in every round. Both
engines end with the per-round wins, from which AuctionReport derives
every value and utility column.

Randomness is split into named substreams of the config seed (see
seeding), so reports are reproducible and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .seeding import (
    STREAM_OPPONENTS,
    STREAM_TIES,
    STREAM_VALUATIONS,
    check_count,
    check_seed,
    substream,
)
from .strategy import check_p_eps, reserve_decision_arrays, sira_decision_arrays
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
        try:
            check_count("n_agents", self.n_agents, 2)
            check_count("rounds", self.rounds, 1, per=self.n_agents)
            check_p_eps(self.p_eps)
            SafetyCostModel(self.gamma)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.family, ValueFamily):
            raise ConfigError(f"family must be a ValueFamily, got {self.family!r}")
        check_seed(self.seed)
        if not isinstance(self.pairing, PairingMode):
            raise ConfigError(f"pairing must be a PairingMode, got {self.pairing!r}")

    @property
    def model(self) -> SafetyCostModel:
        return SafetyCostModel(gamma=self.gamma)


# ---------------------------------------------------------------------------
# The contest rule


def beats(bid, other, coins):
    """The contest rule: the higher bid wins the premium, a coin settles a tie.

    Elementwise over broadcast arrays; coins[i] decides comparison i
    only when its two bids are equal.
    """
    return np.where(bid == other, coins, bid > other)


def _skip_self(rank, agent):
    """Map a rank uniform over the m - 1 others to an opponent index other than agent."""
    return rank + (rank >= agent)


def _draw_independent(m: int, opp_rng: np.random.Generator, tie_rng: np.random.Generator):
    """Each of m agents faces one of the other m - 1, uniformly, with its own coin."""
    opponent = _skip_self(opp_rng.integers(0, m - 1, size=m), np.arange(m))
    return opponent, tie_rng.random(m) < 0.5


def _draw_perfect(m: int, opp_rng: np.random.Generator, tie_rng: np.random.Generator):
    """Disjoint random pairs; an odd agent out faces a drawn opponent.

    Partners face each other and hold opposite values of one coin, so a
    tied pair has exactly one winner.
    """
    perm = opp_rng.permutation(m)
    first, second = perm[0 : m - 1 : 2], perm[1::2]  # for odd m, both stop before perm[-1]
    coins = tie_rng.random(m // 2 + m % 2) < 0.5
    opponent = np.empty_like(perm)
    coin = np.empty(m, dtype=bool)
    opponent[first], opponent[second] = second, first
    coin[first], coin[second] = coins[: m // 2], ~coins[: m // 2]
    if m % 2 == 1:
        leftover = perm[-1]
        opponent[leftover] = _skip_self(opp_rng.integers(0, m - 1), leftover)
        coin[leftover] = coins[-1]
    return opponent, coin


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, eq=False)
class AuctionReport:
    """Struct-of-arrays record of a full run.

    Stores which engine ran (mechanism), what the run draws (total_value,
    scaling_factor), what the agents decide (the Decision columns)
    and what the contest awards (won_by_round, rounds x agents); every
    other column and aggregate is derived from these. The AuctionConfig
    stays with the caller; n_agents and rounds are read off the arrays.
    accepted is participates, as every participant's bid clears the
    price (the decision kernels guarantee it). value_by_round, the gross
    value granted per round, and realized_utility, its column sum minus
    bid_paid, are computed once, on first use.
    """

    mechanism: str
    total_value: np.ndarray
    scaling_factor: np.ndarray
    raw_bid: np.ndarray
    bid: np.ndarray
    predicted_utility: np.ndarray
    participates: np.ndarray
    safety: np.ndarray
    won_by_round: np.ndarray

    @property
    def n_agents(self) -> int:
        return int(self.total_value.size)

    @property
    def rounds(self) -> int:
        return int(self.won_by_round.shape[0])

    @property
    def premium_value(self) -> np.ndarray:
        return self.scaling_factor * self.total_value

    @property
    def deployment_value(self) -> np.ndarray:
        return self.total_value - self.premium_value

    @property
    def accepted(self) -> np.ndarray:
        return self.participates

    @property
    def bid_paid(self) -> np.ndarray:
        return np.where(self.participates, self.bid, 0.0)

    @property
    def won_premium(self) -> np.ndarray:
        """Whether each agent won the premium in at least one round."""
        return self.won_by_round.any(axis=0)

    @cached_property
    def value_by_round(self) -> np.ndarray:
        value = np.where(self.won_by_round, self.premium_value, 0.0)
        value[0] += np.where(self.participates, self.deployment_value, 0.0)
        return value

    @cached_property
    def realized_utility(self) -> np.ndarray:
        return self.value_by_round.sum(axis=0) - self.bid_paid

    @property
    def participation_rate(self) -> float:
        return float(self.participates.mean())

    @property
    def mean_bid(self) -> float:
        """Mean bid of the participants; nan when nobody participates."""
        return float(self.bid[self.participates].mean()) if self.participates.any() else np.nan

    @property
    def mean_realized_utility(self) -> float:
        return float(self.realized_utility.mean())

    @property
    def premium_award_count(self) -> int:
        return int(self.won_by_round.sum())


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
    decision = reserve_decision_arrays(total - lam * total, config.p_eps, config.model)
    no_wins = np.zeros((1, total.size), dtype=bool)
    return AuctionReport(RESERVE_THRESHOLD, total, lam, *decision, no_wins)


def _sira_from_population(
    config: AuctionConfig, total: np.ndarray, lam: np.ndarray, rounds: int
) -> AuctionReport:
    v_p = lam * total
    decision = sira_decision_arrays(total - v_p, v_p, config.p_eps, config.family, config.model)
    accepted_index = np.flatnonzero(decision.participates)
    accepted_bids = decision.bid[accepted_index]
    m = accepted_index.size
    draw = _draw_perfect if config.pairing is PairingMode.PERFECT_MATCHING else _draw_independent
    won_by_round = np.zeros((rounds, total.size), dtype=bool)
    if m >= 2:  # with fewer than two participants nobody is compared
        for r in range(rounds):
            opp_rng = substream(config.seed, STREAM_OPPONENTS, r)
            opponent, coin = draw(m, opp_rng, substream(config.seed, STREAM_TIES, r))
            won_by_round[r, accepted_index] = beats(accepted_bids, accepted_bids[opponent], coin)
    return AuctionReport(SIRA, total, lam, *decision, won_by_round)


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
