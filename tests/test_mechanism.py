"""Tests for the auction engines: pairing, awards, reports, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sira.mechanism as mechanism
from sira.errors import ConfigError, DomainError, NumericalError
from sira.mechanism import (
    RESERVE_THRESHOLD,
    SIRA,
    AuctionConfig,
    PairingMode,
    _award_round_perfect,
    _draw_opponent_ranks,
    _reserve_from_population,
    _sira_from_population,
    award_premiums_independent,
    beats,
    compare_pair,
    realize_utility,
    run_repeated_sira,
    run_reserve_threshold,
    run_sira,
)
from sira.seeding import substream
from sira.strategy import decide
from sira.value_model import AgentValuation, SafetyCostModel, ValueFamily

# Brute-force Monte Carlo oracle for P((1 - lambda) V > 1/2), frozen from
# an independent 10^7-draw simulation; the uniform case also has the
# closed form 1 + ln(1/2) = 0.3068528...
RESERVE_PARTICIPATION_UNIFORM_HALF = 0.306785
RESERVE_PARTICIPATION_BETA_HALF = 0.250071


def _config(**overrides):
    base = dict(
        n_agents=1000,
        p_eps=0.5,
        family=ValueFamily.UNIFORM,
        seed=42,
    )
    base.update(overrides)
    return AuctionConfig(**base)


# ---------------------------------------------------------------------------
# Pairwise comparison and utility primitives


def test_compare_pair_strict_order():
    rng = substream(1, 0)
    assert compare_pair(0.7, 0.6, rng) is True
    assert compare_pair(0.6, 0.7, rng) is False


def test_compare_pair_tie_uses_fair_coin():
    rng = substream(2, 0)
    wins = sum(compare_pair(0.5, 0.5, rng) for _ in range(10_000))
    assert 4800 < wins < 5200


def test_compare_pair_draws_a_coin_only_on_a_tie():
    rng, twin = substream(2, 1), substream(2, 1)
    assert compare_pair(0.7, 0.6, rng) is True
    assert compare_pair(0.5, 0.5, rng) == (twin.random() < 0.5)
    assert rng.random() == twin.random()


def test_beats_matches_a_plain_loop_on_forced_ties():
    rng = substream(7, 0)
    # Bids on a five-point grid force many exact ties.
    bids = rng.integers(0, 5, size=2000) / 4.0
    other = rng.integers(0, 5, size=2000) / 4.0
    coins = rng.random(2000) < 0.5
    expected = [
        coin if b == o else b > o
        for b, o, coin in zip(bids.tolist(), other.tolist(), coins.tolist())
    ]
    assert int((bids == other).sum()) > 300
    np.testing.assert_array_equal(beats(bids, other, coins), expected)


def test_compare_pair_rejects_negative_bids():
    rng = substream(3, 0)
    with pytest.raises(DomainError):
        compare_pair(-0.1, 0.5, rng)


def test_realize_utility_branches():
    # Not accepted: the sunk bid is lost outright.
    assert realize_utility(0.4, False, False, 0.6, 0.2) == -0.4
    # Accepted, premium lost.
    assert realize_utility(0.6, True, False, 0.7, 0.1) == pytest.approx(0.1, abs=1e-15)
    # Accepted, premium won.
    assert realize_utility(0.6, True, True, 0.7, 0.1) == pytest.approx(0.2, abs=1e-15)


def test_realize_utility_rejected_zero_bid_is_negative_zero():
    # The sunk bid is negated, so a zero stake keeps its sign: CSV writes -0.
    assert math.copysign(1.0, realize_utility(0.0, False, False, 0.6, 0.2)) == -1.0


def test_realize_utility_rejects_inconsistent_flags():
    with pytest.raises(DomainError):
        realize_utility(0.5, False, True, 0.6, 0.2)
    with pytest.raises(DomainError):
        realize_utility(1.5, True, False, 0.6, 0.2)


def test_award_premiums_independent_crafted():
    bids = np.array([0.9, 0.1, 0.5, 0.5])
    ranks = np.array([1, 0, 3, 2])
    coins = np.array([False, True, True, False])
    won = award_premiums_independent(bids, ranks, coins)
    # 0.9 beats 0.1; 0.1 loses to 0.9; the 0.5 tie is settled by coins.
    np.testing.assert_array_equal(won, [True, False, True, False])


def test_opponent_ranks_never_self_and_in_range():
    rng = substream(4, 0)
    for m in (2, 3, 5, 17):
        for _ in range(50):
            ranks = _draw_opponent_ranks(m, rng)
            assert ranks.shape == (m,)
            assert np.all(ranks >= 0) and np.all(ranks < m)
            assert np.all(ranks != np.arange(m))


def test_opponent_ranks_cover_all_alternatives():
    rng = substream(5, 0)
    seen = set()
    for _ in range(400):
        seen.update((i, int(j)) for i, j in enumerate(_draw_opponent_ranks(3, rng)))
    assert seen == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}


@pytest.mark.parametrize("m", [2, 6, 7, 501])
def test_perfect_matching_winner_count(m):
    opp_rng = substream(6, 0)
    tie_rng = substream(6, 1)
    bids = substream(6, 2).random(m)  # distinct with probability 1
    won = _award_round_perfect(bids, opp_rng, tie_rng)
    assert int(won.sum()) in (m // 2, m // 2 + 1)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=400),
    levels=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_perfect_matching_awards_one_per_pair_plus_leftover(m, levels, seed):
    # Few bid levels force ties, which the coins settle within each pair.
    bids = substream(seed, 2).integers(0, levels, size=m) / levels
    won = _award_round_perfect(bids, substream(seed, 0), substream(seed, 1))
    extra = int(won.sum()) - m // 2
    assert extra in ((0, 1) if m % 2 else (0,))


# ---------------------------------------------------------------------------
# Configuration validation


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(n_agents=1)
    with pytest.raises(ConfigError):
        _config(p_eps=0.0)
    with pytest.raises(ConfigError):
        _config(p_eps=1.0)
    with pytest.raises(ConfigError):
        _config(gamma=0.0)
    with pytest.raises(ConfigError):
        _config(rounds=0)
    with pytest.raises(ConfigError):
        _config(seed=-1)


def test_config_model_property():
    assert _config(gamma=2.0).model.gamma == 2.0


# ---------------------------------------------------------------------------
# Reserve-threshold engine


def test_reserve_fixed_valuation_oracle():
    # Four agents with lambda = 0 and deployment values 0.2/0.4/0.6/0.8
    # facing a clearing price of 0.5: the top two participate and earn
    # v_d - 0.5; the rest stay out at zero.
    config = _config(n_agents=4)
    total = np.array([0.2, 0.4, 0.6, 0.8])
    lam = np.zeros(4)
    report = _reserve_from_population(config, total, lam)
    np.testing.assert_array_equal(report.participates, [False, False, True, True])
    np.testing.assert_allclose(
        report.realized_utility, [0.0, 0.0, 0.1, 0.3], atol=1e-15
    )
    np.testing.assert_allclose(report.bid_paid, [0.0, 0.0, 0.5, 0.5], atol=0)
    assert report.participation_rate == 0.5
    assert report.mean_bid == 0.5
    assert report.premium_award_count == 0
    assert report.mechanism == RESERVE_THRESHOLD


def test_reserve_boundary_agent_stays_out():
    config = _config(n_agents=2)
    report = _reserve_from_population(config, np.array([0.5, 0.9]), np.zeros(2))
    assert not report.participates[0]
    assert report.participates[1]


def test_reserve_participation_matches_brute_force_oracle():
    report = run_reserve_threshold(_config(n_agents=100_000))
    assert report.participation_rate == pytest.approx(
        RESERVE_PARTICIPATION_UNIFORM_HALF, abs=0.01
    )
    # Closed-form cross-anchor for the uniform family.
    assert report.participation_rate == pytest.approx(1.0 + math.log(0.5), abs=0.005)


def test_reserve_participation_beta_family():
    report = run_reserve_threshold(
        _config(n_agents=100_000, family=ValueFamily.BETA22)
    )
    assert report.participation_rate == pytest.approx(
        RESERVE_PARTICIPATION_BETA_HALF, abs=0.01
    )


def test_reserve_mean_bid_nan_when_nobody_participates():
    config = _config(n_agents=3)
    report = _reserve_from_population(config, np.array([0.1, 0.2, 0.3]), np.zeros(3))
    assert math.isnan(report.mean_bid)
    assert report.participation_rate == 0.0


# ---------------------------------------------------------------------------
# SIRA engine invariants


def test_sira_agents_match_scalar_decisions():
    config = _config(n_agents=200, family=ValueFamily.BETA22, gamma=2.0)
    report = run_sira(config)
    for i in range(report.n_agents):
        valuation = AgentValuation(
            float(report.total_value[i]), float(report.scaling_factor[i])
        )
        d = decide(valuation, config.p_eps, config.family, model=config.model)
        assert report.raw_bid[i] == d.raw_bid
        assert report.bid[i] == d.bid
        assert report.predicted_utility[i] == d.predicted_utility
        assert bool(report.participates[i]) == d.participates
        assert report.safety[i] == d.safety


def test_sira_flag_implications_and_budget_identity():
    report = run_sira(_config(n_agents=20_000))
    won = report.won_premium
    assert np.all(~won | report.accepted)  # won implies accepted
    assert np.all(~report.accepted | report.participates)
    np.testing.assert_array_equal(
        report.bid_paid, np.where(report.participates, report.bid, 0.0)
    )
    # Gross value minus the sunk bid reproduces realized utility exactly.
    gross = report.value_by_round.sum(axis=0)
    np.testing.assert_array_equal(report.realized_utility, gross - report.bid_paid)


def test_sira_aggregates_recompute():
    report = run_sira(_config(n_agents=5000))
    assert report.participation_rate == report.participates.mean()
    assert report.mean_bid == report.bid[report.participates].mean()
    assert report.mean_realized_utility == report.realized_utility.mean()
    assert report.premium_award_count == int(report.won_by_round.sum())
    assert report.mechanism == SIRA


def test_same_seed_shares_population_across_mechanisms():
    config = _config(n_agents=10_000)
    reserve = run_reserve_threshold(config)
    sira = run_sira(config)
    np.testing.assert_array_equal(reserve.total_value, sira.total_value)
    np.testing.assert_array_equal(reserve.scaling_factor, sira.scaling_factor)


def test_sira_participants_superset_of_reserve():
    for family in ValueFamily:
        config = _config(n_agents=30_000, family=family)
        reserve = run_reserve_threshold(config)
        sira = run_sira(config)
        assert np.all(sira.participates[reserve.participates])
        assert sira.participation_rate > reserve.participation_rate
        assert sira.mean_bid > config.p_eps


def test_sira_determinism_and_seed_sensitivity():
    config = _config(n_agents=2000)
    a = run_sira(config)
    b = run_sira(config)
    np.testing.assert_array_equal(a.realized_utility, b.realized_utility)
    np.testing.assert_array_equal(a.won_by_round, b.won_by_round)
    c = run_sira(_config(n_agents=2000, seed=43))
    assert not np.array_equal(a.total_value, c.total_value)


def test_sira_single_accepted_agent_wins_nothing():
    config = _config(n_agents=2)
    total = np.array([0.9, 0.1])
    lam = np.zeros(2)
    report = _sira_from_population(config, total, lam, rounds=1)
    np.testing.assert_array_equal(report.accepted, [True, False])
    assert report.premium_award_count == 0
    # lambda = 0 means the bid is exactly the clearing price.
    assert report.realized_utility[0] == pytest.approx(0.9 - 0.5, abs=1e-15)
    assert report.realized_utility[1] == 0.0


def test_participant_bid_below_the_price_is_a_numerical_error(monkeypatch):
    real = mechanism.sira_decision_arrays

    def lowered(*args):
        decision = real(*args)
        return decision._replace(bid=decision.bid - 0.25)

    monkeypatch.setattr(mechanism, "sira_decision_arrays", lowered)
    with pytest.raises(NumericalError):
        run_sira(_config(n_agents=100))


def test_sira_perfect_matching_round_counts():
    config = _config(n_agents=2000, pairing=PairingMode.PERFECT_MATCHING)
    report = run_sira(config)
    m = int(report.accepted.sum())
    winners = int(report.won_by_round[0][report.accepted].sum())
    assert winners in (m // 2, m // 2 + 1)


def test_sira_safety_floor():
    for gamma in (1.0, 2.0):
        config = _config(n_agents=5000, gamma=gamma)
        report = run_sira(config)
        floor = config.model.safety_from_bid(config.p_eps)
        assert np.all(report.safety[report.accepted] >= floor - 1e-12)
        assert np.all(report.safety[~report.participates] == 0.0)


# ---------------------------------------------------------------------------
# Repeated auction


def test_repeated_single_round_reproduces_one_shot():
    config = _config(n_agents=3000, rounds=1)
    once = run_sira(config)
    repeated = run_repeated_sira(config)
    np.testing.assert_array_equal(once.realized_utility, repeated.realized_utility)
    np.testing.assert_array_equal(once.won_by_round, repeated.won_by_round)
    np.testing.assert_array_equal(once.value_by_round, repeated.value_by_round)


def test_repeated_deployment_granted_once():
    config = _config(n_agents=5000, rounds=3)
    report = run_repeated_sira(config)
    assert report.rounds == 3
    premium = report.premium_value
    # After round one an accepted agent's per-round gain is either the
    # premium (on a win) or nothing; the deployment value never recurs.
    for r in range(1, 3):
        row = report.value_by_round[r]
        won = report.won_by_round[r]
        np.testing.assert_array_equal(row[won], premium[won])
        assert np.all(row[~won] == 0.0)
    # Round one carries the deployment value for every accepted agent.
    first = report.value_by_round[0]
    won0 = report.won_by_round[0]
    acc = report.accepted
    deployment = report.deployment_value
    np.testing.assert_array_equal(first[acc & ~won0], deployment[acc & ~won0])
    np.testing.assert_array_equal(
        first[acc & won0], (deployment + premium)[acc & won0]
    )
    assert np.all(first[~acc] == 0.0)


def test_repeated_cumulative_utility_tracks_rounds():
    config = _config(n_agents=2000, rounds=4)
    report = run_repeated_sira(config)
    cum = report.cumulative_utility_by_round
    assert cum.shape == (4, 2000)
    np.testing.assert_array_equal(cum[-1], report.realized_utility)
    # Non-participants sink nothing and gain nothing.
    idle = ~report.participates
    assert np.all(cum[:, idle] == 0.0)
    # Running utility never decreases once the bid is sunk.
    assert np.all(np.diff(cum, axis=0) >= 0.0)


def test_repeated_rounds_use_distinct_pairing_streams():
    config = _config(n_agents=5000, rounds=2)
    report = run_repeated_sira(config)
    assert not np.array_equal(report.won_by_round[0], report.won_by_round[1])
