"""Tests for the auction engines: pairing, awards, reports, and invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sira.mechanism as mechanism
import sira.strategy as strategy
from sira.errors import ConfigError, NumericalError
from sira.experiments import equilibrium_crosscheck, threshold_sweep
from sira.mechanism import (
    RESERVE_THRESHOLD,
    SIRA,
    AuctionConfig,
    PairingMode,
    _draw_independent,
    _draw_perfect,
    _reserve_from_population,
    _sira_from_population,
    beats,
    run_reserve_threshold,
    run_sira,
)
from sira.seeding import substream
from sira.strategy import decide, realized_utilities
from sira.value_model import AgentValuation, PremiumValueDistribution, ValueFamily

# Brute-force Monte Carlo oracle for P((1 - lambda) V > 1/2), frozen from
# an independent 10^7-draw simulation; the uniform case also has the
# closed form 1 + ln(1/2) = 0.3068528...
RESERVE_PARTICIPATION_UNIFORM_HALF = 0.306785
RESERVE_PARTICIPATION_BETA_HALF = 0.250071


def _contest(draw, bids, opp_rng, tie_rng):
    """One engine round on bids: the drawn opponents and coins, then beats."""
    opponent, coin = draw(bids.size, opp_rng, tie_rng)
    return beats(bids, bids[opponent], coin)


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
    # A strict order decides the comparison whatever the coin says.
    for coin in (False, True):
        assert beats(0.7, 0.6, coin) and not beats(0.6, 0.7, coin)


def test_compare_pair_tie_uses_fair_coin():
    # With every bid equal, each comparison of the engine is a coin flip.
    bids = np.full(10_000, 0.5)
    won = _contest(_draw_independent, bids, substream(2, 0), substream(2, 1))
    assert 4800 < int(won.sum()) < 5200


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


def test_realize_utility_branches():
    # Not accepted: the sunk bid is lost outright.
    assert realized_utilities(0.6, 0.2, 0.4, False, False) == -0.4
    # Accepted, premium lost.
    assert realized_utilities(0.7, 0.1, 0.6, True, False) == pytest.approx(0.1, abs=1e-15)
    # Accepted, premium won.
    assert realized_utilities(0.7, 0.1, 0.6, True, True) == pytest.approx(0.2, abs=1e-15)


def test_realize_utility_rejected_zero_bid_is_negative_zero():
    # The sunk bid is negated, so a zero stake keeps its sign: CSV writes -0.
    assert math.copysign(1.0, realized_utilities(0.6, 0.2, 0.0, False, False)) == -1.0


def test_award_premiums_independent_crafted():
    bids = np.array([0.9, 0.1, 0.5, 0.5])
    ranks = np.array([1, 0, 3, 2])
    coins = np.array([False, True, True, False])
    won = beats(bids, bids[ranks], coins)
    # 0.9 beats 0.1; 0.1 loses to 0.9; the 0.5 tie is settled by coins.
    np.testing.assert_array_equal(won, [True, False, True, False])


def test_opponent_ranks_never_self_and_in_range():
    rng = substream(4, 0)
    for m in (2, 3, 5, 17):
        for _ in range(50):
            ranks, coins = _draw_independent(m, rng, rng)
            assert ranks.shape == (m,)
            assert np.all(ranks >= 0) and np.all(ranks < m)
            assert np.all(ranks != np.arange(m))
            assert coins.shape == (m,) and coins.dtype == bool


def test_opponent_ranks_cover_all_alternatives():
    rng = substream(5, 0)
    seen = set()
    for _ in range(400):
        ranks, _ = _draw_independent(3, rng, rng)
        seen.update((i, int(j)) for i, j in enumerate(ranks))
    assert seen == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}


@pytest.mark.parametrize("m", [2, 6, 7, 501])
def test_perfect_matching_winner_count(m):
    opp_rng = substream(6, 0)
    tie_rng = substream(6, 1)
    bids = substream(6, 2).random(m)  # distinct with probability 1
    won = _contest(_draw_perfect, bids, opp_rng, tie_rng)
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
    won = _contest(_draw_perfect, bids, substream(seed, 0), substream(seed, 1))
    extra = int(won.sum()) - m // 2
    assert extra in ((0, 1) if m % 2 else (0,))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_perfect_partners_face_each_other_with_opposite_coins(m, seed):
    opponent, coin = _draw_perfect(m, substream(seed, 0), substream(seed, 1))
    agents = np.arange(m)
    assert np.all(opponent != agents) and np.all((opponent >= 0) & (opponent < m))
    paired = opponent[opponent] == agents
    # Everyone is paired but the odd agent out, whose opponent has a partner.
    assert int((~paired).sum()) == m % 2
    np.testing.assert_array_equal(coin[paired], ~coin[opponent[paired]])


def test_perfect_odd_agent_out_never_faces_itself():
    rng = substream(8, 0)
    faced = set()
    for _ in range(300):
        opponent, _ = _draw_perfect(3, rng, rng)
        (leftover,) = np.flatnonzero(opponent[opponent] != np.arange(3))
        assert opponent[leftover] != leftover
        faced.add((int(leftover), int(opponent[leftover])))
    # Every agent is left out sometimes and then faces either other agent.
    assert faced == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}


# ---------------------------------------------------------------------------
# Configuration validation


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(n_agents=1)
    with pytest.raises(ConfigError):
        _config(p_eps=0.0)
    with pytest.raises(ConfigError):
        _config(p_eps=1.0)
    for gamma in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="gamma must be a positive real"):
            _config(gamma=gamma)
    with pytest.raises(ConfigError):
        _config(rounds=0)
    with pytest.raises(ConfigError):
        _config(seed=-1)
    with pytest.raises(ConfigError, match="family must be a ValueFamily"):
        _config(family="uniform")
    with pytest.raises(ConfigError, match="pairing must be a PairingMode"):
        _config(pairing="perfect")


@pytest.mark.parametrize("field, low", [("n_agents", 2), ("rounds", 1)])
def test_config_counts_take_numpy_integers_and_reject_bools(field, low):
    assert getattr(_config(**{field: np.int64(100)}), field) == 100
    assert getattr(_config(**{field: np.uint32(low)}), field) == low
    for flag in (True, False, np.True_):
        with pytest.raises(ConfigError, match=f"{field} must be an integer >= {low}"):
            _config(**{field: flag})
    with pytest.raises(ConfigError, match=f"{field} must be an integer >= {low}"):
        _config(**{field: float(low)})


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
    report = _sira_from_population(config, total, lam)
    np.testing.assert_array_equal(report.accepted, [True, False])
    assert report.premium_award_count == 0
    # lambda = 0 means the bid is exactly the clearing price.
    assert report.realized_utility[0] == pytest.approx(0.9 - 0.5, abs=1e-15)
    assert report.realized_utility[1] == 0.0


@pytest.mark.parametrize("pairing", list(PairingMode))
@pytest.mark.parametrize("total", [[0.9, 0.1, 0.2], [0.1, 0.2, 0.3]])
def test_round_with_fewer_than_two_participants_awards_nothing(pairing, total, monkeypatch):
    # No comparison is drawn at all: either drawer would fail here.
    def refuse(*args):
        raise AssertionError("a contest was drawn")

    monkeypatch.setattr(mechanism, "_draw_independent", refuse)
    monkeypatch.setattr(mechanism, "_draw_perfect", refuse)
    config = _config(n_agents=3, rounds=3, pairing=pairing)
    report = _sira_from_population(config, np.array(total), np.zeros(3))
    assert int(report.participates.sum()) == (total[0] > 0.5)
    assert report.won_by_round.shape == (3, 3)
    assert report.premium_award_count == 0


def test_participant_bid_below_the_price_is_a_numerical_error(monkeypatch):
    # The decision kernel itself refuses a participant bidding below the
    # price, so every path that reaches it does.
    real = strategy._block_bid

    def lowered(dist, v_p):
        raw, cdf = real(dist, v_p)
        return raw - 0.25, cdf

    monkeypatch.setattr(strategy, "_block_bid", lowered)
    config = _config(n_agents=100)
    with pytest.raises(NumericalError, match="below the clearing price"):
        run_sira(config)
    with pytest.raises(NumericalError, match="below the clearing price"):
        run_sira(dataclasses.replace(config, rounds=2))
    with pytest.raises(NumericalError, match="below the clearing price"):
        threshold_sweep(config.family, [config.p_eps], n_agents=100, seed=1)
    with pytest.raises(NumericalError, match="below the clearing price"):
        decide(AgentValuation(0.9, 0.2), config.p_eps, config.family)
    with pytest.raises(NumericalError, match="below the clearing price"):
        equilibrium_crosscheck(config.family, config.p_eps, 0.1, 0.02, 100, seed=1)


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
# Repeated rounds


@pytest.mark.parametrize("pairing", list(PairingMode))
@pytest.mark.parametrize("rounds", [1, 3, 5])
def test_run_sira_runs_the_rounds_its_config_asks_for(rounds, pairing):
    config = _config(n_agents=3000, pairing=pairing)
    once = run_sira(config)
    report = run_sira(dataclasses.replace(config, rounds=rounds))
    assert report.rounds == rounds
    np.testing.assert_array_equal(report.won_by_round[0], once.won_by_round[0])
    np.testing.assert_array_equal(report.bid, once.bid)


def test_repeated_deployment_granted_once():
    config = _config(n_agents=5000, rounds=3)
    report = run_sira(config)
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
    report = run_sira(config)
    rows = report.value_by_round
    assert rows.shape == (4, 2000)
    # Value is granted, never taken back, so running utility never decreases.
    assert np.all(rows >= 0.0)
    # Non-participants sink nothing and gain nothing.
    assert np.all(rows[:, ~report.participates] == 0.0)
    np.testing.assert_array_equal(rows.sum(axis=0) - report.bid_paid, report.realized_utility)


def test_repeated_rounds_use_distinct_pairing_streams():
    config = _config(n_agents=5000, rounds=2)
    report = run_sira(config)
    assert not np.array_equal(report.won_by_round[0], report.won_by_round[1])


# ---------------------------------------------------------------------------
# The equilibrium the engines assume against the contest they run
# (ROADMAP item 3). Each check asks for agreement within 3 standard errors
# among the participants of a 2e5-agent run at seed 5.


def _within_3_se(differences):
    mean = differences.mean()
    se = differences.std(ddof=1) / np.sqrt(differences.size)
    assert abs(mean) <= 3.0 * se, (mean, se)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="engine participants are not the V >= p_eps population F describes (ROADMAP item 3)",
)
@pytest.mark.parametrize("family, p_eps", [
    (ValueFamily.UNIFORM, 0.2),  # z -12
    (ValueFamily.UNIFORM, 0.8),  # z +70
    (ValueFamily.BETA22, 0.5),  # z +11
])
def test_participants_win_at_the_rate_their_bid_assumes(family, p_eps):
    report = run_sira(_config(n_agents=200_000, p_eps=p_eps, family=family, seed=5))
    idx = np.flatnonzero(report.participates)
    cdf = PremiumValueDistribution(family, p_eps).cdf(report.premium_value[idx])
    _within_3_se(report.won_premium[idx] - cdf)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="repeat awards the premium every round to a one-round bid (ROADMAP item 3)",
)
def test_repeated_participants_realize_their_predicted_utility():
    # z +307 at R = 3.
    report = run_sira(_config(n_agents=200_000, p_eps=0.3, seed=5, rounds=3))
    idx = np.flatnonzero(report.participates)
    _within_3_se(report.realized_utility[idx] - report.predicted_utility[idx])


# ---------------------------------------------------------------------------
# Derived report fields


def _reference_value_by_round(accepted, won_by_round, premium, deployment):
    """The engine's former round loop, kept as the reference for value_by_round.

    Deployment value is granted in the first round an agent is accepted,
    and the premium in every round it wins.
    """
    rounds, n = won_by_round.shape
    value_by_round = np.zeros((rounds, n))
    deployed = np.zeros(n, dtype=bool)
    for r in range(rounds):
        newly_deployed = accepted & ~deployed
        gain = np.where(newly_deployed, deployment, 0.0)
        gain = np.where(won_by_round[r], gain + premium, gain)
        deployed |= accepted
        value_by_round[r] = gain
    return value_by_round


def _assert_same_floats(actual, expected):
    """Equal shapes and equal float64 bit patterns."""
    actual, expected = np.asarray(actual), np.asarray(expected, dtype=float)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _assert_derived_fields_recount(report, model):
    total, lam = report.total_value, report.scaling_factor
    participates, bid, won_by_round = report.participates, report.bid, report.won_by_round
    n = total.size
    assert report.n_agents == n and report.rounds == won_by_round.shape[0]
    # A participant buys the safety its bid pays for; nobody else buys any.
    safety = np.zeros(n)
    safety[participates] = model.safety_from_bid(bid[participates])
    _assert_same_floats(report.safety, safety)
    premium = lam * total
    deployment = total - premium
    _assert_same_floats(report.premium_value, premium)
    _assert_same_floats(report.deployment_value, deployment)
    np.testing.assert_array_equal(report.accepted, participates)
    bid_paid = [b if p else 0.0 for b, p in zip(bid.tolist(), participates.tolist())]
    _assert_same_floats(report.bid_paid, bid_paid)
    # A win needs an accepted bid.
    assert not np.any(won_by_round & ~participates)
    np.testing.assert_array_equal(report.won_premium, [any(c) for c in won_by_round.T.tolist()])
    value_by_round = _reference_value_by_round(participates, won_by_round, premium, deployment)
    _assert_same_floats(report.value_by_round, value_by_round)
    realized = value_by_round.sum(axis=0) - np.array(bid_paid)
    _assert_same_floats(report.realized_utility, realized)

    count = int(np.count_nonzero(participates))
    assert report.participation_rate == count / n
    if count:
        assert report.mean_bid == pytest.approx(math.fsum(bid[participates]) / count, rel=1e-12)
    else:
        assert math.isnan(report.mean_bid)
    assert report.mean_realized_utility == pytest.approx(
        math.fsum(realized.tolist()) / n, rel=1e-12, abs=1e-15
    )
    assert report.premium_award_count == sum(map(sum, won_by_round.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(ValueFamily),
    pairing=st.sampled_from(PairingMode),
    rounds=st.integers(1, 4),
    gamma=st.floats(1e-3, 1e3),
    p_eps=st.floats(1e-6, 1.0 - 1e-6),
    n_agents=st.integers(2, 300),
    seed=st.integers(0, 2**64 - 1),
)
@example(family=ValueFamily.UNIFORM, pairing=PairingMode.PERFECT_MATCHING, rounds=3,
         gamma=1.0, p_eps=1e-6, n_agents=299, seed=1)
@example(family=ValueFamily.BETA22, pairing=PairingMode.INDEPENDENT_OPPONENT, rounds=4,
         gamma=1e3, p_eps=1.0 - 1e-6, n_agents=300, seed=2)
def test_report_fields_recount_from_draw_decisions_and_wins(
    family, pairing, rounds, gamma, p_eps, n_agents, seed
):
    config = AuctionConfig(n_agents=n_agents, p_eps=p_eps, family=family, seed=seed,
                           gamma=gamma, rounds=rounds, pairing=pairing)
    sira = run_sira(config)
    assert sira.mechanism == SIRA and sira.rounds == rounds
    _assert_derived_fields_recount(sira, config.model)

    reserve = run_reserve_threshold(config)
    assert reserve.mechanism == RESERVE_THRESHOLD
    assert reserve.won_by_round.shape == (1, n_agents) and not reserve.won_by_round.any()
    _assert_same_floats(
        reserve.value_by_round[0],
        np.where(reserve.participates, reserve.deployment_value, 0.0),
    )
    _assert_derived_fields_recount(reserve, config.model)
