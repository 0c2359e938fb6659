"""Tests for equilibrium bidding, bid capping, and participation decisions."""

import math

import numpy as np
import pytest

from sira.errors import DomainError
from sira.seeding import substream
from sira.strategy import (
    BidDecision,
    cap_bid,
    decide,
    equilibrium_utility,
    predicted_utilities,
    reserve_decision_arrays,
    reserve_threshold_bid,
    sira_bid,
    sira_bid_generic,
    sira_decision_arrays,
    submitted_bid,
)
from sira.value_model import (
    AgentValuation,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    sample_valuations,
)

P_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]
UNIFORM = ValueFamily.UNIFORM
BETA22 = ValueFamily.BETA22


# ---------------------------------------------------------------------------
# Equilibrium bids


def test_uniform_bid_low_branch_frozen():
    # b*(0.2; 0.5) = 0.5 + 0.04 ln(0.5) / (0.5 - 1) = 0.5 + 0.08 ln 2.
    expected = 0.5 + 0.08 * math.log(2.0)
    assert sira_bid(UNIFORM, 0.2, 0.5) == pytest.approx(expected, abs=1e-15)
    assert sira_bid(UNIFORM, 0.2, 0.5) == pytest.approx(0.5554518, abs=1e-7)


def test_uniform_bid_high_branch_frozen():
    # b*(0.4; 0.5) from the upper branch of the closed form.
    expected = 0.5 + (8.0 * 0.16 * (math.log(0.8) - 0.5) + 0.25) / (8.0 * (0.5 - 1.0))
    assert sira_bid(UNIFORM, 0.4, 0.5) == pytest.approx(expected, abs=1e-15)
    assert sira_bid(UNIFORM, 0.4, 0.5) == pytest.approx(0.668906, abs=1e-6)


def test_uniform_bid_branches_agree_at_breakpoint():
    expected = 0.5 + 0.125 * math.log(2.0)
    assert sira_bid(UNIFORM, 0.25, 0.5) == pytest.approx(expected, abs=1e-15)


def test_beta_bid_frozen_values():
    assert sira_bid(BETA22, 0.2, 0.5) == pytest.approx(0.56, abs=1e-15)
    assert sira_bid(BETA22, 0.4, 0.5) == pytest.approx(0.665075, abs=1e-12)


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", P_GRID)
def test_bid_at_zero_premium_is_clearing_price(family, p_eps):
    assert sira_bid(family, 0.0, p_eps) == pytest.approx(p_eps, abs=1e-15)


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", P_GRID)
def test_bid_monotone_and_above_clearing_price(family, p_eps):
    grid = np.linspace(0.0, 0.5, 1001)
    bids = sira_bid(family, grid, p_eps)
    assert np.all(np.diff(bids) >= -1e-14)
    assert np.all(bids[1:] > p_eps)


@pytest.mark.parametrize("family", list(ValueFamily))
def test_bid_continuous_at_breakpoint(family):
    p_eps = 0.6
    bp = p_eps / 2.0
    left = float(sira_bid(family, bp - 1e-10, p_eps))
    right = float(sira_bid(family, bp + 1e-10, p_eps))
    assert abs(left - right) < 1e-8


def test_bid_rejects_out_of_range_inputs():
    with pytest.raises(DomainError):
        sira_bid(UNIFORM, 0.6, 0.5)
    with pytest.raises(DomainError):
        sira_bid(UNIFORM, -0.01, 0.5)
    with pytest.raises(DomainError):
        sira_bid(UNIFORM, 0.2, 1e-9)
    with pytest.raises(DomainError):
        sira_bid(BETA22, 0.2, 1.0)


# ---------------------------------------------------------------------------
# Generic (quadrature) bid


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", [0.25, 0.75])
def test_generic_bid_quadrature_route_matches_closed_form(family, p_eps):
    dist = PremiumValueDistribution(family, p_eps)
    for v_p in (0.05, p_eps / 2.0, 0.3, 0.49):
        got = sira_bid_generic(dist.cdf_scalar, v_p, p_eps)
        want = float(sira_bid(family, v_p, p_eps))
        assert got == pytest.approx(want, abs=1e-9), (family, p_eps, v_p)


def test_generic_bid_zero_premium_skips_integration():
    def explode(_y):
        raise AssertionError("cdf should not be evaluated for v_p = 0")

    assert sira_bid_generic(explode, 0.0, 0.3) == 0.3


# ---------------------------------------------------------------------------
# Capping and utility


def test_cap_bid():
    assert cap_bid(0.56) == 0.56
    assert cap_bid(1.2) == 1.0
    np.testing.assert_array_equal(cap_bid(np.array([0.3, 1.5])), [0.3, 1.0])
    with pytest.raises(DomainError):
        cap_bid(-0.1)


def test_equilibrium_utility_frozen_example():
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    bid = sira_bid(UNIFORM, 0.2, 0.5)
    got = equilibrium_utility(0.2, 0.2, bid, dist.cdf_scalar)
    expected = -0.3 + 0.08 * math.log(2.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(-0.244548, abs=1e-6)


def test_equilibrium_utility_capped_bid_ignores_cdf():
    # A capped bid wins with certainty, so the distribution function is
    # never consulted (passing None proves it is not called).
    assert equilibrium_utility(0.6, 0.4, 1.0, None) == pytest.approx(0.0, abs=1e-15)
    assert equilibrium_utility(0.9, 0.3, 1.0, None) == pytest.approx(0.2, abs=1e-15)


def test_predicted_utilities_match_scalar_view_on_both_branches():
    family, p = ValueFamily.UNIFORM, 0.9
    total, lam = sample_valuations(family, substream(31, 0), 2000)
    v_p = lam * total
    v_d = total - v_p
    bid = submitted_bid(family, v_p, p)
    assert np.any(bid >= 1.0) and np.any(bid < 1.0)
    dist = PremiumValueDistribution(family, p)
    got = predicted_utilities(v_d, v_p, bid, dist.cdf(v_p))
    expected = [
        equilibrium_utility(d, v, b, dist.cdf)
        for d, v, b in zip(v_d.tolist(), v_p.tolist(), bid.tolist())
    ]
    np.testing.assert_array_equal(got, expected)


def test_equilibrium_utility_rejects_negative_bid():
    with pytest.raises(DomainError):
        equilibrium_utility(0.5, 0.2, -0.2, lambda y: y)


# ---------------------------------------------------------------------------
# Reserve-threshold decisions


def test_reserve_decision_participant():
    d = reserve_threshold_bid(0.7, 0.5)
    assert d.bid == 0.5
    assert d.predicted_utility == pytest.approx(0.2, abs=1e-15)
    assert d.participates is True
    assert d.safety == 0.5


def test_reserve_decision_boundary_is_strict():
    d = reserve_threshold_bid(0.5, 0.5)
    assert d.predicted_utility == 0.0
    assert d.participates is False
    assert d.safety == 0.0


def test_reserve_decision_nonparticipant():
    d = reserve_threshold_bid(0.3, 0.5)
    assert d.predicted_utility == pytest.approx(-0.2, abs=1e-15)
    assert d.participates is False


def test_reserve_decision_nonidentity_cost():
    d = reserve_threshold_bid(0.7, 0.5, model=SafetyCostModel(gamma=2.0))
    assert d.bid == 0.5
    assert d.safety == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_reserve_arrays_match_scalar_view():
    model = SafetyCostModel(gamma=2.0)
    v_d = np.array([0.0, 0.3, 0.5, 0.7, 1.0])
    arrays = reserve_decision_arrays(v_d, 0.5, model)
    for i, v in enumerate(v_d.tolist()):
        scalar = reserve_threshold_bid(v, 0.5, model)
        assert scalar == BidDecision(*(column[i].item() for column in arrays))


def test_reserve_decision_rejects_bad_inputs():
    with pytest.raises(DomainError):
        reserve_threshold_bid(1.2, 0.5)
    with pytest.raises(DomainError):
        reserve_threshold_bid(0.5, 0.0)


# ---------------------------------------------------------------------------
# Full SIRA decisions


def test_decide_frozen_example():
    valuation = AgentValuation(total_value=0.8, scaling_factor=0.25)
    d = decide(valuation, 0.5, ValueFamily.UNIFORM)
    assert isinstance(d, BidDecision)
    assert d.raw_bid == pytest.approx(0.5 + 0.08 * math.log(2.0), abs=1e-15)
    assert d.bid == d.raw_bid
    assert d.predicted_utility == pytest.approx(0.1 + 0.08 * math.log(2.0), abs=1e-15)
    assert d.participates is True
    assert d.safety == d.bid


def test_decide_nonparticipant_has_zero_safety():
    valuation = AgentValuation(total_value=0.2, scaling_factor=0.1)
    d = decide(valuation, 0.75, ValueFamily.UNIFORM)
    assert d.predicted_utility < 0.0
    assert d.participates is False
    assert d.safety == 0.0


def test_decide_caps_bid_and_switches_utility_branch():
    # Force a capped bid with an extreme clearing price and a rich agent.
    valuation = AgentValuation(total_value=1.0, scaling_factor=0.5)
    d = decide(valuation, 0.999, ValueFamily.UNIFORM)
    assert d.raw_bid > 1.0
    assert d.bid == 1.0
    assert d.predicted_utility == pytest.approx(
        valuation.deployment_value + valuation.premium_value - 1.0, abs=1e-15
    )


def test_decision_arrays_match_scalar_decisions():
    rng = substream(77, 0)
    totals, lams = sample_valuations(ValueFamily.BETA22, rng, 200)
    model = SafetyCostModel(gamma=2.0)
    arrays = sira_decision_arrays(totals, lams, 0.4, ValueFamily.BETA22, model)
    for i in range(totals.size):
        valuation = AgentValuation(float(totals[i]), float(lams[i]))
        d = decide(valuation, 0.4, ValueFamily.BETA22, model=model)
        assert d.raw_bid == arrays.raw_bid[i]
        assert d.bid == arrays.bid[i]
        assert d.predicted_utility == arrays.predicted_utility[i]
        assert d.participates == bool(arrays.participates[i])
        assert d.safety == arrays.safety[i]


def test_safety_meets_floor_for_participants():
    rng = substream(78, 0)
    totals, lams = sample_valuations(ValueFamily.UNIFORM, rng, 5000)
    for gamma in (1.0, 2.0):
        model = SafetyCostModel(gamma=gamma)
        arrays = sira_decision_arrays(totals, lams, 0.5, ValueFamily.UNIFORM, model)
        floor = model.safety_from_bid(0.5)
        active = arrays.participates
        assert np.all(arrays.safety[active] >= floor - 1e-12)
        assert np.all(arrays.safety[~active] == 0.0)
