"""Tests for equilibrium bidding, bid capping, and participation decisions."""

import math

import numpy as np
import pytest

from sira.errors import DomainError, NumericalError
from sira.seeding import substream
from sira.strategy import (
    Decision,
    cap_bid,
    decide,
    predicted_utilities,
    reserve_decision_arrays,
    reserve_threshold_bid,
    sira_bid,
    sira_bid_generic,
    sira_decision_arrays,
)
from sira.experiments import closed_form_vs_quadrature
from sira.value_model import (
    PREMIUM_BRANCHES,
    PREMIUM_MAX,
    AgentValuation,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    beta22_cdf,
    beta22_ppf,
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


_NAN = float("nan")
_DIST = PremiumValueDistribution(UNIFORM, 0.5)
# Every range check reads "not all inside the range", so nan is rejected.
_NAN_INPUTS = {
    "sira_bid": lambda x: sira_bid(UNIFORM, x, 0.5),
    "sira_bid_generic": lambda x: sira_bid_generic(_DIST.cdf, x, 0.5),
    "pdf": _DIST.pdf,
    "cdf": _DIST.cdf,
    "cdf_integral": _DIST.cdf_integral,
    "cdf_and_integral": _DIST.cdf_and_integral,
    "beta22_cdf": beta22_cdf,
    "beta22_ppf": beta22_ppf,
    "cap_bid": cap_bid,
    "price_of_safety": SafetyCostModel().price_of_safety,
    "safety_from_bid": SafetyCostModel().safety_from_bid,
    "closed_form_vs_quadrature": lambda x: closed_form_vs_quadrature(
        UNIFORM, np.append(0.1, x), [0.5]
    ),
}


@pytest.mark.parametrize("name", sorted(_NAN_INPUTS))
@pytest.mark.parametrize("as_array", [False, True])
def test_range_checks_reject_nan(name, as_array):
    with pytest.raises(DomainError):
        _NAN_INPUTS[name](np.array([0.2, _NAN]) if as_array else _NAN)


@pytest.mark.parametrize("name", sorted(set(_NAN_INPUTS) - {"closed_form_vs_quadrature"}))
@pytest.mark.parametrize("x", [0.2, 0.25, 0.4])
def test_zero_d_array_gives_the_scalar_float(name, x):
    # One rule for every evaluator: an input with ndim 0 returns a float.
    got, want = _NAN_INPUTS[name](np.array(x)), _NAN_INPUTS[name](x)
    if name == "cdf_and_integral":
        assert len(got) == len(want) == 2
    else:
        got, want = (got,), (want,)
    for g, w in zip(got, want):
        assert type(g) is float and type(w) is float
        assert np.float64(g).view(np.int64) == np.float64(w).view(np.int64)


@pytest.mark.parametrize(
    "name", ["sira_bid", "pdf", "cdf", "cdf_integral", "cdf_and_integral"]
)
@pytest.mark.parametrize("premium", [-1e-300, np.nextafter(PREMIUM_MAX, 1.0), 0.75])
def test_premium_outside_its_range_is_a_domain_error(name, premium):
    with pytest.raises(DomainError):
        _NAN_INPUTS[name](premium)
    with pytest.raises(DomainError):
        _NAN_INPUTS[name](np.array([0.1, 0.4, premium]))


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("side", [0, 1])
def test_cdf_beyond_roundoff_is_a_numerical_error(monkeypatch, family, side):
    # One branch of the cdf returns 1 + 1e-9: the clamp must refuse it on
    # the standalone cdf and on the fused path the bid takes.
    branches = list(PREMIUM_BRANCHES[family]["cdf"])
    branches[side] = lambda y, p: np.full_like(y, 1.0 + 1e-9)
    monkeypatch.setitem(PREMIUM_BRANCHES[family], "cdf", tuple(branches))
    y = 0.1 if side == 0 else 0.4
    dist = PremiumValueDistribution(family, 0.5)
    for evaluate in (dist.cdf, dist.cdf_and_integral, lambda v: sira_bid(family, v, 0.5)):
        with pytest.raises(NumericalError, match="premium cdf rose above 1"):
            evaluate(y)
        with pytest.raises(NumericalError, match="premium cdf rose above 1"):
            evaluate(np.array([0.1, 0.4]))


# ---------------------------------------------------------------------------
# Generic (quadrature) bid


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", [0.25, 0.75])
def test_generic_bid_quadrature_route_matches_closed_form(family, p_eps):
    dist = PremiumValueDistribution(family, p_eps)
    for v_p in (0.05, p_eps / 2.0, 0.3, 0.49):
        got = sira_bid_generic(dist.cdf, v_p, p_eps)
        want = float(sira_bid(family, v_p, p_eps))
        assert got == pytest.approx(want, abs=1e-9), (family, p_eps, v_p)


def test_generic_bid_at_zero_premium_is_the_price():
    for family in ValueFamily:
        for p_eps in (1e-6, 0.3, 1.0 - 1e-6):
            cdf = PremiumValueDistribution(family, p_eps).cdf
            assert sira_bid_generic(cdf, 0.0, p_eps) == p_eps
            bids = sira_bid_generic(cdf, np.array([0.0, 0.2, 0.0]), p_eps)
            assert bids[0] == bids[2] == p_eps


def test_generic_bid_takes_an_array_and_a_scalar_returns_a_float():
    dist = PremiumValueDistribution(ValueFamily.BETA22, 0.4)
    v_p = np.linspace(0.0, PREMIUM_MAX, 11)
    bids = sira_bid_generic(dist.cdf, v_p, 0.4)
    assert bids.shape == v_p.shape
    for v, bid in zip(v_p.tolist(), bids.tolist()):
        one = sira_bid_generic(dist.cdf, v, 0.4)
        assert type(one) is float and one == bid


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
    got = float(predicted_utilities(0.2, 0.2, bid, dist.cdf(0.2)))
    expected = -0.3 + 0.08 * math.log(2.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(-0.244548, abs=1e-6)


def test_equilibrium_utility_capped_bid_ignores_cdf():
    # A capped bid wins with certainty, so the value of the distribution
    # function is never used (passing nan proves it).
    nan = float("nan")
    assert predicted_utilities(0.6, 0.4, 1.0, nan) == pytest.approx(0.0, abs=1e-15)
    assert predicted_utilities(0.9, 0.3, 1.0, nan) == pytest.approx(0.2, abs=1e-15)
    np.testing.assert_allclose(
        predicted_utilities(np.array([0.6, 0.5]), np.array([0.4, 0.2]), np.array([1.0, 0.3]),
                            np.array([nan, 0.5])),
        [0.0, 0.3], atol=1e-15,
    )


def test_predicted_utilities_match_scalar_view_on_both_branches():
    family, p = ValueFamily.UNIFORM, 0.9
    total, lam = sample_valuations(family, substream(31, 0), 2000)
    v_p = lam * total
    v_d = total - v_p
    bid = cap_bid(sira_bid(family, v_p, p))
    assert np.any(bid >= 1.0) and np.any(bid < 1.0)
    dist = PremiumValueDistribution(family, p)
    got = predicted_utilities(v_d, v_p, bid, dist.cdf(v_p))
    expected = [
        d + v - 1.0 if b >= 1.0 else d + v * dist.cdf(v) - b
        for d, v, b in zip(v_d.tolist(), v_p.tolist(), bid.tolist())
    ]
    np.testing.assert_array_equal(got, expected)


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
    assert arrays.raw_bid is arrays.bid  # the price is never capped: one array
    for i, v in enumerate(v_d.tolist()):
        scalar = reserve_threshold_bid(v, 0.5, model)
        assert scalar == Decision(*(column[i].item() for column in arrays))


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
    assert isinstance(d, Decision)
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
    premiums = lams * totals
    arrays = sira_decision_arrays(totals - premiums, premiums, 0.4, ValueFamily.BETA22, model)
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
    premiums = lams * totals
    for gamma in (1.0, 2.0):
        model = SafetyCostModel(gamma=gamma)
        arrays = sira_decision_arrays(totals - premiums, premiums, 0.5, ValueFamily.UNIFORM, model)
        floor = model.safety_from_bid(0.5)
        active = arrays.participates
        assert np.all(arrays.safety[active] >= floor - 1e-12)
        assert np.all(arrays.safety[~active] == 0.0)
