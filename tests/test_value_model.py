"""Tests for value sampling, the safety cost model, and the premium-value
distribution branches."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sira.errors import DomainError, NumericalError
from sira.seeding import substream
from sira.value_model import (
    PREMIUM_BRANCHES,
    PREMIUM_MAX,
    AgentValuation,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    _clamped,
    beta22_cdf,
    beta22_ppf,
    sample_scaling_factors,
    sample_total_values,
    sample_valuations,
)

P_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]


class _QueuedRng:
    """Stand-in generator returning pre-seeded uniform blocks."""

    def __init__(self, *blocks):
        self._blocks = [np.asarray(b, dtype=float) for b in blocks]

    def random(self, size):
        block = self._blocks.pop(0)
        assert block.size == size
        return block.copy()


# ---------------------------------------------------------------------------
# Safety cost model


def test_cost_model_identity_gamma():
    model = SafetyCostModel()
    assert model.price_of_safety(0.3) == 0.3
    assert model.price_of_safety(0.25) == 0.25
    assert model.safety_from_bid(0.4) == 0.4


def test_cost_model_quadratic_gamma():
    model = SafetyCostModel(gamma=2.0)
    assert model.price_of_safety(0.5) == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(model.price_of_safety(np.array([0.1, 0.5])), [0.01, 0.25])
    assert model.safety_from_bid(0.25) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.7])
def test_cost_model_round_trip(gamma):
    model = SafetyCostModel(gamma=gamma)
    grid = np.linspace(0.01, 0.99, 25)
    back = model.safety_from_bid(model.price_of_safety(grid))
    np.testing.assert_allclose(back, grid, atol=1e-12)


def test_cost_model_rejects_bad_inputs():
    with pytest.raises(DomainError):
        SafetyCostModel(gamma=0.0)
    with pytest.raises(DomainError):
        SafetyCostModel(gamma=-1.0)
    model = SafetyCostModel()
    with pytest.raises(DomainError):
        model.price_of_safety(0.0)
    with pytest.raises(DomainError):
        model.price_of_safety(1.0)
    with pytest.raises(DomainError):
        model.safety_from_bid(1.2)


# ---------------------------------------------------------------------------
# Beta(2, 2) primitives


def test_beta22_pdf_cdf_known_points():
    # The density 6 x (1 - x) is 3/2 at the median.
    h = 1e-6
    assert (beta22_cdf(0.5 + h) - beta22_cdf(0.5 - h)) / (2 * h) == pytest.approx(1.5, abs=1e-9)
    assert beta22_cdf(0.5) == pytest.approx(0.5, abs=1e-15)
    assert beta22_cdf(0.0) == 0.0
    assert beta22_cdf(1.0) == 1.0


def test_beta22_ppf_median_and_endpoints():
    assert beta22_ppf(0.5) == 0.5
    assert beta22_ppf(0.0) == 0.0
    assert beta22_ppf(1.0) == 1.0


def test_beta22_ppf_inverts_cdf_to_tolerance():
    q = np.linspace(0.0, 1.0, 10_001)
    x = beta22_ppf(q)
    assert np.all((x >= 0.0) & (x <= 1.0))
    np.testing.assert_allclose(beta22_cdf(x), q, atol=1e-12)


def test_beta22_ppf_out_of_range_rejected():
    with pytest.raises(DomainError):
        beta22_ppf(-0.01)
    with pytest.raises(DomainError):
        beta22_ppf(1.01)


@pytest.mark.parametrize("x", [-0.5, -1e-300, np.nextafter(1.0, 2.0), 1.5])
def test_beta22_cdf_out_of_range_rejected(x):
    # Outside [0, 1] the polynomial is no distribution function: 1.5 gives 0.0.
    with pytest.raises(DomainError):
        beta22_cdf(x)
    with pytest.raises(DomainError):
        beta22_cdf(np.array([0.25, x]))


# ---------------------------------------------------------------------------
# Sampling


def test_sampling_worked_example():
    # One uniform 0.8 for V, one uniform 0.5 for lambda.
    rng = _QueuedRng([0.8], [0.5])
    totals, lams = sample_valuations(ValueFamily.UNIFORM, rng, 1)
    valuation = AgentValuation(total_value=float(totals[0]), scaling_factor=float(lams[0]))
    assert valuation.total_value == 0.8
    assert valuation.scaling_factor == 0.25
    assert valuation.premium_value == pytest.approx(0.2, abs=1e-15)
    assert valuation.deployment_value == pytest.approx(0.6, abs=1e-15)


def test_truncated_uniform_sampling_maps_linearly():
    rng = _QueuedRng([0.0, 0.8, 1.0])
    values = sample_total_values(ValueFamily.UNIFORM, rng, 3, lower=0.5)
    np.testing.assert_allclose(values, [0.5, 0.9, 1.0], atol=1e-15)


def test_truncated_beta_sampling_stays_in_range():
    rng = substream(7, 0)
    values = sample_total_values(ValueFamily.BETA22, rng, 50_000, lower=0.75)
    assert values.min() >= 0.75
    assert values.max() <= 1.0
    # Quantile check against the truncated distribution function.
    q_lo = float(beta22_cdf(0.75))
    trunc_cdf = (beta22_cdf(np.median(values)) - q_lo) / (1.0 - q_lo)
    assert trunc_cdf == pytest.approx(0.5, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(ValueFamily),
    lower=st.floats(0.0, 1.0 - 1e-6),
    seed=st.integers(0, 2**32 - 1),
)
@example(family=ValueFamily.BETA22, lower=1.0 - 1e-6, seed=1)
def test_truncated_draws_stay_on_their_support(family, lower, seed):
    values = sample_total_values(family, np.random.default_rng(seed), 2**17, lower=lower)
    assert values.min() >= lower
    assert values.max() <= 1.0


def test_scaling_factors_cover_half_interval():
    rng = substream(8, 0)
    lams = sample_scaling_factors(rng, 200_000)
    assert lams.min() >= 0.0
    assert lams.max() <= 0.5
    assert lams.mean() == pytest.approx(0.25, abs=0.002)


def test_sample_valuations_block_layout():
    # Totals are drawn as one block, then scaling factors as one block.
    rng_pair = substream(99, 0)
    totals, lams = sample_valuations(ValueFamily.UNIFORM, rng_pair, 1000)
    rng_manual = substream(99, 0)
    expected_totals = rng_manual.random(1000)
    expected_lams = 0.5 * rng_manual.random(1000)
    np.testing.assert_array_equal(totals, expected_totals)
    np.testing.assert_array_equal(lams, expected_lams)


def test_beta_sampling_matches_distribution():
    rng = substream(123, 0)
    draws = sample_total_values(ValueFamily.BETA22, rng, 200_000)
    order = np.sort(draws)
    grid_cdf = beta22_cdf(order)
    ranks = np.arange(1, order.size + 1) / order.size
    ks = np.max(np.abs(grid_cdf - ranks))
    assert ks < 0.01


def test_truncation_point_of_one_rejected():
    with pytest.raises(DomainError, match="lower truncation point"):
        sample_total_values(ValueFamily.UNIFORM, substream(1, 0), 10, lower=1.0)


def test_family_given_as_a_string_rejected():
    with pytest.raises(DomainError, match="unknown value family"):
        sample_total_values("uniform", substream(1, 0), 10)
    with pytest.raises(DomainError, match="unknown value family"):
        PremiumValueDistribution("beta22", 0.5)


def test_agent_valuation_validation_and_reconstruction():
    with pytest.raises(DomainError):
        AgentValuation(total_value=1.2, scaling_factor=0.1)
    with pytest.raises(DomainError):
        AgentValuation(total_value=0.5, scaling_factor=0.6)
    rng = substream(5, 0)
    totals, lams = sample_valuations(ValueFamily.UNIFORM, rng, 10_000)
    premium = lams * totals
    deployment = totals - premium
    # The split reconstructs the total within one ulp.
    recon = deployment + premium
    np.testing.assert_allclose(recon, totals, rtol=0.0, atol=np.spacing(1.0))


# ---------------------------------------------------------------------------
# Premium-value distribution: frozen values


def test_uniform_premium_pdf_frozen_values():
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    # Low branch at y = 0.1: 2 ln p / (p - 1) = 4 ln 2.
    assert dist.pdf(0.1) == pytest.approx(4.0 * math.log(2.0), abs=1e-15)
    assert dist.pdf(0.1) == pytest.approx(2.772589, abs=1e-6)
    # High branch at y = 0.3: 2 ln(2y) / (p - 1).
    expected_hi = 2.0 * math.log(0.6) / (0.5 - 1.0)
    assert dist.pdf(0.3) == pytest.approx(expected_hi, abs=1e-15)


def test_uniform_premium_cdf_frozen_values():
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    assert dist.cdf(0.1) == pytest.approx(0.4 * math.log(2.0), abs=1e-15)
    assert dist.cdf(0.1) == pytest.approx(0.277259, abs=1e-6)
    assert dist.cdf(0.2) == pytest.approx(0.8 * math.log(2.0), abs=1e-15)
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(0.5) == pytest.approx(1.0, abs=1e-15)


def test_uniform_premium_cdf_integral_frozen_values():
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    assert dist.cdf_integral(0.2) == pytest.approx(
        0.08 * math.log(2.0), abs=1e-15
    )
    assert dist.cdf_integral(0.2) == pytest.approx(0.055452, abs=1e-6)
    assert dist.cdf_integral(0.0) == 0.0


def test_beta_premium_frozen_values():
    dist = PremiumValueDistribution(ValueFamily.BETA22, 0.5)
    # Low branch pdf is constant 6(p-1)^2 / D with D = 1 - (3p^2 - 2p^3).
    assert dist.pdf(0.1) == pytest.approx(3.0, abs=1e-15)
    # High branch at y = 0.4: 6 (2y - 1)^2 / D.
    assert dist.pdf(0.4) == pytest.approx(0.48, abs=1e-15)
    assert dist.cdf(0.1) == pytest.approx(0.3, abs=1e-15)
    assert dist.cdf_integral(0.2) == pytest.approx(0.06, abs=1e-15)
    assert dist.cdf(0.5) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", P_GRID)
def test_premium_cdf_endpoints(family, p_eps):
    dist = PremiumValueDistribution(family, p_eps)
    assert dist.cdf(0.0) == 0.0
    assert abs(dist.cdf(PREMIUM_MAX) - 1.0) <= 1e-10


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", P_GRID)
def test_premium_branch_continuity(family, p_eps):
    # The two closed-form branches must agree at the breakpoint p/2 for
    # the density, the distribution function, and its running integral.
    branches = PREMIUM_BRANCHES[family]
    y = np.array([p_eps / 2.0])
    for kind in ("pdf", "cdf", "cdf_integral"):
        lo_fn, hi_fn = branches[kind]
        lo_val = float(lo_fn(y, p_eps)[0])
        hi_val = float(hi_fn(y, p_eps)[0])
        assert abs(lo_val - hi_val) < 1e-12, (kind, p_eps, lo_val, hi_val)


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", [0.25, 0.5, 0.75])
def test_premium_derivative_identities(family, p_eps):
    # d/dy cdf = pdf and d/dy cdf_integral = cdf by central differences,
    # evaluated away from the breakpoint where the kink sits.
    dist = PremiumValueDistribution(family, p_eps)
    h = 1e-5
    grid = np.linspace(2.0 * h, PREMIUM_MAX - 2.0 * h, 401)
    grid = grid[np.abs(grid - dist.breakpoint) > 1e-4]
    fd_pdf = (dist.cdf(grid + h) - dist.cdf(grid - h)) / (2.0 * h)
    np.testing.assert_allclose(fd_pdf, dist.pdf(grid), atol=1e-6)
    fd_cdf = (dist.cdf_integral(grid + h) - dist.cdf_integral(grid - h)) / (2.0 * h)
    np.testing.assert_allclose(fd_cdf, dist.cdf(grid), atol=1e-6)


@pytest.mark.parametrize("family", list(ValueFamily))
def test_premium_cdf_monotone_and_pdf_nonnegative(family):
    dist = PremiumValueDistribution(family, 0.35)
    grid = np.linspace(0.0, PREMIUM_MAX, 2001)
    cdf = dist.cdf(grid)
    assert np.all(np.diff(cdf) >= -1e-14)
    assert np.all(dist.pdf(grid) >= 0.0)
    integral = dist.cdf_integral(grid)
    assert np.all(np.diff(integral) >= -1e-15)


def test_premium_distribution_rejects_bad_inputs():
    with pytest.raises(DomainError):
        PremiumValueDistribution(ValueFamily.UNIFORM, 0.0)
    with pytest.raises(DomainError):
        PremiumValueDistribution(ValueFamily.UNIFORM, 1.0)
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    with pytest.raises(DomainError):
        dist.pdf(0.6)
    with pytest.raises(DomainError):
        dist.cdf(-0.1)


def test_cdf_scalar_matches_vector_path():
    # Bit for bit: cdf called on one float equals cdf on the whole array,
    # which the quadrature reference recursion in test_quadrature relies on.
    ys = np.linspace(0.0, PREMIUM_MAX, 2_001)
    for family in ValueFamily:
        for p_eps in (1e-6, 0.1, 0.4, 0.9, 0.999, 1.0 - 1e-6):
            dist = PremiumValueDistribution(family, p_eps)
            got = np.array([dist.cdf(y) for y in ys.tolist()])
            np.testing.assert_array_equal(got, dist.cdf(ys), err_msg=f"{family} {p_eps}")


_RANGES = {"pdf": (0.0, None), "cdf": (0.0, 1.0), "cdf_integral": (0.0, None)}


def _piecewise_reference(dist, y, kind):
    """One evaluator written with np.piecewise: a boolean gather and
    scatter per branch, then the same clamp."""
    scalar = np.ndim(y) == 0
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    fn_lo, fn_hi = PREMIUM_BRANCHES[dist.family][kind]
    p = dist.p_eps
    out = np.piecewise(
        arr, [arr <= dist.breakpoint], [lambda t: fn_lo(t, p), lambda t: fn_hi(t, p)]
    )
    out = _clamped(out, *_RANGES[kind], kind)
    return float(out[0]) if scalar else out


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(
        np.asarray(got, dtype=float).view(np.int64), np.asarray(want, dtype=float).view(np.int64)
    )


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(ValueFamily),
    p_eps=st.floats(1e-6, 1.0 - 1e-6),
    ys=st.lists(st.floats(0.0, PREMIUM_MAX), max_size=40),
)
@example(family=ValueFamily.UNIFORM, p_eps=1e-6, ys=[])
@example(family=ValueFamily.BETA22, p_eps=1.0 - 1e-6, ys=[0.25])
def test_split_evaluation_matches_piecewise_bit_for_bit(family, p_eps, ys):
    dist = PremiumValueDistribution(family, p_eps)
    cut = dist.breakpoint
    edges = [0.0, cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), PREMIUM_MAX]
    mixed = np.array(ys + edges)
    inputs = [
        mixed,
        mixed[mixed <= cut],  # all below
        mixed[mixed > cut],  # all above
        np.array([]),
        np.array(ys[0] if ys else cut),  # 0-d
        np.stack([mixed, mixed[::-1]]),  # 2-d
        *edges,  # scalars
    ]
    for y in inputs:
        for kind in _RANGES:
            _assert_same_bits(getattr(dist, kind)(y), _piecewise_reference(dist, y, kind))
        cdf, integral = dist.cdf_and_integral(y)
        _assert_same_bits(cdf, _piecewise_reference(dist, y, "cdf"))
        _assert_same_bits(integral, _piecewise_reference(dist, y, "cdf_integral"))


def _beta22_ppf_where_reference(q):
    """beta22_ppf with the lower-half quantile chosen by np.where."""
    upper = q > 0.5
    phi = (2.0 / 3.0) * np.arcsin(np.sqrt(np.where(upper, 1.0 - q, q)))
    h = np.sin(0.5 * phi) ** 2 + 0.5 * math.sqrt(3.0) * np.sin(phi)
    return np.where(upper, 1.0 - h, h)


@settings(max_examples=100, deadline=None)
@given(qs=st.lists(st.floats(0.0, 1.0), max_size=40))
def test_beta22_ppf_matches_where_form_bit_for_bit(qs):
    q = np.array(qs + [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0])
    _assert_same_bits(beta22_ppf(q), _beta22_ppf_where_reference(q))
    for x in q.tolist():
        _assert_same_bits(beta22_ppf(x), float(_beta22_ppf_where_reference(np.array(x))))


def test_premium_distribution_matches_simulated_products():
    # Kolmogorov-Smirnov distance between simulated lambda * V products
    # and the derived distribution function.
    for family in ValueFamily:
        dist = PremiumValueDistribution(family, 0.5)
        rng = substream(314, 0)
        totals = sample_total_values(family, rng, 200_000, lower=0.5)
        lams = sample_scaling_factors(rng, 200_000)
        products = np.sort(lams * totals)
        ranks = np.arange(1, products.size + 1) / products.size
        ks = np.max(np.abs(dist.cdf(products) - ranks))
        assert ks < 0.01, (family, ks)


def test_clamp_tolerates_roundoff_but_flags_real_violations():
    out = _clamped(np.array([-5e-15, 1.0 + 5e-15]), 0.0, 1.0, "probe")
    assert out[0] == 0.0
    assert out[1] == 1.0
    with pytest.raises(NumericalError):
        _clamped(np.array([-1e-12]), 0.0, 1.0, "probe")
