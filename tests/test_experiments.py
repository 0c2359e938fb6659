"""Tests for the experiment drivers: deviation sweeps, threshold sweeps,
distribution validation, and the two cross-checks."""

import numpy as np
import pytest

from sira.errors import DomainError
from sira.experiments import (
    closed_form_vs_quadrature,
    deviation_sweep,
    equilibrium_crosscheck,
    threshold_sweep,
    validate_product_distribution,
)
from sira.strategy import equilibrium_utility, sira_bid
from sira.value_model import (
    AgentValuation,
    PremiumValueDistribution,
    ValueFamily,
)

PROBE = AgentValuation(total_value=0.75, scaling_factor=1.0 / 3.0)  # v_d=0.5, v_p=0.25
DELTAS = [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5]


# ---------------------------------------------------------------------------
# Deviation sweep


def test_deviation_grid_always_contains_zero():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, PROBE, [0.2, -0.2], n_opponents=500, seed=3
    )
    assert 0.0 in result.deltas
    assert result.deltas.size == 3
    assert np.all(np.diff(result.deltas) > 0)


def test_deviation_bids_scale_and_cap():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, PROBE, [-0.5, 0.9], n_opponents=500, seed=3
    )
    base = float(sira_bid(ValueFamily.UNIFORM, PROBE.premium_value, 0.5))
    expected = np.minimum((1.0 + result.deltas) * base, 1.0)
    np.testing.assert_allclose(result.bids, expected, atol=1e-15)


def test_deviation_zero_matches_predicted_utility():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, PROBE, DELTAS, n_opponents=30_000, seed=9
    )
    i0 = int(np.flatnonzero(result.deltas == 0.0)[0])
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    bid = float(sira_bid(ValueFamily.UNIFORM, PROBE.premium_value, 0.5))
    predicted = equilibrium_utility(
        PROBE.deployment_value, PROBE.premium_value, bid, dist.cdf_scalar
    )
    assert abs(result.mean_utility[i0] - predicted) <= 3.0 * result.std_error[i0]


def test_deviation_equilibrium_is_grid_optimum():
    for family in ValueFamily:
        result = deviation_sweep(family, 0.5, PROBE, DELTAS, n_opponents=30_000, seed=9)
        i0 = int(np.flatnonzero(result.deltas == 0.0)[0])
        assert result.optimum_index == i0
        assert result.gap_vs_optimum[i0] == 0.0
        other = result.deltas != 0.0
        assert np.all(result.gap_vs_optimum[other] > 0.0)
        # Every deviation is rejected at three paired standard errors.
        assert np.all(
            result.gap_vs_optimum[other] >= 3.0 * result.gap_std_error[other]
        )


def test_deviation_sub_threshold_bid_loses_stake_exactly():
    # Cutting the bid in half lands below the clearing price, so every
    # draw realizes exactly -bid: no variance, no acceptance.
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, PROBE, [-0.5], n_opponents=2000, seed=5
    )
    i = int(np.flatnonzero(result.deltas == -0.5)[0])
    assert result.bids[i] < 0.5
    assert result.mean_utility[i] == -result.bids[i]
    assert result.std_error[i] == 0.0


def test_deviation_sweep_deterministic():
    a = deviation_sweep(ValueFamily.BETA22, 0.5, PROBE, DELTAS, 4000, seed=12)
    b = deviation_sweep(ValueFamily.BETA22, 0.5, PROBE, DELTAS, 4000, seed=12)
    np.testing.assert_array_equal(a.mean_utility, b.mean_utility)
    np.testing.assert_array_equal(a.gap_std_error, b.gap_std_error)


def test_deviation_sweep_rejects_bad_deltas():
    with pytest.raises(DomainError):
        deviation_sweep(ValueFamily.UNIFORM, 0.5, PROBE, [1.5], 100, seed=1)
    with pytest.raises(DomainError):
        deviation_sweep(ValueFamily.UNIFORM, 0.5, PROBE, [-1.1], 100, seed=1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            deviation_sweep(ValueFamily.UNIFORM, 0.5, PROBE, [bad, 0.1], 100, seed=1)


def test_deviation_sweep_empty_grid_collapses_to_equilibrium():
    result = deviation_sweep(ValueFamily.UNIFORM, 0.5, PROBE, [], 100, seed=1)
    np.testing.assert_array_equal(result.deltas, [0.0])


# ---------------------------------------------------------------------------
# Threshold sweep


def test_threshold_sweep_uplift_and_superset():
    grid = [0.3, 0.5, 0.7]
    result = threshold_sweep(ValueFamily.UNIFORM, grid, n_agents=20_000, seed=6)
    np.testing.assert_allclose(result.p_eps, grid)
    # Participation uplift is non-negative pointwise (superset property)
    # and decisively positive at the middle of the grid.
    assert np.all(result.participation_uplift >= 0.0)
    i_mid = 1
    assert (
        result.participation_uplift[i_mid]
        >= 3.0 * result.participation_uplift_se[i_mid]
    )
    assert result.sira_mean_bid[i_mid] - 0.5 >= 3.0 * result.sira_mean_bid_se[i_mid]
    # Reserve bidders pay exactly the clearing price.
    np.testing.assert_allclose(result.reserve_mean_bid, grid, atol=1e-12)


def test_threshold_sweep_workers_do_not_change_results():
    grid = [0.25, 0.5, 0.75]
    serial = threshold_sweep(ValueFamily.BETA22, grid, n_agents=5000, seed=7)
    threaded = threshold_sweep(ValueFamily.BETA22, grid, n_agents=5000, seed=7, workers=3)
    np.testing.assert_array_equal(serial.sira_participation, threaded.sira_participation)
    np.testing.assert_array_equal(serial.mean_bid_uplift, threaded.mean_bid_uplift)
    np.testing.assert_array_equal(
        serial.participation_uplift_se, threaded.participation_uplift_se
    )


def test_threshold_sweep_rejects_bad_grid():
    with pytest.raises(DomainError):
        threshold_sweep(ValueFamily.UNIFORM, [], n_agents=100, seed=1)
    with pytest.raises(DomainError):
        threshold_sweep(ValueFamily.UNIFORM, [0.0, 0.5], n_agents=100, seed=1)


# ---------------------------------------------------------------------------
# Distribution validation


@pytest.mark.parametrize("family", list(ValueFamily))
def test_validate_product_distribution_matches_closed_form(family):
    result = validate_product_distribution(
        family, 0.5, n_samples=200_000, bins=20, seed=31
    )
    assert result.cdf_sup_error < 0.01
    assert result.pdf_sup_error < 0.1
    assert result.ks_distance < 0.01
    assert result.table.centers.size == 20
    assert result.analytic_cdf.size == 20
    assert result.analytic_cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_validate_product_distribution_deterministic():
    a = validate_product_distribution(ValueFamily.UNIFORM, 0.25, 50_000, 20, seed=8)
    b = validate_product_distribution(ValueFamily.UNIFORM, 0.25, 50_000, 20, seed=8)
    assert a.pdf_sup_error == b.pdf_sup_error
    assert a.cdf_sup_error == b.cdf_sup_error
    np.testing.assert_array_equal(a.table.density, b.table.density)


def test_validate_product_distribution_rejects_tiny_sample():
    with pytest.raises(DomainError):
        validate_product_distribution(ValueFamily.UNIFORM, 0.5, 1, 20, seed=1)


# ---------------------------------------------------------------------------
# Bid cross-check


@pytest.mark.parametrize("family", list(ValueFamily))
def test_closed_form_vs_quadrature_small_grid(family):
    v_grid = np.linspace(0.0, 0.5, 50)
    result = closed_form_vs_quadrature(family, v_grid, [0.25, 0.75])
    assert result.max_abs_diff < 1e-8
    assert result.closed_form.shape == (2, 50)
    np.testing.assert_allclose(
        result.quadrature, result.closed_form, atol=1e-8
    )


def test_closed_form_vs_quadrature_rejects_bad_grids():
    with pytest.raises(DomainError):
        closed_form_vs_quadrature(ValueFamily.UNIFORM, [0.6], [0.5])
    with pytest.raises(DomainError):
        closed_form_vs_quadrature(ValueFamily.UNIFORM, [], [0.5])


# ---------------------------------------------------------------------------
# Realized-utility cross-check


@pytest.mark.parametrize("family", list(ValueFamily))
def test_equilibrium_crosscheck_agrees_with_theory(family):
    result = equilibrium_crosscheck(
        family, 0.5, bucket_center=0.3, bucket_halfwidth=0.02,
        n_pairings=200_000, seed=11,
    )
    assert abs(result.z_score) <= 3.0
    assert result.gap_se > 0.0
    assert result.n_pairings == 200_000


def test_equilibrium_crosscheck_deterministic():
    a = equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.3, 0.02, 50_000, seed=11)
    b = equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.3, 0.02, 50_000, seed=11)
    assert a.gap == b.gap
    assert a.gap_se == b.gap_se


def test_equilibrium_crosscheck_rejects_bad_bucket():
    with pytest.raises(DomainError):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.6, 0.02, 1000, seed=1)
    with pytest.raises(DomainError):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.01, 0.05, 1000, seed=1)
