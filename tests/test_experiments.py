"""Tests for the experiment drivers: deviation sweeps, threshold sweeps,
distribution validation, and the two cross-checks."""

import dataclasses
import hashlib
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sira import experiments
from sira.errors import DomainError, NumericalError
from sira.experiments import (
    closed_form_vs_quadrature,
    deviation_sweep,
    equilibrium_crosscheck,
    threshold_sweep,
    validate_product_distribution,
)
from sira.mechanism import beats
from sira.seeding import STREAM_EXPERIMENT, substream
from sira.strategy import cap_bid, predicted_utilities, realized_utilities, sira_bid
from sira.value_model import (
    PremiumValueDistribution,
    ValueFamily,
    sample_scaling_factors,
    sample_total_values,
    sample_valuations,
)

PROBE = (0.5, 0.25)  # probe_v_d, probe_v_p
DELTAS = [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5]


# ---------------------------------------------------------------------------
# Deviation sweep


def test_deviation_grid_always_contains_zero():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, *PROBE, [0.2, -0.2], n_opponents=500, seed=3
    )
    assert 0.0 in result.deltas
    assert result.deltas.size == 3
    assert np.all(np.diff(result.deltas) > 0)


def test_deviation_bids_scale_and_cap():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, *PROBE, [-0.5, 0.9], n_opponents=500, seed=3
    )
    base = float(sira_bid(ValueFamily.UNIFORM, PROBE[1], 0.5))
    expected = np.minimum((1.0 + result.deltas) * base, 1.0)
    np.testing.assert_allclose(result.bids, expected, atol=1e-15)


def test_deviation_zero_matches_predicted_utility():
    result = deviation_sweep(
        ValueFamily.UNIFORM, 0.5, *PROBE, DELTAS, n_opponents=30_000, seed=9
    )
    i0 = int(np.flatnonzero(result.deltas == 0.0)[0])
    dist = PremiumValueDistribution(ValueFamily.UNIFORM, 0.5)
    v_d, v_p = PROBE
    bid = float(sira_bid(ValueFamily.UNIFORM, v_p, 0.5))
    predicted = float(predicted_utilities(v_d, v_p, bid, dist.cdf(v_p)))
    assert abs(result.mean_utility[i0] - predicted) <= 3.0 * result.std_error[i0]


def test_deviation_equilibrium_is_grid_optimum():
    for family in ValueFamily:
        result = deviation_sweep(family, 0.5, *PROBE, DELTAS, n_opponents=30_000, seed=9)
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
        ValueFamily.UNIFORM, 0.5, *PROBE, [-0.5], n_opponents=2000, seed=5
    )
    i = int(np.flatnonzero(result.deltas == -0.5)[0])
    assert result.bids[i] < 0.5
    assert result.mean_utility[i] == -result.bids[i]
    assert result.std_error[i] == 0.0


def test_deviation_sweep_deterministic():
    a = deviation_sweep(ValueFamily.BETA22, 0.5, *PROBE, DELTAS, 4000, seed=12)
    b = deviation_sweep(ValueFamily.BETA22, 0.5, *PROBE, DELTAS, 4000, seed=12)
    np.testing.assert_array_equal(a.mean_utility, b.mean_utility)
    np.testing.assert_array_equal(a.gap_std_error, b.gap_std_error)


def test_deviation_sweep_rejects_bad_deltas():
    with pytest.raises(DomainError):
        deviation_sweep(ValueFamily.UNIFORM, 0.5, *PROBE, [1.5], 100, seed=1)
    with pytest.raises(DomainError):
        deviation_sweep(ValueFamily.UNIFORM, 0.5, *PROBE, [-1.1], 100, seed=1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            deviation_sweep(ValueFamily.UNIFORM, 0.5, *PROBE, [bad, 0.1], 100, seed=1)


def test_deviation_sweep_empty_grid_collapses_to_equilibrium():
    result = deviation_sweep(ValueFamily.UNIFORM, 0.5, *PROBE, [], 100, seed=1)
    np.testing.assert_array_equal(result.deltas, [0.0])


def _materialised_deviation(family, p_eps, probe, deltas, n_opponents, seed):
    """Reference statistics from one realized utility per opponent and bid.

    The per-opponent path the counting kernel replaces: the same pool and
    coins, every utility array built, then the sample mean and SE. A
    constant sample is given its value and an SE of 0, which summation
    round-off can miss by ~1e-19.
    """
    key = (STREAM_EXPERIMENT, experiments._EXP_DEVIATION)
    opp_bids = experiments._equilibrium_bids(family, p_eps, n_opponents, substream(seed, *key, 0))
    coins = substream(seed, *key, 1).random(n_opponents) < 0.5
    grid = np.unique(np.append(np.asarray(deltas, dtype=float), 0.0))
    v_d, v_p = probe
    bids = cap_bid((1.0 + grid) * cap_bid(sira_bid(family, v_p, p_eps)))

    def utilities(bid):
        return realized_utilities(v_d, v_p, bid, bid >= p_eps, beats(bid, opp_bids, coins))

    def mean_se(x):
        if np.ptp(x) == 0.0:
            return x[0], 0.0
        return x.mean(), x.std(ddof=1) / np.sqrt(x.size)

    base = utilities(bids[grid == 0.0][0])
    rows = [(*mean_se(u), *mean_se(base - u)) for u in map(utilities, bids)]
    return bids, [np.array(column) for column in zip(*rows)]


CAPPED_PROBE = (0.5, 0.5)  # the top bid


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
@pytest.mark.parametrize("probe", [PROBE, CAPPED_PROBE], ids=["probe", "top"])
def test_deviation_counts_match_the_materialised_utilities(family, p_eps, probe):
    deltas = [-1.0, -0.5, -0.1, -1e-3, 1e-3, 0.1, 0.5, 1.0]
    result = deviation_sweep(family, p_eps, *probe, deltas, n_opponents=20_000, seed=4)
    bids, expected = _materialised_deviation(family, p_eps, probe, deltas, 20_000, seed=4)
    np.testing.assert_array_equal(result.bids, bids)
    for got, want in zip(
        (result.mean_utility, result.std_error, result.gap_vs_optimum, result.gap_std_error),
        expected,
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_deviation_ties_with_capped_opponents_come_from_coins():
    # At p 0.9 about a third of the pool bids the cap, so a capped probe
    # ties with them and wins only the coins it is dealt.
    result = deviation_sweep(ValueFamily.UNIFORM, 0.9, *CAPPED_PROBE, [1.0], 20_000, seed=4)
    assert np.all(result.bids == 1.0)
    pool = experiments._equilibrium_bids(
        ValueFamily.UNIFORM, 0.9, 20_000,
        substream(4, STREAM_EXPERIMENT, experiments._EXP_DEVIATION, 0),
    )
    capped = int(np.count_nonzero(pool == 1.0))
    assert 5_000 < capped < 15_000
    wins = (result.mean_utility[0] - (CAPPED_PROBE[0] - 1.0)) / 0.5 * 20_000
    assert 20_000 - capped < round(wins) < 20_000
    assert result.std_error[0] > 0.0


@pytest.mark.parametrize("family", list(ValueFamily))
def test_deviation_se_is_exactly_zero_when_all_or_no_opponents_are_beaten(family):
    # A zero premium bids exactly the price and beats nobody; the largest
    # premium at p 0.5 bids below the cap and beats everybody.
    nobody = (0.5, 0.0)
    for probe in (nobody, CAPPED_PROBE):
        result = deviation_sweep(family, 0.5, *probe, [], n_opponents=20_000, seed=4)
        assert result.bids[0] < 1.0
        assert result.std_error[0] == 0.0
        v_d, v_p = probe
        won_value = v_p if probe is CAPPED_PROBE else 0.0
        assert result.mean_utility[0] == v_d + won_value - result.bids[0]


# The first pair's difference rounds, so deviations taken from the value
# that does not occur would land an ulp off the one that does.
@pytest.mark.parametrize("values, counts", [
    ([0.0005495936876730595, 0.027559113243068367], [0, 7]),
    ([0.027559113243068367, 0.0005495936876730595, 0.2], [4, 0, 0]),
    ([-0.0, -0.0], [3, 4]),
])
def test_counted_statistics_of_one_distinct_value_are_exact(values, counts):
    value = values[int(np.argmax(counts))]
    mean, se = experiments._counted_mean_se(np.array(values), counts)
    assert mean == value and np.signbit(mean) == np.signbit(value)
    assert se == 0.0


def test_deviation_sweep_memory_does_not_grow_with_the_grid():
    def peak_bytes(n_deltas):
        deltas = np.linspace(-0.5, 0.5, n_deltas)
        tracemalloc.start()
        try:
            deviation_sweep(ValueFamily.UNIFORM, 0.5, *PROBE, deltas, n_opponents=200_000, seed=6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(31) <= 1.25 * peak_bytes(3)


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


def test_threshold_sweep_workers_do_not_change_results(monkeypatch):
    # Eight threads, more than the machine may have CPUs, switching as
    # often as the interpreter allows, all reading one shared draw.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    grid = np.linspace(0.25, 0.75, 17)
    serial = threshold_sweep(ValueFamily.BETA22, grid, n_agents=5000, seed=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = threshold_sweep(ValueFamily.BETA22, grid, n_agents=5000, seed=7, workers=8)
    finally:
        sys.setswitchinterval(interval)
    for field in dataclasses.fields(serial):
        np.testing.assert_array_equal(getattr(threaded, field.name),
                                      getattr(serial, field.name))
    np.testing.assert_array_equal(
        serial.mean_bid_uplift_se, np.hypot(serial.sira_mean_bid_se, serial.reserve_mean_bid_se)
    )


def test_threshold_sweep_takes_a_numpy_population_size():
    grid = [0.25, 0.5]
    plain = threshold_sweep(ValueFamily.UNIFORM, grid, n_agents=1000, seed=9)
    numpy_sized = threshold_sweep(ValueFamily.UNIFORM, grid, n_agents=np.int64(1000), seed=9)
    for field in dataclasses.fields(plain):
        np.testing.assert_array_equal(getattr(numpy_sized, field.name),
                                      getattr(plain, field.name))


def test_threshold_sweep_bounds_its_thread_pool(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", SerialPool)
    grid = [0.25, 0.5, 0.75]
    serial = threshold_sweep(ValueFamily.UNIFORM, grid, n_agents=2000, seed=8)

    def sweep_wide():
        wide = threshold_sweep(ValueFamily.UNIFORM, grid, n_agents=2000, seed=8,
                               workers=10**6)
        for field in dataclasses.fields(serial):
            np.testing.assert_array_equal(getattr(wide, field.name),
                                          getattr(serial, field.name))

    # The affinity mask bounds the pool, not the machine's CPU count.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for cpus in (2, 64):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sweep_wide()
    # Without an affinity call, os.cpu_count() bounds it.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep_wide()
    assert sizes == [1, 2, 3, 2]


@pytest.mark.parametrize("family", list(ValueFamily))
def test_reserve_participation_never_rises_with_the_clearing_price(family):
    # Every price is evaluated on one population, so an agent that clears
    # a price clears every lower one, even on a grid finer than the
    # sampling error.
    grid = np.linspace(0.3, 0.31, 11)
    result = threshold_sweep(family, grid, n_agents=2000, seed=3)
    assert np.all(np.diff(result.reserve_participation) <= 0.0)


@pytest.mark.parametrize("points", [1, 17])
def test_threshold_sweep_draws_its_population_once(monkeypatch, points):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_valuations(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_valuations", counting)
    threshold_sweep(ValueFamily.BETA22, np.linspace(0.1, 0.9, points), n_agents=500, seed=4,
                    workers=2)
    assert len(calls) == 1


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
    assert result.centers.size == 20
    assert result.analytic_cdf.size == 20
    assert result.analytic_cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_validate_product_distribution_deterministic():
    a = validate_product_distribution(ValueFamily.UNIFORM, 0.25, 50_000, 20, seed=8)
    b = validate_product_distribution(ValueFamily.UNIFORM, 0.25, 50_000, 20, seed=8)
    assert a.pdf_sup_error == b.pdf_sup_error
    assert a.cdf_sup_error == b.cdf_sup_error
    np.testing.assert_array_equal(a.density, b.density)


def test_validate_product_distribution_rejects_tiny_sample():
    with pytest.raises(DomainError):
        validate_product_distribution(ValueFamily.UNIFORM, 0.5, 1, 20, seed=1)


def test_validation_density_integrates_to_one():
    result = validate_product_distribution(ValueFamily.UNIFORM, 0.3, 50_000, 40, seed=21)
    width = np.diff(result.bin_edges)
    assert float(np.sum(result.density * width)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(result.cumulative) >= 0.0)
    assert result.cumulative[-1] == 1.0


@pytest.mark.parametrize("bins", [5, 9, 0, 10.5, True])
def test_bad_bins_raise_before_any_draw(monkeypatch, bins):
    def fail(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "sample_valuations", fail)
    with pytest.raises(DomainError, match="bins must be an integer >= 10"):
        validate_product_distribution(ValueFamily.BETA22, 0.5, 1_000_000, bins, seed=1)


# ---------------------------------------------------------------------------
# Sample sizes

UNIFORM = ValueFamily.UNIFORM
# Each library sample size or bin count: a call with that argument set to
# n, returning one statistic of the result.
_COUNTS = {
    "n_opponents": lambda n: deviation_sweep(
        UNIFORM, 0.5, *PROBE, DELTAS, n, seed=1
    ).mean_utility,
    "n_samples": lambda n: validate_product_distribution(
        UNIFORM, 0.5, n, 20, seed=1
    ).ks_distance,
    "bins": lambda n: validate_product_distribution(
        UNIFORM, 0.5, 2000, n, seed=1
    ).analytic_cdf,
    "n_pairings": lambda n: equilibrium_crosscheck(UNIFORM, 0.5, 0.3, 0.02, n, seed=1).gap,
    "n_agents": lambda n: threshold_sweep(UNIFORM, [0.3, 0.6], n, seed=1).sira_mean_bid,
    "workers": lambda n: threshold_sweep(
        UNIFORM, [0.3, 0.6], 200, seed=1, workers=n
    ).sira_mean_bid,
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
@pytest.mark.parametrize("n", [np.int64(200), np.int32(200), np.uint16(200)])
def test_sample_sizes_take_numpy_integers(name, n):
    np.testing.assert_array_equal(_COUNTS[name](n), _COUNTS[name](200))


@pytest.mark.parametrize("name", sorted(_COUNTS))
@pytest.mark.parametrize("n", [200.0, 2.5, np.float64(200.0), True])
def test_sample_sizes_must_be_integers(name, n):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        _COUNTS[name](n)


@pytest.mark.parametrize("argument, match", [
    ({"n_agents": 1}, "n_agents must be an integer >= 2"),
    ({"workers": 0}, "workers must be an integer >= 1"),
    ({"gamma": 0.0}, "gamma must be a positive real"),
    ({"family": "uniform"}, "family must be a ValueFamily"),
], ids=["n_agents", "workers", "gamma", "family"])
def test_bad_threshold_sweep_arguments_are_domain_errors(monkeypatch, argument, match):
    # DomainError, like every other experiment argument, raised before
    # the population is drawn.
    def fail(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "sample_valuations", fail)
    sweep = {"family": UNIFORM, "p_eps_grid": [0.3, 0.6], "n_agents": 200, "seed": 1}
    with pytest.raises(DomainError, match=match):
        threshold_sweep(**{**sweep, **argument})


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


# sha256 of repr((mean_realized, mean_predicted, gap, gap_se)) for a
# bucket straddling the breakpoint p_eps / 2 = 0.25.
CROSSCHECK_DIGESTS = {
    ValueFamily.UNIFORM: "709174c3b988d6304e92c5b8fcedd9c24d8601ce4ec689e8e130dbaeac9c0a19",
    ValueFamily.BETA22: "d88ad737c5be566084545a9e8bd07efa88ee1dc0aab4eac191d9c6486ba78947",
}


@pytest.mark.parametrize("family", list(ValueFamily))
def test_equilibrium_crosscheck_statistics_are_pinned(family):
    r = equilibrium_crosscheck(family, 0.5, 0.25, 0.02, 20_000, seed=26)
    stats = repr((r.mean_realized, r.mean_predicted, r.gap, r.gap_se))
    assert hashlib.sha256(stats.encode()).hexdigest() == CROSSCHECK_DIGESTS[family]


def _ks_critical(n, m=None):
    """Kolmogorov-Smirnov distance exceeded with probability ~1e-3 under the null."""
    return 1.95 * np.sqrt(1.0 / n + (1.0 / m if m else 0.0))


def _rejection_reference(family, p_eps, lo, hi, size, rng):
    """Bucket agents by rejection from the whole participant population."""
    totals = []
    while sum(t.size for t in totals) < size:
        t = sample_total_values(family, rng, 200_000, lower=p_eps)
        y = sample_scaling_factors(rng, t.size) * t
        totals.append(t[(y >= lo) & (y <= hi)])
    return np.concatenate(totals)[:size]


BUCKET_CASES = [(0.5, 0.23, 0.27), (0.2, 0.19, 0.21), (0.9, 0.0, 0.1), (0.3, 0.45, 0.5)]


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps, lo, hi", BUCKET_CASES)
def test_bucket_premiums_follow_the_conditional_premium_law(family, p_eps, lo, hi):
    dist = PremiumValueDistribution(family, p_eps)
    rng = np.random.default_rng(5)
    totals, premiums = experiments._bucket_agents(dist, lo, hi, 20_000, rng)
    assert totals.size == premiums.size == 20_000
    assert np.all((premiums >= lo) & (premiums <= hi) & (premiums <= 0.5 * totals))
    ordered = np.sort(premiums)
    law = (dist.cdf(ordered) - dist.cdf(lo)) / (dist.cdf(hi) - dist.cdf(lo))
    steps = np.arange(1, ordered.size + 1) / ordered.size
    ks = max(np.max(steps - law), np.max(law - (steps - 1.0 / ordered.size)))
    assert ks < _ks_critical(ordered.size)


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps, lo, hi", BUCKET_CASES)
def test_bucket_totals_match_rejection_from_the_population(family, p_eps, lo, hi):
    dist = PremiumValueDistribution(family, p_eps)
    totals = experiments._bucket_agents(dist, lo, hi, 20_000, np.random.default_rng(6))[0]
    reference = np.sort(_rejection_reference(family, p_eps, lo, hi, 20_000,
                                             np.random.default_rng(7)))
    totals = np.sort(totals)
    points = np.concatenate([totals, reference])
    ks = np.max(np.abs(np.searchsorted(totals, points, side="right")
                       - np.searchsorted(reference, points, side="right"))) / 20_000
    assert ks < _ks_critical(20_000, 20_000)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(list(ValueFamily)),
    p_eps=st.sampled_from([1e-6, 1.0 - 1e-6]),
    halfwidth=st.integers(1, 256).map(lambda i: i / 1024),
    touches_half=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_buckets_touching_0_and_one_half_stay_in_range(
    family, p_eps, halfwidth, touches_half, seed
):
    center = 0.5 - halfwidth if touches_half else halfwidth
    lo, hi = center - halfwidth, center + halfwidth
    assert lo == 0.0 or hi == 0.5
    dist = PremiumValueDistribution(family, p_eps)
    totals, premiums = experiments._bucket_agents(
        dist, lo, hi, 500, np.random.default_rng(seed)
    )
    assert np.all((premiums >= 0.0) & (premiums <= 0.5) & (premiums <= 0.5 * totals))
    assert np.all((totals >= p_eps) & (totals <= 1.0))
    # The whole run feeds these premiums to dist.cdf, whose domain check
    # would raise DomainError on a premium outside [0, 1/2].
    result = equilibrium_crosscheck(family, p_eps, center, halfwidth, 500, seed=seed)
    assert np.isfinite([result.mean_realized, result.mean_predicted, result.gap]).all()


# Bids that reach the cap tie with capped opponents, and the contest
# settles those ties by coin, while predicted_utilities scores a capped
# bid as a sure win; so the check fails wherever bids hit the cap.
@pytest.mark.xfail(
    strict=True,
    reason="predicted utility of a capped bid ignores coin ties at the cap (ROADMAP item 3)",
)
@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps, center, halfwidth", [(0.95, 0.45, 0.02), (1.0 - 1e-6, 0.2, 0.01)])
def test_equilibrium_crosscheck_agrees_where_bids_hit_the_cap(family, p_eps, center, halfwidth):
    result = equilibrium_crosscheck(family, p_eps, center, halfwidth, 20_000, seed=3)
    assert abs(result.z_score) <= 3.0


def test_equilibrium_crosscheck_rejects_bad_bucket():
    with pytest.raises(DomainError):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.6, 0.02, 1000, seed=1)
    with pytest.raises(DomainError):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.01, 0.05, 1000, seed=1)
    with pytest.raises(DomainError, match="bucket_halfwidth must be positive"):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.2, 0.0, 1000, seed=1)


def test_equilibrium_crosscheck_rejects_a_bucket_without_mass():
    # A premium needs V >= 2 * premium, so at the top of [0, 1/2] a bucket
    # 1e-7 wide holds no Beta(2, 2) mass in double precision.
    halfwidth = 0.5e-7
    with pytest.raises(DomainError, match="bucket has no probability mass"):
        equilibrium_crosscheck(ValueFamily.BETA22, 0.5, 0.5 - halfwidth, halfwidth, 1000, seed=1)


def test_bucket_sampling_gives_up_when_no_draw_is_accepted(monkeypatch):
    # Totals of exactly 2 lo leave the premium [lo, min(hi, V/2)] no width, so
    # no draw is ever accepted; each of the 10,000 blocks holds one value.
    lo = 0.3 - 0.02
    monkeypatch.setattr(experiments, "sample_total_values", lambda *args: np.full(1, 2 * lo))
    with pytest.raises(NumericalError, match="bucket sampling failed to fill"):
        equilibrium_crosscheck(ValueFamily.UNIFORM, 0.5, 0.3, 0.02, 1000, seed=1)
