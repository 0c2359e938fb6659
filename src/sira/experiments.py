"""Experiment harness: deviation tests, threshold sweeps, validation.

Every experiment derives its randomness from named substreams of one
root seed and reports uncertainty alongside point estimates. Where two
quantities are compared (deviated against undeviated bids, SIRA against
reserve thresholding), the comparison uses common random numbers and
the standard error of the paired difference, which is the quantity a
significance check actually needs.

A result holds what its run computed and the grid it was computed on;
the arguments (family, clearing price, sample sizes, seed) stay with
the caller. EquilibriumCrosscheck is the exception: it has no CLI
config echo, so it keeps its inputs beside its statistics.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .mechanism import AuctionConfig, _draw_population, _reserve_from_population, beats
from .seeding import STREAM_EXPERIMENT, child_seed, is_integer, substream
from .strategy import (
    cap_bid,
    check_p_eps,
    predicted_utilities,
    realized_utilities,
    sira_bid,
    sira_bid_generic,
    sira_decision_arrays,
    submitted_bid,
)
from .value_model import (
    PREMIUM_MAX,
    AgentValuation,
    PremiumValueDistribution,
    ValueFamily,
    sample_scaling_factors,
    sample_total_values,
    sample_valuations,
)

_EXP_DEVIATION = 0
_EXP_SWEEP = 1
_EXP_VALIDATE = 2
_EXP_EQ_CHECK = 3


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; nan where the sample is too small."""
    if values.size < 2:
        return (float(values[0]) if values.size else float("nan")), float("nan")
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _equilibrium_bids(
    family: ValueFamily, p_eps: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw participants' valuations and return their equilibrium bids.

    Totals are conditioned on [p_eps, 1]: only agents whose value
    clears the threshold ever enter a comparison, and the premium-value
    distribution is defined over exactly this population.
    """
    totals = sample_total_values(family, rng, size, lower=p_eps)
    lams = sample_scaling_factors(rng, size)
    return submitted_bid(family, lams * totals, p_eps)


# ---------------------------------------------------------------------------
# Nash deviation sweep


@dataclass(frozen=True, eq=False)
class DeviationSweepResult:
    """Mean realized utility of a probe agent across bid deviations.

    gap_vs_optimum[i] is the paired-sample mean of u(0) - u(delta_i)
    with its own standard error; the undeviated entry sits at
    optimum_index and has gap exactly 0.
    """

    deltas: np.ndarray
    bids: np.ndarray
    mean_utility: np.ndarray
    std_error: np.ndarray
    gap_vs_optimum: np.ndarray
    gap_std_error: np.ndarray

    @property
    def optimum_index(self) -> int:
        return int(np.flatnonzero(self.deltas == 0.0)[0])


def deviation_sweep(
    family: ValueFamily,
    p_eps: float,
    probe: AgentValuation,
    deltas,
    n_opponents: int,
    seed: int,
) -> DeviationSweepResult:
    """Measure the cost of deviating from the equilibrium bid.

    A probe agent scales its equilibrium bid by (1 + delta) and faces
    n_opponents equilibrium bidders drawn once and reused across the
    whole grid (common random numbers). Deviated bids below the
    clearing price are rejected outright, so their utility is the sunk
    bid with zero variance. The grid is sorted, deduplicated, and
    always includes delta = 0.
    """
    check_p_eps(p_eps)
    if not is_integer(n_opponents) or n_opponents < 2:
        raise DomainError(f"n_opponents must be an integer >= 2, got {n_opponents!r}")
    grid = np.unique(np.append(np.asarray(deltas, dtype=float), 0.0))
    if not np.all((grid >= -1.0) & (grid <= 1.0)):
        raise DomainError("deviation fractions must be finite and lie in [-1, 1]")

    pool_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 0)
    opp_bids = _equilibrium_bids(family, p_eps, n_opponents, pool_rng)
    tie_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 1)
    coins = tie_rng.random(n_opponents) < 0.5

    v_p = probe.premium_value
    v_d = probe.deployment_value
    bids = cap_bid((1.0 + grid) * submitted_bid(family, v_p, p_eps))

    def utilities(bid: float) -> np.ndarray:
        won = beats(bid, opp_bids, coins)
        return realized_utilities(v_d, v_p, bid, bid >= p_eps, won)

    zero = int(np.flatnonzero(grid == 0.0)[0])
    base = utilities(bids[zero])
    rows = []
    for i, bid in enumerate(bids):
        u = base if i == zero else utilities(bid)
        rows.append((*_mean_se(u), *_mean_se(base - u)))
    mean, se, gap, gap_se = (np.array(column) for column in zip(*rows))
    # A rejected bid realizes -bid on every draw; pin the degenerate
    # statistics so summation order cannot smear them.
    sub = bids < p_eps
    mean[sub] = -bids[sub]
    se[sub] = 0.0
    return DeviationSweepResult(grid, bids, mean, se, gap, gap_se)


# ---------------------------------------------------------------------------
# Mechanism comparison across clearing prices


@dataclass(frozen=True, eq=False)
class ThresholdSweepResult:
    """Participation and bid size for both mechanisms on a p_eps grid.

    Each grid point runs both engines on the same population draw, so
    participation_uplift is a paired per-agent difference (SIRA
    participation implies reserve participation never exceeds it). The
    mean-bid uplift compares means over two different participant sets,
    so it is derived from the per-mechanism columns: their difference,
    with the two standard errors added in quadrature.
    """

    p_eps: np.ndarray
    reserve_participation: np.ndarray
    reserve_participation_se: np.ndarray
    reserve_mean_bid: np.ndarray
    reserve_mean_bid_se: np.ndarray
    sira_participation: np.ndarray
    sira_participation_se: np.ndarray
    sira_mean_bid: np.ndarray
    sira_mean_bid_se: np.ndarray
    participation_uplift: np.ndarray
    participation_uplift_se: np.ndarray

    @property
    def mean_bid_uplift(self) -> np.ndarray:
        return self.sira_mean_bid - self.reserve_mean_bid

    @property
    def mean_bid_uplift_se(self) -> np.ndarray:
        return np.hypot(self.sira_mean_bid_se, self.reserve_mean_bid_se)


def _mechanism_stats(participates: np.ndarray, bid: np.ndarray) -> tuple[float, ...]:
    """Participation rate and mean participant bid, each with its standard error."""
    return (*_mean_se(participates), *_mean_se(bid[np.flatnonzero(participates)]))


def _sweep_point(
    family: ValueFamily, p_eps: float, n_agents: int, point_seed: int, gamma: float
) -> tuple[float, ...]:
    """One grid point's summary row, in ThresholdSweepResult field order.

    The population is drawn once and fed to the reserve engine and the
    SIRA decision kernel; the summary needs no premium contest.
    """
    config = AuctionConfig(
        n_agents=n_agents, p_eps=p_eps, family=family, seed=point_seed, gamma=gamma
    )
    total, lam = _draw_population(config)
    reserve = _reserve_from_population(config, total, lam)
    sira = sira_decision_arrays(total, lam, p_eps, family, config.model)
    res_stats = _mechanism_stats(reserve.participates, reserve.bid)
    sira_stats = _mechanism_stats(sira.participates, sira.bid)
    paired = sira.participates.astype(float) - reserve.participates.astype(float)
    return (*res_stats, *sira_stats, *_mean_se(paired))


def threshold_sweep(
    family: ValueFamily,
    p_eps_grid,
    n_agents: int,
    seed: int,
    gamma: float = 1.0,
    workers: int = 1,
) -> ThresholdSweepResult:
    """Compare the two mechanisms across a grid of clearing prices.

    Grid points are independent (per-point seeds derived from the grid
    index), so they may be evaluated by a thread pool of
    ``min(workers, grid points, CPUs)`` threads; results are assembled in
    grid order and do not depend on the worker count.
    """
    grid = np.asarray(p_eps_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("p_eps_grid must be a non-empty one-dimensional grid")
    for p in grid:
        check_p_eps(p)
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")

    point_seeds = [child_seed(seed, STREAM_EXPERIMENT, _EXP_SWEEP, i) for i in range(grid.size)]

    def evaluate(i: int) -> tuple[float, ...]:
        return _sweep_point(family, float(grid[i]), n_agents, point_seeds[i], gamma)

    # pool.map submits every point at once, so bound the threads it starts.
    workers = min(workers, grid.size, os.cpu_count() or 1)
    if workers == 1:
        rows = [evaluate(i) for i in range(grid.size)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, range(grid.size)))
    columns = (np.array(column) for column in zip(*rows))
    return ThresholdSweepResult(grid, *columns)


# ---------------------------------------------------------------------------
# Distribution validation


@dataclass(frozen=True, eq=False)
class DistributionValidation:
    """Histogram of the drawn premium values against the closed forms.

    The draw is binned in equal-width bins over [0, 1/2]: density is the
    count per sample and unit width, and cumulative, the empirical cdf at
    the right bin edges, ends at exactly 1.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray
    analytic_density: np.ndarray
    analytic_cdf: np.ndarray
    pdf_sup_error: float
    cdf_sup_error: float
    ks_distance: float

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def right_edges(self) -> np.ndarray:
        return self.bin_edges[1:]


def validate_product_distribution(
    family: ValueFamily,
    p_eps: float,
    n_samples: int,
    bins: int,
    seed: int,
) -> DistributionValidation:
    """Monte Carlo check of the derived premium-value distribution.

    Checks n_samples and bins, then draws scaling factors against totals
    conditioned on [p_eps, 1], bins the products, and reports sup errors of the histogram density
    (at bin centers) and empirical cdf (at right edges) against the
    closed forms, plus the exact Kolmogorov-Smirnov distance. The
    density comparison skips the bins adjacent to the breakpoint
    p_eps / 2, where a histogram is biased by the kink; the cdf
    comparison uses every bin.
    """
    check_p_eps(p_eps)
    for name, value, low in (("n_samples", n_samples, 2), ("bins", bins, 10)):
        if not is_integer(value) or value < low:
            raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    rng = substream(seed, STREAM_EXPERIMENT, _EXP_VALIDATE, 0)
    totals, lams = sample_valuations(family, rng, n_samples, lower=p_eps)
    products = lams * totals

    counts, edges = np.histogram(products, bins=bins, range=(0.0, PREMIUM_MAX))
    width = PREMIUM_MAX / bins
    density = counts / (n_samples * width)
    cumulative = np.cumsum(counts) / n_samples
    centers = 0.5 * (edges[:-1] + edges[1:])
    dist = PremiumValueDistribution(family=family, p_eps=p_eps)
    analytic_density = dist.pdf(centers)
    analytic_cdf = dist.cdf(edges[1:])
    interior = np.abs(centers - dist.breakpoint) > width
    pdf_sup = float(np.max(np.abs(density - analytic_density)[interior]))
    cdf_sup = float(np.max(np.abs(cumulative - analytic_cdf)))

    ordered = np.sort(products)
    cdf_at_points = dist.cdf(ordered)
    steps = np.arange(1, n_samples + 1) / n_samples
    ks = float(
        max(
            np.max(np.abs(cdf_at_points - steps)),
            np.max(np.abs(cdf_at_points - (steps - 1.0 / n_samples))),
        )
    )
    return DistributionValidation(
        edges, density, cumulative, analytic_density, analytic_cdf, pdf_sup, cdf_sup, ks
    )


# ---------------------------------------------------------------------------
# Closed form against quadrature


@dataclass(frozen=True, eq=False)
class BidCrosscheck:
    """Closed-form equilibrium bids against the quadrature route."""

    p_eps: np.ndarray
    v_p: np.ndarray
    closed_form: np.ndarray
    quadrature: np.ndarray
    max_abs_diff: float


def closed_form_vs_quadrature(
    family: ValueFamily, v_p_grid, p_eps_grid
) -> BidCrosscheck:
    """Evaluate both bid routes over a grid and report the worst gap.

    The closed form composes the defining formula from the closed forms
    of the premium cdf and its running integral; the other route
    integrates the cdf numerically. Rows index p_eps, columns index v_p.
    """
    v_grid = np.asarray(v_p_grid, dtype=float)
    p_grid = np.asarray(p_eps_grid, dtype=float)
    if v_grid.ndim != 1 or v_grid.size == 0 or p_grid.ndim != 1 or p_grid.size == 0:
        raise DomainError("grids must be non-empty and one-dimensional")
    if not np.all((v_grid >= 0.0) & (v_grid <= PREMIUM_MAX)):
        raise DomainError(f"v_p grid outside [0, {PREMIUM_MAX}]")
    closed = np.empty((p_grid.size, v_grid.size))
    quad = np.empty_like(closed)
    for i, p in enumerate(p_grid.tolist()):
        closed[i] = sira_bid(family, v_grid, p)
        quad[i] = sira_bid_generic(PremiumValueDistribution(family, p).cdf, v_grid, p)
    return BidCrosscheck(p_grid, v_grid, closed, quad, float(np.max(np.abs(closed - quad))))


# ---------------------------------------------------------------------------
# Equilibrium utility crosscheck


@dataclass(frozen=True, eq=False)
class EquilibriumCrosscheck:
    """Realized against predicted utility for a narrow premium bucket."""

    family: ValueFamily
    p_eps: float
    bucket_center: float
    bucket_halfwidth: float
    n_pairings: int
    seed: int
    mean_realized: float
    mean_predicted: float
    gap: float
    gap_se: float

    @property
    def z_score(self) -> float:
        return self.gap / self.gap_se


def equilibrium_crosscheck(
    family: ValueFamily,
    p_eps: float,
    bucket_center: float,
    bucket_halfwidth: float,
    n_pairings: int,
    seed: int,
) -> EquilibriumCrosscheck:
    """Pit bucket agents against equilibrium opponents and compare means.

    Probe agents are drawn from the participant population conditioned
    on a premium value within the bucket; each faces one fresh
    equilibrium opponent under the engine's comparison rule (higher bid
    wins, fair coin on ties, bid sunk). The mean realized utility is
    compared with the closed-form expected utility averaged over the
    same probes, as a paired difference.
    """
    check_p_eps(p_eps)
    if not is_integer(n_pairings) or n_pairings < 2:
        raise DomainError(f"n_pairings must be an integer >= 2, got {n_pairings!r}")
    if not (0.0 < bucket_halfwidth <= PREMIUM_MAX):
        raise DomainError(f"bucket_halfwidth must be positive, got {bucket_halfwidth}")
    lo = bucket_center - bucket_halfwidth
    hi = bucket_center + bucket_halfwidth
    if not (0.0 <= lo and hi <= PREMIUM_MAX):
        raise DomainError(f"bucket [{lo}, {hi}] outside [0, {PREMIUM_MAX}]")

    pool_rng = substream(seed, STREAM_EXPERIMENT, _EXP_EQ_CHECK, 0)
    opp_bids = _equilibrium_bids(family, p_eps, n_pairings, pool_rng)

    probe_rng = substream(seed, STREAM_EXPERIMENT, _EXP_EQ_CHECK, 1)
    dist = PremiumValueDistribution(family=family, p_eps=p_eps)
    bucket_mass = float(dist.cdf(hi) - dist.cdf(lo))
    if bucket_mass <= 0.0:
        raise DomainError("bucket has no probability mass")
    total_blocks: list[np.ndarray] = []
    lam_blocks: list[np.ndarray] = []
    have = 0
    for _ in range(10_000):
        if have >= n_pairings:
            break
        # Bounded blocks keep the rejection loop's memory flat.
        chunk = int(min(max(1.5 * (n_pairings - have) / bucket_mass, 10_000), 2_000_000))
        t = sample_total_values(family, probe_rng, chunk, lower=p_eps)
        l = sample_scaling_factors(probe_rng, chunk)
        keep = np.abs(l * t - bucket_center) <= bucket_halfwidth
        total_blocks.append(t[keep])
        lam_blocks.append(l[keep])
        have += int(keep.sum())
    else:
        raise NumericalError("bucket rejection sampling failed to fill")
    totals = np.concatenate(total_blocks)[:n_pairings]
    lams = np.concatenate(lam_blocks)[:n_pairings]
    premiums = lams * totals
    deployments = totals - premiums
    bids = submitted_bid(family, premiums, p_eps)

    tie_rng = substream(seed, STREAM_EXPERIMENT, _EXP_EQ_CHECK, 2)
    coins = tie_rng.random(n_pairings) < 0.5
    won = beats(bids, opp_bids, coins)
    realized = realized_utilities(deployments, premiums, bids, True, won)
    predicted = predicted_utilities(deployments, premiums, bids, dist.cdf(premiums))
    diff = realized - predicted
    gap, gap_se = _mean_se(diff)
    return EquilibriumCrosscheck(
        family=family,
        p_eps=float(p_eps),
        bucket_center=float(bucket_center),
        bucket_halfwidth=float(bucket_halfwidth),
        n_pairings=int(n_pairings),
        seed=int(seed),
        mean_realized=float(realized.mean()),
        mean_predicted=float(predicted.mean()),
        gap=gap,
        gap_se=gap_se,
    )
