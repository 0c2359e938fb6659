"""Experiment harness: deviation tests, threshold sweeps, validation.

Every experiment derives its randomness from named substreams of one
root seed and reports uncertainty alongside point estimates. Where two
quantities are compared (deviated against undeviated bids, SIRA against
reserve thresholding), the comparison uses common random numbers and
the standard error of the paired difference, which is the quantity a
significance check actually needs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .mechanism import AuctionConfig, _draw_population, _sira_decisions, beats
from .seeding import STREAM_EXPERIMENT, child_seed, substream
from .strategy import (
    cap_bid,
    check_p_eps,
    predicted_utilities,
    realized_utilities,
    reserve_decision_arrays,
    sira_bid,
    sira_bid_generic,
    submitted_bid,
)
from .value_model import (
    PREMIUM_MAX,
    AgentValuation,
    EmpiricalDistribution,
    PremiumValueDistribution,
    ValueFamily,
    empirical_pdf_cdf,
    sample_scaling_factors,
    sample_total_values,
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


def _equilibrium_pool(
    family: ValueFamily, p_eps: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw participants' valuations and equilibrium bids.

    Totals are conditioned on [p_eps, 1]: only agents whose value
    clears the threshold ever enter a comparison, and the premium-value
    distribution is defined over exactly this population.
    """
    totals = sample_total_values(family, rng, size, lower=p_eps)
    lams = sample_scaling_factors(rng, size)
    premiums = lams * totals
    return totals, lams, submitted_bid(family, premiums, p_eps)


# ---------------------------------------------------------------------------
# Nash deviation sweep


@dataclass(frozen=True, eq=False)
class DeviationSweepResult:
    """Mean realized utility of a probe agent across bid deviations.

    gap_vs_optimum[i] is the paired-sample mean of u(0) - u(delta_i)
    with its own standard error; the undeviated entry sits at
    optimum_index and has gap exactly 0.
    """

    family: ValueFamily
    p_eps: float
    probe: AgentValuation
    deltas: np.ndarray
    bids: np.ndarray
    mean_utility: np.ndarray
    std_error: np.ndarray
    gap_vs_optimum: np.ndarray
    gap_std_error: np.ndarray
    n_opponents: int
    seed: int

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
    if n_opponents < 2:
        raise DomainError(f"n_opponents must be at least 2, got {n_opponents}")
    grid = np.unique(np.append(np.asarray(deltas, dtype=float), 0.0))
    if not np.all((grid >= -1.0) & (grid <= 1.0)):
        raise DomainError("deviation fractions must be finite and lie in [-1, 1]")

    pool_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 0)
    _, _, opp_bids = _equilibrium_pool(family, p_eps, n_opponents, pool_rng)
    tie_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 1)
    coins = tie_rng.random(n_opponents) < 0.5

    v_p = probe.premium_value
    v_d = probe.deployment_value
    bids = cap_bid((1.0 + grid) * submitted_bid(family, v_p, p_eps))
    utilities = np.empty((grid.size, n_opponents))
    for i, bid in enumerate(bids):
        won = beats(bid, opp_bids, coins)
        utilities[i] = realized_utilities(v_d, v_p, bid, bid >= p_eps, won)

    zero = int(np.flatnonzero(grid == 0.0)[0])
    diffs = utilities[zero][None, :] - utilities
    mean = utilities.mean(axis=1)
    se = utilities.std(axis=1, ddof=1) / np.sqrt(n_opponents)
    # A rejected bid realizes -bid on every draw; pin the degenerate
    # statistics so summation order cannot smear them.
    sub = bids < p_eps
    mean[sub] = -bids[sub]
    se[sub] = 0.0
    gap = diffs.mean(axis=1)
    gap_se = diffs.std(axis=1, ddof=1) / np.sqrt(n_opponents)
    return DeviationSweepResult(
        family=family,
        p_eps=float(p_eps),
        probe=probe,
        deltas=grid,
        bids=bids,
        mean_utility=mean,
        std_error=se,
        gap_vs_optimum=gap,
        gap_std_error=gap_se,
        n_opponents=int(n_opponents),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Mechanism comparison across clearing prices


@dataclass(frozen=True, eq=False)
class ThresholdSweepResult:
    """Participation and bid size for both mechanisms on a p_eps grid.

    Each grid point runs both engines on the same population draw, so
    participation_uplift is a paired per-agent difference (SIRA
    participation implies reserve participation never exceeds it).
    """

    family: ValueFamily
    p_eps: np.ndarray
    n_agents: int
    seed: int
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
    mean_bid_uplift: np.ndarray
    mean_bid_uplift_se: np.ndarray


def _mechanism_stats(participates: np.ndarray, bid: np.ndarray) -> tuple[float, ...]:
    """Participation rate and mean participant bid, each with its standard error."""
    return (*_mean_se(participates), *_mean_se(bid[participates]))


def _sweep_point(
    family: ValueFamily, p_eps: float, n_agents: int, point_seed: int, gamma: float
) -> tuple[float, ...]:
    """One grid point's summary row, in ThresholdSweepResult field order.

    The population is drawn once and fed to both decision kernels; the
    summary needs no premium contest.
    """
    config = AuctionConfig(
        n_agents=n_agents, p_eps=p_eps, family=family, seed=point_seed, gamma=gamma
    )
    total, lam = _draw_population(config)
    reserve = reserve_decision_arrays(total - lam * total, p_eps, config.model)
    sira = _sira_decisions(config, total, lam)
    res_stats = _mechanism_stats(reserve.participates, reserve.bid)
    sira_stats = _mechanism_stats(sira.participates, sira.bid)
    paired = sira.participates.astype(float) - reserve.participates.astype(float)
    bid_uplift = sira_stats[2] - res_stats[2]
    bid_uplift_se = float(np.hypot(sira_stats[3], res_stats[3]))
    return (*res_stats, *sira_stats, *_mean_se(paired), bid_uplift, bid_uplift_se)


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
    index), so they may be evaluated by a thread pool; results are
    assembled in grid order and do not depend on the worker count.
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

    if workers == 1:
        rows = [evaluate(i) for i in range(grid.size)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, range(grid.size)))
    columns = (np.array(column) for column in zip(*rows))
    return ThresholdSweepResult(family, grid, int(n_agents), int(seed), *columns)


# ---------------------------------------------------------------------------
# Distribution validation


@dataclass(frozen=True, eq=False)
class DistributionValidation:
    """Empirical premium-value histogram against the closed forms."""

    family: ValueFamily
    p_eps: float
    n_samples: int
    bins: int
    seed: int
    table: EmpiricalDistribution
    analytic_density: np.ndarray
    analytic_cdf: np.ndarray
    pdf_sup_error: float
    cdf_sup_error: float
    ks_distance: float


def validate_product_distribution(
    family: ValueFamily,
    p_eps: float,
    n_samples: int,
    bins: int,
    seed: int,
) -> DistributionValidation:
    """Monte Carlo check of the derived premium-value distribution.

    Draws scaling factors against totals conditioned on [p_eps, 1],
    bins the products, and reports sup errors of the histogram density
    (at bin centers) and empirical cdf (at right edges) against the
    closed forms, plus the exact Kolmogorov-Smirnov distance. The
    density comparison skips the bins adjacent to the breakpoint
    p_eps / 2, where a histogram is biased by the kink; the cdf
    comparison uses every bin.
    """
    check_p_eps(p_eps)
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples}")
    rng = substream(seed, STREAM_EXPERIMENT, _EXP_VALIDATE, 0)
    totals = sample_total_values(family, rng, n_samples, lower=p_eps)
    lams = sample_scaling_factors(rng, n_samples)
    products = lams * totals

    table = empirical_pdf_cdf(products, bins)
    dist = PremiumValueDistribution(family=family, p_eps=p_eps)
    analytic_density = dist.pdf(table.centers)
    analytic_cdf = dist.cdf(table.right_edges)
    width = PREMIUM_MAX / bins
    interior = np.abs(table.centers - dist.breakpoint) > width
    pdf_sup = float(np.max(np.abs(table.density - analytic_density)[interior]))
    cdf_sup = float(np.max(np.abs(table.cumulative - analytic_cdf)))

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
        family=family,
        p_eps=float(p_eps),
        n_samples=int(n_samples),
        bins=int(bins),
        seed=int(seed),
        table=table,
        analytic_density=analytic_density,
        analytic_cdf=analytic_cdf,
        pdf_sup_error=pdf_sup,
        cdf_sup_error=cdf_sup,
        ks_distance=ks,
    )


# ---------------------------------------------------------------------------
# Closed form against quadrature


@dataclass(frozen=True, eq=False)
class BidCrosscheck:
    """Closed-form equilibrium bids against the quadrature route."""

    family: ValueFamily
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
    if np.any(v_grid < 0.0) or np.any(v_grid > PREMIUM_MAX):
        raise DomainError(f"v_p grid outside [0, {PREMIUM_MAX}]")
    closed = np.empty((p_grid.size, v_grid.size))
    quad = np.empty_like(closed)
    for i, p in enumerate(p_grid):
        check_p_eps(p)
        dist = PremiumValueDistribution(family=family, p_eps=float(p))
        closed[i] = sira_bid(family, v_grid, float(p))
        for j, v in enumerate(v_grid):
            quad[i, j] = sira_bid_generic(dist.cdf_scalar, float(v), float(p))
    return BidCrosscheck(
        family=family,
        p_eps=p_grid,
        v_p=v_grid,
        closed_form=closed,
        quadrature=quad,
        max_abs_diff=float(np.max(np.abs(closed - quad))),
    )


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
    if n_pairings < 2:
        raise DomainError(f"n_pairings must be at least 2, got {n_pairings}")
    if not (0.0 < bucket_halfwidth <= PREMIUM_MAX):
        raise DomainError(f"bucket_halfwidth must be positive, got {bucket_halfwidth}")
    lo = bucket_center - bucket_halfwidth
    hi = bucket_center + bucket_halfwidth
    if not (0.0 <= lo and hi <= PREMIUM_MAX):
        raise DomainError(f"bucket [{lo}, {hi}] outside [0, {PREMIUM_MAX}]")

    pool_rng = substream(seed, STREAM_EXPERIMENT, _EXP_EQ_CHECK, 0)
    _, _, opp_bids = _equilibrium_pool(family, p_eps, n_pairings, pool_rng)

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
