"""Experiment harness: deviation tests, threshold sweeps, validation.

Every experiment derives its randomness from named substreams of one
root seed and reports uncertainty alongside point estimates. Where two
quantities are compared (deviated against undeviated bids, SIRA against
reserve thresholding, one clearing price against another), the
comparison uses common random numbers and the standard error of the
paired difference, which is the quantity a significance check actually
needs.

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
from .mechanism import beats
from .seeding import STREAM_EXPERIMENT, check_count, substream
from .strategy import (
    Decision,
    cap_bid,
    check_p_eps,
    realized_utilities,
    reserve_decision_arrays,
    sira_bid,
    sira_bid_generic,
    sira_decision_arrays,
)
from .value_model import (
    PREMIUM_MAX,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    blocks,
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


def _counted_mean_se(values, counts) -> tuple[float, float]:
    """_mean_se of a sample that takes values[j] exactly counts[j] times.

    Deviations are taken from the most frequent value, so one distinct
    value gives exactly that mean (signed zero included) and an se of 0.
    """
    values, counts = np.ravel(values), np.ravel(counts)
    n = int(counts.sum())
    ref = values[np.argmax(counts)]
    mean = ref - np.dot(counts, ref - values) / n
    return float(mean), float(np.sqrt(np.dot(counts, (values - mean) ** 2) / (n - 1) / n))


def _equilibrium_bids(
    family: ValueFamily, p_eps: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw participants' valuations and return their equilibrium bids.

    Totals are conditioned on [p_eps, 1]: only agents whose value
    clears the threshold ever enter a comparison, and the premium-value
    distribution is defined over exactly this population. v_p = lambda V
    is formed in the lambda buffer, and at most two full-size arrays are
    held at once.
    """
    totals, v_p = sample_valuations(family, rng, size, lower=p_eps)
    v_p *= totals
    del totals
    bids = sira_bid(family, v_p, p_eps)
    del v_p
    return cap_bid(bids)


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
    probe_v_d: float,
    probe_v_p: float,
    deltas,
    n_opponents: int,
    seed: int,
) -> DeviationSweepResult:
    """Measure the cost of deviating from the equilibrium bid.

    A probe agent with deployment value probe_v_d and premium value
    probe_v_p, taken exactly as given, scales its equilibrium bid by
    (1 + delta) and faces n_opponents equilibrium bidders drawn once and
    reused across the whole grid (common random numbers). The probe
    values must be a valid agent's: 0 <= probe_v_p <= probe_v_d and
    probe_v_d + probe_v_p <= 1. Deviated bids below the clearing price
    are rejected outright, so their utility is the sunk bid with zero
    variance. The grid is sorted, deduplicated, and always includes
    delta = 0. Each bid's statistics follow exactly from its win count;
    no per-opponent utility is materialised.
    """
    check_p_eps(p_eps)
    if not (0.0 <= probe_v_p <= probe_v_d and probe_v_d + probe_v_p <= 1.0):
        raise DomainError("probe values need 0 <= probe_v_p <= probe_v_d and probe_v_d + "
                          f"probe_v_p <= 1, got {probe_v_d!r} and {probe_v_p!r}")
    check_count("n_opponents", n_opponents, 2)
    grid = np.unique(np.append(np.asarray(deltas, dtype=float), 0.0))
    if not np.all((grid >= -1.0) & (grid <= 1.0)):
        raise DomainError("deviation fractions must be finite and lie in [-1, 1]")

    pool_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 0)
    opp_bids = _equilibrium_bids(family, p_eps, n_opponents, pool_rng)
    tie_rng = substream(seed, STREAM_EXPERIMENT, _EXP_DEVIATION, 1)
    coins = tie_rng.random(n_opponents) < 0.5

    v_d, v_p = float(probe_v_d), float(probe_v_p)
    bids = cap_bid((1.0 + grid) * cap_bid(sira_bid(family, v_p, p_eps)))

    # A bid realizes one utility when it wins and one when it loses, and
    # winning is monotone in the bid, so a bid with k wins and the
    # equilibrium bid with k0 disagree on exactly |k - k0| opponents.
    def outcomes(bid: float) -> tuple[np.ndarray, int]:
        u = realized_utilities(v_d, v_p, bid, bid >= p_eps, np.array([True, False]))
        return u, int(np.count_nonzero(beats(bid, opp_bids, coins)))

    n = int(n_opponents)
    base, k0 = outcomes(bids[grid == 0.0][0])
    rows = []
    for bid in bids:
        u, k = outcomes(bid)
        pairs = [[min(k, k0), max(k0 - k, 0)], [max(k - k0, 0), n - max(k, k0)]]
        rows.append((*_counted_mean_se(u, [k, n - k]),
                     *_counted_mean_se(np.subtract.outer(base, u), pairs)))
    mean, se, gap, gap_se = (np.array(column) for column in zip(*rows))
    return DeviationSweepResult(grid, bids, mean, se, gap, gap_se)


# ---------------------------------------------------------------------------
# Mechanism comparison across clearing prices


@dataclass(frozen=True, eq=False)
class ThresholdSweepResult:
    """Participation and bid size for both mechanisms on a p_eps grid.

    Every grid point evaluates both decision kernels on one population
    draw, shared by the whole grid, so participation_uplift is a paired
    per-agent difference (SIRA participation implies reserve
    participation never exceeds it), and so is a difference between two
    grid points: errors at different points are correlated. The
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


def _mechanism_stats(decision: Decision) -> tuple[float, ...]:
    """Participation rate and mean participant bid, each with its standard error."""
    participants = np.flatnonzero(decision.participates)
    return (*_mean_se(decision.participates), *_mean_se(decision.bid[participants]))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, which os.cpu_count() ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threshold_sweep(
    family: ValueFamily,
    p_eps_grid,
    n_agents: int,
    seed: int,
    gamma: float = 1.0,
    workers: int = 1,
) -> ThresholdSweepResult:
    """Compare the two mechanisms across a grid of clearing prices.

    The population is drawn once, and every grid point evaluates both
    decision kernels on that one read-only draw (common random numbers
    across prices). Points are evaluated by a thread pool of
    ``min(workers, grid points, CPUs)`` threads; results are assembled in
    grid order and do not depend on the worker count. Every argument is
    checked before the draw, and a bad one raises DomainError.
    """
    if not isinstance(family, ValueFamily):
        raise DomainError(f"family must be a ValueFamily, got {family!r}")
    grid = np.asarray(p_eps_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("p_eps_grid must be a non-empty one-dimensional grid")
    for p in grid:
        check_p_eps(p)
    check_count("n_agents", n_agents, 2)
    model = SafetyCostModel(gamma)  # raises DomainError for a bad gamma
    check_count("workers", workers, 1)

    rng = substream(seed, STREAM_EXPERIMENT, _EXP_SWEEP)
    total, lam = sample_valuations(family, rng, n_agents)
    v_p = lam * total
    v_d = total - v_p

    def point(p: float) -> tuple[float, ...]:
        """One grid point's summary row, in ThresholdSweepResult field order."""
        reserve = reserve_decision_arrays(v_d, p, model)
        sira = sira_decision_arrays(v_d, v_p, p, family, model)
        paired = sira.participates.astype(float) - reserve.participates.astype(float)
        return (*_mechanism_stats(reserve), *_mechanism_stats(sira), *_mean_se(paired))

    # pool.map submits every point at once, so bound the threads it starts.
    with ThreadPoolExecutor(max_workers=min(workers, grid.size, _usable_cpus())) as pool:
        rows = list(pool.map(point, grid.tolist()))
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
    check_count("n_samples", n_samples, 2)
    check_count("bins", bins, 10)
    rng = substream(seed, STREAM_EXPERIMENT, _EXP_VALIDATE, 0)
    totals, products = sample_valuations(family, rng, n_samples, lower=p_eps)
    products *= totals
    del totals

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

    products.sort()
    ks = 0.0
    for block in blocks(n_samples):
        cdf_at_points = dist.cdf(products[block])
        steps = np.arange(block.start + 1, block.start + cdf_at_points.size + 1) / n_samples
        ks = max(ks, np.max(np.abs(cdf_at_points - steps)),
                 np.max(np.abs(cdf_at_points - (steps - 1.0 / n_samples))))
    return DistributionValidation(
        edges, density, cumulative, analytic_density, analytic_cdf, pdf_sup, cdf_sup, float(ks)
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
    family: ValueFamily, v_p_grid, p_eps_list
) -> BidCrosscheck:
    """Evaluate both bid routes over a grid and report the worst gap.

    The closed form composes the defining formula from the closed forms
    of the premium cdf and its running integral; the other route
    integrates the cdf numerically. Rows index p_eps, columns index v_p.
    """
    v_grid = np.asarray(v_p_grid, dtype=float)
    p_grid = np.asarray(p_eps_list, dtype=float)
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


def _bucket_agents(
    dist: PremiumValueDistribution, lo: float, hi: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Total and premium values of participants whose premium lies in [lo, hi].

    Given V, the premium is in the bucket for lambda in an interval of
    width w(V) = (min(hi, V/2) - lo) / V, positive only above 2 lo. So V
    is drawn on [v_min, 1], accepted with w(V) / w_max, and the premium
    drawn uniformly on [lo, min(hi, V/2)], that is lambda on its interval
    (Devroye, Non-Uniform Random Variate Generation, 1986, II.3).
    """
    bucket_mass = float(dist.cdf(hi) - dist.cdf(lo))
    if bucket_mass <= 0.0:
        raise DomainError("bucket has no probability mass")
    v_min = max(dist.p_eps, 2.0 * lo)
    w_max = (hi - lo) / max(2.0 * hi, v_min)
    total_blocks: list[np.ndarray] = []
    premium_blocks: list[np.ndarray] = []
    have = 0
    for _ in range(10_000):
        if have >= size:
            break
        # Bounded blocks keep memory flat; acceptance is >= bucket_mass / (2 w_max).
        need = 1.1 * (size - have) * 2.0 * w_max / bucket_mass
        t = sample_total_values(dist.family, rng, int(min(max(need, 10_000), 2_000_000)), v_min)
        top = np.minimum(hi, 0.5 * t)
        keep = np.flatnonzero(rng.random(t.size) * w_max * t < top - lo)
        t, top = t[keep], top[keep]
        total_blocks.append(t)
        premium_blocks.append(top - rng.random(t.size) * (top - lo))
        have += t.size
    else:
        raise NumericalError("bucket sampling failed to fill")
    return np.concatenate(total_blocks)[:size], np.concatenate(premium_blocks)[:size]


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
    check_count("n_pairings", n_pairings, 2)
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
    totals, premiums = _bucket_agents(dist, lo, hi, n_pairings, probe_rng)
    deployments = totals - premiums
    decision = sira_decision_arrays(deployments, premiums, p_eps, family, SafetyCostModel())

    tie_rng = substream(seed, STREAM_EXPERIMENT, _EXP_EQ_CHECK, 2)
    coins = tie_rng.random(n_pairings) < 0.5
    won = beats(decision.bid, opp_bids, coins)
    realized = realized_utilities(deployments, premiums, decision.bid, True, won)
    predicted = decision.predicted_utility
    gap, gap_se = _mean_se(realized - predicted)
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
