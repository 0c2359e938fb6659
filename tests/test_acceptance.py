"""Acceptance gate: one test per release criterion.

Each test prints a single verdict line (visible with -s, or on failure)
and enforces both the numerical bar and the runtime budget. All runs
are seeded, so the whole gate is deterministic.
"""

import time

import numpy as np
import pytest

import sira.cli as cli
from sira.experiments import (
    closed_form_vs_quadrature,
    deviation_sweep,
    equilibrium_crosscheck,
    threshold_sweep,
    validate_product_distribution,
)
from sira.mechanism import AuctionConfig, run_repeated_sira, run_sira
from sira.strategy import reserve_threshold_bid
from sira.value_model import (
    PREMIUM_BRANCHES,
    AgentValuation,
    PremiumValueDistribution,
    ValueFamily,
)

SEED = 2026
P_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]
# v_p = 0.25 and v_d = 0.5 exactly (0.75 * (0.25 / 0.75) == 0.25).
PROBE = AgentValuation(total_value=0.75, scaling_factor=0.25 / 0.75)


def _verdict(num, name, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    print(
        f"criterion {num} [{status}] {name}: {detail} "
        f"({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed <= budget, f"criterion {num} took {elapsed:.2f}s > {budget}s"


def test_criterion_1_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    v_grid = np.linspace(0.0, 0.5, 200)
    worst = 0.0
    for family in ValueFamily:
        check = closed_form_vs_quadrature(family, v_grid, P_GRID)
        worst = max(worst, check.max_abs_diff)
        # The v_p = 0 column is exact on both routes.
        assert np.all(check.closed_form[:, 0] == np.asarray(P_GRID))
        assert np.all(check.quadrature[:, 0] == np.asarray(P_GRID))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "closed form vs quadrature",
        worst < 1e-8,
        f"max |closed - quadrature| = {worst:.3e} over 200x5 grid, both families",
        elapsed,
        1.0,
    )


def test_criterion_2_premium_distribution_matches_simulation():
    t0 = time.perf_counter()
    worst_pdf = 0.0
    worst_cdf = 0.0
    for family in ValueFamily:
        for p_eps in (0.25, 0.5):
            result = validate_product_distribution(
                family, p_eps, n_samples=1_000_000, bins=25, seed=SEED
            )
            worst_pdf = max(worst_pdf, result.pdf_sup_error)
            worst_cdf = max(worst_cdf, result.cdf_sup_error)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "derived distribution vs 1e6-sample histogram",
        worst_cdf < 0.01 and worst_pdf < 0.05,
        f"cdf sup = {worst_cdf:.5f} (< 0.01), interior pdf sup = {worst_pdf:.4f} (< 0.05)",
        elapsed,
        10.0,
    )


def test_criterion_3_analytic_sanity():
    t0 = time.perf_counter()
    worst_endpoint = 0.0
    worst_branch = 0.0
    worst_fd = 0.0
    h = 1e-5
    for family in ValueFamily:
        for p_eps in P_GRID:
            dist = PremiumValueDistribution(family, p_eps)
            worst_endpoint = max(worst_endpoint, abs(float(dist.cdf(0.5)) - 1.0))
            y_bp = np.array([dist.breakpoint])
            for kind in ("pdf", "cdf", "cdf_integral"):
                lo_fn, hi_fn = PREMIUM_BRANCHES[family][kind]
                gap = abs(float(lo_fn(y_bp, p_eps)[0]) - float(hi_fn(y_bp, p_eps)[0]))
                worst_branch = max(worst_branch, gap)
            grid = np.linspace(2 * h, 0.5 - 2 * h, 301)
            grid = grid[np.abs(grid - dist.breakpoint) > 1e-4]
            fd_pdf = (dist.cdf(grid + h) - dist.cdf(grid - h)) / (2 * h)
            fd_cdf = (dist.cdf_integral(grid + h) - dist.cdf_integral(grid - h)) / (2 * h)
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(fd_pdf - dist.pdf(grid)))),
                float(np.max(np.abs(fd_cdf - dist.cdf(grid)))),
            )
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "endpoint, branch continuity, derivative identities",
        worst_endpoint <= 1e-10 and worst_branch <= 1e-10 and worst_fd <= 1e-6,
        f"|F(1/2)-1| = {worst_endpoint:.2e}, branch gap = {worst_branch:.2e}, "
        f"FD error = {worst_fd:.2e}",
        elapsed,
        1.0,
    )


def test_criterion_4_no_profitable_deviation():
    deltas = [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5]
    min_z = np.inf
    max_config_time = 0.0
    for family in ValueFamily:
        for p_eps in (0.25, 0.5, 0.75):
            t0 = time.perf_counter()
            result = deviation_sweep(
                family, p_eps, PROBE.deployment_value, PROBE.premium_value, deltas,
                n_opponents=100_000, seed=SEED,
            )
            max_config_time = max(max_config_time, time.perf_counter() - t0)
            zero = int(np.flatnonzero(result.deltas == 0.0)[0])
            assert result.optimum_index == zero, (family, p_eps)
            others = result.deltas != 0.0
            z = result.gap_vs_optimum[others] / result.gap_std_error[others]
            min_z = min(min_z, float(z.min()))
            # Any bid pushed below the clearing price loses exactly the stake.
            sub = result.bids < p_eps
            assert np.all(result.mean_utility[sub] == -result.bids[sub])
            assert np.all(result.std_error[sub] == 0.0)
    _verdict(
        4,
        "equilibrium bid beats all deviations",
        min_z >= 3.0,
        f"min gap z-score = {min_z:.1f} (>= 3) across 6 configurations; "
        "sub-threshold segment equals -bid exactly",
        max_config_time,
        30.0,
    )


def test_criterion_5_participation_and_bid_uplift():
    t0 = time.perf_counter()
    grid = np.linspace(0.1, 0.9, 17)
    mid = 8  # p_eps = 0.5
    details = []
    ok = True
    for family in ValueFamily:
        sweep = threshold_sweep(family, grid, n_agents=100_000, seed=SEED)
        z_part = sweep.participation_uplift[mid] / sweep.participation_uplift_se[mid]
        z_bid = (sweep.sira_mean_bid[mid] - 0.5) / sweep.sira_mean_bid_se[mid]
        max_uplift = float(sweep.participation_uplift.max())
        with np.errstate(invalid="ignore"):
            rel_bid = np.nanmax(sweep.mean_bid_uplift / grid)
        ends = (sweep.participation_uplift[0], sweep.participation_uplift[-1])
        ok = ok and z_part >= 3.0 and z_bid >= 3.0
        # Uplift falls back toward zero at both ends of the price range.
        ok = ok and all(e <= 0.02 and e <= max_uplift / 3.0 for e in ends)
        details.append(
            f"{family.value}: z_part={z_part:.0f}, z_bid={z_bid:.0f}, "
            f"max participation uplift={max_uplift:.3f}, "
            f"max relative bid uplift={rel_bid:.0%}, "
            f"edge uplifts=({ends[0]:.4f}, {ends[1]:.4f})"
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "SIRA uplift over reserve thresholding",
        ok,
        "; ".join(details),
        elapsed,
        60.0,
    )


def test_criterion_6_reserve_bid_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    step = 1e-4
    bid_grid = np.arange(0.0, 1.0 + step / 2, step)
    worst_bid_gap = 0.0
    checked = 0
    for _ in range(100):
        v_d = float(rng.uniform(0.0, 1.0))
        p_eps = float(rng.uniform(0.05, 0.95))
        utilities = np.where(bid_grid >= p_eps, v_d, 0.0) - bid_grid
        best = int(np.argmax(utilities))
        brute_util = float(utilities[best])
        brute_participates = brute_util > 0.0
        decision = reserve_threshold_bid(v_d, p_eps)
        if brute_participates != decision.participates:
            # Disagreement is only tolerable inside one grid step of the
            # participation boundary v_d = p_eps.
            assert abs(v_d - p_eps) <= step, (v_d, p_eps)
            continue
        if decision.participates:
            worst_bid_gap = max(worst_bid_gap, abs(bid_grid[best] - decision.bid))
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "reserve threshold against brute-force grid search",
        worst_bid_gap <= step and checked >= 95,
        f"{checked}/100 draws agree on participation; "
        f"max |argmax bid - p_eps| = {worst_bid_gap:.1e} (<= 1e-4)",
        elapsed,
        5.0,
    )


def test_criterion_7_realized_utility_matches_equilibrium_prediction():
    t0 = time.perf_counter()
    zs = {}
    for family in ValueFamily:
        result = equilibrium_crosscheck(
            family,
            0.5,
            bucket_center=0.2,
            bucket_halfwidth=0.01,
            n_pairings=1_000_000,
            seed=SEED,
        )
        zs[family.value] = result.z_score
    elapsed = time.perf_counter() - t0
    ok = all(abs(z) <= 3.0 for z in zs.values())
    detail = ", ".join(f"{k}: z={v:.2f}" for k, v in zs.items())
    _verdict(
        7,
        "realized vs predicted utility in a narrow premium bucket",
        ok,
        detail + " (1e6 pairings each, |z| <= 3)",
        elapsed,
        30.0,
    )


def test_criterion_8_repeated_auction_consistency():
    t0 = time.perf_counter()
    config = AuctionConfig(
        n_agents=50_000, p_eps=0.5, family=ValueFamily.UNIFORM, seed=SEED, rounds=3
    )
    repeated = run_repeated_sira(config)
    premium = repeated.premium_value
    deployment = repeated.deployment_value
    acc = repeated.accepted
    ok = repeated.rounds == 3
    # Rounds after the first may add only the premium; the deployment
    # value appears exactly once, in the acceptance round.
    for r in range(1, 3):
        row = repeated.value_by_round[r]
        won = repeated.won_by_round[r]
        ok = ok and np.array_equal(row[won], premium[won]) and np.all(row[~won] == 0.0)
    first = repeated.value_by_round[0]
    won0 = repeated.won_by_round[0]
    ok = ok and np.array_equal(first[acc & ~won0], deployment[acc & ~won0])
    ok = ok and np.array_equal(first[acc & won0], (deployment + premium)[acc & won0])
    ok = ok and np.all(first[~acc] == 0.0)

    single = AuctionConfig(
        n_agents=50_000, p_eps=0.5, family=ValueFamily.UNIFORM, seed=SEED, rounds=1
    )
    once = run_sira(single)
    again = run_repeated_sira(single)
    bitwise = (
        np.array_equal(once.realized_utility, again.realized_utility)
        and np.array_equal(once.value_by_round, again.value_by_round)
        and np.array_equal(once.won_by_round, again.won_by_round)
        and np.array_equal(once.bid_paid, again.bid_paid)
        and once.participation_rate == again.participation_rate
        and once.mean_bid == again.mean_bid
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        "repeated auction value streams",
        ok and bitwise,
        "R=3 grants deployment value exactly once per accepted agent; "
        "R=1 reproduces the single-round engine bit for bit",
        elapsed,
        10.0,
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "auction": ["--n-agents", "2000", "--seed", str(SEED)],
        "reserve": ["--n-agents", "2000", "--seed", str(SEED)],
        "repeat": ["--n-agents", "1000", "--rounds", "3", "--seed", str(SEED)],
        "deviation": ["--n-opponents", "5000", "--seed", str(SEED)],
        "sweep": ["--p-eps-grid", "0.25,0.5,0.75", "--n-agents", "3000", "--seed", str(SEED)],
        "validate-dist": ["--n-samples", "50000", "--bins", "20", "--seed", str(SEED)],
        # crosscheck draws nothing, so it has no seed flag.
        "crosscheck": ["--v-p-grid", "0:0.5:30", "--p-eps-list", "0.25,0.75"],
    }
    stable = True
    for name, args in commands.items():
        blobs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}-{tag}.csv"
            argv = [name] + args + ["--workers", workers, "--out", str(out)]
            assert cli.main(argv) == 0, argv
            blobs.append(out.read_bytes())
        stable = stable and blobs[0] == blobs[1] == blobs[2]
        assert blobs[0] == blobs[1] == blobs[2], f"{name} output varies"
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        "subcommand determinism across reruns and worker counts",
        stable,
        "all 7 subcommands byte-identical for rerun and workers 1 vs 4",
        elapsed,
        60.0,
    )
