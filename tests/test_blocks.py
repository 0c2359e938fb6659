"""Blocked population kernels: bit identity across block boundaries, the
errors of a blocked evaluation, the largest input the premium evaluators
receive, and the memory the 1e6-element kernels hold.

Blocks of value_model.BLOCK elements are cut in one place, the population
kernels: beta22_ppf, sira_bid, sira_decision_arrays and the KS loop of
validate_product_distribution. The premium evaluators evaluate exactly
the block they are handed. Patching BLOCK to a few elements makes small
inputs cross block boundaries; every result must then equal the
one-block result bit for bit.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sira import value_model
from sira.errors import DomainError, NumericalError
from sira.experiments import (
    deviation_sweep,
    equilibrium_crosscheck,
    threshold_sweep,
    validate_product_distribution,
)
from sira.mechanism import AuctionConfig, run_repeated_sira, run_reserve_threshold, run_sira
from sira.seeding import substream
from sira.strategy import sira_bid, sira_decision_arrays
from sira.value_model import (
    PREMIUM_BRANCHES,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    beta22_ppf,
    sample_total_values,
)

B = 7
SIZES = [1, B - 1, B, B + 1, 3 * B + 2]
P_EPS = 0.5


def _bits(value):
    """The bytes of a result, field by field, so that -0.0 differs from 0.0."""
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _assert_blocks_change_no_bit(compute):
    one_block = compute()
    assert B < 3 * B + 2 <= value_model.BLOCK
    with mock.patch.object(value_model, "BLOCK", B):
        blocked = compute()
    assert _bits(blocked) == _bits(one_block)


def _premiums(size, seed=0):
    """Premium values on both sides of the breakpoint P_EPS / 2 in every block."""
    y = np.random.default_rng(seed).random(size) * 0.5
    y[::2] = np.minimum(y[::2], 0.2)
    y[1::2] = np.maximum(y[1::2], 0.3)
    return y


def _population(size, seed=2):
    """Premium values as _premiums, with deployment values that put agents
    on both sides of participation."""
    v_p = _premiums(size, seed)
    return np.minimum(v_p + 0.3, 1.0 - v_p), v_p


# The population kernels that evaluate the premium distribution, each on
# (family, deployment values, premium values).
KERNELS = {
    "sira_bid": lambda family, v_d, v_p: sira_bid(family, v_p, P_EPS),
    "sira_decision_arrays": lambda family, v_d, v_p: sira_decision_arrays(
        v_d, v_p, P_EPS, family, SafetyCostModel(2.0)),
}


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ["pdf", "cdf", "cdf_integral", "cdf_and_integral"])
def test_premium_distribution_is_bit_identical_across_blocks(kind, size, family):
    """The evaluators are elementwise: handed the blocks one at a time,
    they give the bits of one call on the whole, and they cut no blocks
    of their own."""
    dist = PremiumValueDistribution(family, P_EPS)
    y = _premiums(size)
    whole = getattr(dist, kind)(y)
    blocks = mock.Mock(wraps=value_model.blocks)
    with mock.patch.object(value_model, "blocks", blocks):
        parts = [getattr(dist, kind)(y[start : start + B]) for start in range(0, size, B)]
    assert blocks.call_count == 0
    joined = (tuple(map(np.concatenate, zip(*parts))) if kind == "cdf_and_integral"
              else np.concatenate(parts))
    assert _bits(joined) == _bits(whole)


@pytest.mark.parametrize("size", SIZES)
def test_beta22_ppf_is_bit_identical_across_blocks(size):
    q = np.random.default_rng(1).random(size)
    q[::2] = np.minimum(q[::2], 0.4)
    q[1::2] = np.maximum(q[1::2], 0.6)
    _assert_blocks_change_no_bit(lambda: beta22_ppf(q))


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", SIZES)
def test_sampled_total_values_are_bit_identical_across_blocks(size, family):
    _assert_blocks_change_no_bit(
        lambda: sample_total_values(family, substream(3, 0), size, lower=0.3))


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_bids_and_decisions_are_bit_identical_across_blocks(kernel, size, family):
    v_d, v_p = _population(size)
    _assert_blocks_change_no_bit(lambda: KERNELS[kernel](family, v_d, v_p))


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", [s for s in SIZES if s >= 2])
def test_experiments_are_bit_identical_across_blocks(size, family):
    # Both experiments need at least two draws, so size 1 is left out.
    deltas = [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0]
    _assert_blocks_change_no_bit(
        lambda: deviation_sweep(family, P_EPS, 0.5, 0.25, deltas, size, seed=4))
    _assert_blocks_change_no_bit(
        lambda: validate_product_distribution(family, P_EPS, size, 10, seed=5))


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_a_clamp_failure_in_the_last_block_is_a_numerical_error(kernel):
    family = ValueFamily.UNIFORM
    lo_branch, hi_branch = PREMIUM_BRANCHES[family]["cdf"]
    v_d, v_p = _population(3 * B + 2)
    v_p[-1] = 0.45

    def broken_hi(side, p):
        out = hi_branch(side, p)
        out[side == 0.45] = 1.0 + 1e-9
        return out

    with mock.patch.object(value_model, "BLOCK", B):
        KERNELS[kernel](family, v_d, v_p)
        with mock.patch.dict(PREMIUM_BRANCHES[family], cdf=(lo_branch, broken_hi)):
            with pytest.raises(NumericalError, match="premium cdf rose above 1"):
                KERNELS[kernel](family, v_d, v_p)


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_an_out_of_range_value_in_the_last_block_is_a_domain_error(kernel):
    v_d, v_p = _population(3 * B + 2)
    v_p[-1] = 0.5000001
    with mock.patch.object(value_model, "BLOCK", B):
        with pytest.raises(DomainError, match="premium value outside"):
            KERNELS[kernel](ValueFamily.BETA22, v_d, v_p)


def test_an_out_of_range_quantile_in_the_last_block_fails_before_any_block():
    q = np.linspace(0.0, 1.0, 3 * B + 2)
    q[-1] = 1.0 + 1e-12
    blocks = mock.Mock(wraps=value_model.blocks)
    with mock.patch.object(value_model, "BLOCK", B), \
            mock.patch.object(value_model, "blocks", blocks):
        with pytest.raises(DomainError, match="quantile outside"):
            beta22_ppf(q)
    assert blocks.call_count == 0


# Every path that evaluates a population, at two blocks and a few agents.
N_TWO_BLOCKS = 2 * value_model.BLOCK + 5
PATHS = {
    "auction": lambda n: run_sira(AuctionConfig(n, 0.5, ValueFamily.UNIFORM, seed=1)),
    "reserve": lambda n: run_reserve_threshold(AuctionConfig(n, 0.5, ValueFamily.UNIFORM, seed=1)),
    "repeat": lambda n: run_repeated_sira(
        AuctionConfig(n, 0.5, ValueFamily.BETA22, seed=1, rounds=2)),
    "sweep": lambda n: threshold_sweep(ValueFamily.BETA22, [0.3, 0.6], n, seed=1),
    "deviation": lambda n: deviation_sweep(ValueFamily.UNIFORM, P_EPS, 0.5, 0.25, [0.1], n, seed=1),
    "validate-dist": lambda n: validate_product_distribution(
        ValueFamily.BETA22, P_EPS, n, 40, seed=1),
    "equilibrium-crosscheck": lambda n: equilibrium_crosscheck(
        ValueFamily.UNIFORM, P_EPS, 0.1, 0.02, n, seed=1),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_premium_evaluators_receive_at_most_one_block(path, monkeypatch):
    """Every population passes through the premium evaluators in blocks
    of at most BLOCK elements; the reserve engine never evaluates them."""
    sizes = []
    real = PremiumValueDistribution._eval

    def recording(self, y, **ranges):
        sizes.append(np.size(y))
        return real(self, y, **ranges)

    monkeypatch.setattr(PremiumValueDistribution, "_eval", recording)
    PATHS[path](N_TWO_BLOCKS)
    assert max(sizes, default=0) <= value_model.BLOCK
    if path == "reserve":
        assert sizes == []
    else:
        assert sum(sizes) >= N_TWO_BLOCKS


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
def test_a_million_agent_decision_holds_at_most_8_mib_beyond_its_columns(family):
    """tracemalloc peak of sira_decision_arrays at 1e6 agents, less the
    five columns it returns (31.5 MiB), stays at or below 8 MiB. A kernel
    that evaluates the cap, utility and safety over the whole population
    at once holds 15.2 MiB beyond them."""
    totals, lam = value_model.sample_valuations(family, substream(1, 0), 1_000_000)
    v_p = lam * totals
    v_d = totals - v_p
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        decision = sira_decision_arrays(v_d, v_p, P_EPS, family, SafetyCostModel())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decision.bid.size == v_p.size
    assert peak - retained <= 8 * 2**20, (peak - start, retained - start)


# At most four float64 arrays of n elements: the prior kernels held about
# eight (60-68 MiB at 1e6), the blocked ones hold two and a block's
# temporaries (15-21 MiB).
BYTES_PER_DRAW = 32


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
def test_million_draw_experiments_hold_at_most_four_arrays(family):
    """tracemalloc peak of deviation_sweep and validate_product_distribution
    at n = 1e6 draws stays below 32 B per draw (30.5 MiB)."""
    n = 1_000_000
    runs = {
        "deviation_sweep": lambda: deviation_sweep(
            family, P_EPS, 0.5, 0.25, [-0.5, -0.1, 0.1, 0.5], n, seed=1),
        "validate_product_distribution": lambda: validate_product_distribution(
            family, P_EPS, n, 40, seed=1),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in runs.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(peak < BYTES_PER_DRAW * n for peak in peaks.values()), peaks
