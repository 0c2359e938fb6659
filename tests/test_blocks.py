"""Blocked population kernels: bit identity across block boundaries, the
errors of a blocked evaluation, and the memory the 1e6-draw experiments
hold.

The elementwise kernels run over blocks of value_model.BLOCK elements.
Patching BLOCK to a few elements makes small inputs cross block
boundaries; every result must then equal the one-block result bit for
bit.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sira import value_model
from sira.errors import DomainError, NumericalError
from sira.experiments import deviation_sweep, validate_product_distribution
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


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ["pdf", "cdf", "cdf_integral", "cdf_and_integral"])
def test_premium_distribution_is_bit_identical_across_blocks(kind, size, family):
    dist = PremiumValueDistribution(family, P_EPS)
    y = _premiums(size)
    _assert_blocks_change_no_bit(lambda: getattr(dist, kind)(y))


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
def test_bids_and_decisions_are_bit_identical_across_blocks(size, family):
    v_p = _premiums(size, seed=2)
    v_d = np.minimum(v_p + 0.3, 1.0 - v_p)
    _assert_blocks_change_no_bit(lambda: sira_bid(family, v_p, P_EPS))
    _assert_blocks_change_no_bit(
        lambda: sira_decision_arrays(v_d, v_p, P_EPS, family, SafetyCostModel(2.0)))


@pytest.mark.parametrize("family", list(ValueFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("size", [s for s in SIZES if s >= 2])
def test_experiments_are_bit_identical_across_blocks(size, family):
    # Both experiments need at least two draws, so size 1 is left out.
    deltas = [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0]
    _assert_blocks_change_no_bit(
        lambda: deviation_sweep(family, P_EPS, 0.5, 0.25, deltas, size, seed=4))
    _assert_blocks_change_no_bit(
        lambda: validate_product_distribution(family, P_EPS, size, 10, seed=5))


def test_a_clamp_failure_in_the_last_block_is_a_numerical_error():
    family = ValueFamily.UNIFORM
    lo_branch, hi_branch = PREMIUM_BRANCHES[family]["cdf"]
    y = _premiums(3 * B + 2)
    y[-1] = 0.45

    def broken_hi(side, p):
        out = hi_branch(side, p)
        out[side == 0.45] = 1.0 + 1e-9
        return out

    dist = PremiumValueDistribution(family, P_EPS)
    with mock.patch.object(value_model, "BLOCK", B):
        dist.cdf(y)
        with mock.patch.dict(PREMIUM_BRANCHES[family], cdf=(lo_branch, broken_hi)):
            with pytest.raises(NumericalError, match="premium cdf rose above 1"):
                dist.cdf(y)
            with pytest.raises(NumericalError, match="premium cdf rose above 1"):
                sira_bid(family, y, P_EPS)


@pytest.mark.parametrize("kind", ["pdf", "cdf", "cdf_integral", "cdf_and_integral"])
def test_an_out_of_range_value_in_the_last_block_fails_before_any_block(kind):
    y = _premiums(3 * B + 2)
    y[-1] = 0.5000001
    dist = PremiumValueDistribution(ValueFamily.BETA22, P_EPS)
    blocks = mock.Mock(wraps=value_model.blocks)
    with mock.patch.object(value_model, "BLOCK", B), \
            mock.patch.object(value_model, "blocks", blocks):
        with pytest.raises(DomainError, match="premium value outside"):
            getattr(dist, kind)(y)
        q = np.linspace(0.0, 1.0, 3 * B + 2)
        q[-1] = 1.0 + 1e-12
        with pytest.raises(DomainError, match="quantile outside"):
            beta22_ppf(q)
    assert blocks.call_count == 0


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
