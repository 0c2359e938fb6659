"""Accuracy of the premium-value closed forms, the equilibrium bid and the
Beta(2, 2) quantile over the whole accepted clearing-price window.

The oracle evaluates the defining integrals in 50-digit decimal
arithmetic, written directly from the model (V conditioned on [p, 1],
lambda uniform on [0, 1/2]) rather than in the rearranged forms the
package uses, so cancellation in the package shows up as disagreement.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sira.strategy import P_EPS_MAX, P_EPS_MIN, sira_bid
from sira.value_model import (
    PREMIUM_MAX,
    PremiumValueDistribution,
    ValueFamily,
    beta22_cdf,
    beta22_ppf,
)

EDGE_P = [1e-6, 0.3, 0.9, 0.999, 0.99999, 1.0 - 1e-6]


def _oracle(family: ValueFamily, p: float, y: float) -> tuple[Decimal, Decimal, Decimal]:
    """F(y), the running integral of F up to y, and the bid at y, to 50 digits.

    With u = 2y and m = max(u, p), F(y) = P(lambda V <= y) splits V at m:
    below it every lambda qualifies, above it only lambda <= y / V does.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        p, y = Decimal(p), Decimal(y)
        u = 2 * y
        m = max(u, p)
        if family is ValueFamily.UNIFORM:
            cdf = (m - p - u * m.ln()) / (1 - p)
            if u <= p:
                integral = y * y * -p.ln() / (1 - p)
            else:
                integral = Decimal("1.5") * y * y - p * y + p * p / 8 - y * y * u.ln()
                integral /= 1 - p
        else:

            def big_b(x):
                return 3 * x * x - 2 * x * x * x

            def antiderivative(z):
                return 3 * z * z - 4 * z**3 + 2 * z**4 - big_b(p) * z

            mass = 1 - big_b(p)
            cdf = (big_b(m) - big_b(p) + 3 * u * (1 - m) ** 2) / mass
            half = p / 2
            integral = 3 * min(y, half) ** 2 * (1 - p) ** 2 / mass
            if u > p:
                integral += (antiderivative(y) - antiderivative(half)) / mass
        return cdf, integral, p + y * cdf - integral


def _oracle_ppf(q: float) -> Decimal:
    """Root of 3 x^2 - 2 x^3 = q on [0, 1] by Newton's method in 50 digits.

    Below the median the cubic is convex and increasing on [0, 1/2], so
    Newton started right of the root, at min(1/2, 2 sqrt(q / 3)), falls
    monotonically onto it. Above the median the symmetry x(q) = 1 - x(1 - q)
    applies, and 1 - q is exact in decimal.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(q)
        upper = s > Decimal("0.5")
        if upper:
            s = 1 - s
        x = Decimal(0)
        if s > 0:
            x = min(Decimal("0.5"), 2 * (s / 3).sqrt())
            for _ in range(200):
                step = (3 * x * x - 2 * x**3 - s) / (6 * x * (1 - x))
                x -= step
                if abs(step) <= x * Decimal("1e-45"):
                    break
        return 1 - x if upper else x


def _premium_grid(p: float) -> np.ndarray:
    """Points on both branches, the breakpoint and its float neighbours."""
    bp = p / 2.0
    lo = bp * np.linspace(0.0, 1.0, 21)
    hi = bp + (PREMIUM_MAX - bp) * np.linspace(0.0, 1.0, 21)
    near = [np.nextafter(bp, 0.0), np.nextafter(bp, 1.0), np.nextafter(PREMIUM_MAX, 0.0)]
    return np.unique(np.concatenate([lo, hi, near, np.linspace(0.0, PREMIUM_MAX, 21)]))


@pytest.mark.parametrize("family", list(ValueFamily))
@pytest.mark.parametrize("p_eps", EDGE_P)
def test_closed_forms_and_bid_match_oracle(family, p_eps):
    dist = PremiumValueDistribution(family, p_eps)
    grid = _premium_grid(p_eps)
    got = np.column_stack(
        [dist.cdf(grid), dist.cdf_integral(grid), sira_bid(family, grid, p_eps)]
    )
    want = np.array([[float(v) for v in _oracle(family, p_eps, y)] for y in grid.tolist()])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_beta22_ppf_matches_oracle():
    q = np.concatenate([10.0 ** -np.arange(300.0, 0.0, -7.0), np.linspace(0.0, 1.0, 201)])
    got = beta22_ppf(q)
    want = np.array([float(_oracle_ppf(v)) for v in q.tolist()])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    below = q <= 0.5
    np.testing.assert_allclose(got[below], want[below], rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# Properties over the whole window

FAMILIES = st.sampled_from(list(ValueFamily))
P_WINDOW = st.floats(P_EPS_MIN, P_EPS_MAX)
POSITIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


def _spread(p_eps: float, positions: list[float]) -> np.ndarray:
    """Sorted premium values, half on each branch whatever the breakpoint.

    Position s in [0, 1/2] maps linearly onto [0, p/2] and s in [1/2, 1]
    onto [p/2, 1/2]; near p = 1 the upper branch is only 5e-7 wide, so
    uniform draws on [0, 1/2] would almost never reach it. Each point
    comes with its next three floats, where the true functions barely
    move and rounding noise would show up as a decrease.
    """
    bp = p_eps / 2.0
    s = np.array(positions + [0.0, 0.5, 1.0])
    y = np.where(s <= 0.5, 2.0 * s * bp, bp + (2.0 * s - 1.0) * (PREMIUM_MAX - bp))
    y = y[:, None] + np.spacing(y)[:, None] * np.arange(4.0)
    return np.unique(np.minimum(y, PREMIUM_MAX))


@settings(max_examples=200, deadline=None)
@given(family=FAMILIES, p_eps=P_WINDOW, positions=POSITIONS)
def test_cdf_is_a_distribution_function(family, p_eps, positions):
    dist = PremiumValueDistribution(family, p_eps)
    cdf = dist.cdf(_spread(p_eps, positions))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= -1e-15)
    assert dist.cdf(PREMIUM_MAX) == 1.0


@settings(max_examples=200, deadline=None)
@given(family=FAMILIES, p_eps=P_WINDOW, positions=POSITIONS)
def test_bid_is_at_least_price_and_nondecreasing(family, p_eps, positions):
    bids = sira_bid(family, _spread(p_eps, positions), p_eps)
    assert np.all(bids >= p_eps)
    assert np.all(np.diff(bids) >= -1e-15)


@settings(max_examples=200, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_beta22_ppf_inverts_cdf(q):
    q = np.array(q)
    assert np.all(np.abs(beta22_cdf(beta22_ppf(q)) - q) <= 1e-15)
