"""Bidding strategies for the two regulatory mechanisms.

Reserve thresholding: every agent that participates bids exactly the
clearing price p_eps, and participation pays off precisely when the
deployment value v_d exceeds p_eps.

SIRA equilibrium bidding: the premium is awarded through an all-pay
comparison, and the symmetric equilibrium bid of an agent with premium
value v_p is

    b_hat = p_eps + v_p * F_v(v_p) - integral_0^{v_p} F_v(z) dz

where F_v is the premium-value distribution of participants. Submitted
bids are capped at 1, the maximum meaningful payment. The bid is composed
once, for every family, from the closed forms of F_v and its running
integral in PremiumValueDistribution; a generic route evaluates the same
formula with the integral taken by numerical quadrature and should agree
to high accuracy.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import adaptive_simpson
from .value_model import (
    PREMIUM_MAX,
    PremiumValueDistribution,
    SafetyCostModel,
    AgentValuation,
    ValueFamily,
    blocks,
)

P_EPS_MIN = 1e-6
P_EPS_MAX = 1.0 - 1e-6


def check_p_eps(p_eps: float) -> float:
    """Validate the clearing price against the supported window."""
    if not (P_EPS_MIN <= p_eps <= P_EPS_MAX):
        raise DomainError(
            f"p_eps must lie in [{P_EPS_MIN}, {P_EPS_MAX}], got {p_eps}"
        )
    return float(p_eps)


def cap_bid(raw_bid):
    """Cap a raw bid at 1, the largest payment that can ever pay off."""
    raw = np.asarray(raw_bid, dtype=float)
    if not np.all(raw >= 0.0):
        raise DomainError("raw bid must be non-negative")
    out = np.minimum(raw, 1.0)
    return float(out) if np.ndim(raw_bid) == 0 else out


def _block_bid(dist: PremiumValueDistribution, v_p: np.ndarray):
    """Uncapped equilibrium bid at one block of premium values, and the
    premium cdf F_v(v_p) it used."""
    cdf, integral = dist.cdf_and_integral(v_p)
    return dist.p_eps + v_p * cdf - integral, cdf


def sira_bid(family: ValueFamily, v_p, p_eps):
    """Uncapped equilibrium bid p_eps + v_p F_v(v_p) - integral_0^{v_p} F_v,
    built block by block into an array of v_p's shape."""
    dist = PremiumValueDistribution(family=family, p_eps=check_p_eps(p_eps))
    v = np.asarray(v_p, dtype=float).reshape(-1)
    bid = np.empty(v.size)
    for block in blocks(v.size):
        bid[block] = _block_bid(dist, v[block])[0]
    return float(bid[0]) if np.ndim(v_p) == 0 else bid.reshape(np.shape(v_p))


def sira_bid_generic(
    premium_cdf: Callable[[np.ndarray], np.ndarray], v_p, p_eps: float
):
    """Equilibrium bid from an arbitrary premium-value cdf.

    Evaluates the defining formula at every v_p, with the running
    integral of the cdf computed by adaptive Simpson quadrature, splitting
    panels at the distribution breakpoint p_eps / 2, and the cdf at v_p
    taken a block at a time. premium_cdf is called on arrays; a v_p with
    ndim 0 returns a float.
    """
    p_eps = check_p_eps(p_eps)
    scalar = np.ndim(v_p) == 0
    v = np.atleast_1d(np.asarray(v_p, dtype=float))
    if not np.all((v >= 0.0) & (v <= PREMIUM_MAX)):
        raise DomainError(f"premium value outside [0, {PREMIUM_MAX}]")
    flat_v = v.reshape(-1)
    # Each block of bid holds the running integral until the bid replaces it.
    bid = adaptive_simpson(premium_cdf, 0.0, flat_v, breakpoints=(p_eps / 2.0,))
    for block in blocks(bid.size):
        bid[block] = p_eps + flat_v[block] * premium_cdf(flat_v[block]) - bid[block]
    return float(bid[0]) if scalar else bid.reshape(v.shape)


def predicted_utilities(v_d, v_p, bid, cdf_at_v_p):
    """Expected utility of submitting an equilibrium bid.

    Against equilibrium opponents a bid below 1 wins the premium with
    probability F_v(v_p); a bid capped at 1 wins outright. The bid
    itself is sunk either way. The contest settles a tie between two
    capped bids by a coin, so where opponents also bid the cap this
    overstates a capped bid's utility (ROADMAP item 3).
    """
    return np.where(bid >= 1.0, v_d + v_p - 1.0, v_d + v_p * cdf_at_v_p - bid)


def realized_utilities(v_d, v_p, bid, accepted, won):
    """Utility realized by agents that submitted (and sank) a bid.

    A rejected bid is lost outright; an accepted bid earns the
    deployment value, plus the premium when it wins its comparison.
    """
    return np.where(accepted, v_d + v_p * won - bid, -bid)


class Decision(NamedTuple):
    """A strategy evaluation: one column per field over a population, or
    one agent's Python values (see _first_decision).

    predicted_utility is the expected utility of participating;
    participates is true exactly when that utility is strictly positive.
    safety is the safety level bought by the submitted bid, 0 for agents
    that stay out.
    """

    raw_bid: np.ndarray
    bid: np.ndarray
    predicted_utility: np.ndarray
    participates: np.ndarray
    safety: np.ndarray


def _first_decision(arrays: Decision) -> Decision:
    """The first agent of a population evaluation, as plain Python values."""
    return Decision(*(column[0].item() for column in arrays))


def reserve_decision_arrays(
    deployment_value: np.ndarray, p_eps: float, model: SafetyCostModel
) -> Decision:
    """Evaluate the reserve-threshold strategy for a whole population at once.

    Every agent's bid is exactly the clearing price, below the cap, so
    raw_bid and bid are one array. An agent participates when its
    deployment value strictly exceeds that price.
    """
    check_p_eps(p_eps)
    v_d = np.asarray(deployment_value, dtype=float)
    bid = np.full(v_d.shape, float(p_eps))
    utility = v_d - p_eps
    participates = utility > 0.0
    safety = np.where(participates, model.safety_from_bid(p_eps), 0.0)
    return Decision(bid, bid, utility, participates, safety)


def reserve_threshold_bid(
    deployment_value: float,
    p_eps: float,
    model: SafetyCostModel = SafetyCostModel(),
) -> Decision:
    """Reserve-threshold decision for one agent: bid the clearing price or stay out."""
    if not (0.0 <= deployment_value <= 1.0):
        raise DomainError(f"deployment value outside [0, 1]: {deployment_value}")
    return _first_decision(reserve_decision_arrays(np.array([deployment_value]), p_eps, model))


def sira_decision_arrays(
    deployment_value: np.ndarray,
    premium_value: np.ndarray,
    p_eps: float,
    family: ValueFamily,
    model: SafetyCostModel,
) -> Decision:
    """Evaluate the SIRA strategy for a 1-D population, block by block.

    The one place where a SIRA decision is built: the equilibrium bid,
    its cap, the predicted utility, participation and safety, each
    written a block at a time into preallocated columns. The equilibrium
    bid never falls below the clearing price, and the cap at 1 lies above
    it, so a participant bidding below the price is a numerical failure
    and raises NumericalError.
    """
    dist = PremiumValueDistribution(family=family, p_eps=check_p_eps(p_eps))
    v_d = np.asarray(deployment_value, dtype=float)
    v_p = np.asarray(premium_value, dtype=float)
    out = Decision(*(np.empty(v_p.shape, dtype) for dtype in (float, float, float, bool, float)))
    for block in blocks(v_p.size):
        raw, cdf = _block_bid(dist, v_p[block])
        out.raw_bid[block] = raw
        bid = out.bid[block] = cap_bid(raw)
        utility = out.predicted_utility[block] = predicted_utilities(
            v_d[block], v_p[block], bid, cdf)
        participates = out.participates[block] = utility > 0.0
        out.safety[block] = np.where(participates, model.safety_from_bid(bid), 0.0)
        if np.any(participates & (bid < dist.p_eps)):
            raise NumericalError("a participant's bid fell below the clearing price")
    return out


def decide(
    valuation: AgentValuation,
    p_eps: float,
    family: ValueFamily,
    model: SafetyCostModel = SafetyCostModel(),
) -> Decision:
    """Full SIRA decision for one agent: bid, cap, utility, participation."""
    return _first_decision(
        sira_decision_arrays(
            np.array([valuation.deployment_value]),
            np.array([valuation.premium_value]),
            p_eps,
            family,
            model,
        )
    )
