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

from .errors import DomainError
from .quadrature import adaptive_simpson
from .value_model import (
    PREMIUM_MAX,
    PremiumValueDistribution,
    SafetyCostModel,
    AgentValuation,
    ValueFamily,
)

P_EPS_MIN = 1e-6
P_EPS_MAX = 1.0 - 1e-6


class BidDecision(NamedTuple):
    """Outcome of a strategy evaluation for one agent.

    predicted_utility is the expected utility of participating;
    participates is true exactly when that utility is strictly positive.
    safety is the safety level bought by the submitted bid, 0 for agents
    that stay out.
    """

    raw_bid: float
    bid: float
    predicted_utility: float
    participates: bool
    safety: float


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
    if np.any(raw < 0.0):
        raise DomainError("raw bid must be non-negative")
    out = np.minimum(raw, 1.0)
    return float(out) if np.isscalar(raw_bid) else out


def _bid_and_cdf(family: ValueFamily, v_p, p_eps):
    """Uncapped equilibrium bid at v_p and the premium cdf F_v(v_p) it used."""
    p_eps = check_p_eps(p_eps)
    dist = PremiumValueDistribution(family=family, p_eps=p_eps)
    cdf = dist.cdf(v_p)
    return p_eps + v_p * cdf - dist.cdf_integral(v_p), cdf


def sira_bid(family: ValueFamily, v_p, p_eps):
    """Uncapped equilibrium bid p_eps + v_p F_v(v_p) - integral_0^{v_p} F_v."""
    return _bid_and_cdf(family, v_p, p_eps)[0]


def sira_bid_generic(
    premium_cdf: Callable[[float], float], v_p: float, p_eps: float
) -> float:
    """Equilibrium bid from an arbitrary premium-value cdf.

    Evaluates the defining formula with the running integral of the cdf
    computed by adaptive Simpson quadrature, splitting panels at the
    distribution breakpoint p_eps / 2.
    """
    check_p_eps(p_eps)
    v = float(v_p)
    if not (0.0 <= v <= PREMIUM_MAX):
        raise DomainError(f"premium value outside [0, {PREMIUM_MAX}]")
    if v == 0.0:
        return float(p_eps)
    integral = adaptive_simpson(
        lambda t: float(premium_cdf(t)), 0.0, v, breakpoints=(p_eps / 2.0,)
    )
    return p_eps + v * float(premium_cdf(v)) - integral


def submitted_bid(family: ValueFamily, v_p, p_eps):
    """The bid an equilibrium agent submits: the closed-form bid capped at 1."""
    return cap_bid(sira_bid(family, v_p, p_eps))


def predicted_utilities(v_d, v_p, bid, cdf_at_v_p):
    """Expected utility of submitting an equilibrium bid.

    Against equilibrium opponents a bid below 1 wins the premium with
    probability F_v(v_p); a bid capped at 1 wins outright. The bid
    itself is sunk either way.
    """
    return np.where(bid >= 1.0, v_d + v_p - 1.0, v_d + v_p * cdf_at_v_p - bid)


def realized_utilities(v_d, v_p, bid, accepted, won):
    """Utility realized by agents that submitted (and sank) a bid.

    A rejected bid is lost outright; an accepted bid earns the
    deployment value, plus the premium when it wins its comparison.
    """
    return np.where(accepted, v_d + v_p * won - bid, -bid)


def equilibrium_utility(v_d: float, v_p: float, bid: float, premium_cdf) -> float:
    """Scalar view of predicted_utilities; a capped bid never calls the cdf."""
    if bid < 0.0:
        raise DomainError("bid must be non-negative")
    cdf_at_v_p = float(premium_cdf(v_p)) if bid < 1.0 else 1.0
    return float(predicted_utilities(v_d, v_p, bid, cdf_at_v_p))


class DecisionArrays(NamedTuple):
    """Vectorized strategy evaluation over a population."""

    raw_bid: np.ndarray
    bid: np.ndarray
    predicted_utility: np.ndarray
    participates: np.ndarray
    safety: np.ndarray


def _first_decision(arrays: DecisionArrays) -> BidDecision:
    """The first agent of a population evaluation, as plain Python values."""
    return BidDecision(*(column[0].item() for column in arrays))


def reserve_decision_arrays(
    deployment_value: np.ndarray, p_eps: float, model: SafetyCostModel
) -> DecisionArrays:
    """Evaluate the reserve-threshold strategy for a whole population at once.

    Every agent's bid is exactly the clearing price, and an agent
    participates when its deployment value strictly exceeds that price.
    """
    check_p_eps(p_eps)
    v_d = np.asarray(deployment_value, dtype=float)
    bid = np.full(v_d.shape, float(p_eps))
    utility = v_d - p_eps
    participates = utility > 0.0
    safety = np.where(participates, model.safety_from_bid(p_eps), 0.0)
    return DecisionArrays(bid.copy(), bid, utility, participates, safety)


def reserve_threshold_bid(
    deployment_value: float,
    p_eps: float,
    model: SafetyCostModel = SafetyCostModel(),
) -> BidDecision:
    """Reserve-threshold decision for one agent: bid the clearing price or stay out."""
    if not (0.0 <= deployment_value <= 1.0):
        raise DomainError(f"deployment value outside [0, 1]: {deployment_value}")
    return _first_decision(reserve_decision_arrays(np.array([deployment_value]), p_eps, model))


def sira_decision_arrays(
    total_value: np.ndarray,
    scaling_factor: np.ndarray,
    p_eps: float,
    family: ValueFamily,
    model: SafetyCostModel,
) -> DecisionArrays:
    """Evaluate the SIRA strategy for a whole population at once."""
    total = np.asarray(total_value, dtype=float)
    lam = np.asarray(scaling_factor, dtype=float)
    v_p = lam * total
    v_d = total - v_p
    raw, cdf_vals = _bid_and_cdf(family, v_p, p_eps)
    bid = cap_bid(raw)
    utility = predicted_utilities(v_d, v_p, bid, cdf_vals)
    participates = utility > 0.0
    safety = np.where(participates, model.safety_from_bid(bid), 0.0)
    return DecisionArrays(raw, bid, utility, participates, safety)


def decide(
    valuation: AgentValuation,
    p_eps: float,
    family: ValueFamily,
    model: SafetyCostModel = SafetyCostModel(),
) -> BidDecision:
    """Full SIRA decision for one agent: bid, cap, utility, participation."""
    return _first_decision(
        sira_decision_arrays(
            np.array([valuation.total_value]),
            np.array([valuation.scaling_factor]),
            p_eps,
            family,
            model,
        )
    )
