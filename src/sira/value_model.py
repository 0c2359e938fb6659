"""Value model: safety costs, agent valuations, premium-value distribution.

An agent is described by a total value V in [0, 1] and a scaling factor
lambda in [0, 1/2]. The premium value is the product v_p = lambda * V and
the deployment value is the remainder v_d = V - v_p. Two total-value
families are supported: Uniform on [0, 1] and Beta(2, 2).

For auction participants the total value is conditioned on [p_eps, 1],
where p_eps is the clearing price: lower values never clear. Under that
conditioning the product v_p = lambda * V has a piecewise density on
[0, 1/2] with a single breakpoint at p_eps / 2, because products below
the breakpoint can be reached from every admissible V while products
above it constrain V from below. Closed forms for the density, the
distribution function, and its running integral are implemented per
family, each as an explicit pair of branch functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError

PREMIUM_MAX = 0.5
_CLAMP_TOL = 1e-14
_HALF_SQRT3 = 0.5 * math.sqrt(3.0)


class ValueFamily(Enum):
    """Supported total-value distributions on [0, 1]."""

    UNIFORM = "uniform"
    BETA22 = "beta22"


# ---------------------------------------------------------------------------
# Safety-cost model


@dataclass(frozen=True)
class SafetyCostModel:
    """Strictly increasing cost of safety M(s) = s ** gamma on [0, 1].

    The model converts between safety levels and money: the clearing
    price of a safety floor epsilon is M(epsilon), and a bid b buys the
    safety level M^{-1}(b). gamma = 1 is the identity map.
    """

    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0) or not np.isfinite(self.gamma):
            raise DomainError(f"gamma must be a positive real, got {self.gamma}")

    def cost(self, safety):
        """Money required to operate at the given safety level."""
        s = np.asarray(safety, dtype=float)
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise DomainError("safety level outside [0, 1]")
        out = s**self.gamma
        return float(out) if np.isscalar(safety) else out

    def price_of_safety(self, epsilon):
        """Clearing price p_eps = M(epsilon) for a safety floor epsilon."""
        e = np.asarray(epsilon, dtype=float)
        if np.any(e <= 0.0) or np.any(e >= 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
        out = e**self.gamma
        return float(out) if np.isscalar(epsilon) else out

    def safety_from_bid(self, bid):
        """Safety level M^{-1}(b) bought by a bid b in (0, 1]."""
        b = np.asarray(bid, dtype=float)
        if np.any(b <= 0.0) or np.any(b > 1.0):
            raise DomainError("bid outside (0, 1]")
        out = b ** (1.0 / self.gamma)
        return float(out) if np.isscalar(bid) else out


# ---------------------------------------------------------------------------
# Total-value families


def beta22_pdf(x):
    """Density 6 x (1 - x) of Beta(2, 2)."""
    x = np.asarray(x, dtype=float)
    return 6.0 * x * (1.0 - x)


def beta22_cdf(x):
    """Distribution function 3 x^2 - 2 x^3 of Beta(2, 2)."""
    x = np.asarray(x, dtype=float)
    return 3.0 * x**2 - 2.0 * x**3


def beta22_ppf(q):
    """Inverse of the Beta(2, 2) distribution function, in closed form.

    The root of 3 x^2 - 2 x^3 = s on [0, 1/2] is
    h = sin^2(phi / 2) + (sqrt(3) / 2) sin(phi) with
    phi = (2 / 3) asin(sqrt(s)), a sum of two non-negative terms, so it
    keeps full relative accuracy as s -> 0. Quantiles above the median
    use the symmetry x(q) = 1 - h(1 - q), where 1 - q is exact. Consumes
    no randomness, so inverse-transform sampling draws exactly one
    uniform per sample.
    """
    scalar = np.isscalar(q)
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise DomainError("quantile outside [0, 1]")
    upper = q_arr > 0.5
    phi = (2.0 / 3.0) * np.arcsin(np.sqrt(np.where(upper, 1.0 - q_arr, q_arr)))
    h = np.sin(0.5 * phi) ** 2 + _HALF_SQRT3 * np.sin(phi)
    x = np.where(upper, 1.0 - h, h)
    return float(x) if scalar else x


def total_value_cdf(family: ValueFamily, x):
    """Distribution function of the untruncated total value V."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("total value outside [0, 1]")
    if family is ValueFamily.UNIFORM:
        return x.copy()
    return beta22_cdf(x)


def sample_total_values(
    family: ValueFamily, rng: np.random.Generator, size: int, lower: float = 0.0
) -> np.ndarray:
    """Draw total values from the family conditioned on [lower, 1].

    Inverse-transform sampling: one uniform is consumed per sample and
    mapped through the truncated quantile function.
    """
    if not (0.0 <= lower < 1.0):
        raise DomainError(f"lower truncation point outside [0, 1): {lower}")
    u = rng.random(size)
    if family is ValueFamily.UNIFORM:
        return lower + u * (1.0 - lower)
    if family is ValueFamily.BETA22:
        q_lo = float(beta22_cdf(lower))
        return beta22_ppf(q_lo + u * (1.0 - q_lo))
    raise DomainError(f"unknown value family: {family!r}")


def sample_scaling_factors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw scaling factors lambda uniformly from [0, 1/2]."""
    return 0.5 * rng.random(size)


# ---------------------------------------------------------------------------
# Agent valuation


@dataclass(frozen=True)
class AgentValuation:
    """One agent's value split into deployment and premium components.

    deployment_value is defined as total_value - premium_value, so the
    two components reconstruct the total within one floating-point ulp.
    """

    total_value: float
    scaling_factor: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.total_value <= 1.0):
            raise DomainError(f"total_value outside [0, 1]: {self.total_value}")
        if not (0.0 <= self.scaling_factor <= 0.5):
            raise DomainError(f"scaling_factor outside [0, 1/2]: {self.scaling_factor}")

    @property
    def premium_value(self) -> float:
        return self.scaling_factor * self.total_value

    @property
    def deployment_value(self) -> float:
        return self.total_value - self.premium_value


def sample_agent_valuation(
    family: ValueFamily, rng: np.random.Generator, lower: float = 0.0
) -> AgentValuation:
    """Draw one agent valuation; consumes one uniform for V, one for lambda."""
    total = float(sample_total_values(family, rng, 1, lower)[0])
    lam = float(sample_scaling_factors(rng, 1)[0])
    return AgentValuation(total_value=total, scaling_factor=lam)


def sample_valuations(
    family: ValueFamily, rng: np.random.Generator, size: int, lower: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a population of (total value, scaling factor) arrays.

    The total-value block is drawn before the scaling-factor block, so
    populations with the same stream and size are reproducible.
    """
    totals = sample_total_values(family, rng, size, lower)
    lams = sample_scaling_factors(rng, size)
    return totals, lams


# ---------------------------------------------------------------------------
# Premium-value distribution: branch functions per family

# Branch "lo" covers y <= p/2, branch "hi" covers p/2 < y <= 1/2. Each hi
# branch is written as 1 - tail / mass (cdf) or as y - E[v_p] plus the
# integrated tail (running integral), with tail and mass computed without
# subtracting nearly equal numbers, so the cdf stays accurate to about
# one ulp up to p = 1 - 1e-6, where the Beta(2, 2) truncation mass is ~3e-12.

# Uniform family, V | V >= p on [p, 1], lambda uniform on [0, 1/2];
# the hi branches use u = 2y.


def _unif_pdf_lo(y, p):
    return np.full_like(y, 2.0 * np.log(p) / (p - 1.0))


def _unif_pdf_hi(y, p):
    return 2.0 * np.log(2.0 * y) / (p - 1.0)


def _unif_cdf_lo(y, p):
    return 2.0 * y * np.log(p) / (p - 1.0)


def _unif_cdf_hi(y, p):
    u = 2.0 * y
    return 1.0 - (u * np.log(u) + (1.0 - u)) / (1.0 - p)


def _unif_int_lo(y, p):
    return y**2 * np.log(p) / (p - 1.0)


def _unif_int_hi(y, p):
    u = 2.0 * y
    w = 1.0 - u
    tail = w * (0.75 * w - 0.5) - u * y * np.log(u)
    return y - (1.0 + p) / 8.0 + tail / (2.0 * (1.0 - p))


# Beta(2, 2) family. The truncation mass is D = (1 - p)^2 (1 + 2p) and
# the hi branches use t = 1 - 2y.


def _beta_mass(p: float) -> float:
    return (1.0 - p) ** 2 * (1.0 + 2.0 * p)


def _beta_pdf_lo(y, p):
    return np.full_like(y, 6.0 / (1.0 + 2.0 * p))


def _beta_pdf_hi(y, p):
    t = 1.0 - 2.0 * y
    return 6.0 * t * t / _beta_mass(p)


def _beta_cdf_lo(y, p):
    return 6.0 * y / (1.0 + 2.0 * p)


def _beta_cdf_hi(y, p):
    t = 1.0 - 2.0 * y
    return 1.0 - t * t * t / _beta_mass(p)


def _beta_int_lo(y, p):
    return 3.0 * y**2 / (1.0 + 2.0 * p)


def _beta_int_hi(y, p):
    t = 1.0 - 2.0 * y
    offset = (6.0 * p**2 - (1.0 - p) ** 2) / (8.0 * (1.0 + 2.0 * p))
    return y - p / 2.0 + offset + t**4 / (8.0 * _beta_mass(p))


_BranchPair = tuple[Callable[..., np.ndarray], Callable[..., np.ndarray]]

PREMIUM_BRANCHES: dict[ValueFamily, dict[str, _BranchPair]] = {
    ValueFamily.UNIFORM: {
        "pdf": (_unif_pdf_lo, _unif_pdf_hi),
        "cdf": (_unif_cdf_lo, _unif_cdf_hi),
        "cdf_integral": (_unif_int_lo, _unif_int_hi),
    },
    ValueFamily.BETA22: {
        "pdf": (_beta_pdf_lo, _beta_pdf_hi),
        "cdf": (_beta_cdf_lo, _beta_cdf_hi),
        "cdf_integral": (_beta_int_lo, _beta_int_hi),
    },
}


def _clamped(values: np.ndarray, lo: float | None, hi: float | None, what: str) -> np.ndarray:
    """Absorb round-off up to 1e-14 outside the valid range, else fail."""
    if lo is not None:
        if np.any(values < lo - _CLAMP_TOL):
            raise NumericalError(f"{what} fell below {lo} beyond round-off")
        values = np.maximum(values, lo)
    if hi is not None:
        if np.any(values > hi + _CLAMP_TOL):
            raise NumericalError(f"{what} rose above {hi} beyond round-off")
        values = np.minimum(values, hi)
    return values


@dataclass(frozen=True)
class PremiumValueDistribution:
    """Distribution of the premium value v_p = lambda * V of a participant.

    V follows the family conditioned on [p_eps, 1] and lambda is uniform
    on [0, 1/2]. All three evaluators are piecewise with the single
    breakpoint p_eps / 2 and accept scalars or arrays on [0, 1/2].
    """

    family: ValueFamily
    p_eps: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_eps < 1.0):
            raise DomainError(f"p_eps must lie in (0, 1), got {self.p_eps}")
        if self.family not in PREMIUM_BRANCHES:
            raise DomainError(f"unknown value family: {self.family!r}")

    @property
    def breakpoint(self) -> float:
        return self.p_eps / 2.0

    def _eval(self, y, kind: str, lo: float | None, hi: float | None):
        scalar = np.isscalar(y)
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(arr < 0.0) or np.any(arr > PREMIUM_MAX):
            raise DomainError(f"premium value outside [0, {PREMIUM_MAX}]")
        fn_lo, fn_hi = PREMIUM_BRANCHES[self.family][kind]
        p = self.p_eps
        out = np.piecewise(
            arr,
            [arr <= self.breakpoint],
            [lambda t: fn_lo(t, p), lambda t: fn_hi(t, p)],
        )
        out = _clamped(out, lo, hi, f"premium {kind}")
        return float(out[0]) if scalar else out

    def pdf(self, y):
        """Density f_v(y) of the premium value."""
        return self._eval(y, "pdf", 0.0, None)

    def cdf(self, y):
        """Distribution function F_v(y) of the premium value."""
        return self._eval(y, "cdf", 0.0, 1.0)

    def cdf_integral(self, y):
        """Running integral of F_v from 0 to y."""
        return self._eval(y, "cdf_integral", 0.0, None)

    def cdf_scalar(self, y: float) -> float:
        """Plain-float evaluation of cdf, for quadrature inner loops.

        Agrees with cdf to floating-point round-off while avoiding
        array dispatch, which dominates the cost of adaptive
        integration.
        """
        y = float(y)
        if not (0.0 <= y <= PREMIUM_MAX):
            raise DomainError(f"premium value outside [0, {PREMIUM_MAX}]")
        p = self.p_eps
        if self.family is ValueFamily.UNIFORM:
            if y <= self.breakpoint:
                val = 2.0 * y * math.log(p) / (p - 1.0)
            else:
                u = 2.0 * y
                val = 1.0 - (u * math.log(u) + (1.0 - u)) / (1.0 - p)
        elif y <= self.breakpoint:
            val = 6.0 * y / (1.0 + 2.0 * p)
        else:
            t = 1.0 - 2.0 * y
            val = 1.0 - t * t * t / _beta_mass(p)
        if val < 0.0 or val > 1.0:
            if val < -_CLAMP_TOL or val > 1.0 + _CLAMP_TOL:
                raise NumericalError("premium cdf outside [0, 1] beyond round-off")
            val = min(max(val, 0.0), 1.0)
        return val


# ---------------------------------------------------------------------------
# Empirical summaries


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Histogram summary of premium-value samples on [0, 1/2]."""

    bin_edges: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def right_edges(self) -> np.ndarray:
        return self.bin_edges[1:]


def empirical_pdf_cdf(samples, bins: int) -> EmpiricalDistribution:
    """Bin premium-value samples into a density and cumulative table.

    Uses equal-width bins over the full support [0, 1/2]; the cumulative
    column is evaluated at the right bin edges and ends at exactly 1.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("samples must be a non-empty one-dimensional collection")
    if bins < 10:
        raise DomainError(f"bins must be at least 10, got {bins}")
    if np.any(arr < 0.0) or np.any(arr > PREMIUM_MAX):
        raise DomainError(f"samples outside [0, {PREMIUM_MAX}]")
    counts, edges = np.histogram(arr, bins=bins, range=(0.0, PREMIUM_MAX))
    width = PREMIUM_MAX / bins
    density = counts / (arr.size * width)
    cumulative = np.cumsum(counts) / arr.size
    return EmpiricalDistribution(bin_edges=edges, density=density, cumulative=cumulative)
