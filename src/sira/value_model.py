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
family, each as an explicit pair of branch functions; the class that
evaluates them also draws the population they describe.
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
# Elements per block of an elementwise population kernel: a float64
# temporary is 512 KiB, so a kernel's working set stays in a 4 MiB L2.
BLOCK = 1 << 16


def blocks(n: int) -> list[slice]:
    """Slices of at most BLOCK elements that cover range(n) in order."""
    return [slice(start, start + BLOCK) for start in range(0, n, BLOCK)]


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

    def price_of_safety(self, epsilon):
        """Clearing price p_eps = M(epsilon) for a safety floor epsilon."""
        e = np.asarray(epsilon, dtype=float)
        if not np.all((e > 0.0) & (e < 1.0)):
            raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
        out = e**self.gamma
        return float(out) if np.ndim(epsilon) == 0 else out

    def safety_from_bid(self, bid):
        """Safety level M^{-1}(b) bought by a bid b in (0, 1]."""
        b = np.asarray(bid, dtype=float)
        if not np.all((b > 0.0) & (b <= 1.0)):
            raise DomainError("bid outside (0, 1]")
        out = b ** (1.0 / self.gamma)
        return float(out) if np.ndim(bid) == 0 else out


# ---------------------------------------------------------------------------
# Total-value families


def beta22_cdf(x):
    """Distribution function 3 x^2 - 2 x^3 of Beta(2, 2), on [0, 1]."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
        raise DomainError("Beta(2, 2) argument outside [0, 1]")
    out = 3.0 * x_arr**2 - 2.0 * x_arr**3
    return float(out) if np.ndim(x) == 0 else out


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
    scalar = np.ndim(q) == 0
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr >= 0.0) & (q_arr <= 1.0)):
        raise DomainError("quantile outside [0, 1]")
    x = np.empty(q_arr.shape)
    flat_q, flat_x = q_arr.reshape(-1), x.reshape(-1)
    for block in blocks(flat_q.size):
        q_b = flat_q[block]
        upper = q_b > 0.5
        phi = (2.0 / 3.0) * np.arcsin(np.sqrt(np.minimum(q_b, 1.0 - q_b)))
        h = np.sin(0.5 * phi) ** 2 + _HALF_SQRT3 * np.sin(phi)
        flat_x[block] = np.where(upper, 1.0 - h, h)
    return float(x) if scalar else x


def sample_total_values(
    family: ValueFamily, rng: np.random.Generator, size: int, lower: float = 0.0
) -> np.ndarray:
    """Draw total values from the family conditioned on [lower, 1].

    Inverse-transform sampling: one uniform is consumed per sample and
    mapped through the truncated quantile function. A truncated Beta(2, 2)
    draw is taken from the upper tail, 1 - ppf((1 - u) D) with the tail
    mass D = 1 - cdf(lower) in closed form, because 1 - cdf(lower)
    computed by subtraction cancels as lower approaches 1.
    """
    if not (0.0 <= lower < 1.0):
        raise DomainError(f"lower truncation point outside [0, 1): {lower}")
    u = rng.random(size)
    if family is ValueFamily.UNIFORM:
        u *= 1.0 - lower
        u += lower
        return u
    if family is ValueFamily.BETA22:
        if lower == 0.0:
            return beta22_ppf(u)
        # In place, so this path holds no more arrays than the lower == 0 one.
        np.subtract(1.0, u, out=u)
        u *= _beta_mass(lower)
        x = beta22_ppf(u)
        return np.subtract(1.0, x, out=x)
    raise DomainError(f"unknown value family: {family!r}")


def sample_scaling_factors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw scaling factors lambda uniformly from [0, 1/2]."""
    lams = rng.random(size)
    lams *= 0.5
    return lams


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
    """Absorb round-off up to 1e-14 outside the valid range in place, else fail."""
    if lo is not None:
        if np.any(values < lo - _CLAMP_TOL):
            raise NumericalError(f"{what} fell below {lo} beyond round-off")
        np.maximum(values, lo, out=values)
    if hi is not None:
        if np.any(values > hi + _CLAMP_TOL):
            raise NumericalError(f"{what} rose above {hi} beyond round-off")
        np.minimum(values, hi, out=values)
    return values


@dataclass(frozen=True)
class PremiumValueDistribution:
    """Distribution of the premium value v_p = lambda * V of a participant.

    V follows the family conditioned on [p_eps, 1] and lambda is uniform
    on [0, 1/2]. Every evaluator is piecewise with the single
    breakpoint p_eps / 2 and accepts scalars or arrays on [0, 1/2]. The
    samplers draw the participants whose premium values the law describes.
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

    def _eval(self, y, **ranges: tuple[float | None, float | None]) -> tuple:
        """Each named kind's branch pair at y, clamped to its (lo, hi) range.

        Evaluates exactly the y it is handed, split at the breakpoint once;
        both sides are gathered and scattered by integer index, far cheaper
        than by a mixed boolean mask.
        """
        scalar = np.ndim(y) == 0
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all((arr >= 0.0) & (arr <= PREMIUM_MAX)):
            raise DomainError(f"premium value outside [0, {PREMIUM_MAX}]")
        below = arr <= self.breakpoint
        sides = [(idx, arr[idx]) for idx in (np.nonzero(below), np.nonzero(~below))]
        outs = []
        for kind, (lo, hi) in ranges.items():
            out = np.empty(arr.shape)
            for (idx, side), fn in zip(sides, PREMIUM_BRANCHES[self.family][kind]):
                out[idx] = fn(side, self.p_eps)
            outs.append(_clamped(out, lo, hi, f"premium {kind}"))
        return tuple(float(out[0]) if scalar else out for out in outs)

    def pdf(self, y):
        """Density f_v(y) of the premium value."""
        return self._eval(y, pdf=(0.0, None))[0]

    def cdf(self, y):
        """Distribution function F_v(y) of the premium value."""
        return self._eval(y, cdf=(0.0, 1.0))[0]

    def cdf_integral(self, y):
        """Running integral of F_v from 0 to y."""
        return self._eval(y, cdf_integral=(0.0, None))[0]

    def cdf_and_integral(self, y):
        """F_v(y) and its running integral, from one split of y."""
        return self._eval(y, cdf=(0.0, 1.0), cdf_integral=(0.0, None))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Premium values lambda V of size participants, V conditioned on
        [p_eps, 1]. The product is formed in the lambda buffer and the
        totals are not kept, so at most two full-size arrays are held."""
        totals, v_p = sample_valuations(self.family, rng, size, lower=self.p_eps)
        v_p *= totals
        return v_p

    def sample_bucket(
        self, rng: np.random.Generator, size: int, lo: float, hi: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Total and premium values of participants whose premium lies in [lo, hi].

        Given V, the premium is in the bucket for lambda in an interval of
        width w(V) = (min(hi, V/2) - lo) / V, positive only above 2 lo. So V
        is drawn on [v_min, 1], accepted with w(V) / w_max, and the premium
        drawn uniformly on [lo, min(hi, V/2)], that is lambda on its interval
        (Devroye, Non-Uniform Random Variate Generation, 1986, II.3).
        """
        bucket_mass = float(self.cdf(hi) - self.cdf(lo))
        if bucket_mass <= 0.0:
            raise DomainError("bucket has no probability mass")
        v_min = max(self.p_eps, 2.0 * lo)
        w_max = (hi - lo) / max(2.0 * hi, v_min)
        total_blocks: list[np.ndarray] = []
        premium_blocks: list[np.ndarray] = []
        have = 0
        for _ in range(10_000):
            if have >= size:
                break
            # Bounded blocks keep memory flat; acceptance is >= bucket_mass / (2 w_max).
            need = 1.1 * (size - have) * 2.0 * w_max / bucket_mass
            chunk = int(min(max(need, 10_000), 2_000_000))
            t = sample_total_values(self.family, rng, chunk, v_min)
            top = np.minimum(hi, 0.5 * t)
            keep = np.flatnonzero(rng.random(t.size) * w_max * t < top - lo)
            t, top = t[keep], top[keep]
            total_blocks.append(t)
            premium_blocks.append(top - rng.random(t.size) * (top - lo))
            have += t.size
        else:
            raise NumericalError("bucket sampling failed to fill")
        return np.concatenate(total_blocks)[:size], np.concatenate(premium_blocks)[:size]
