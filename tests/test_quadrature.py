"""Tests for the adaptive Simpson integrator."""

import math

import numpy as np
import pytest

from sira.errors import DomainError, NumericalError
from sira.quadrature import _CHUNK, DEFAULT_MAX_DEPTH, DEFAULT_TOL, adaptive_simpson
from sira.value_model import PremiumValueDistribution, ValueFamily


def test_cubic_is_exact():
    # Simpson's rule integrates cubics exactly, so the adaptive pass
    # should terminate at the first refinement with the exact answer.
    result = adaptive_simpson(lambda x: x**3, 0.0, 1.0)
    assert result == pytest.approx(0.25, abs=1e-14)


def test_quadratic_with_offset():
    result = adaptive_simpson(lambda x: 3.0 * x**2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert result == pytest.approx(9.0 - 3.0 + 3.0, abs=1e-12)


def test_exponential():
    result = adaptive_simpson(np.exp, 0.0, 1.0, tol=1e-12)
    assert result == pytest.approx(math.e - 1.0, abs=1e-11)


def test_arctangent_kernel():
    result = adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-12)
    assert result == pytest.approx(math.pi / 4.0, abs=1e-11)


def test_oscillatory_integrand():
    result = adaptive_simpson(lambda x: np.sin(10.0 * x), 0.0, math.pi, tol=1e-11)
    exact = (1.0 - math.cos(10.0 * math.pi)) / 10.0
    assert result == pytest.approx(exact, abs=1e-9)


def test_zero_width_interval():
    assert adaptive_simpson(np.exp, 0.7, 0.7) == 0.0


def test_reversed_limits_flip_sign():
    forward = adaptive_simpson(lambda x: x * x, 0.0, 2.0)
    backward = adaptive_simpson(lambda x: x * x, 2.0, 0.0)
    assert backward == pytest.approx(-forward, abs=1e-13)


def test_kinked_integrand_with_breakpoint():
    # |x - 0.3| is piecewise linear, so splitting the panel at the kink
    # makes Simpson exact on each side.
    result = adaptive_simpson(
        lambda x: abs(x - 0.3), 0.0, 1.0, breakpoints=(0.3,)
    )
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert result == pytest.approx(exact, abs=1e-14)


def test_kinked_integrand_without_breakpoint_still_converges():
    result = adaptive_simpson(lambda x: abs(x - 0.3), 0.0, 1.0, tol=1e-10)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert result == pytest.approx(exact, abs=1e-9)


def test_breakpoints_outside_interval_are_ignored():
    result = adaptive_simpson(lambda x: x * x, 0.0, 1.0, breakpoints=(2.5, -1.0))
    assert result == pytest.approx(1.0 / 3.0, abs=1e-12)


def _singular(x):
    # 1 / sqrt(x), and 1e12 at 0.
    return 1.0 / np.sqrt(np.maximum(x, 1e-24))


def test_depth_exhaustion_raises():
    # An integrable singularity cannot be resolved with a tiny depth cap.
    with pytest.raises(NumericalError):
        adaptive_simpson(_singular, 0.0, 1.0, tol=1e-13, max_depth=6)


@pytest.mark.parametrize("bad_tol", [0.0, -1e-9])
def test_nonpositive_tolerance_rejected(bad_tol):
    with pytest.raises(DomainError):
        adaptive_simpson(lambda x: x, 0.0, 1.0, tol=bad_tol)


def test_max_depth_below_one_rejected():
    with pytest.raises(DomainError, match="max_depth must be at least 1"):
        adaptive_simpson(lambda x: x, 0.0, 1.0, max_depth=0)


def test_nonfinite_limits_rejected():
    with pytest.raises(DomainError):
        adaptive_simpson(lambda x: x, 0.0, math.inf)


def test_matches_numpy_reference_on_smooth_blend():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    result = adaptive_simpson(f, 0.0, 2.0, tol=1e-12)
    # Dense trapezoid reference.
    xs = np.linspace(0.0, 2.0, 200_001)
    ref = np.trapezoid(np.exp(-xs) * np.cos(3.0 * xs), xs)
    assert result == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# The batch against a depth-first recursion, one float at a time


def _simpson(a, fa, m, fm, b, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth, max_depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, lm, flm, m, fm)
    right = _simpson(m, fm, rm, frm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise NumericalError(f"no convergence on [{a}, {b}]")
    half = 0.5 * tol
    return _adapt(f, a, fa, m, fm, lm, flm, left, half, depth + 1, max_depth) + _adapt(
        f, m, fm, b, fb, rm, frm, right, half, depth + 1, max_depth
    )


def _reference(f, a, b, breakpoints, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Adaptive Simpson as a depth-first recursion over float calls of f."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    cuts = sorted({float(x) for x in breakpoints if a < float(x) < b})
    edges = [a, *cuts, b]
    width = b - a
    g = lambda t: float(f(t))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo = g(lo)
        fhi = g(hi)
        mid = 0.5 * (lo + hi)
        fmid = g(mid)
        whole = _simpson(lo, flo, mid, fmid, hi, fhi)
        panel_tol = tol * (hi - lo) / width
        total += _adapt(g, lo, flo, hi, fhi, mid, fmid, whole, panel_tol, 0, max_depth)
    return sign * total


def _limits(seed, n=24):
    """Random limits on [0, 1/2] in both orders, some equal, and cuts
    inside, outside and at the limits of some of them."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 0.5, n)
    b = rng.uniform(0.0, 0.5, n)
    b[:3] = a[:3]
    b[3] = 0.0
    a[4] = 0.5
    cuts = (0.3, 0.0, 0.5, float(a[5]), float(b[6]), 0.7, -0.2, 0.3)
    return a, b, cuts


def _assert_same_bits(got, want, name):
    np.testing.assert_array_equal(
        got.view(np.int64), np.array(want).view(np.int64), err_msg=name
    )


# Each integrand gives the same float for a point whether it is called on
# a float or inside an array (Horner's rule rather than x**3, whose numpy
# array path may differ from libm pow by an ulp).
_INTEGRANDS = {
    "polynomial": lambda x: (3.0 * x * x - 1.0) * x + 0.25,
    "kink": lambda x: abs(x - 0.3),
    **{
        f"{family.value}-cdf-{p}": PremiumValueDistribution(family, p).cdf
        for family in ValueFamily
        for p in (1e-6, 0.5, 1.0 - 1e-6)
    },
}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_batch_equals_depth_first_recursion_bit_for_bit(name):
    f = _INTEGRANDS[name]
    for seed, tol in ((1, DEFAULT_TOL), (2, 1e-13)):
        a, b, cuts = _limits(seed)
        got = adaptive_simpson(f, a, b, tol=tol, breakpoints=cuts)
        want = [_reference(f, x, y, cuts, tol) for x, y in zip(a.tolist(), b.tolist())]
        # Bit for bit, signed zeros included.
        _assert_same_bits(got, want, name)


def test_batch_larger_than_one_chunk_equals_recursion():
    f = _INTEGRANDS["kink"]
    a, b, cuts = _limits(3, n=_CHUNK + 40)
    got = adaptive_simpson(f, a, b, breakpoints=cuts)
    want = [_reference(f, x, y, cuts) for x, y in zip(a.tolist(), b.tolist())]
    _assert_same_bits(got, want, "kink")


def test_batch_limits_broadcast_and_scalar_limits_return_a_float():
    f = _INTEGRANDS["kink"]
    cuts = (0.3,)
    got = adaptive_simpson(f, 0.0, np.array([[0.1, 0.4], [0.3, 0.0]]), breakpoints=cuts)
    assert got.shape == (2, 2)
    for y in (0.1, 0.4, 0.3, 0.0):
        one = adaptive_simpson(f, 0.0, y, breakpoints=cuts)
        assert type(one) is float
        assert one == _reference(f, 0.0, y, cuts)
    assert got.ravel().tolist() == [_reference(f, 0.0, y, cuts) for y in (0.1, 0.4, 0.3, 0.0)]


def test_batch_depth_exhaustion_raises():
    with pytest.raises(NumericalError):
        adaptive_simpson(_singular, np.zeros(3), np.array([1.0, 0.5, 0.0]), tol=1e-13, max_depth=6)


def test_integrand_that_never_settles_raises_before_exhausting_memory():
    # Noise never converges; the batch gives up once one level holds too
    # many panels, long before the depth cap.
    rng = np.random.default_rng(0)
    with pytest.raises(NumericalError, match="after depth 1[0-9] "):
        adaptive_simpson(lambda x: rng.random(x.shape), 0.0, 1.0)
