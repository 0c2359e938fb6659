"""Adaptive Simpson quadrature over a batch of integrals.

Interval halving with the standard Richardson correction: a panel is
accepted when the two-half Simpson sum differs from the whole panel
estimate by at most 15 times the local tolerance, and the error estimate
delta/15 is added back so accepted panels carry an extra order of
accuracy. Known breakpoints (for example the branch point of a piecewise
integrand) are inserted as panel boundaries so the refinement never
straddles a kink.

All panels of a batch of integrals are halved together, one level per
integrand call on an array. Sums run up the halving tree, then left to
right, so each result is the float a depth-first recursion returns.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, NumericalError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50
# Integrals refined together, and the panels one level may hold before the
# integrand counts as not settling: both bound the working set.
_CHUNK = 1024
_MAX_PANELS = 1 << 18


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _halves(split, first, second):
    return np.column_stack([first[split], second[split]]).ravel()


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    *,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    breakpoints: Iterable[float] = (),
):
    """Integrate f over [a, b] to absolute tolerance tol.

    a and b broadcast against each other; scalar limits return a float.
    f maps a one-dimensional array of points to an array of values.
    Breakpoints inside an integral's limits are initial panel boundaries;
    the tolerance is apportioned to panels by width. Raises NumericalError
    if any panel fails to converge within max_depth halvings.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if max_depth < 1:
        raise DomainError(f"max_depth must be at least 1, got {max_depth}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(np.isfinite(a) & np.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a}, {b}]")
    start = np.minimum(a, b).ravel()
    stop = np.maximum(a, b).ravel()
    # Every integral gets every cut; one outside its limits is clipped to
    # a zero-width panel, whose value is exactly 0.
    cuts = np.unique([float(x) for x in breakpoints if not np.isnan(x)])
    edges = np.column_stack([start, np.clip(cuts, start[:, None], stop[:, None]), stop])
    chunks = range(0, len(edges), _CHUNK)
    total = np.concatenate([_refine(f, edges[k : k + _CHUNK], tol, max_depth) for k in chunks])
    out = np.where(b < a, -1.0, 1.0) * total.reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def _refine(f, edges, tol, max_depth):
    """Integrals of f over the panels between each row's edges."""
    width = np.repeat(edges[:, -1] - edges[:, 0], edges.shape[1] - 1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    m = 0.5 * (lo + hi)
    flo, fm, fhi = f(np.concatenate([lo, m, hi])).reshape(3, -1)
    whole = _simpson(lo, hi, flo, fm, fhi)
    # An integral with equal limits has only zero-width panels.
    panel_tol = tol * (hi - lo) / np.where(width > 0.0, width, 1.0)

    levels = []
    for depth in range(max_depth + 1):
        lm, rm = 0.5 * (lo + m), 0.5 * (m + hi)
        flm, frm = f(np.concatenate([lm, rm])).reshape(2, -1)
        left = _simpson(lo, m, flo, flm, fm)
        right = _simpson(m, hi, fm, frm, fhi)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * panel_tol
        levels.append((done, left + right + delta / 15.0))
        if done.all():
            break
        split = ~done
        if depth == max_depth or 2 * np.count_nonzero(split) > _MAX_PANELS:
            i = np.flatnonzero(split)[0]
            raise NumericalError(
                f"adaptive Simpson did not converge on [{lo[i]}, {hi[i]}] after depth {depth} "
                f"(residual {abs(delta[i]) / 15.0:.3e}, tol {panel_tol[i]:.3e})"
            )
        # Each unconverged panel becomes its left half, then its right half.
        lo, m, hi = _halves(split, lo, m), _halves(split, lm, rm), _halves(split, m, hi)
        flo, fhi = _halves(split, flo, fm), _halves(split, fm, fhi)
        fm = _halves(split, flm, frm)
        whole = _halves(split, left, right)
        panel_tol = np.repeat(0.5 * panel_tol[split], 2)

    # Sum up the halving tree, deepest level first, then each integral's
    # panels left to right from 0.0, as a depth-first recursion adds them.
    values = levels[-1][1]
    for done, parent in reversed(levels[:-1]):
        parent[~done] = values[0::2] + values[1::2]
        values = parent
    total = np.zeros(len(edges))
    for panel in values.reshape(len(edges), -1).T:
        total += panel
    return total
