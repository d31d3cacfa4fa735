"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def _warn_cap(search: str, max_iter: int, rel_tol: float) -> None:
    warnings.warn(f"{search} stopped at max_iter={max_iter} with a bracket still wider "
                  f"than rel_tol={rel_tol:g}", RuntimeWarning, stacklevel=3)


def golden_max(f: Callable, lo: float, hi: float, rel_tol: float = 1e-9, max_iter: int = 200):
    """Maximize f on [lo, hi] by golden-section; returns (argmax, max).

    Exact only for unimodal f. The bracket ends are candidates too, since
    the max may sit on a constraint boundary: the largest value wins, and of
    equal values the largest point. A bracket still wider than the tolerance
    after max_iter steps issues a RuntimeWarning.
    """
    a, b = (hi, lo) if hi < lo else (lo, hi)
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for step in range(max_iter + 1):
        if b - a <= rel_tol * max(abs(a), abs(b), 1.0):
            break
        if step == max_iter:
            _warn_cap("golden_max", max_iter, rel_tol)
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    fx, x = max((f(a), a), (f1, x1), (f2, x2), (f(b), b))
    return x, fx


def bracketed_root(f: Callable, lo, hi, f_lo, f_hi, rel_tol: float = 1e-10,
                   max_iter: int = 100):
    """Shrink each bracket [lo, hi] around a root of f, where f(lo) < 0 < f(hi).

    lo, hi, f_lo and f_hi are equal-length numpy arrays of independent
    brackets; an end value may be infinite. f(x, open) maps the points x of
    the brackets still open, picked by the index array open, to f there.
    All brackets step in lockstep, each step evaluating every open bracket
    once, by Chandrupatla's method (T. R. Chandrupatla, "A new hybrid
    quadratic/bisection algorithm for finding the zero of a nonlinear
    function without using derivatives", Adv. Eng. Software 28(3), 1997).
    The first point is the secant through the ends when both values are
    finite, the midpoint otherwise. Each later point is the inverse
    quadratic interpolation through the last point, the bracket's other end
    and the end the last point replaced, where Chandrupatla's test on those
    three shows it lies inside the bracket, and the midpoint otherwise. A
    point stays at least half the tolerance inside its bracket, so a root
    within that distance of an end closes the bracket on the next step. A
    value of 0 closes the bracket at its point; NaN counts as above 0. A
    bracket closes at a width of rel_tol*max(|lo|, |hi|, 1), and one still
    wider after max_iter steps issues a RuntimeWarning. Returns the final
    (lo, hi).
    """
    # x1 the last point and x2 the bracket's other end
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    # the next point, as its fraction of the way from x1 to x2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(np.isfinite(f1) & np.isfinite(f2), f1 / (f1 - f2), 0.5)
    open_ = np.arange(x1.size)
    for step in range(max_iter + 1):
        p1, p2 = x1[open_], x2[open_]
        width = np.abs(p2 - p1)
        tol = rel_tol * np.maximum(np.maximum(np.abs(p1), np.abs(p2)), 1.0)
        wide = width > tol
        open_, p1, p2, width, tol = open_[wide], p1[wide], p2[wide], width[wide], tol[wide]
        if not open_.size:
            break
        if step == max_iter:
            _warn_cap("bracketed_root", max_iter, rel_tol)
            break
        # Chandrupatla's tl: half the tolerance, as a fraction of the width
        tl = 0.5 * tol / width
        x = p1 + np.clip(t[open_], tl, 1.0 - tl) * (p2 - p1)
        fx = f(x, open_)
        # x replaces the end of its sign, p3; NaN counts as above 0
        q1, q2 = f1[open_], f2[open_]
        same = (fx < 0.0) == (q1 < 0.0)
        p3, q3 = np.where(same, p1, p2), np.where(same, q1, q2)
        p2, q2 = np.where(same, p2, p1), np.where(same, q2, q1)
        # inverse quadratic interpolation through x, p2 and p3 where
        # Chandrupatla's test puts it inside the bracket, the midpoint otherwise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi, phi = (x - p2) / (p3 - p2), (fx - q2) / (q3 - q2)
            quadratic = (fx / (q2 - fx) * q3 / (q2 - q3)
                         + (p3 - x) / (p2 - x) * fx / (q3 - fx) * q2 / (q3 - q2))
        t[open_] = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), quadratic, 0.5)
        # a 0 closes the bracket at x
        x1[open_], f1[open_], x2[open_], f2[open_] = x, fx, np.where(fx == 0.0, x, p2), q2
    return np.fmin(x1, x2), np.fmax(x1, x2)


def stationary_min(f: Callable, edges, starts) -> tuple[np.ndarray, np.ndarray]:
    """Minimize one function per start over the range the edges cut; returns
    each one's best point and value.

    f(points, problems) maps points and the index of the problem of each to
    the value there, a slope of the sign of d value/d point, maybe
    infinite, and bounds lower and upper, arrays or scalars: the problem's
    value is finite only strictly between them. One call evaluates every
    edge of every problem, edge-major, then the starts. Only brackets
    between edges where the slope rises through 0 hold a minimum, and of
    those only the ones whose points, ends included, leave a range between
    the largest lower and the smallest upper bound: a bracket without one
    is dropped before the search, or closed at the point that shows it.
    One lockstep bracketed_root search, Chandrupatla's method, closes them
    all to its default tolerance. Each bracket's point is the end of its
    closed bracket of smaller value, the lower end on a tie: a stationary
    point, where the smallest value evaluated could be any point within
    rounding of a flat minimum, however far from its root. The best point
    starts at the start, and each edge and its bracket's point, in order,
    replace it only when strictly smaller. Without starts, f is not called
    and both arrays are empty.
    """
    edges, starts = np.asarray(edges, dtype=float), np.asarray(starts, dtype=float)
    n = starts.size
    if not n:
        return np.empty(0), np.empty(0)
    value, slope, lower, upper = (np.broadcast_to(v, (edges.size + 1) * n).reshape(-1, n) for v in
                                  f(np.append(np.repeat(edges, n), starts),
                                    np.tile(np.arange(n), edges.size + 1)))
    # bracket k of problem j holds a minimum where the slope rises through 0
    k, j = np.nonzero((slope[:-2] < 0.0) & (slope[1:-1] > 0.0))
    # and its finite values lie strictly between floor and ceil
    floor = np.maximum(lower[k, j], lower[k + 1, j])
    ceil = np.minimum(upper[k, j], upper[k + 1, j])
    keep = floor < ceil
    k, j, floor, ceil = k[keep], j[keep], floor[keep], ceil[keep]
    # the values at each bracket's ends, moved along with them
    lo_value, hi_value = value[k, j], value[k + 1, j]

    def root_slope(x, open_):
        at_x, d, low, high = f(x, j[open_])
        floor[open_], ceil[open_] = np.maximum(floor[open_], low), np.minimum(ceil[open_], high)
        # a bracket shown to hold no finite value closes at this point
        d = np.where(floor[open_] < ceil[open_], d, 0.0)
        lo_value[open_] = np.where(d <= 0.0, at_x, lo_value[open_])
        hi_value[open_] = np.where(d < 0.0, hi_value[open_], at_x)
        return d

    lo, hi = bracketed_root(root_slope, edges[k], edges[k + 1], slope[k, j], slope[k + 1, j])
    at_hi = hi_value < lo_value
    root, root_value = np.where(at_hi, hi, lo), np.where(at_hi, hi_value, lo_value)

    # candidates in order: the start, then each edge and its bracket's point
    cand, cand_value = np.full((2 * edges.size, n), np.nan), np.full((2 * edges.size, n), np.inf)
    cand[0], cand_value[0] = starts, value[-1]
    cand[1::2], cand_value[1::2] = edges[:, None], value[:-1]
    cand[2 + 2 * k, j], cand_value[2 + 2 * k, j] = root, root_value
    best = np.argmin(cand_value, axis=0), np.arange(n)
    return cand[best], cand_value[best]
