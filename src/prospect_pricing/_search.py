"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
# bracketed_root's steps before a bracket must halve twice every three steps
_GRACE = 12
# bisect_boundary probes at most this many points of a predicted path per call
_PATH = 12


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


def bisect_boundary(pred: Callable, lo: float, hi: float, rel_tol: float = 1e-12,
                    max_iter: int = 200) -> tuple[float, float]:
    """Shrink [lo, hi] around the flip point of a monotone predicate.

    pred maps a 1-D array of points to a pair of arrays (held, value).
    Requires held at lo and not at hi; returns the final (true_end,
    false_end) bracket. value is a float whose sign change, from below 0
    where held to above 0, marks the flip. pred is first called on the two
    ends, for their values alone. Each later call takes the midpoints the
    one-point loop would probe, up to _PATH of them, if each fell on the
    side of the flip's secant estimate through the bracket's ends: where no
    estimate is finite, the midpoint's. The walk then takes those steps as
    the one-point loop would, each reading held at 0.5 * (lo + hi) of its
    own bracket, up to the first step whose held differs from the
    prediction. So the stop test, and the bracket bit for bit, are that
    loop's even where pred is not monotone, and a misleading, NaN or
    infinite value can cost calls but never a bit. A bracket still wider
    than the tolerance after max_iter steps issues a RuntimeWarning.
    """
    def settled(a, b):
        return b - a <= rel_tol * max(abs(a), abs(b), 1.0)

    v_lo, v_hi = np.asarray(pred(np.array([lo, hi]))[1], dtype=float).tolist()
    path = []  # the steps ahead, last first: (mid, predicted, held, value)
    for step in range(max_iter + 1):
        if settled(lo, hi):
            break
        if step == max_iter:
            _warn_cap("bisect_boundary", max_iter, rel_tol)
            break
        if not path:
            flip = lo - v_lo * (hi - lo) / (v_hi - v_lo) if v_hi != v_lo else math.nan
            flip = flip if math.isfinite(flip) else 0.5 * (lo + hi)
            a, b, mids = lo, hi, []
            while len(mids) < min(_PATH, max_iter - step) and not settled(a, b):
                mids.append(0.5 * (a + b))
                a, b = (mids[-1], b) if mids[-1] < flip else (a, mids[-1])
            held, value = pred(np.array(mids))
            path = list(zip(mids, [mid < flip for mid in mids], np.asarray(held).tolist(),
                            np.asarray(value, dtype=float).tolist()))[::-1]
        mid, guess, true, value = path.pop()
        if true:
            lo, v_lo = mid, value
        else:
            hi, v_hi = mid, value
        if true != guess:
            path = []
    return lo, hi


def bracketed_root(f: Callable, lo, hi, f_lo, f_hi, rel_tol: float = 1e-10,
                   max_iter: int = 100):
    """Shrink each bracket [lo, hi] around a root of f, where f(lo) < 0 < f(hi).

    lo, hi, f_lo and f_hi are equal-length numpy arrays of independent
    brackets; an end value may be infinite. f(x, open) maps the points x of
    the brackets still open, picked by the index array open, to f there.
    All brackets step in lockstep, each step evaluating every open bracket
    once. Brent's rule (Brent 1973; Press et al., Numerical Recipes,
    section 9.3) picks the point: the secant through the last two points
    evaluated when both values are finite, the secant lands inside the
    bracket and its step from the end of smaller |f| is shorter than half
    the step before last; the midpoint otherwise. A secant step shorter
    than the tolerance right after a secant step has converged: the point
    goes half the tolerance past the secant, so the next bracket closes
    across the root. Such a step inside the bracket after a midpoint, or on
    the first step, takes the midpoint instead. One that lands at or past
    the end of smaller |f|, after any step, shows a root within rounding of
    that end: the point goes half the tolerance inside from the end, so the
    next bracket closes there, where a midpoint would leave the search
    bisecting the far side down to the tolerance. After _GRACE steps, a
    bracket wider than its first width halved twice every three steps since
    then takes midpoints too, so none takes more than about 1.5 times its
    bisection count plus _GRACE points. A point stays half the tolerance
    inside its bracket, so a root within that distance of an end closes the
    bracket on the next step. A value of 0 closes the bracket at its point;
    NaN counts as above 0. A bracket closes at a width of
    rel_tol*max(|lo|, |hi|, 1), and one still wider after max_iter steps
    issues a RuntimeWarning. Returns the final (lo, hi).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    # the last two points evaluated, the end of smaller |f| the later
    lo_last = np.abs(f_lo) < np.abs(f_hi)
    x1, f1 = np.where(lo_last, lo, hi), np.where(lo_last, f_lo, f_hi)
    x0, f0 = np.where(lo_last, hi, lo), np.where(lo_last, f_hi, f_lo)
    # the first width; the last step and the one before it, that width at first
    width = hi - lo
    last, before = width.copy(), width.copy()
    secant_last = np.zeros(lo.shape, dtype=bool)
    open_ = np.arange(lo.size)
    for step in range(max_iter + 1):
        a, b = lo[open_], hi[open_]
        tol = rel_tol * np.maximum(np.maximum(abs(a), abs(b)), 1.0)
        wide = b - a > tol
        open_, a, b, tol = open_[wide], a[wide], b[wide], tol[wide]
        if not open_.size:
            break
        if step == max_iter:
            _warn_cap("bracketed_root", max_iter, rel_tol)
            break
        p1, q1, p0, q0 = x1[open_], f1[open_], x0[open_], f0[open_]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = p1 - q1 * (p1 - p0) / (q1 - q0)
        # steps run from the end of smaller |f|; NaN, above 0, is at hi
        best = np.where(np.abs(f_hi[open_]) < np.abs(f_lo[open_]), b, a)
        move = np.abs(secant - best)
        closing = move < tol
        # a converged secant at or past the end of smaller |f| is taken whatever
        # came before it, and the clip below puts it half the tolerance inside
        inside = (a < secant) & (secant < b)
        take = (np.isfinite(q0) & np.isfinite(q1)
                & np.where(inside, secant_last[open_] | ~closing, closing)
                & (move < 0.5 * before[open_])
                & (b - a <= width[open_] * 2.0 ** ((_GRACE - step) / 1.5)))
        x = np.where(take, secant + np.where(closing, np.copysign(0.5 * tol, secant - best), 0.0),
                     0.5 * (a + b))
        x = np.clip(x, a + 0.5 * tol, b - 0.5 * tol)
        fx = f(x, open_)
        below, above = fx <= 0.0, ~(fx < 0.0)
        lo[open_], f_lo[open_] = np.where(below, x, a), np.where(below, fx, f_lo[open_])
        hi[open_], f_hi[open_] = np.where(above, x, b), np.where(above, fx, f_hi[open_])
        before[open_] = np.where(take, last[open_], np.abs(x - best))
        last[open_], secant_last[open_] = np.abs(x - best), take
        x0[open_], f0[open_], x1[open_], f1[open_] = p1, q1, x, fx
    return lo, hi


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
    One lockstep bracketed_root search closes them all to its default
    tolerance. Each bracket's point is the end of its closed bracket of
    smaller value, the lower end on a tie: a stationary point, where the
    smallest value evaluated could be any point within rounding of a flat
    minimum, however far from its root. The best point starts at the
    start, and each edge and its bracket's point, in order, replace it only
    when strictly smaller. Without starts, f is not called and both arrays
    are empty.
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
