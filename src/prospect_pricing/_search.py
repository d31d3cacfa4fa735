"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
# bracketed_root's steps before a bracket must halve twice every three steps
_GRACE = 12
# bisect_boundary probes the midpoints of this many steps per predicate call
_LOOKAHEAD = 3


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

    pred maps a 1-D array of points to a bool array. Requires pred is True
    at lo and False at hi; returns the final (true_end, false_end) bracket.
    Each pred call takes every midpoint that the next _LOOKAHEAD steps can
    probe, each formed as 0.5 * (lo + hi) from the ends that step would
    have, and the walk then takes those steps as a one-point-per-call loop
    would: the same stop test, and the same bracket bit for bit, even where
    pred is not monotone. A bracket still wider than the tolerance after
    max_iter steps issues a RuntimeWarning.
    """
    def settled(a, b):
        return b - a <= rel_tol * max(abs(a), abs(b), 1.0)

    probes, node = {}, 0
    for step in range(max_iter + 1):
        if settled(lo, hi):
            break
        if step == max_iter:
            _warn_cap("bisect_boundary", max_iter, rel_tol)
            break
        if node not in probes:
            mids = _midpoints(lo, hi, settled, min(_LOOKAHEAD, max_iter - step))
            truth = np.asarray(pred(np.array(list(mids.values())))).tolist()
            probes, node = dict(zip(mids, zip(mids.values(), truth))), 0
        mid, true = probes[node]
        if true:
            lo, node = mid, 2 * node + 2
        else:
            hi, node = mid, 2 * node + 1
    return lo, hi


def _midpoints(lo: float, hi: float, settled: Callable, depth: int) -> dict[int, float]:
    """The midpoints that depth bisection steps from [lo, hi] can probe, by
    heap index: node k splits its bracket at 0.5 * (a + b), node 2k + 1 is
    its lower half and 2k + 2 its upper half. A settled bracket is not split."""
    mids, level = {}, [(0, lo, hi)]
    for _ in range(depth):
        below = []
        for k, a, b in level:
            if not settled(a, b):
                mids[k] = mid = 0.5 * (a + b)
                below += [(2 * k + 1, a, mid), (2 * k + 2, mid, b)]
        level = below
    return mids


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
    across the root. Such a step after a midpoint, or on the first step,
    takes the midpoint instead. After _GRACE steps, a bracket wider than
    its first width halved twice every three steps since then takes
    midpoints too, so none takes more than about 1.5 times its bisection
    count plus _GRACE points. A point stays half the tolerance inside its
    bracket, so a root within that distance of an end closes the bracket
    on the next step. A value of 0 closes the bracket at its point; NaN
    counts as above 0. A bracket closes at a width of
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
        take = (np.isfinite(q0) & np.isfinite(q1) & (a < secant) & (secant < b)
                & (move < 0.5 * before[open_]) & (secant_last[open_] | ~closing)
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
    tolerance, each keeping the smallest value evaluated in it. The best
    point starts at the start, and each edge and its bracket's point, in
    order, replace it only when strictly smaller. Without starts, f is not
    called and both arrays are empty.
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
    root, root_value = edges[k], np.full(k.shape, np.inf)

    def root_slope(x, open_):
        at_x, d, low, high = f(x, j[open_])
        floor[open_], ceil[open_] = np.maximum(floor[open_], low), np.minimum(ceil[open_], high)
        better = at_x < root_value[open_]
        root[open_[better]], root_value[open_[better]] = x[better], at_x[better]
        # a bracket shown to hold no finite value closes at this point
        return np.where(floor[open_] < ceil[open_], d, 0.0)

    bracketed_root(root_slope, edges[k], edges[k + 1], slope[k, j], slope[k + 1, j])

    # candidates in order: the start, then each edge and its bracket's point
    cand, cand_value = np.full((2 * edges.size, n), np.nan), np.full((2 * edges.size, n), np.inf)
    cand[0], cand_value[0] = starts, value[-1]
    cand[1::2], cand_value[1::2] = edges[:, None], value[:-1]
    cand[2 + 2 * k, j], cand_value[2 + 2 * k, j] = root, root_value
    best = np.argmin(cand_value, axis=0), np.arange(n)
    return cand[best], cand_value[best]
