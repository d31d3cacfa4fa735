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


class _Arrays:
    """The operations of bracketed_root and stationary_min on many brackets
    in lockstep: numpy's, on arrays."""

    abs, isfinite, maximum, minimum, where = np.abs, np.isfinite, np.maximum, np.minimum, np.where

    @staticmethod
    def all(a):
        return a.all()

    @staticmethod
    def value(v):
        return v

    @staticmethod
    def evaluate(f, x, open_):
        return f(x, open_)

    @staticmethod
    def close(wide, open_, end1, end2, state):
        """Write the final ends of the brackets no longer wide, and keep the
        open brackets' state, of which the first two are x1 and x2."""
        shut = ~wide
        end1[open_[shut]], end2[open_[shut]] = state[0][shut], state[1][shut]
        return open_[wide], [a[wide] for a in state]


class _Scalars:
    """The operations of _Arrays on one bracket's np.float64 scalars, bitwise
    the same: an np.float64 operation costs about a tenth of a ufunc call on
    a one-element array. maximum and minimum return NaN as numpy's do, and b
    on a tie, so that -0.0 and 0.0 compare as there."""

    abs, isfinite, all = abs, math.isfinite, bool

    @staticmethod
    def maximum(a, b):
        return a if a > b or a != a else b

    @staticmethod
    def minimum(a, b):
        return a if a < b or a != a else b

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def value(v):
        """The one element of an array, or a scalar, as an np.float64."""
        return v[0] if isinstance(v, np.ndarray) else np.float64(v)

    @staticmethod
    def evaluate(f, x, open_):
        return _Scalars.value(f(np.array([x]), open_))

    @staticmethod
    def close(wide, open_, end1, end2, state):
        """Write the one bracket's final ends: none stays open."""
        end1[open_], end2[open_] = state[0], state[1]
        return open_[:0], state


def bracketed_root(f: Callable, lo, hi, f_lo, f_hi, rel_tol: float = 1e-10,
                   max_iter: int = 100):
    """Shrink each bracket [lo, hi] around a root of f, where f(lo) < 0 < f(hi).

    lo, hi, f_lo and f_hi are equal-length numpy arrays of independent
    brackets; an end value may be infinite. f(x, open) maps the points x of
    the brackets still open, picked by the index array open, to f there.
    open is ascending, and it changes only when brackets close, losing
    them. All brackets step in lockstep, each step evaluating every open
    bracket once, by Chandrupatla's method (T. R. Chandrupatla, "A new hybrid
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
    wider after max_iter steps issues a RuntimeWarning. The search holds
    state only for the brackets still open, and f runs outside its
    errstate, so an objective's own floating-point errors still warn.
    A search that opens with one bracket, as each one-alpha strategy's and
    min_alpha's does, holds its state in np.float64 scalars (_Scalars)
    rather than arrays (_Arrays): the same text of arithmetic takes bitwise
    the points the bracket takes in a batch, and its some 60 operations per
    step cost about a quarter of the time they take on one-element arrays
    (9 against 37 us a step on a trivial objective). f still gets arrays,
    of one point.
    Returns the final (lo, hi); without brackets, f is not called.
    """
    # x1 the last point and x2 the bracket's other end, of the open brackets
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    # every bracket's final ends, written as it closes
    end1, end2 = x1.copy(), x2.copy()
    open_ = np.arange(x1.size)
    xp = _Scalars if x1.size == 1 else _Arrays
    x1, x2, f1, f2 = xp.value(x1), xp.value(x2), xp.value(f1), xp.value(f2)
    # the next point, as its fraction of the way from x1 to x2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = xp.where(xp.isfinite(f1) & xp.isfinite(f2), f1 / (f1 - f2), 0.5)
    for step in range(max_iter + 1):
        span = x2 - x1
        width = xp.abs(span)
        tol = rel_tol * xp.maximum(xp.maximum(xp.abs(x1), xp.abs(x2)), 1.0)
        wide = width > tol
        if not xp.all(wide):
            open_, (x1, x2, f1, f2, t, span, width, tol) = xp.close(
                wide, open_, end1, end2, (x1, x2, f1, f2, t, span, width, tol))
        if not open_.size:
            break
        if step == max_iter:
            _warn_cap("bracketed_root", max_iter, rel_tol)
            end1[open_], end2[open_] = x1, x2
            break
        # Chandrupatla's tl: half the tolerance, as a fraction of the width
        tl = 0.5 * tol / width
        x = x1 + xp.minimum(xp.maximum(t, tl), 1.0 - tl) * span
        fx = xp.evaluate(f, x, open_)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # x replaces the end of its sign, p3; NaN counts as above 0
            same = (fx < 0.0) == (f1 < 0.0)
            p3, q3 = xp.where(same, x1, x2), xp.where(same, f1, f2)
            p2, q2 = xp.where(same, x2, x1), xp.where(same, f2, f1)
            # inverse quadratic interpolation through x, p2 and p3 where
            # Chandrupatla's test puts it inside the bracket, the midpoint otherwise
            xi, phi = (x - p2) / (p3 - p2), (fx - q2) / (q3 - q2)
            quadratic = (fx / (q2 - fx) * q3 / (q2 - q3)
                         + (p3 - x) / (p2 - x) * fx / (q3 - fx) * q2 / (q3 - q2))
            # squared by a product: numpy squares an array's ** 2, an np.float64's takes pow
            inside = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
            t = xp.where(inside, quadratic, 0.5)
        # a 0 closes the bracket at x
        x1, f1, x2, f2 = x, fx, xp.where(fx == 0.0, x, p2), q2
    return np.fmin(end1, end2), np.fmax(end1, end2)


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
    all to its default tolerance; when one bracket is searched, its bounds
    and end values, like the search's state, are np.float64 scalars, the
    same arithmetic on _Scalars for a fraction of the ufunc calls. Each bracket's point is the end of its
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
    # value, slope, lower and upper at every point, one array of
    # 4 x (edges + 1) x n, into which the bounds broadcast
    points = np.concatenate((np.repeat(edges, n), starts))
    at = np.empty((4, points.size))
    for row, out in zip(at, f(points, np.arange(points.size) % n)):
        row[...] = out
    at = at.reshape(4, -1, n)
    # bracket k of problem j holds a minimum where the slope rises through 0
    k, j = np.nonzero((at[1, :-2] < 0.0) & (at[1, 1:-1] > 0.0))
    below, above = at[:, k, j], at[:, k + 1, j]
    # and its finite values lie strictly between floor and ceil
    floor, ceil = np.maximum(below[2], above[2]), np.minimum(below[3], above[3])
    keep = floor < ceil
    k, j, floor, ceil = k[keep], j[keep], floor[keep], ceil[keep]
    below, above = below[:2, keep], above[:2, keep]
    # the values at each bracket's ends, moved along with them
    lo_value, hi_value = below[0], above[0]
    # the state of the brackets still open, as bracketed_root's open picks them;
    # one bracket's, like bracketed_root's, in np.float64 scalars
    xp = _Scalars if k.size == 1 else _Arrays
    held, problem = np.arange(k.size), j
    low, high, at_lo, at_hi = xp.value(floor), xp.value(ceil), xp.value(lo_value), xp.value(hi_value)

    def root_slope(x, open_):
        nonlocal held, problem, low, high, at_lo, at_hi
        if open_.size < held.size:
            # brackets closed: store their end values, and keep the rest
            lo_value[held], hi_value[held] = at_lo, at_hi
            kept = np.searchsorted(held, open_)
            held, problem, low, high, at_lo, at_hi = (
                a[kept] for a in (held, problem, low, high, at_lo, at_hi))
        at_x, d, lower, upper = (xp.value(v) for v in f(x, problem))
        low, high = xp.maximum(low, lower), xp.minimum(high, upper)
        # a bracket shown to hold no finite value closes at this point
        d = xp.where(low < high, d, 0.0)
        at_lo = xp.where(d <= 0.0, at_x, at_lo)
        at_hi = xp.where(d < 0.0, at_hi, at_x)
        return d

    lo, hi = bracketed_root(root_slope, edges[k], edges[k + 1], below[1], above[1])
    lo_value[held], hi_value[held] = at_lo, at_hi
    on_hi = hi_value < lo_value
    root, root_value = np.where(on_hi, hi, lo), np.where(on_hi, hi_value, lo_value)

    # candidates in order, points and values: the start, then each edge and
    # its bracket's point
    cand, cand_value = np.empty((2, 2 * edges.size, n))
    cand[0], cand_value[0] = starts, at[0, -1]
    cand[1::2], cand_value[1::2] = edges[:, None], at[0, :-1]
    cand[2::2], cand_value[2::2] = np.nan, np.inf
    cand[2 + 2 * k, j], cand_value[2 + 2 * k, j] = root, root_value
    best = np.argmin(cand_value, axis=0), np.arange(n)
    return cand[best], cand_value[best]
