"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import bisect
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
    step cost about a quarter of the time they take on one-element arrays.
    f still gets arrays, of one point.
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


# evaluations aimed by an estimate that an edge takes at most; and the share
# of the bisection's settle width, in ln b at the estimate, below which the
# estimate's error must be for it to aim a path: then few of the path's
# midpoints can lie between the estimate and the edge
_EDGE_STEPS = 12
_EDGE_SHARE = 1.0 / 8.0
# bisection levels whose every midpoint one evaluation probes, where no
# estimate of the edge can be judged
_FAN_LEVELS = 5


def _hermite(ends, u: float) -> tuple[float, float]:
    """The cubic Hermite interpolant through ends = ((u0, v0, s0), (u1, v1,
    s1)), values v and slopes s in u at two points, and its slope, at u."""
    (u0, v0, s0), (u1, v1, s1) = ends
    h = u1 - u0
    t, d0, d1 = (u - u0) / h, h * s0, h * s1
    p = ((v0 * (1.0 + 2.0 * t) + d0 * t) * (1.0 - t) * (1.0 - t)
         + (v1 * (3.0 - 2.0 * t) + d1 * (t - 1.0)) * t * t)
    dp = (6.0 * t * (t - 1.0) * (v0 - v1) + d0 * (3.0 * t - 1.0) * (t - 1.0)
          + d1 * t * (3.0 * t - 2.0)) / h
    return p, dp


def _hermite_root(ends) -> float:
    """The root, in ln b, of the cubic Hermite interpolant through ends, two
    points on either side of it: Newton on the cubic from the first point's
    own Newton step, kept inside the sign change by halving; NaN where it
    does not settle."""
    (u0, v0, s0), (u1, _, _) = ends
    # where the cubic was last seen below and above 0
    below, above = (u0, u1) if v0 < 0.0 else (u1, u0)
    u = u0 - v0 / s0
    for _ in range(64 if u1 != u0 else 0):
        if not min(below, above) < u < max(below, above):
            u = 0.5 * (below + above)
        p, dp = _hermite(ends, u)
        step = u - p / dp if dp != 0.0 else math.nan
        if abs(step - u) <= 2.0 ** -50 * max(1.0, abs(u)):
            return step
        if p < 0.0:
            below = u
        else:
            above = u
        u = step
    return math.nan


def _edge_estimate(value, slope, a: float, c: float, rising: bool, others=()):
    """Where value changes sign between the rates a < c, rising from a to c
    if rising, in ln b: (u, err, s), err an estimate of u's error (inf where
    there is none) and s the slope at the rate it was estimated from.

    Of a, c and the probed rates others, those count whose value and slope
    are finite and whose slope goes the crossing's way (a rate whose slope
    points away, as a lower edge's does from the upper edge, lies past a
    turn). u is the root of the cubic Hermite interpolant through the one
    whose own Newton step is shortest and the one of shortest step on the
    edge's other side; with none there, the first's Newton step; with none
    at all, or where u leaves [a, c], the midpoint in ln b, with s NaN.

    A cubic's root is off by about f''''/(24 f') times the product of its
    squared distances from its two rates. The cubic through the next rate
    that counts, in place of the pair's rate on its side, has a root that
    differs from u by that factor times the difference of the two products,
    which gives the factor: err is u's own product times it. With no third
    rate, err is u's distance from the first's Newton step, the error of
    that step. err only decides when Newton stops and how wide a path's
    window is, so a wrong err costs evaluations, never a bit.
    """
    sign = 1.0 if rising else -1.0
    good = []
    for b in dict.fromkeys((a, c, *others)):
        v, s = value(b), slope(b)
        if math.isfinite(v) and math.isfinite(s) and sign * s > 0.0:
            good.append((abs(v / s), math.log(b), v, s))
    good.sort()
    points = [g[1:] for g in good]
    u, err, s = math.nan, math.inf, math.nan
    if points:
        first = points[0]
        u, s = first[0] - first[1] / first[2], first[2]
        far = [p for p in points if (p[1] < 0.0) != (first[1] < 0.0)]
        root = _hermite_root((first, far[0])) if far else math.nan
        if math.isfinite(root):
            u, err = root, abs(root - u)
            for third in [p for p in points[1:] if p is not far[0]][:1]:
                other = (first, third) if third in far else (third, far[0])
                if other[0][0] != other[1][0]:
                    mine, theirs = (math.prod((root - p[0]) ** 2 for p in ends)
                                    for ends in ((first, far[0]), other))
                    # the other cubic's root is a Newton step from u away
                    q, dq = _hermite(other, root)
                    step = q / dq if dq != 0.0 else math.inf
                    if math.isfinite(step) and theirs > mine:
                        err = abs(step) * min(1.0, mine / (theirs - mine))
    ua, uc = math.log(a), math.log(c)
    if not ua <= u <= uc:
        u, err, s = 0.5 * (ua + uc), math.inf, math.nan
    return u, err, s


def _narrowest(fits, side, points, a: float, c: float) -> tuple[float, float]:
    """The rates of the ascending list points inside (a, c) nearest the edge
    on either side, a or c where none is: a bisection of the rates on
    whether fits(rate) is side, fits(a)'s."""
    i, j = bisect.bisect_right(points, a), bisect.bisect_left(points, c)
    while i < j:
        k = (i + j) // 2
        if fits(points[k]) == side:
            a, i = points[k], k + 1
        else:
            c, j = points[k], k
    return a, c


def _bisect_edge(probe, fits, value, slope, lo: float, hi: float, start=None, known=(),
                 blur=None, then=None) -> tuple[float, float]:
    """Halve [lo, hi], where fits(lo) and fits(hi) differ, down to
    1e-12*max(|lo|, |hi|, 1), each midpoint taking the side of the end whose
    fit it shares; returns the final (lo, hi).

    probe(rates) evaluates rates into a memo. fits(b) reads from it whether
    the set fits at b, None where b is unprobed; value(b) a float below 0
    where it fits that changes sign at the edge, and slope(b) its derivative
    in ln b, both NaN where b is unprobed: in solve_nash, ln T_n(b) - ln(B*(1
    - slack)) and d ln T_n/d ln b. known holds probed rates, ascending.

    The edge is estimated in ln b (_edge_estimate) from the narrowest
    bracket that the probed rates give inside start (the rungs about the
    edge; [lo, hi] by default) and the probed rate next past each of its
    ends. A midpoint the memo misses is probed with the rest of the
    bisection's path, each midpoint on the estimate's side, and with then(a,
    b) of the path's final bracket, in one evaluation; where there is no
    estimate but the midpoint in ln b, with every midpoint of the next
    _FAN_LEVELS levels instead. A midpoint missed again is probed the same
    way, from the estimate of its bracket: where every midpoint is probed,
    each path is a Newton step, its last midpoints at the estimate.

    With blur = (beta, gamma), where lo fits, the search takes the set's
    computed T(b) to lie within a factor 1 +- gamma of T'(b e^d), |d| <=
    beta, for a T' that does not fall as b rises. A midpoint at or below
    a e^(-2 beta), of a probed a that fits with value < -2 gamma, then fits,
    and one at or above c e^(2 beta), of a probed c that does not with value
    > 2 gamma, does not, and neither is probed. An estimate then aims a
    path only once its err is below _EDGE_SHARE of the bisection's settle
    width at it, so that few of the path's midpoints can lie between it and
    the edge; until then its rate is probed alone, a Newton step an
    evaluation, the first step from the rungs with the rates 2 and 8 times
    err either side. The path probes two anchors, the estimate times
    e^(-+w), w = 2*(2 err + beta) + 4*gamma/s with s the slope it was
    estimated from, and only the midpoints between; a pair that does not
    settle both sides is placed at most three times in all. Where every
    midpoint of the path takes the side it was probed for, the path is the
    bisection's.

    An edge takes at most _EDGE_STEPS evaluations aimed by an estimate; at
    the cap a RuntimeWarning says so, and the rest of the bisection probes
    fans. The probes decide only how many evaluations the bisection takes,
    never its bracket. Within [2^-30, 2^60] it closes within 100 midpoints.
    """
    def settled(a, b):
        return b - a <= 1e-12 * max(abs(a), abs(b), 1.0)

    def sharp(b, err):
        # whether an estimate b, err off in ln b, is to aim a path
        return err <= _EDGE_SHARE * 1e-12 * max(b, 1.0) / b

    side = fits(lo)
    # the probed rates inside [lo, hi], ascending
    points = list(known[bisect.bisect_right(known, lo):bisect.bisect_left(known, hi)])
    # the far midpoints are inferred only where lo fits: an upper edge
    blur = blur if side else None
    # evaluations aimed by an estimate so far: Newton probes and paths
    steps = 0

    def estimate(a, c):
        # the edge from the narrowest bracket inside [a, c], refined by
        # Newton probes where the far midpoints are inferred; none where the
        # bracket reaches down to 0 or the aimed evaluations reach their cap
        nonlocal steps
        while a > 0.0 and steps < _EDGE_STEPS:
            a, c = _narrowest(fits, side, points, a, c)
            # with the probed rate next past each end of the bracket
            i, j = bisect.bisect_left(points, a), bisect.bisect_right(points, c)
            u, err, s = _edge_estimate(value, slope, a, c, side,
                                       points[max(i - 1, 0):i] + points[j:j + 1])
            b = math.exp(u)
            if (blur is None or sharp(b, err) or math.isnan(s) or settled(a, b)
                    or settled(b, c) or fits(b) is not None):
                return u, err, s
            steps += 1
            # the first step from the rungs, whose err is the least sure, also
            # probes pairs 2 and 8 times err either side, one of which brackets
            # the edge for every later estimate
            reach = [] if steps > 1 else [k * min(err, 1.0) for k in (2.0, 8.0)]
            step_rates = [r for r in (b, *(b * math.exp(x) for d in reach for x in (-d, d)))
                          if a < r < c]
            probe(step_rates)
            for r in step_rates:
                bisect.insort(points, r)
        if steps == _EDGE_STEPS:
            _warn_cap("edge Newton", _EDGE_STEPS, _EDGE_SHARE * 1e-12)
            steps += 1
        return math.nan, math.inf, math.nan

    # every rate at or below fit_below fits, at or above unfit_above does not
    fit_below, unfit_above = -math.inf, math.inf
    anchoring = 3 if blur is not None else 0
    while not settled(lo, hi):
        mid = 0.5 * (lo + hi)
        fit = True if mid <= fit_below else False if mid >= unfit_above else fits(mid)
        if fit is not None:
            lo, hi = (mid, hi) if fit == side else (lo, mid)
            continue
        u, err, s = estimate(*(start or (lo, hi)))
        edge, start, plan, below, above = math.exp(u), None, [], fit_below, unfit_above

        def known_side(m):
            return True if m <= below else False if m >= above else fits(m)

        if anchoring > 0 and sharp(edge, err) and s > 0.0:
            (beta, gamma), w = blur, 2.0 * (2.0 * err + blur[0]) + 4.0 * blur[1] / s
            low, high = edge * math.exp(-w), edge * math.exp(w)
            if lo < low:
                plan.append(low)
                below = max(below, low * math.exp(-2.0 * beta))
            if high < hi:
                plan.append(high)
                above = min(above, high * math.exp(2.0 * beta))
        a, b, path, fan = lo, hi, [], math.isnan(s)
        steps += not fan
        if fan:
            level = [(lo, hi)]
            for _ in range(_FAN_LEVELS):
                level, brackets = [], level
                for a, b in brackets:
                    if settled(a, b):
                        continue
                    m = 0.5 * (a + b)
                    f = known_side(m)
                    if f is None:
                        plan.append(m)
                        level += [(a, m), (m, b)]
                    else:
                        level.append((m, b) if f == side else (a, m))
        else:
            while not settled(a, b):
                m = 0.5 * (a + b)
                f = known_side(m)
                if f is None:
                    path.append((m, f := side if m < edge else not side))
                a, b = (m, b) if f == side else (a, m)
            plan += [m for m, _ in path]
            if then is not None:
                plan += then(a, b)
        probe(plan)
        for m in plan:
            bisect.insort(points, m)
            if blur is not None:
                v = value(m)
                if fits(m) and v < -2.0 * blur[1]:
                    fit_below = max(fit_below, m * math.exp(-2.0 * blur[0]))
                elif not fits(m) and v > 2.0 * blur[1]:
                    unfit_above = min(unfit_above, m * math.exp(2.0 * blur[0]))
        if fit_below < below or unfit_above > above:
            # a pair did not settle its sides: placed again at most twice
            anchoring -= 1
        if not fan and fit_below >= below and unfit_above <= above and all(
                fits(m) == f for m, f in path):
            # every side the path took holds: it is the walk's
            lo, hi = a, b
    return lo, hi
