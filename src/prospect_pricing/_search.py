"""One-dimensional search primitives shared by the solver and strategy code.

_Scalars, a second operation set for one-bracket searches, stays for a
measured gain: on _Arrays, recover-300m-40's in-process pass is slower.
"""

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
    the value there and a slope of the sign of d value/d point, maybe
    infinite. edges are rising, one list for every problem or edges x
    problems, a problem's NaN edges, after its last, not evaluated. One
    call evaluates every edge of every problem, edge-major, then the
    starts. Only brackets between edges where the slope rises through 0
    hold a minimum, and one lockstep bracketed_root search, Chandrupatla's
    method, closes them all to its default tolerance; when one bracket is
    searched, its end values, like the search's state, are np.float64
    scalars, the same arithmetic on _Scalars for a fraction of the ufunc
    calls. Each bracket's point is the end of its closed bracket of smaller
    value, the lower end on a tie: a stationary point, where the smallest
    value evaluated could be any point within rounding of a flat minimum,
    however far from its root. The best point starts at the start, and each
    edge and its bracket's point, in order, replace it only when strictly
    smaller. Without starts, f is not called and both arrays are empty.
    """
    starts = np.asarray(starts, dtype=float)
    n = starts.size
    if not n:
        return np.empty(0), np.empty(0)
    edges = np.asarray(edges, dtype=float)
    edges = np.broadcast_to(edges[:, None] if edges.ndim == 1 else edges, (len(edges), n))
    # value and slope at every point, (edges + 1) x n, the starts last; a NaN
    # edge's value is inf and its slope NaN
    points = np.concatenate((edges, starts[None]))
    taken = ~np.isnan(points)
    taken[-1] = True
    at = np.full((2,) + points.shape, np.inf)
    at[1] = np.nan
    at[:, taken] = f(points[taken], np.nonzero(taken)[1])
    # bracket k of problem j holds a minimum where the slope rises through 0
    k, j = np.nonzero((at[1, :-2] < 0.0) & (at[1, 1:-1] > 0.0))
    # the values at each bracket's ends, moved along with them
    lo_value, hi_value = at[0, k, j], at[0, k + 1, j]
    # the state of the brackets still open, as bracketed_root's open picks them;
    # one bracket's, like bracketed_root's, in np.float64 scalars
    xp = _Scalars if k.size == 1 else _Arrays
    held, problem = np.arange(k.size), j
    at_lo, at_hi = xp.value(lo_value), xp.value(hi_value)

    def root_slope(x, open_):
        nonlocal held, problem, at_lo, at_hi
        if open_.size < held.size:
            # brackets closed: store their end values, and keep the rest
            lo_value[held], hi_value[held] = at_lo, at_hi
            kept = np.searchsorted(held, open_)
            held, problem, at_lo, at_hi = (a[kept] for a in (held, problem, at_lo, at_hi))
        at_x, d = (xp.value(v) for v in f(x, problem))
        at_lo = xp.where(d <= 0.0, at_x, at_lo)
        at_hi = xp.where(d < 0.0, at_hi, at_x)
        return d

    lo, hi = bracketed_root(root_slope, edges[k, j], edges[k + 1, j], at[1, k, j], at[1, k + 1, j])
    lo_value[held], hi_value[held] = at_lo, at_hi
    on_hi = hi_value < lo_value
    root, root_value = np.where(on_hi, hi, lo), np.where(on_hi, hi_value, lo_value)

    # candidates in order, points and values: the start, then each edge and
    # its bracket's point
    cand, cand_value = np.empty((2, 1 + 2 * len(edges), n))
    cand[0], cand_value[0] = starts, at[0, -1]
    cand[1::2], cand_value[1::2] = edges, at[0, :-1]
    cand[2::2], cand_value[2::2] = np.nan, np.inf
    cand[2 + 2 * k, j], cand_value[2 + 2 * k, j] = root, root_value
    best = np.argmin(cand_value, axis=0), np.arange(n)
    return cand[best], cand_value[best]


def concave_root(f: Callable, u: float, stop: float, max_iter: int = 100) -> float:
    """The end nearest u of the points between u and stop where a concave f
    is at least 0: u itself where f(u) >= 0, NaN where there are none.

    f(u) returns the value and slope at a float u. From u, where f is below
    0, Newton's method steps toward stop: the tangent of a concave f lies
    above it, so each step lands at or short of the zero and the steps move
    monotonically toward it from the side where f < 0. There is no zero
    where the slope does not point toward stop or a step passes stop. The
    search ends at the first point where f is at least 0, or at the point
    of a step below 2^-30*max(1, |u|), its error then of order the step
    squared; after max_iter steps a RuntimeWarning says so and the last
    point is returned.
    """
    toward = 1.0 if stop > u else -1.0
    value, slope = f(u)
    for _ in range(max_iter):
        if value >= 0.0:
            return u
        if not toward * slope > 0.0:
            return math.nan
        step = -value / slope
        u += step
        if toward * (u - stop) > 0.0:
            return math.nan
        if abs(step) <= 2.0 ** -30 * max(1.0, abs(u)):
            return u
        value, slope = f(u)
    warnings.warn(f"concave_root stopped at max_iter={max_iter} before a step below "
                  f"2^-30", RuntimeWarning, stacklevel=2)
    return u


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


def _bisect_edge(probe, fits, value, slope, lo: float, hi: float, known=(), blur=None,
                 then=None) -> tuple[float, float]:
    """Halve [lo, hi], where fits(lo) and fits(hi) differ, down to
    1e-12*max(|lo|, |hi|, 1), each midpoint taking the side of the end whose
    fit it shares; returns the final (lo, hi).

    probe(rates) evaluates rates into a memo. fits(b) reads from it whether
    the set fits at b, None where b is unprobed; value(b) a float below 0
    where it fits that changes sign at the edge, and slope(b) its derivative
    in ln b, both NaN where b is unprobed: in solve_nash, ln T_n(b) - ln(B*(1
    - slack)) and d ln T_n/d ln b. known holds probed rates, ascending.

    The walk takes each midpoint whose side is known and stops at the
    first that is not, for one evaluation. An estimate of the edge in ln b
    (_edge_estimate) aims it, from the narrowest bracket of probed rates
    inside [lo, hi] (at first the rungs a ladder left about the edge) and
    the probed rate next past each of its ends. The evaluation is one of:
    - a Newton step, the estimate's rate alone, the first also with the
      rates 2 and 8 times err either side, a pair of which brackets the edge
      for every later estimate: where the far midpoints are inferred, until
      err is below _EDGE_SHARE of the bisection's settle width at the
      estimate, so that few of a path's midpoints can lie between it and
      the edge;
    - a path, each midpoint of the walk's whose side is not known, on the
      estimate's side, with then(a, b) of the path's final bracket; where
      the far midpoints are inferred, it probes two anchors first, the
      estimate times e^(-+w), w = 2*(2 err + beta) + 4*gamma/s with s the
      slope it was estimated from, and only the midpoints between, and a
      pair that does not settle both sides is placed at most three times in
      all. Where every midpoint takes the side it was probed for, the path
      is the walk's;
    - a fan, every midpoint of the next _FAN_LEVELS levels whose side is not
      known, where there is no estimate but the midpoint in ln b.

    A midpoint's side is known where it is probed or settled. With blur =
    (beta, gamma), where lo fits, every probed rate settles far midpoints,
    whatever evaluation probed it: the search takes the set's computed T(b)
    to lie within a factor 1 +- gamma of T'(b e^d), |d| <= beta, for a T'
    that does not fall as b rises. A midpoint at or below a e^(-2 beta), of
    a probed a that fits with value < -2 gamma, then fits, and one at or
    above c e^(2 beta), of a probed c that does not with value > 2 gamma,
    does not, and neither is probed.

    An edge takes at most _EDGE_STEPS evaluations aimed by an estimate; at
    the cap a RuntimeWarning says so, and the rest of the walk probes fans.
    The probes decide only how many evaluations the walk takes, never its
    bracket. Within [2^-30, 2^60] it closes within 100 midpoints.
    """
    def closed(a, b):
        # whether the bracket [a, b] is down to the bisection's width
        return b - a <= 1e-12 * max(abs(a), abs(b), 1.0)

    def sharp(b, err):
        # whether an estimate b, err off in ln b, is to aim a path
        return err <= _EDGE_SHARE * 1e-12 * max(b, 1.0) / b

    def side_of(m, below, above):
        # whether m fits, where every rate at or below below fits and at or
        # above above does not; None where m is unprobed between them
        return True if m <= below else False if m >= above else fits(m)

    side = fits(lo)
    # the probed rates inside [lo, hi], ascending
    points = list(known[bisect.bisect_right(known, lo):bisect.bisect_left(known, hi)])
    # the far midpoints are inferred only where lo fits: an upper edge
    blur = blur if side else None
    # every rate at or below fit_below fits, at or above unfit_above does not
    fit_below, unfit_above = -math.inf, math.inf
    # evaluations aimed by an estimate so far, and anchor pairs left to place
    steps, anchoring = 0, 3 if blur is not None else 0
    while not closed(lo, hi):
        mid = 0.5 * (lo + hi)
        fit = side_of(mid, fit_below, unfit_above)
        if fit is not None:
            lo, hi = (mid, hi) if fit == side else (lo, mid)
            continue
        if steps == _EDGE_STEPS:
            _warn_cap("edge Newton", _EDGE_STEPS, _EDGE_SHARE * 1e-12)
            steps += 1
        # no estimate where the bracket reaches down to 0 or at the cap
        (a, c), (u, err, s) = (lo, hi), (math.nan, math.inf, math.nan)
        if lo > 0.0 and steps < _EDGE_STEPS:
            a, c = _narrowest(fits, side, points, lo, hi)
            i, j = bisect.bisect_left(points, a), bisect.bisect_right(points, c)
            u, err, s = _edge_estimate(value, slope, a, c, side,
                                       points[max(i - 1, 0):i] + points[j:j + 1])
        edge, plan, path, walk = math.exp(u), [], [], (lo, hi)
        below, above = fit_below, unfit_above
        steps += not math.isnan(s)
        if math.isnan(s):
            # a fan
            level = [(lo, hi)]
            for _ in range(_FAN_LEVELS):
                level, brackets = [], level
                for x, y in brackets:
                    if closed(x, y):
                        continue
                    m = 0.5 * (x + y)
                    f = side_of(m, below, above)
                    if f is None:
                        plan.append(m)
                        level += [(x, m), (m, y)]
                    else:
                        level.append((m, y) if f == side else (x, m))
        elif (blur is not None and not sharp(edge, err) and not closed(a, edge)
              and not closed(edge, c) and fits(edge) is None):
            # a Newton step
            reach = [] if steps > 1 else [k * min(err, 1.0) for k in (2.0, 8.0)]
            plan = [r for r in (edge, *(edge * math.exp(x) for d in reach for x in (-d, d)))
                    if a < r < c]
        else:
            # a path, anchored where the far midpoints are inferred
            if anchoring > 0 and sharp(edge, err) and s > 0.0:
                beta, gamma = blur
                w = 2.0 * (2.0 * err + beta) + 4.0 * gamma / s
                low, high = edge * math.exp(-w), edge * math.exp(w)
                if lo < low:
                    plan.append(low)
                    below = max(below, low * math.exp(-2.0 * beta))
                if high < hi:
                    plan.append(high)
                    above = min(above, high * math.exp(2.0 * beta))
            x, y = walk
            while not closed(x, y):
                m = 0.5 * (x + y)
                f = side_of(m, below, above)
                if f is None:
                    path.append((m, f := side if m < edge else not side))
                x, y = (m, y) if f == side else (x, m)
            walk = x, y
            plan += [m for m, _ in path]
            if then is not None:
                plan += then(x, y)
        # every evaluation's rates: probed, and with the blur settling far midpoints
        probe(plan)
        for m in plan:
            bisect.insort(points, m)
            if blur is not None:
                fit, v = fits(m), value(m)
                if fit and v < -2.0 * blur[1]:
                    fit_below = max(fit_below, m * math.exp(-2.0 * blur[0]))
                elif not fit and v > 2.0 * blur[1]:
                    unfit_above = min(unfit_above, m * math.exp(2.0 * blur[0]))
        if fit_below < below or unfit_above > above:
            # a pair did not settle its sides: placed again at most twice
            anchoring -= 1
        elif all(fits(m) == f for m, f in path):
            # every side the path took holds: it is the walk's
            lo, hi = walk
    return lo, hi
