"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .channel import _Scalar

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def _warn_cap(search: str, max_iter: int, rel_tol: float) -> None:
    warnings.warn(f"{search} stopped at max_iter={max_iter} with a bracket still wider "
                  f"than rel_tol={rel_tol:g}", RuntimeWarning, stacklevel=3)


def golden_max(f: Callable, lo, hi, rel_tol: float = 1e-9, max_iter: int = 200):
    """Maximize f on [lo, hi] by golden-section; returns (argmax, max).

    Exact only for unimodal f; callers with possibly multimodal objectives
    multi-start over subintervals. lo and hi may instead be equal-length numpy
    arrays of independent brackets, and f then maps an array of points to an
    array of values. Each element takes the points of its own scalar search
    and stops moving once its bracket meets the tolerance; the search ends
    when every bracket has, so f is called as often as the longest of the
    scalar searches would call it. A bracket still wider than the tolerance
    after max_iter steps issues a RuntimeWarning.
    """
    xp = np if isinstance(lo, np.ndarray) else _Scalar
    # looked up once: the scalar searches of solve_nash run this loop too
    maximum, where, any_ = xp.maximum, xp.where, xp.any
    flip = hi < lo
    a, b = where(flip, hi, lo), where(flip, lo, hi)
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for step in range(max_iter + 1):
        wide = b - a > rel_tol * maximum(maximum(abs(a), abs(b)), 1.0)
        if not any_(wide):
            break
        if step == max_iter:
            _warn_cap("golden_max", max_iter, rel_tol)
            break
        rises = f1 < f2
        up, down = wide & rises, wide > rises  # on bools, a > b is a and not b
        # up keeps [x1, b] and probes right of x2; down keeps [a, x2] and
        # probes left of x1; a closed bracket keeps everything
        a, b = where(up, x1, a), where(down, x2, b)
        x = where(up, a + _INV_PHI * (b - a), b - _INV_PHI * (b - a))
        fx = f(x)
        x1, x2 = where(up, x2, where(down, x, x1)), where(up, x, where(down, x1, x2))
        f1, f2 = where(up, f2, where(down, fx, f1)), where(up, fx, where(down, f1, f2))
    # include the bracket ends, the max may sit on a constraint boundary; the
    # largest value wins, and of equal values the largest point
    best_f, best_x = f(a), a
    for fx, x in ((f1, x1), (f2, x2), (f(b), b)):
        better = (fx > best_f) | ((fx == best_f) & (x > best_x))
        best_f, best_x = where(better, fx, best_f), where(better, x, best_x)
    return best_x, best_f


def bisect_boundary(pred: Callable, lo: float, hi: float, rel_tol: float = 1e-12,
                    max_iter: int = 200) -> tuple[float, float]:
    """Shrink [lo, hi] around the flip point of a monotone predicate.

    Requires pred(lo) is True and pred(hi) is False; returns the final
    (true_end, false_end) bracket. A bracket still wider than the tolerance
    after max_iter steps issues a RuntimeWarning.
    """
    for step in range(max_iter + 1):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1.0):
            break
        if step == max_iter:
            _warn_cap("bisect_boundary", max_iter, rel_tol)
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def bracketed_root(f: Callable, lo, hi, f_lo, f_hi, rel_tol: float = 1e-10,
                   max_iter: int = 100):
    """Shrink each bracket [lo, hi] around a root of f, where f(lo) < 0 < f(hi).

    lo, hi, f_lo and f_hi are equal-length numpy arrays of independent
    brackets; an end value may be infinite. f(x, open) maps the points x of
    the brackets still open, picked by the index array open, to f there.
    All brackets step in lockstep, each step evaluating every open bracket
    once: at the secant through its last two points evaluated, when both
    values are finite, the secant lands inside the bracket and the step
    before was a midpoint or halved the bracket; at the midpoint otherwise,
    so the bracket at least halves every two steps. A point stays half
    the tolerance inside its bracket, so a root within that distance of an
    end closes the bracket on the next step. A value of 0 closes the
    bracket at its point; NaN counts as above 0. A bracket closes at a width
    of rel_tol*max(|lo|, |hi|, 1), and one still wider after max_iter steps
    issues a RuntimeWarning. Returns the final (lo, hi).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    # the last two points evaluated, the end of smaller |f| the later
    lo_last = np.abs(f_lo) < np.abs(f_hi)
    x1, f1 = np.where(lo_last, lo, hi), np.where(lo_last, f_lo, f_hi)
    x0, f0 = np.where(lo_last, hi, lo), np.where(lo_last, f_hi, f_lo)
    halved = np.ones(lo.shape, dtype=bool)
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
        take = halved[open_] & np.isfinite(q0) & np.isfinite(q1) & (a < secant) & (secant < b)
        x = np.clip(np.where(take, secant, 0.5 * (a + b)), a + 0.5 * tol, b - 0.5 * tol)
        fx = f(x, open_)
        lo[open_], hi[open_] = np.where(fx <= 0.0, x, a), np.where(fx < 0.0, b, x)
        halved[open_] = ~take | (hi[open_] - lo[open_] <= 0.5 * (b - a))
        x0[open_], f0[open_], x1[open_], f1[open_] = p1, q1, x, fx
    return lo, hi
