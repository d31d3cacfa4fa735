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


def golden_min(f: Callable, lo, hi, rel_tol: float = 1e-9, max_iter: int = 200):
    """Minimize f on [lo, hi]: golden_max of -f, for floats or arrays alike."""
    x, fneg = golden_max(lambda t: -f(t), lo, hi, rel_tol, max_iter)
    return x, -fneg


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
