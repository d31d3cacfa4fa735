"""One-dimensional search primitives shared by the solver and strategy code."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .channel import _Scalar

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               rel_tol: float = 1e-9, max_iter: int = 200) -> tuple[float, float]:
    """Maximize f on [lo, hi] by golden-section; returns (argmax, max).

    Exact only for unimodal f; callers with possibly multimodal objectives
    multi-start over subintervals.
    """
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= rel_tol * max(abs(a), abs(b), 1.0):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    # include the bracket ends, the max may sit on a constraint boundary
    cands = [(f(a), a), (f1, x1), (f2, x2), (f(b), b)]
    fx, x = max(cands)
    return x, fx


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               rel_tol: float = 1e-9, max_iter: int = 200) -> tuple[float, float]:
    x, fneg = golden_max(lambda t: -f(t), lo, hi, rel_tol, max_iter)
    return x, -fneg


def bisect_boundary(pred: Callable, lo, hi, rel_tol: float = 1e-12,
                    max_iter: int = 200):
    """Shrink [lo, hi] around the flip point of a monotone predicate.

    Requires pred(lo) is True and pred(hi) is False; returns the final
    (true_end, false_end) bracket. lo and hi may instead be equal-length
    numpy arrays of independent brackets, and pred then maps an array of
    midpoints to a bool array. Each element takes the midpoints of its own
    scalar search and stops moving once its bracket meets the tolerance; the
    search ends when every bracket has, so pred is called as often as the
    longest of the scalar searches would call it.
    """
    xp = np if isinstance(lo, np.ndarray) else _Scalar
    # looked up once: the scalar searches of solve_nash run this loop too
    maximum, where, any_ = xp.maximum, xp.where, xp.any
    for _ in range(max_iter):
        wide = hi - lo > rel_tol * maximum(maximum(abs(lo), abs(hi)), 1.0)
        if not any_(wide):
            break
        mid = 0.5 * (lo + hi)
        below = pred(mid)
        lo = where(wide & below, mid, lo)
        hi = where(wide > below, mid, hi)  # on bools, a > b is a and not b
    return lo, hi
