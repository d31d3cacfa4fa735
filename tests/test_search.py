import math

import numpy as np
import pytest

from helpers import golden_reference
from prospect_pricing._search import (bisect_boundary, bracketed_root, golden_max,
                                      stationary_min)


def scalar_reference(pred, lo, hi, rel_tol=1e-12, max_iter=200):
    """The one-bracket bisection loop, as it stood before arrays were accepted."""
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1.0):
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def brackets(seed=7, n=40):
    """Flip points from 1e-6 to 1e6 in random brackets, one of them already closed."""
    rng = np.random.default_rng(seed)
    flips = 10.0 ** rng.uniform(-6.0, 6.0, n)
    lo = flips * rng.uniform(0.0, 1.0, n)
    hi = flips * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0, n))
    lo[0], hi[0] = math.nextafter(flips[0], 0.0), math.nextafter(flips[0], math.inf)
    return flips, lo, hi


def test_scalar_bisection_keeps_its_brackets():
    flips, lo, hi = brackets()
    for rel_tol in (1e-12, 1e-4):
        for f, a, b in zip(flips.tolist(), lo.tolist(), hi.tolist()):
            pred = lambda m: m < f
            want = scalar_reference(pred, a, b, rel_tol)
            assert bisect_boundary(pred, a, b, rel_tol) == want


def peaks(seed=11, n=40):
    """Peaks from 1e-3 to 1e6 in brackets of widths from 1e-6 to 1e3 times the
    peak: the searches stop after different numbers of steps. Some brackets
    come reversed, one is closed, and some put the peak outside them."""
    rng = np.random.default_rng(seed)
    peak = 10.0 ** rng.uniform(-3.0, 6.0, n)
    lo = peak - peak * 10.0 ** rng.uniform(-6.0, 3.0, n)
    hi = peak + peak * 10.0 ** rng.uniform(-6.0, 3.0, n)
    lo[::5], hi[::5] = hi[::5].copy(), lo[::5].copy()
    lo[1::7] = hi[1::7] + 1.0
    hi[1] = lo[1]
    # a floor makes plateaus of equal values, where the larger point must win
    floor = -(peak * 10.0 ** rng.uniform(-4.0, 1.0, n)) ** 2
    return peak, floor, lo, hi


def hill(x, peak, floor):
    """Concave near the peak, flat at the floor, -inf left of 0.1 * peak:
    the same operations on floats and on arrays."""
    d = x - peak
    value = np.maximum(-d * d, floor)
    return np.where(x < 0.1 * peak, -np.inf, value)


def test_scalar_golden_keeps_its_results():
    peak, floor, lo, hi = peaks()
    for rel_tol in (1e-10, 1e-6):
        for p, fl, a, b in zip(peak.tolist(), floor.tolist(), lo.tolist(), hi.tolist()):
            f = lambda x: float(hill(x, p, fl))
            got = golden_max(f, a, b, rel_tol)
            assert got == golden_reference(f, a, b, rel_tol)
            assert all(type(v) is float for v in got)


@pytest.mark.parametrize("search", ["golden_max", "bisect_boundary"])
def test_a_search_stopped_at_its_cap_warns(search):
    """A bracket still wider than its tolerance after max_iter steps is reported."""
    with pytest.warns(RuntimeWarning, match=f"{search} stopped at max_iter=5"):
        if search == "golden_max":
            golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 1e-12, 5)
        else:
            bisect_boundary(lambda x: x < 0.3, 0.0, 1.0, 1e-12, 5)


def test_a_bisection_closing_on_its_last_step_does_not_warn():
    # [0, 1] halves to the tolerance 2^-5 in exactly 5 steps; the suite's
    # error::RuntimeWarning filter fails the first call if it warns
    pred = lambda x: x < 0.3
    assert bisect_boundary(pred, 0.0, 1.0, 2.0 ** -5, max_iter=5) == (0.28125, 0.3125)
    with pytest.warns(RuntimeWarning, match="bisect_boundary"):
        bisect_boundary(pred, 0.0, 1.0, 2.0 ** -5, max_iter=4)


def rooted(seed=5, n=40):
    """Roots from 1e-3 to 1e6 in brackets of widths from 1e-6 to 1e3 times
    the root, some of them infinite below and above a window around it."""
    rng = np.random.default_rng(seed)
    root = 10.0 ** rng.uniform(-3.0, 6.0, n)
    lo = root - root * 10.0 ** rng.uniform(-6.0, 3.0, n)
    hi = root + root * 10.0 ** rng.uniform(-6.0, 3.0, n)
    window = np.where(np.arange(n) % 3 == 0, 1e-3 * (hi - lo), np.inf)
    return root, window, lo, hi


def slope(x, root, window):
    """Increasing through root, steep far from it, -inf and +inf beyond the window."""
    d = x - root
    value = d * (1.0 + (d / root) ** 2)
    return np.where(d < -window, -np.inf, np.where(d > window, np.inf, value))


def test_bracketed_root_closes_every_bracket_around_its_root():
    root, window, lo, hi = rooted()
    rel_tol = 1e-10
    calls = []

    def f(x, open_):
        calls.append(open_)
        return slope(x, root[open_], window[open_])

    a, b = bracketed_root(f, lo, hi, slope(lo, root, window), slope(hi, root, window), rel_tol)
    assert ((a <= root) & (root <= b)).all()
    assert (b - a <= rel_tol * np.maximum(np.maximum(abs(a), abs(b)), 1.0)).all()
    # each step evaluates only the brackets still open; none takes more
    # points than its bisection would, and all take about half as many
    assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))
    points = np.bincount(np.concatenate(calls), minlength=lo.size)
    bisection = np.ceil(np.log2((hi - lo) / (rel_tol * np.maximum(hi, 1.0))))
    assert (points <= bisection).all()
    assert points.sum() <= 0.6 * bisection.sum()


def test_bracketed_root_closes_on_a_zero():
    a, b = bracketed_root(lambda x, open_: x - 0.5, np.array([0.0]), np.array([1.0]),
                          np.array([-0.5]), np.array([0.5]))
    assert a[0] == b[0] == 0.5


def test_bracketed_root_stopped_at_its_cap_warns():
    lo, hi = np.zeros(3), np.ones(3)
    f = lambda x, open_: np.where(x < 0.3, -np.inf, np.inf)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        a, b = bracketed_root(f, lo, hi, f(lo, None), f(hi, None), 1e-12, max_iter=5)
    assert ((a < 0.3) & (0.3 <= b)).all()


def flat(x, problems):
    """The same value everywhere, with a slope rising through 0 at 0."""
    return np.zeros(x.shape), x


def test_a_start_wins_ties():
    x, value = stationary_min(flat, [-1.0, 1.0], [0.5, 0.25])
    assert x.tolist() == [0.5, 0.25] and value.tolist() == [0.0, 0.0]


def test_an_edge_comes_before_its_root():
    points = []

    def recorded(x, problems):
        points.extend(x.tolist())
        # the start, at 5, is worth more than every other point
        return np.where(x == 5.0, 1.0, 0.0), x

    x, _ = stationary_min(recorded, [-1.0, 1.0], [5.0])
    # the bracket was searched, and its points tie the edge before it
    assert len(points) > 3 and x.tolist() == [-1.0]
    # a root strictly smaller than the edges wins
    x, value = stationary_min(lambda x, problems: (x * x, x), [-1.0, 3.0], [5.0])
    assert abs(x[0]) <= 1e-10 and value[0] == x[0] * x[0]


def test_brackets_with_infinite_end_slopes_close_on_each_problems_root():
    """Each problem's slope is -inf and +inf beyond a window around its own
    minimum, which lies between the middle edges."""
    root, window, _, _ = rooted(n=12)
    edges = [0.0, 1e-3, 2e6]

    def f(x, problems):
        d = x - root[problems]
        return d * d, slope(x, root[problems], window[problems])

    for edge, sign in ((edges[1], -1.0), (edges[2], 1.0)):
        assert (slope(np.full(root.shape, edge), root, window) == sign * np.inf).any()
    x, _ = stationary_min(f, edges, np.zeros(root.size))
    assert (np.abs(x - root) <= 1e-10 * np.maximum(root, 1.0)).all()


def test_a_problem_with_no_bracket_returns_its_best_edge():
    """Problem 0 falls across the edges and problem 1 is concave: neither has
    a slope rising through 0, and problem 2's bracket is searched beside them."""
    def f(x, problems):
        value = np.choose(problems, [-x, -x * x, (x - 0.5) ** 2])
        return value, np.choose(problems, [-np.ones_like(x), -2.0 * x, 2.0 * (x - 0.5)])

    x, value = stationary_min(f, [-1.0, 0.25, 2.0], [0.0, 0.0, 0.0])
    assert x[:2].tolist() == [2.0, 2.0] and value[:2].tolist() == [-2.0, -4.0]
    assert abs(x[2] - 0.5) <= 1e-10
