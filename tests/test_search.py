import math

import numpy as np
import pytest

from helpers import fake_memo, golden_reference, sequential_bisection
from prospect_pricing._search import bracketed_root, golden_max, stationary_min
from prospect_pricing.game import _PATH, _bisect_edge


def brackets(seed=7, n=40):
    """Flip points from 1e-6 to 1e6 in random brackets, one of them already closed."""
    rng = np.random.default_rng(seed)
    flips = 10.0 ** rng.uniform(-6.0, 6.0, n)
    lo = flips * rng.uniform(0.0, 1.0, n)
    hi = flips * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0, n))
    lo[0], hi[0] = math.nextafter(flips[0], 0.0), math.nextafter(flips[0], math.inf)
    return flips, lo, hi


def edge(pred, a, b, value=lambda x: 0.0, probes=None):
    """game._bisect_edge over a fake memo that holds the ends."""
    return _bisect_edge(*fake_memo(pred, value, probes, seen=(a, b)), a, b)


def test_scalar_bisection_keeps_its_brackets():
    """Random monotone predicates, including brackets that settle partway
    through a predicted path and one already closed: the bracket is the
    one-point loop's, bit for bit, and no probe takes more than _PATH points."""
    flips, lo, hi = brackets(seed=13, n=200)
    for f, a, b in zip(flips.tolist(), lo.tolist(), hi.tolist()):
        pred, calls = (lambda m: m < f), []
        got = edge(pred, a, b, lambda m: m - f, calls)
        assert got == sequential_bisection(pred, a, b)
        assert all(1 <= len(rates) <= _PATH for rates in calls)


def test_batched_bisection_walks_a_non_monotone_predicate():
    """True on alternating bands of [0, 1): the walk follows the one-point
    loop's steps into the band they lead to, whatever the value predicts."""
    pred = lambda x: math.floor(x * 10.0) % 2 == 0
    value = lambda x: x - 0.5
    for a, b in ((0.0, 1.0), (0.05, 0.97), (0.21, 0.9)):
        want = sequential_bisection(pred, a, b)
        assert edge(pred, a, b, value) == want
    # the first three steps from [0, 1] probe 0.5 (False), 0.25 (True) and
    # 0.375 (False)
    lo, hi = edge(pred, 0.0, 1.0, value)
    assert 0.25 <= lo < hi <= 0.375


@pytest.mark.parametrize("value", [
    lambda x, f: 1.0, lambda x, f: math.nan, lambda x, f: math.inf, lambda x, f: -math.inf,
    lambda x, f: f - x, lambda x, f: math.sin(1e6 * x),
    lambda x, f: math.inf if x >= f else -1.0, lambda x, f: 1e308 * (x / f - 1.0)],
    ids=["constant", "nan", "inf", "-inf", "wrong-sign", "noise", "inf-past-the-flip",
         "overflowing"])
def test_a_misleading_value_keeps_the_bracket(value):
    """A value that is constant, NaN, infinite, of the wrong sign, noise,
    infinite on one side or overflowing the secant misleads the predictions:
    it costs probes, never a bit of the bracket."""
    flips, lo, hi = brackets(seed=17, n=40)
    for f, a, b in zip(flips.tolist(), lo.tolist(), hi.tolist()):
        pred, calls = (lambda m: m < f), []
        got = edge(pred, a, b, lambda m: value(m, f), calls)
        assert got == sequential_bisection(pred, a, b)
        assert all(1 <= len(rates) <= _PATH for rates in calls)


def test_a_smooth_value_closes_a_wide_bracket_in_few_calls():
    """From [1, 2^23], with the flip in the top octave as a doubling ladder
    leaves it, the 45 steps to 1e-12 took 15 calls of 3 look-ahead levels.
    Along secant-predicted paths, with the ends held in the memo, they take
    at most 6 probes for ln x - ln f and 4 for a value linear in x."""
    flips = 2.0 ** np.random.default_rng(3).uniform(22.0, 23.0, 50)
    for f in flips.tolist():
        pred = lambda m: m < f
        want = sequential_bisection(pred, 1.0, 2.0 ** 23)
        for value, most in ((lambda m: math.log(m / f), 6), (lambda m: m / f - 1.0, 4)):
            calls = []
            assert edge(pred, 1.0, 2.0 ** 23, value, calls) == want
            assert len(calls) <= most


@pytest.mark.parametrize("fits_below", [True, False], ids=["upper-edge", "lower-edge"])
def test_flips_at_the_ends_of_the_rate_range_close_within_100_midpoints(fits_below):
    """[2^-30, 2^60] spans every bracket a rate search bisects: a flip an ulp
    from either end closes at the one-point loop's bracket, bit for bit,
    within 100 midpoints, whichever end fits, and with no value at the
    upper end, as at the unprobed rung past the 1e18 cap."""
    lo, hi = 2.0 ** -30, 2.0 ** 60
    flips = [math.nextafter(lo, math.inf), lo * (1.0 + 1e-9), 1e-9, 1.0,
             math.nextafter(hi, 0.0), hi * (1.0 - 1e-15), 1e18]
    for f in flips:
        pred = (lambda m: m < f) if fits_below else (lambda m: m >= f)
        probe, fits, value = fake_memo(pred, lambda m: math.log(m / f), seen=(lo,))
        reads = []

        def counted(b):
            reads.append(b)
            return fits(b)
        got = _bisect_edge(probe, counted, value, lo, hi)
        want = sequential_bisection(pred if fits_below else lambda m: not pred(m), lo, hi)
        assert got == want
        assert got[1] - got[0] <= 1e-12 * max(got[1], 1.0)
        assert len(set(reads) - {lo}) <= 100


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


@pytest.mark.parametrize("search", ["golden_max"])
def test_a_search_stopped_at_its_cap_warns(search):
    """A bracket still wider than its tolerance after max_iter steps is reported."""
    with pytest.warns(RuntimeWarning, match=f"{search} stopped at max_iter=5"):
        golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 1e-12, 5)


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
    # points than its bisection would, and all take about a third as many
    assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))
    points = np.bincount(np.concatenate(calls), minlength=lo.size)
    bisection = np.ceil(np.log2((hi - lo) / (rel_tol * np.maximum(hi, 1.0))))
    assert (points <= bisection).all()
    assert points.sum() <= 0.45 * bisection.sum()


def bisections(lo, hi, root, rel_tol):
    """The points a bisection of each bracket takes to close around its root."""
    return np.ceil(np.log2((hi - lo) / (rel_tol * np.maximum(np.abs(root), 1.0))))


def points_to_close(g, root, lo, hi, f_hi, rel_tol=1e-10):
    """Close every bracket around its root of g(x, root); returns the number
    of points each took."""
    points = np.zeros(root.shape, dtype=int)

    def f(x, open_):
        points[open_] += 1
        return g(x, root[open_])

    a, b = bracketed_root(f, lo, hi, g(lo, root), f_hi, rel_tol)
    assert ((a <= root) & (root <= b)).all()
    return points


@pytest.mark.parametrize("end", ["step", "huge"])
def test_bracketed_root_on_slopes_that_defeat_the_secant(end):
    """A step function, whose secant through two points on one side is not
    finite and through points on both is only their midpoint, and a line
    whose value at hi is 1e300, which puts the first secant on lo: no
    bracket takes more than its bisection count plus 2 points."""
    root, _, lo, hi = rooted(n=200)
    if end == "step":
        g = lambda x, r: np.sign(x - r)
        f_hi = g(hi, root)
    else:
        g = lambda x, r: x - r
        f_hi = np.full(root.shape, 1e300)
    points = points_to_close(g, root, lo, hi, f_hi)
    assert (points <= bisections(lo, hi, root, 1e-10) + 2).all()


def test_bracketed_root_falls_back_on_a_flat_then_jumping_slope():
    """-1e-300 below the root and 1 above: the first secant lands on lo,
    and every later point has the value of the end it replaces, so
    Chandrupatla's test rejects each interpolation and the search bisects.
    No bracket takes more than 1.2 times its bisection count plus 2 points
    (measured: its bisection count plus 1), where a search by Brent's rule,
    whose secants crept from the end of smaller |f|, took up to 2.29 times."""
    root, _, lo, hi = rooted(n=400)
    g = lambda x, r: np.where(x < r, -1e-300, 1.0)
    points = points_to_close(g, root, lo, hi, g(hi, root))
    assert (points <= 1.2 * bisections(lo, hi, root, 1e-10) + 2).all()


@pytest.mark.parametrize("order", [3, 5, 21])
def test_bracketed_root_keeps_pace_at_a_multiple_root(order):
    """At a root of odd order above 1 the secant creeps, with steps that
    still halve every two: a secant rule with no fallback hit the cap of
    100 steps at order 3. Chandrupatla's test bisects where interpolation
    would creep, and closes every bracket within 1.5 times its bisection
    count plus 13 points, without a warning."""
    root, _, lo, hi = rooted(n=200)
    g = lambda x, r: ((x - r) / r) ** order
    points = points_to_close(g, root, lo, hi, g(hi, root))
    assert (points <= 1.5 * bisections(lo, hi, root, 1e-10) + 13).all()


def test_bracketed_root_closes_on_a_zero():
    a, b = bracketed_root(lambda x, open_: x - 0.5, np.array([0.0]), np.array([1.0]),
                          np.array([-0.5]), np.array([0.5]))
    assert a[0] == b[0] == 0.5


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_bracketed_root_closes_on_a_root_within_rounding_of_an_end(end):
    """The end of smaller |f| holds 1e-300 of the value's range, so the
    secant through the ends lands at or past it. The point half the
    tolerance inside that end closes every bracket within 2 points, where
    a midpoint taken instead left the search bisecting the far side down
    to the tolerance: 8 to 44 points."""
    _, _, lo, hi = rooted(n=200)
    root, offset = (lo, -1e-300) if end == "lo" else (hi, 1e-300)
    g = lambda x, r: np.tanh((x - r) / np.abs(r)) + offset
    points = points_to_close(g, root, lo, hi, g(hi, root))
    assert (points <= 2).all()


def test_bracketed_root_closes_on_a_root_an_ulp_above_its_lower_end():
    """log(x/lo) - 1e-16 over brackets from 1e-3 to 1e6 wide up to 1e3 times
    lo: the root lies within rounding of lo, and the first secant converges
    on it an ulp inside the bracket. The next point, half the tolerance
    inside lo, closes every bracket within 3 points (measured: 2), where a
    search that answered such a secant with a midpoint took up to 28."""
    rng = np.random.default_rng(19)
    lo = 10.0 ** rng.uniform(-3.0, 6.0, 200)
    hi = lo * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0, 200))
    g = lambda x, r: np.log(x / r) - 1e-16
    points = points_to_close(g, lo, lo, hi, g(hi, lo))
    assert (points <= 3).all()


def test_bracketed_root_stopped_at_its_cap_warns():
    lo, hi = np.zeros(3), np.ones(3)
    f = lambda x, open_: np.where(x < 0.3, -np.inf, np.inf)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        a, b = bracketed_root(f, lo, hi, f(lo, None), f(hi, None), 1e-12, max_iter=5)
    assert ((a < 0.3) & (0.3 <= b)).all()


def flat(x, problems):
    """The same value everywhere, with a slope rising through 0 at 0."""
    return np.zeros(x.shape), x, -np.inf, np.inf


def test_a_start_wins_ties():
    x, value = stationary_min(flat, [-1.0, 1.0], [0.5, 0.25])
    assert x.tolist() == [0.5, 0.25] and value.tolist() == [0.0, 0.0]


def test_an_edge_comes_before_its_root():
    points = []

    def recorded(x, problems):
        points.extend(x.tolist())
        # the start, at 5, is worth more than every other point
        return np.where(x == 5.0, 1.0, 0.0), x, -np.inf, np.inf

    x, _ = stationary_min(recorded, [-1.0, 1.0], [5.0])
    # the bracket was searched, and its points tie the edge before it
    assert len(points) > 3 and x.tolist() == [-1.0]
    # a root strictly smaller than the edges wins
    x, value = stationary_min(lambda x, problems: (x * x, x, -np.inf, np.inf), [-1.0, 3.0], [5.0])
    assert abs(x[0]) <= 1e-10 and value[0] == x[0] * x[0]


def test_a_flat_minimum_returns_its_root():
    """A value flat within 1e-2 of the root, as rounding makes a loss flat
    near its minimum: every point there ties, and the point is the end of
    the closed bracket, within the tolerance of the root, not the first
    point the search took on the flat (2e-3 to 6.4e-3 from the root)."""
    root = np.array([0.3, 0.71, 0.123456])

    def f(x, problems):
        d = x - root[problems]
        return np.floor(d * d * 1e4) / 1e4, d * (1.0 + 50.0 * d * d), -np.inf, np.inf

    x, value = stationary_min(f, [-1.0, 1.0], np.zeros(root.size))
    assert (np.abs(x - root) <= 1e-10).all() and (value == 0.0).all()


def test_brackets_with_infinite_end_slopes_close_on_each_problems_root():
    """Each problem's slope is -inf and +inf beyond a window around its own
    minimum, which lies between the middle edges."""
    root, window, _, _ = rooted(n=12)
    edges = [0.0, 1e-3, 2e6]

    def f(x, problems):
        d = x - root[problems]
        return d * d, slope(x, root[problems], window[problems]), -np.inf, np.inf

    for edge, sign in ((edges[1], -1.0), (edges[2], 1.0)):
        assert (slope(np.full(root.shape, edge), root, window) == sign * np.inf).any()
    x, _ = stationary_min(f, edges, np.zeros(root.size))
    assert (np.abs(x - root) <= 1e-10 * np.maximum(root, 1.0)).all()


def test_brackets_shown_to_hold_no_finite_value_close_early():
    """Problems 0 and 1 are inf everywhere, with slopes -inf and +inf either
    side of 0.5. Problem 0's bounds cross at the edges: its bracket is
    dropped before the search. Problem 1's cross only inside the bracket:
    it closes at its first point. Problem 2's never cross, and its search
    finds its minimum, at ln 2, beside them."""
    root_points = []

    def f(x, problems):
        root_points.append(problems.tolist())
        out = problems < 2
        value = np.where(out, np.inf, np.exp(x) - 2.0 * x)
        slope = np.where(out, np.where(x < 0.5, -np.inf, np.inf), np.exp(x) - 2.0)
        edge = (x == 0.0) | (x == 1.0)
        lower = np.choose(problems, [1.0, np.where(edge, -1.0, 1.0), -np.inf])
        upper = np.choose(problems, [0.0, np.where(edge, 2.0, 0.0), np.inf])
        return value, slope, lower, upper

    x, value = stationary_min(f, [0.0, 1.0], [0.25, 0.25, 0.25])
    searched = np.bincount(np.concatenate(root_points[1:]), minlength=3)
    assert searched[0] == 0 and searched[1] == 1 and searched[2] > 1
    assert x[:2].tolist() == [0.25, 0.25] and value[:2].tolist() == [np.inf, np.inf]
    assert abs(x[2] - math.log(2.0)) <= 1e-10


def test_a_problem_with_no_bracket_returns_its_best_edge():
    """Problem 0 falls across the edges and problem 1 is concave: neither has
    a slope rising through 0, and problem 2's bracket is searched beside them."""
    def f(x, problems):
        value = np.choose(problems, [-x, -x * x, (x - 0.5) ** 2])
        return (value, np.choose(problems, [-np.ones_like(x), -2.0 * x, 2.0 * (x - 0.5)]),
                -np.inf, np.inf)

    x, value = stationary_min(f, [-1.0, 0.25, 2.0], [0.0, 0.0, 0.0])
    assert x[:2].tolist() == [2.0, 2.0] and value[:2].tolist() == [-2.0, -4.0]
    assert abs(x[2] - 0.5) <= 1e-10
