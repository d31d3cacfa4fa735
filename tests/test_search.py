import itertools
import math
import warnings

import numpy as np
import pytest

from helpers import fake_memo, gathered_chandrupatla, golden_reference, sequential_bisection
from prospect_pricing._search import (_bisect_edge, _edge_estimate, bracketed_root,
                                      concave_root, golden_max, stationary_min)
from prospect_pricing.game import _EPS

# (beta, gamma) of a computed total as solve_nash states it for a few users:
# the fake memos' values round by an ulp or two, far inside it
BLUR = (64 * _EPS, 8 * _EPS)


def brackets(seed=7, n=40):
    """Flip points from 1e-6 to 1e6 in random brackets, one of them already closed."""
    rng = np.random.default_rng(seed)
    flips = 10.0 ** rng.uniform(-6.0, 6.0, n)
    lo = flips * rng.uniform(0.0, 1.0, n)
    hi = flips * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0, n))
    lo[0], hi[0] = math.nextafter(flips[0], 0.0), math.nextafter(flips[0], math.inf)
    return flips, lo, hi


def edge(pred, a, b, value=lambda x: 0.0, probes=None, slope=lambda x: 0.0, **kwargs):
    """_search._bisect_edge over a fake memo that holds the ends."""
    return _bisect_edge(*fake_memo(pred, value, probes, seen=(a, b), slope=slope), a, b, **kwargs)


def test_scalar_bisection_keeps_its_brackets():
    """Random monotone predicates, including brackets that settle partway
    through a predicted path and one already closed: the bracket is the
    one-point loop's, bit for bit, whether every midpoint is probed or the
    far ones are inferred, and no probe takes more than 64 rates (a path of
    the bisection's at most 62 midpoints and two anchors)."""
    flips, lo, hi = brackets(seed=13, n=200)
    for f, a, b in zip(flips.tolist(), lo.tolist(), hi.tolist()):
        pred = lambda m: m < f
        for blur in (None, BLUR):
            calls = []
            got = edge(pred, a, b, lambda m: math.log(m / f), calls, lambda m: 1.0, blur=blur)
            assert got == sequential_bisection(pred, a, b)
            assert all(1 <= len(rates) <= 64 for rates in calls)


def test_batched_bisection_walks_a_non_monotone_predicate():
    """True on alternating bands of [0, 1): the walk follows the one-point
    loop's steps into the band they lead to, whatever the value predicts."""
    pred = lambda x: math.floor(x * 10.0) % 2 == 0
    value, slope = (lambda x: x - 0.5), (lambda x: x)
    for a, b in ((0.0, 1.0), (0.05, 0.97), (0.21, 0.9)):
        want = sequential_bisection(pred, a, b)
        assert edge(pred, a, b, value, slope=slope) == want
    # the first three steps from [0, 1] probe 0.5 (False), 0.25 (True) and
    # 0.375 (False)
    lo, hi = edge(pred, 0.0, 1.0, value, slope=slope)
    assert 0.25 <= lo < hi <= 0.375


MISLEADING_VALUES = {
    "constant": lambda x, f: 1.0, "nan": lambda x, f: math.nan, "inf": lambda x, f: math.inf,
    "-inf": lambda x, f: -math.inf, "wrong-sign": lambda x, f: f - x,
    "noise": lambda x, f: math.sin(1e6 * x),
    "inf-past-the-flip": lambda x, f: math.inf if x >= f else -1.0,
    "overflowing": lambda x, f: 1e308 * (x / f - 1.0)}
MISLEADING_SLOPES = {
    "true": lambda x, f: 1.0, "nan": lambda x, f: math.nan, "inf": lambda x, f: math.inf,
    "zero": lambda x, f: 0.0, "wrong-sign": lambda x, f: -1.0,
    "noise": lambda x, f: math.cos(1e6 * x), "overflowing": lambda x, f: 1e308 * x}


@pytest.mark.parametrize("value", list(MISLEADING_VALUES))
def test_a_misleading_value_keeps_the_bracket(value):
    """A value that is constant, NaN, infinite, of the wrong sign, noise,
    infinite on one side or overflowing, with a slope that is right, NaN,
    infinite, 0, of the wrong sign, noise or overflowing, misleads the
    estimates: it costs probes, never a bit of the bracket, with the far
    midpoints inferred or not. A rate settles a side only where its value
    says so and its fit agrees, which this monotone predicate then bears
    out. The Newton may stop at its cap, and then says so."""
    flips, lo, hi = brackets(seed=17, n=40)
    value = MISLEADING_VALUES[value]
    for (f, a, b), slope in itertools.product(zip(flips.tolist(), lo.tolist(), hi.tolist()),
                                              MISLEADING_SLOPES.values()):
        pred = lambda m: m < f
        want = sequential_bisection(pred, a, b)
        for blur in (None, BLUR):
            calls = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = edge(pred, a, b, lambda m: value(m, f), calls, lambda m: slope(m, f),
                           blur=blur)
            assert got == want
            assert all(1 <= len(rates) <= 64 for rates in calls)
            assert all("edge Newton stopped" in str(w.message) for w in caught)


def test_a_smooth_value_closes_a_wide_bracket_in_few_calls():
    """From [1, 2^23], with the flip in the top octave as a doubling ladder
    leaves it: the edge is a Newton root from the ends. ln x - ln f is
    linear in ln x, so its first estimate is exact and one probe closes the
    45 steps to 1e-12, 3 rates where the far midpoints are inferred (two
    anchors and a midpoint near the flip) and 41 where none is; a value
    linear in x takes at most 4 calls, of at most 5 rates with inference."""
    flips = 2.0 ** np.random.default_rng(3).uniform(22.0, 23.0, 50)
    for f in flips.tolist():
        pred = lambda m: m < f
        want = sequential_bisection(pred, 1.0, 2.0 ** 23)
        for value, slope, most in ((lambda m: math.log(m / f), lambda m: 1.0, 1),
                                   (lambda m: m / f - 1.0, lambda m: m / f, 4)):
            for blur, rates in ((None, 41), (BLUR, 5)):
                calls = []
                assert edge(pred, 1.0, 2.0 ** 23, value, calls, slope, blur=blur) == want
                assert len(calls) <= most
                assert max(map(len, calls)) <= rates


def test_ladder_rungs_given_as_known_points_close_the_bracket_in_few_calls():
    """The same brackets, with the rungs a ladder leaves, 2^21, 2^22 and
    2^24, known, as _rate_feasibility_interval passes them: the narrowest
    bracket they give is the two rungs about the edge, and one evaluation
    closes the bracket, of 3 rates where the far midpoints are inferred."""
    rungs = (2.0 ** 21, 2.0 ** 22, 2.0 ** 24)
    flips = 2.0 ** np.random.default_rng(3).uniform(22.0, 23.0, 50)
    for f in flips.tolist():
        pred, value = (lambda m: m < f), (lambda m: math.log(m / f))
        for blur in (None, BLUR):
            calls = []
            memo = fake_memo(pred, value, calls, (1.0, 2.0 ** 23, *rungs), lambda m: 1.0)
            got = _bisect_edge(*memo, 1.0, 2.0 ** 23, sorted((1.0, *rungs)), blur)
            assert got == sequential_bisection(pred, 1.0, 2.0 ** 23)
            assert len(calls) == 1 and (blur is None or len(calls[0]) <= 3)


def near_flips():
    """Flips within an ulp of a midpoint of the one-point loop from [1,
    2^23], and of powers of two, from 2^-29 to 2^59."""
    pred_flip = 6123456.789
    lo, hi, mids = 1.0, 2.0 ** 23, []
    while hi - lo > 1e-12 * hi:
        mids.append(mid := 0.5 * (lo + hi))
        lo, hi = (mid, hi) if mid < pred_flip else (lo, mid)
    points = mids[::4] + [2.0 ** k for k in range(-29, 60, 8)]
    return [g(p) for p in points
            for g in (lambda p: p, lambda p: math.nextafter(p, 0.0),
                      lambda p: math.nextafter(p, math.inf))]


def test_inference_keeps_the_bracket_at_flips_next_to_midpoints():
    """A flip within an ulp of a midpoint or of a power of two puts that
    midpoint within rounding of the edge: it is probed, not inferred, and
    the bracket is the one-point loop's, from a bracket whose ends are the
    rungs about it and from [2^-30, 2^60]."""
    for f in near_flips():
        pred, value = (lambda m: m < f), (lambda m: math.log(m / f))
        for a, b in ((1.0, 2.0 ** 23) if f < 2.0 ** 23 else (1.0, 2.0 ** 60),
                     (2.0 ** -30, 2.0 ** 60)):
            if a < f < b:
                got = edge(pred, a, b, value, slope=lambda m: 1.0, blur=BLUR)
                assert got == sequential_bisection(pred, a, b), f


def test_edge_newton_warns_at_its_cap():
    """A slope a million times too steep keeps each estimate from closing
    in, with the far midpoints inferred (Newton probes) or not (paths, each
    a Newton step): the edge stops aiming at its cap with a RuntimeWarning,
    and the bisection, on through fans of midpoints, still ends on the
    one-point loop's bracket."""
    f = 12345.678
    pred = lambda m: m < f
    for blur in (None, BLUR):
        with pytest.warns(RuntimeWarning, match="edge Newton stopped"):
            got = edge(pred, 1.0, 2.0 ** 20, lambda m: math.log(m / f), slope=lambda m: 1e6,
                       blur=blur)
        assert got == sequential_bisection(pred, 1.0, 2.0 ** 20)


def test_edge_error_estimate_tracks_the_error():
    """ln T - ln R for T(b) = b^2/(1 - b/b1), singular at b1 as a total is
    where a user's reach ends, with the edge 0.038 below it in ln b: from a
    bracket of two close rates and a third farther out, err, read off the
    two cubics' roots, is within a factor 2 of the estimate's true error;
    with no third rate it is the Newton step's error, above the true one."""
    b1, room = 2.0e6, 1.0e14
    t = lambda b: b * b / (1.0 - b / b1)
    k = room / b1
    edge_b = 2.0 * room / (k + math.sqrt(k * k + 4.0 * room))
    value = lambda b: math.log(t(b) / room)
    slope = lambda b: 2.0 + (b / b1) / (1.0 - b / b1)
    for width in (3e-3, 1e-3, 3e-4):
        a, c = edge_b * math.exp(-0.3 * width), edge_b * math.exp(0.7 * width)
        third = edge_b * math.exp(-3.0 * width)
        u, err, _ = _edge_estimate(value, slope, a, c, True, (third,))
        true = abs(u - math.log(edge_b))
        assert true / 2.0 <= err <= 2.0 * true, width
        u, err, _ = _edge_estimate(value, slope, a, c, True)
        assert err >= abs(u - math.log(edge_b)), width


def test_an_upper_edge_is_not_estimated_from_a_lower_edge():
    """A rising-at-zero price's upper edge can be bracketed from its lower
    edge, where the value is about 0 and falls: that end lies past a turn
    and is left out, and the estimate is the Newton step from the other end
    (with no cubic, no error to judge it by)."""
    low, high = 189.559, 2.0 ** 10
    values = {low: -1e-11, high: 0.4}
    slopes = {low: -5.0, high: 1.1}
    u, err, s = _edge_estimate(values.get, slopes.get, low, high, True)
    assert u == math.log(high) - 0.4 / 1.1 and err == math.inf and s == 1.1


@pytest.mark.parametrize("fits_below", [True, False], ids=["upper-edge", "lower-edge"])
def test_flips_at_the_ends_of_the_rate_range_close_within_100_midpoints(fits_below):
    """[2^-30, 2^60] spans every bracket a rate search bisects: a flip an ulp
    from either end closes at the one-point loop's bracket, bit for bit,
    within 100 midpoints, whichever end fits, and with no value at the
    upper end, as at the unprobed rung past the 1e18 cap, with the far
    midpoints inferred or not."""
    lo, hi = 2.0 ** -30, 2.0 ** 60
    flips = [math.nextafter(lo, math.inf), lo * (1.0 + 1e-9), 1e-9, 1.0,
             math.nextafter(hi, 0.0), hi * (1.0 - 1e-15), 1e18]
    for f in flips:
        pred = (lambda m: m < f) if fits_below else (lambda m: m >= f)
        sign = 1.0 if fits_below else -1.0
        want = sequential_bisection(pred if fits_below else lambda m: not pred(m), lo, hi)
        for blur in (None, BLUR):
            probe, fits, value, slope = fake_memo(pred, lambda m: sign * math.log(m / f),
                                                  seen=(lo,), slope=lambda m: sign)
            reads = []

            def counted(b):
                reads.append(b)
                return fits(b)
            got = _bisect_edge(probe, counted, value, slope, lo, hi, blur=blur)
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


def test_a_flat_minimum_returns_its_root():
    """A value flat within 1e-2 of the root, as rounding makes a loss flat
    near its minimum: every point there ties, and the point is the end of
    the closed bracket, within the tolerance of the root, not the first
    point the search took on the flat (2e-3 to 6.4e-3 from the root)."""
    root = np.array([0.3, 0.71, 0.123456])

    def f(x, problems):
        d = x - root[problems]
        return np.floor(d * d * 1e4) / 1e4, d * (1.0 + 50.0 * d * d)

    x, value = stationary_min(f, [-1.0, 1.0], np.zeros(root.size))
    assert (np.abs(x - root) <= 1e-10).all() and (value == 0.0).all()


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


def test_each_problem_searches_its_own_edges():
    """Edges given per problem, a problem's NaN edges after its last: each
    problem takes bitwise the points, best point and value it takes
    searched alone on its own edges, NaN edges are not evaluated, and a
    problem without an edge opens no bracket and keeps its start."""
    root = np.array([0.3, 1.7, 0.5])
    # edges x problems: [0, 1, 2], [1, 2] and none
    edges = np.array([[0.0, 1.0, np.nan], [1.0, 2.0, np.nan], [2.0, np.nan, np.nan]])
    starts = np.array([0.9, 1.9, 0.25])

    def searched(which):
        seen = []

        def f(x, problems):
            j = np.asarray(which)[problems]
            seen.append([(int(p), v.hex()) for p, v in zip(j.tolist(), x.tolist())])
            d = x - root[j]
            return np.exp(d) - d, np.expm1(d)

        x, value = stationary_min(f, edges[:, which], starts[which])
        return seen, [v.hex() for v in x.tolist()], [v.hex() for v in value.tolist()]

    seen, x, value = searched([0, 1, 2])
    assert not any(math.isnan(float.fromhex(v)) for step in seen for _, v in step)
    assert [p for p, _ in seen[0]].count(2) == 1
    for k in range(3):
        alone_seen, alone_x, alone_value = searched([k])
        mine = [[v for p, v in step if p == k] for step in seen]
        assert [step for step in mine if step] == [[v for _, v in step] for step in alone_seen]
        assert (x[k], value[k]) == (alone_x[0], alone_value[0])
    assert abs(float.fromhex(x[0]) - 0.3) <= 1e-10 and abs(float.fromhex(x[1]) - 1.7) <= 1e-10
    assert x[2] == (0.25).hex()


def test_concave_root_steps_monotonically_to_the_nearest_zero():
    """Newton from where a concave f is below 0 rises (or falls) to its zero
    without passing it, from either side; a start where f >= 0 is its own
    end; and where the slope points away from stop, where f has no zero
    or where the zero lies past stop, there is none."""
    points = []

    def f(u):
        points.append(u)
        return 1.0 - u * u, -2.0 * u

    assert abs(concave_root(f, -3.0, 3.0) + 1.0) <= 1e-15
    assert points == sorted(points) and all(u <= -1.0 for u in points)
    points.clear()
    assert abs(concave_root(f, 3.0, -3.0) - 1.0) <= 1e-15
    assert points == sorted(points, reverse=True) and all(u >= 1.0 for u in points)
    assert concave_root(f, 0.5, 3.0) == 0.5
    assert math.isnan(concave_root(f, 3.0, 5.0))
    assert math.isnan(concave_root(f, -3.0, -2.0))
    assert math.isnan(concave_root(lambda u: (-1.0 - u * u, -2.0 * u), -3.0, 3.0))
    with pytest.warns(RuntimeWarning, match="concave_root stopped at max_iter=1"):
        assert -3.0 < concave_root(f, -3.0, 3.0, max_iter=1) < -1.0


def test_a_problem_with_no_bracket_returns_its_best_edge():
    """Problem 0 falls across the edges and problem 1 is concave: neither has
    a slope rising through 0, and problem 2's bracket is searched beside them."""
    def f(x, problems):
        value = np.choose(problems, [-x, -x * x, (x - 0.5) ** 2])
        return value, np.choose(problems, [-np.ones_like(x), -2.0 * x, 2.0 * (x - 0.5)])

    x, value = stationary_min(f, [-1.0, 0.25, 2.0], [0.0, 0.0, 0.0])
    assert x[:2].tolist() == [2.0, 2.0] and value[:2].tolist() == [-2.0, -4.0]
    assert abs(x[2] - 0.5) <= 1e-10


def searched_points(search, f, lo, hi, f_lo, f_hi, **kwargs):
    """The open brackets and the points, in hex, of every step of search,
    and the hex of its final ends."""
    points = []

    def recorded(x, open_):
        points.append((open_.tolist(), [v.hex() for v in x.tolist()]))
        return f(x, open_)

    ends = search(recorded, lo, hi, f_lo, f_hi, **kwargs)
    return points, [[v.hex() for v in end.tolist()] for end in ends]


def cubic(x, open_):
    """d*(1 + d*d), d = x - r, on four brackets: its operations round the
    same on every platform."""
    d = x - np.array([0.3, 0.7, 2.2, 0.5])[open_]
    return d * (1.0 + d * d)


# every step of bracketed_root on cubic's brackets, in hex, as the search
# with state at full length took them: the brackets close after 5, 6, 10
# and 1 steps, the last on a 0 at its first point
CUBIC_POINTS = [
    ([0, 1, 2, 3], ["0x1.e8d4464285cb0p-3", "0x1.04f4704f47050p-2",
                    "0x1.18e1daad37fc3p+1", "0x1.0000000000000p-1"]),
    ([0, 1, 2], ["0x1.29ec5f996a607p-2", "0x1.71ad9ee32bf15p-2", "0x1.198f5e01f9e6ep+1"]),
    ([0, 1, 2], ["0x1.32fe6eb6d454bp-2", "0x1.ae35b3dc657e2p+0", "0x1.199995df0df9ep+1"]),
    ([0, 1, 2], ["0x1.33330bd3de338p-2", "0x1.05508dca983d4p+0", "0x1.1999999986538p+1"]),
    ([0, 1, 2], ["0x1.333333328f5c5p-2", "0x1.75a1ddd04b3bdp-1", "0x1.19999999cb0bbp+1"]),
    ([0, 1], ["0x1.333333336b435p-2", "0x1.67e48a049b4cfp-1"]),
    ([1], ["0x1.66699923639fep-1"]),
    ([1], ["0x1.6666670d8b797p-1"]),
    ([1], ["0x1.6666666666af4p-1"]),
    ([1], ["0x1.66666665f8bbcp-1"]),
]
CUBIC_ENDS = [
    ["0x1.333333328f5c5p-2", "0x1.66666665f8bbcp-1", "0x1.1999999986538p+1", "0x1.0000000000000p-1"],
    ["0x1.333333336b435p-2", "0x1.6666666666af4p-1", "0x1.19999999cb0bbp+1", "0x1.0000000000000p-1"],
]


def test_bracketed_root_takes_its_recorded_points():
    lo, hi = np.array([0.0, -1.0, 2.0, 0.0]), np.array([1.0, 3.0, 2.5, 1.0])
    every = np.arange(4)
    points, ends = searched_points(bracketed_root, cubic, lo, hi, cubic(lo, every),
                                   cubic(hi, every))
    assert points == CUBIC_POINTS and ends == CUBIC_ENDS


def nan_above(x, r, window):
    """slope's line, -inf below the window and NaN above it."""
    d = x - r
    return np.where(d < -window, -np.inf, np.where(d > window, np.nan, d))


def root_families():
    """Each test family of bracketed_root above as (g(x, open), lo, hi, f_hi),
    f_lo being g at lo: brackets that close at different steps, with +-inf
    and NaN values, secant-defeating, flat-then-jumping and multiple roots,
    zero hits and roots within rounding of an end."""
    root, window, lo, hi = rooted(n=200)
    root4, _, lo4, hi4 = rooted(n=400)
    rng = np.random.default_rng(19)
    lo_ulp = 10.0 ** rng.uniform(-3.0, 6.0, 200)
    hi_ulp = lo_ulp * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0, 200))
    # 0 within 1e-3 of the shorter side of each root
    flat = 1e-3 * np.minimum(root - lo, hi - root)
    families = {
        "windowed": (lambda x, o: slope(x, root[o], window[o]), lo, hi),
        "nan-above": (lambda x, o: nan_above(x, root[o], window[o]), lo, hi),
        "step": (lambda x, o: np.sign(x - root[o]), lo, hi),
        "huge": (lambda x, o: x - root[o], lo, hi, np.full(root.shape, 1e300)),
        "flat-then-jumping": (lambda x, o: np.where(x < root4[o], -1e-300, 1.0), lo4, hi4),
        **{f"order-{k}": (lambda x, o, k=k: ((x - root[o]) / root[o]) ** k, lo, hi)
           for k in (3, 5, 21)},
        "zero": (lambda x, o: np.where(np.abs(x - root[o]) <= flat[o], 0.0,
                                       slope(x, root[o], np.inf)), lo, hi),
        "near-lo": (lambda x, o: np.tanh((x - lo[o]) / np.abs(lo[o])) - 1e-300, lo, hi),
        "near-hi": (lambda x, o: np.tanh((x - hi[o]) / np.abs(hi[o])) + 1e-300, lo, hi),
        "ulp-above-lo": (lambda x, o: np.log(x / lo_ulp[o]) - 1e-16, lo_ulp, hi_ulp),
    }
    for name, (g, a, b, *f_hi) in families.items():
        every = np.arange(a.size)
        yield pytest.param(g, a, b, f_hi[0] if f_hi else g(b, every), id=name)


@pytest.mark.parametrize("g, lo, hi, f_hi", root_families())
def test_bracketed_root_keeps_the_points_of_the_full_length_search(g, lo, hi, f_hi):
    """Holding state only for the brackets still open moves no point: every
    step's open brackets and points, and the final ends, are bitwise those
    of the search that gathered and scattered every bracket's state."""
    f_lo = g(lo, np.arange(lo.size))
    want = searched_points(gathered_chandrupatla, g, lo, hi, f_lo, f_hi)
    assert len(want[0]) > 1
    assert searched_points(bracketed_root, g, lo, hi, f_lo, f_hi) == want


def alone(g, k):
    """g of bracket k, for a search of that bracket alone, whose open is [0]."""
    return lambda x, open_: g(x, open_ + k)


def points_of(points, k):
    """The steps of bracket k in searched_points' record of a batch, as a
    search of that bracket alone records them."""
    return [([0], [x[row.index(k)]]) for row, x in points if k in row]


def test_a_bracket_alone_takes_its_recorded_points():
    """Each of cubic's brackets searched alone steps on scalars, and takes
    the recorded points of its batch, in hex."""
    lo, hi = np.array([0.0, -1.0, 2.0, 0.0]), np.array([1.0, 3.0, 2.5, 1.0])
    for k in range(4):
        one = slice(k, k + 1)
        got = searched_points(bracketed_root, alone(cubic, k), lo[one], hi[one],
                              cubic(lo[one], [k]), cubic(hi[one], [k]))
        assert got == (points_of(CUBIC_POINTS, k), [[end[k]] for end in CUBIC_ENDS])


@pytest.mark.parametrize("g, lo, hi, f_hi", root_families())
def test_a_bracket_alone_takes_the_points_of_its_batch(g, lo, hi, f_hi):
    """Every bracket of each family, searched alone on scalars, takes
    bitwise the points and ends it takes in the batch of the full-length
    search."""
    f_lo = g(lo, np.arange(lo.size))
    points, ends = searched_points(gathered_chandrupatla, g, lo, hi, f_lo, f_hi)
    for k in range(lo.size):
        one = slice(k, k + 1)
        got = searched_points(bracketed_root, alone(g, k), lo[one], hi[one], f_lo[one],
                              f_hi[one])
        assert got == (points_of(points, k), [[end[k]] for end in ends]), k


def test_bracketed_root_keeps_its_points_and_warning_at_the_cap():
    lo, hi = np.zeros(3), np.ones(3)
    f = lambda x, open_: np.where(x < 0.3, -np.inf, np.inf)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        want = searched_points(gathered_chandrupatla, f, lo, hi, f(lo, None), f(hi, None),
                               rel_tol=1e-12, max_iter=5)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        got = searched_points(bracketed_root, f, lo, hi, f(lo, None), f(hi, None),
                              rel_tol=1e-12, max_iter=5)
    assert got == want and len(got[0]) == 5


def one_bracket_problems(x, problems):
    """stationary_min objectives, one bracket each on the edges [0, 1]: 0 a
    smooth minimum at ln 2; 1 inf everywhere, its slope -inf below 0.5 and
    +inf above; 2 a pole at 0.2, inf below it with a slope of -inf, and a
    minimum at 0.2 + 10^-1/2 above it; 3 its mirror, a pole at 0.8; 4 a
    value flat to rounding around its minimum at 0.71; 5 a root at 0.123456
    whose value is least at the closed bracket's upper end. No secant lands
    on a root."""
    d = x - np.choose(problems, [math.log(2.0), 0.5, 0.2, 0.8, 0.71, 0.123456])
    cubic = d * (1.0 + 50.0 * d * d)
    with np.errstate(divide="ignore"):
        pole = np.where(d > 0.0, 1.0 / d + 10.0 * x, np.inf)
        mirror = np.where(d < 0.0, -1.0 / d - 10.0 * x, np.inf)
        value = np.choose(problems, [np.exp(x) - 2.0 * x, np.full(x.shape, np.inf), pole,
                                     mirror, np.floor(d * d * 1e4) / 1e4, np.abs(d - 1e-9)])
        slope = np.choose(problems, [
            np.exp(x) - 2.0, np.where(d < 0.0, -np.inf, np.inf),
            np.where(d > 0.0, 10.0 - 1.0 / (d * d), -np.inf),
            np.where(d < 0.0, 1.0 / (d * d) - 10.0, np.inf), cubic, cubic])
    return value, slope


@pytest.mark.parametrize("problem", range(6))
def test_one_bracket_stationary_min_is_its_batched_search(problem):
    """A problem searched alone, whose one bracket steps on scalars, takes
    bitwise the root points, best point and value it takes batched with a
    second problem, on arrays: a bracket without a finite value and one
    with a pole at or in it too."""
    def searched(problems):
        points = []

        def f(x, j):
            mine = [v.hex() for v, p in zip(x.tolist(), problems[j]) if p == problem]
            if mine:
                points.append(mine)
            return one_bracket_problems(x, problems[j])

        x, value = stationary_min(f, [0.0, 1.0], np.full(problems.size, 0.9))
        k = problems.tolist().index(problem)
        return points[1:], x[k].hex(), value[k].hex()

    other = 1 if problem == 0 else 0
    got = searched(np.array([problem]))
    assert got == searched(np.array([other, problem]))
    assert got == searched(np.array([problem, other]))
    x, value = float.fromhex(got[1]), float.fromhex(got[2])
    want = [math.log(2.0), 0.9, 0.2 + 10.0 ** -0.5, 0.8 - 10.0 ** -0.5, 0.71, 0.123456][problem]
    assert len(got[0]) > 1 and abs(x - want) <= 1e-9
    # without a finite value the problem keeps its start
    assert math.isinf(value) == (problem == 1)


def test_one_bracket_stopped_at_its_cap_warns_at_the_points_of_the_full_length_search():
    """One bracket, stepping on scalars, warns at the cap as the full-length
    search does, with bitwise the same points and ends."""
    lo, hi = np.zeros(1), np.ones(1)
    f = lambda x, open_: np.where(x < 0.3, -np.inf, np.inf)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        want = searched_points(gathered_chandrupatla, f, lo, hi, f(lo, None), f(hi, None),
                               rel_tol=1e-12, max_iter=5)
    with pytest.warns(RuntimeWarning, match="bracketed_root stopped at max_iter=5"):
        got = searched_points(bracketed_root, f, lo, hi, f(lo, None), f(hi, None),
                              rel_tol=1e-12, max_iter=5)
    assert got == want and len(got[0]) == 5
    assert float.fromhex(got[1][0][0]) < 0.3 <= float.fromhex(got[1][1][0])


def test_bracketed_root_without_brackets_calls_nothing():
    def f(x, open_):
        raise AssertionError("f called without brackets")

    empty = np.empty(0)
    lo, hi = bracketed_root(f, empty, empty, empty, empty)
    assert lo.shape == hi.shape == (0,)


def overflowing(x):
    """The sign of x - 0.3 at 0 and 1, and, unguarded, 1e318 times x - 0.3
    elsewhere, which overflows: at every point a root search of [0, 1]
    takes."""
    d = x - 0.3
    value = np.sign(d)
    inner = (x != 0.0) & (x != 1.0)
    value[inner] = d[inner] * 1e308 * 1e10
    return value


@pytest.mark.parametrize("search, n", [
    pytest.param(search, n, id=search if n == 1 else f"{search}-{n}")
    for search in ("bracketed_root", "stationary_min") for n in (1, 2)])
def test_an_objectives_own_overflow_still_warns(search, n):
    """The searches' errstate covers their own arithmetic only: an objective
    that overflows without a guard at a root step raises under the suite's
    error::RuntimeWarning filter, from bracketed_root and from
    stationary_min alike, on one bracket's scalars and on arrays."""
    steps = []

    def counted(x, _):
        steps.append(x.size)
        return overflowing(x)

    with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="overflow"):
        warnings.simplefilter("error", RuntimeWarning)
        if search == "bracketed_root":
            lo, hi = np.zeros(n), np.ones(n)
            bracketed_root(counted, lo, hi, overflowing(lo), overflowing(hi))
        else:
            stationary_min(lambda x, j: (np.zeros(x.shape), counted(x, j)),
                           [0.0, 1.0], np.zeros(n))
    # the objective raised at a root step, not at the edges
    assert steps[-1] == n and len(steps) == (1 if search == "bracketed_root" else 2)
