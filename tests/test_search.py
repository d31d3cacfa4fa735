import math

import numpy as np
import pytest

from helpers import golden_reference
from prospect_pricing._search import bisect_boundary, golden_max, golden_min


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


def test_array_bisection_follows_each_scalar_search():
    flips, lo, hi = brackets()
    for rel_tol in (1e-14, 1e-12, 1e-4):
        calls = [0]

        def pred(mid):
            calls[0] += 1
            return mid < flips

        got_lo, got_hi = bisect_boundary(pred, lo, hi, rel_tol)
        longest = 0
        for k, (f, a, b) in enumerate(zip(flips.tolist(), lo.tolist(), hi.tolist())):
            n = [0]

            def one(mid):
                n[0] += 1
                return mid < f

            assert (got_lo[k], got_hi[k]) == scalar_reference(one, a, b, rel_tol)
            longest = max(longest, n[0])
        assert calls[0] == longest


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
            assert golden_min(lambda x: -f(x), a, b, rel_tol) == (got[0], -got[1])


def test_array_golden_follows_each_scalar_search():
    peak, floor, lo, hi = peaks()
    for rel_tol in (1e-10, 1e-6):
        calls = [0]

        def f(x):
            calls[0] += 1
            return hill(x, peak, floor)

        got_x, got_f = golden_max(f, lo, hi, rel_tol)
        counts = []
        for k, (p, fl, a, b) in enumerate(zip(peak.tolist(), floor.tolist(),
                                              lo.tolist(), hi.tolist())):
            n = [0]

            def one(x):
                n[0] += 1
                return float(hill(x, p, fl))

            assert (got_x[k], got_f[k]) == golden_reference(one, a, b, rel_tol)
            counts.append(n[0])
        assert len(set(counts)) > 3
        assert calls[0] == max(counts)


@pytest.mark.parametrize("search", ["golden_max", "bisect_boundary"])
def test_a_search_stopped_at_its_cap_warns(search):
    """A bracket still wider than its tolerance after max_iter steps is
    reported, for one bracket and for an array of them."""
    def run(lo, hi, max_iter):
        if search == "golden_max":
            return golden_max(lambda x: -(x - 0.3) ** 2, lo, hi, 1e-12, max_iter)
        return bisect_boundary(lambda x: x < 0.3, lo, hi, 1e-12, max_iter)

    for lo, hi in ((0.0, 1.0), (np.zeros(3), np.ones(3))):
        with pytest.warns(RuntimeWarning, match=f"{search} stopped at max_iter=5"):
            run(lo, hi, 5)


def test_a_bisection_closing_on_its_last_step_does_not_warn():
    # [0, 1] halves to the tolerance 2^-5 in exactly 5 steps; the suite's
    # error::RuntimeWarning filter fails the first call if it warns
    pred = lambda x: x < 0.3
    assert bisect_boundary(pred, 0.0, 1.0, 2.0 ** -5, max_iter=5) == (0.28125, 0.3125)
    with pytest.warns(RuntimeWarning, match="bisect_boundary"):
        bisect_boundary(pred, 0.0, 1.0, 2.0 ** -5, max_iter=4)
