import math

import numpy as np

from prospect_pricing._search import bisect_boundary


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
