"""Leader-follower pricing game: scenario model, utilities, equilibrium solver.

The provider offers every user the same rate and price and a per-user bandwidth
slice; a user accepts when weighted willingness to pay, benefit times the
(possibly probability-weighted) service guarantee, exceeds the price. The
solver locates the revenue-maximizing pure-strategy equilibrium by scanning
served-set sizes n from large to small: maximize n*(r(b) - c1*b) over rates b
whose n cheapest users fit in the band, then disqualify any n for which a
strictly larger set would also fit at that rate.

The scan stops early: no rate earns a user more than m* = max_b r(b) - c1*b,
so size n earns at most n*m* - c3*B. Once a positive revenue found so far is
>= that bound for the next n, no smaller set can earn strictly more, and the
pick (the first strictly larger revenue, large n to small) is bitwise that of
the full scan. Without a positive revenue the scan runs to n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _search
from .channel import UnattainableGuaranteeError, UserChannel, guarantee_supremum, \
    min_bandwidth, min_bandwidths, service_guarantee
from .weighting import IDENTITY, WeightingModel, weight

# strict "<" feasibility comparisons carry this relative slack for determinism
FEASIBILITY_SLACK = 1e-9
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class PowerLaw:
    """coefficient * (b * 1e-3)^exponent, 0 at b = 0, increasing and concave.

    Both the provider's price r(b) and each user's benefit h(b) take this form.
    """

    coefficient: float
    exponent: float

    def __post_init__(self) -> None:
        if self.coefficient <= 0.0:
            raise ValueError(f"coefficient must be > 0, got {self.coefficient}")
        if not (0.0 < self.exponent <= 1.0):
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent}")

    def __call__(self, rate_bps: float) -> float:
        if rate_bps == 0.0:
            return 0.0
        return self.coefficient * (rate_bps * 1e-3) ** self.exponent


@dataclass(frozen=True)
class CostModel:
    """Provider cost per offered user: c1 per bps of rate plus c3 per Hz allocated."""

    c1: float
    c3: float

    def __post_init__(self) -> None:
        if self.c1 < 0.0 or self.c3 < 0.0:
            raise ValueError("cost coefficients must be >= 0")

    def per_user(self, rate_bps: float, bandwidth_hz: float) -> float:
        return self.c1 * rate_bps + self.c3 * bandwidth_hz


@dataclass(frozen=True)
class Scenario:
    """Users (channel, benefit) plus the shared pricing, cost and band endowment."""

    users: tuple[tuple[UserChannel, PowerLaw], ...]
    pricing: PowerLaw
    cost: CostModel
    total_bandwidth_hz: float

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ValueError("scenario needs at least one user")
        if self.total_bandwidth_hz <= 0.0:
            raise ValueError("total bandwidth must be > 0")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def channel(self, i: int) -> UserChannel:
        return self.users[i][0]

    def benefit(self, i: int) -> PowerLaw:
        return self.users[i][1]


@dataclass(frozen=True)
class Offer:
    """Rate, price at that rate, and the per-user bandwidth vector."""

    rate_bps: float
    price: float
    allocation: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rate_bps < 0.0 or self.price < 0.0:
            raise ValueError("rate and price must be >= 0")
        if any(a < 0.0 for a in self.allocation):
            raise ValueError("allocation entries must be >= 0")

    def validate_against(self, scenario: Scenario) -> None:
        total = sum(self.allocation)
        if total > scenario.total_bandwidth_hz * (1.0 + 1e-9):
            raise ValueError(
                f"allocation sum {total:g} exceeds total bandwidth "
                f"{scenario.total_bandwidth_hz:g}")


@dataclass(frozen=True)
class NashResult:
    rate_bps: float
    served_set: tuple[int, ...]
    allocation: tuple[float, ...]
    price: float
    sp_revenue: float
    equilibrium: bool = True

    @property
    def n_served(self) -> int:
        return len(self.served_set)


def user_utility(accept_prob: float, offer: Offer, user_index: int,
                 scenario: Scenario, model: WeightingModel = IDENTITY) -> float:
    """accept_prob * (benefit * weighted guarantee - price); declining yields 0."""
    if accept_prob == 0.0:
        return 0.0
    ch, h = scenario.users[user_index]
    guar = service_guarantee(offer.rate_bps, offer.allocation[user_index], ch)
    return accept_prob * (-offer.price + h(offer.rate_bps) * weight(guar, model))


def sp_utility(accept_probs: list[float] | tuple[float, ...], offer: Offer,
               scenario: Scenario) -> float:
    """Expected provider utility: price collected on acceptance, cost paid regardless."""
    if len(accept_probs) != len(offer.allocation):
        raise ValueError("need one acceptance probability per allocated user")
    total = 0.0
    for p, bw in zip(accept_probs, offer.allocation):
        c = scenario.cost.per_user(offer.rate_bps, bw)
        total += p * (offer.price - c) + (1.0 - p) * (-c)
    return total


def min_bandwidth_for_user(rate_bps: float, user_index: int, scenario: Scenario) -> float:
    """Bandwidth where the user is exactly indifferent: guarantee == r(b)/h_i(b)."""
    ch, h = scenario.users[user_index]
    target = scenario.pricing(rate_bps) / h(rate_bps)
    if target >= 1.0:
        raise UnattainableGuaranteeError(rate_bps, target, guarantee_supremum(rate_bps, ch))
    return min_bandwidth(rate_bps, target, ch)


class _Requirements:
    """Every user's minimum bandwidth at a rate, inverted as one numpy vector.

    Make one per solve: it holds on to the running totals of the sorted
    vector at the rates that several searches probe, so each is inverted once.
    """

    def __init__(self, scenario: Scenario) -> None:
        self._pricing = scenario.pricing
        rows = [(ch.noise_psd_w_per_hz, ch.received_power_w, h.coefficient, h.exponent)
                for ch, h in scenario.users]
        self._noise, self._power, self._coeff, self._exp = np.array(rows).T.copy()
        self._kept: dict[float, np.ndarray] = {}

    def __call__(self, rate_bps: float) -> np.ndarray:
        """Per-user minimum bandwidths; inf marks users unservable at this rate."""
        benefit = self._coeff * (rate_bps * 1e-3) ** self._exp
        return min_bandwidths(rate_bps, self._pricing(rate_bps) / benefit,
                              self._noise, self._power)

    def cheapest_total(self, rate_bps: float, n: int, keep: bool = False) -> float:
        """Summed requirement of the n cheapest users, n >= 1.

        keep=True holds the rate's totals for later calls: the doubling ladder
        every set size climbs, and the rate of the n and n + 1 checks, pass
        it. The bisection's midpoints are mostly probed once and do not.
        """
        totals = self._kept.get(rate_bps)
        if totals is None:
            totals = np.cumsum(np.sort(self(rate_bps)))
            if keep:
                self._kept[rate_bps] = totals
        return float(totals[n - 1])


def _feasible(total_required: float, budget: float) -> bool:
    return total_required < budget * (1.0 - FEASIBILITY_SLACK)


def _rate_feasibility_interval(reqs: _Requirements, scenario: Scenario,
                               n: int) -> tuple[float, float] | None:
    """Rates at which the n cheapest users fit in the band, as (lower, upper).

    The summed requirement grows with the rate for increasing r/h ratios, so
    the feasible rates usually form an interval anchored at 0, found by
    probing 1 bps and below. When the price grows more slowly than the
    benefit, r/h grows without bound as the rate goes to 0 and the interval
    starts above it: the probe then doubles upward until the rates fit or
    the margin r(b) - c1*b stops being positive, and the lower edge is
    bisected as well.
    """
    budget = scenario.total_bandwidth_hz
    on_ladder = lambda b: _feasible(reqs.cheapest_total(b, n, keep=True), budget)
    fits = lambda b: _feasible(reqs.cheapest_total(b, n), budget)
    lower, lo = 0.0, 1.0
    if not on_ladder(lo):
        while lo > 1e-9 and not on_ladder(lo):
            lo *= 0.5
        if not on_ladder(lo):
            below, lo = 1.0, 2.0
            while not on_ladder(lo):
                if not scenario.pricing(lo) > scenario.cost.c1 * lo or lo > 1e18:
                    return None
                below, lo = lo, 2.0 * lo
            _, lower = _search.bisect_boundary(lambda b: not fits(b), below, lo,
                                               rel_tol=1e-12)
            lo = lower
    hi = 2.0 * lo  # lo fits: the ladder climbs from the next rung
    while hi <= 1e18 and on_ladder(hi):
        hi *= 2.0
    lo, hi = _search.bisect_boundary(fits, lo, hi, rel_tol=1e-12)
    return lower, lo


def _margin(pricing: PowerLaw, c1: float, rate_bps: float) -> float:
    """The provider's margin per served user, r(b) - c1*b, before the band cost."""
    return pricing(rate_bps) - c1 * rate_bps


def _margin_bound(pricing: PowerLaw, c1: float) -> float:
    """A float no computed _margin(pricing, c1, b) exceeds; inf when unbounded.

    The margin k*(b/1e3)^e - c1*b peaks at b* = 1e3*(1e3*c1/(k*e))^(1/(e-1))
    for c1 > 0 and e < 1; with c1 = 0 or e = 1 (within 1e-12) it has no peak.
    """
    k, e = pricing.coefficient, pricing.exponent
    if c1 == 0.0 or e > 1.0 - 1e-12:
        return math.inf
    try:
        peak = 1e3 * (1e3 * c1 / (k * e)) ** (1.0 / (e - 1.0))
        operands = pricing(peak) + c1 * peak
    except OverflowError:
        return math.inf
    # A computed margin is off by up to ~2 eps of its operands S(b) = r(b) + c1*b,
    # not of the margin (at the peak m* = (1 - e)*r(b*): cancellation). Up to
    # 2b*, S(b) <= 2*S(b*), so no computed margin exceeds m* + 4 eps*S(b*);
    # beyond, the exact margin falls by >= (1 - 2^(e-1))*c1 per bps while S
    # rises by <= 2*c1, outpacing the error for e <= 1 - 1e-12. Rounding is
    # monotone, so n*bound - c3*B also bounds every computed n*margin - c3*B.
    bound = _margin(pricing, c1, peak) + 8.0 * _EPS * operands
    return bound if 0.0 < peak and math.isfinite(bound) else math.inf


def solve_nash(scenario: Scenario) -> NashResult:
    """Locate the revenue-maximizing pure-strategy equilibrium.

    Scans served-set sizes n from all users down to one. For each n the margin
    n*(r(b) - c1*b) is concave in b and is maximized by golden section over the
    feasible rate interval; an n is disqualified when a larger set also fits at
    its optimal rate, since those users would accept too. The scan stops once
    a positive revenue is >= the bound n*m* - c3*B of the next n (m* from
    _margin_bound): a smaller set could at best tie, and only a strictly
    larger revenue displaces a larger set, so the result is bitwise the full
    scan's. Returns a no-equilibrium result (equilibrium=False) when every n
    earns <= 0; its sp_revenue is then the largest revenue over every n.
    """
    n_users = scenario.n_users
    budget = scenario.total_bandwidth_hz
    price, c1, c3 = scenario.pricing, scenario.cost.c1, scenario.cost.c3
    reqs = _Requirements(scenario)
    fits = lambda b, n: _feasible(reqs.cheapest_total(b, n, keep=True), budget)
    bound = _margin_bound(price, c1)

    n_star, best_rev, best_rate, top = 0, 0.0, 0.0, -math.inf
    for n in range(n_users, 0, -1):
        if n_star and best_rev >= n * bound - c3 * budget:
            break
        interval = _rate_feasibility_interval(reqs, scenario, n)
        if interval is None:
            continue
        lower, boundary = interval
        b_star, _ = _search.golden_max(
            lambda b: n * _margin(price, c1, b), lower, boundary, rel_tol=1e-9)
        if b_star <= 0.0 or not fits(b_star, n):
            # boundary end may sit epsilon outside the strict constraint
            b_star = boundary
        rev = n * _margin(price, c1, b_star) - c3 * budget
        if n < n_users and fits(b_star, n + 1):
            rev = 0.0  # a larger set accepts at this rate, not an equilibrium
        top = max(top, rev)
        if rev > best_rev:
            n_star, best_rev, best_rate = n, rev, b_star
    if n_star == 0:
        return NashResult(rate_bps=0.0, served_set=(), allocation=(0.0,) * n_users,
                          price=0.0, sp_revenue=top, equilibrium=False)

    need = reqs(best_rate).tolist()
    order = sorted(range(n_users), key=lambda i: (need[i], i))
    served = tuple(sorted(order[:n_star]))
    served_total = sum(need[i] for i in served)
    # hand the whole band to the served users: every acceptance strict, and the
    # reported revenue (which charges c3 on the full endowment) matches
    # sp_utility on the returned offer exactly
    pad = (budget - served_total) / n_star
    allocation = tuple(need[i] + pad if i in served else 0.0 for i in range(n_users))
    return NashResult(rate_bps=best_rate, served_set=served, allocation=allocation,
                      price=price(best_rate), sp_revenue=best_rev, equilibrium=True)


def brute_force_nash(scenario: Scenario, grid_resolution: int = 2000) -> NashResult:
    """Exhaustive oracle: enumerate served subsets on a dense rate grid.

    Each subset is allocated its per-user minimum bandwidths; the revenue
    maximizer wins. Only for small instances.
    """
    n_users = scenario.n_users
    if n_users > 4:
        raise ValueError(f"brute force limited to 4 users, got {n_users}")
    price, c1, c3 = scenario.pricing, scenario.cost.c1, scenario.cost.c3
    budget = scenario.total_bandwidth_hz

    # profitable rates live below the break-even point r(b) = c1*b
    hi = 1.0
    while price(hi) > c1 * hi and hi < 1e18:
        hi *= 2.0

    subsets = [tuple(i for i in range(n_users) if mask & (1 << i))
               for mask in range(1, 1 << n_users)]
    requirements = _Requirements(scenario)
    best_rev, best_n, best_subset, best_rate = -math.inf, 0, (), 0.0
    for k in range(1, grid_resolution + 1):
        b = hi * k / grid_resolution
        reqs = requirements(b).tolist()
        margin = _margin(price, c1, b)
        for subset in subsets:
            if not _feasible(sum(reqs[i] for i in subset), budget):
                continue
            rev = len(subset) * margin - c3 * budget
            if rev > best_rev or (rev == best_rev and len(subset) > best_n):
                best_rev, best_n = rev, len(subset)
                best_subset, best_rate = subset, b

    if best_n == 0 or best_rev <= 0.0:
        return NashResult(rate_bps=0.0, served_set=(), allocation=(0.0,) * n_users,
                          price=0.0, sp_revenue=best_rev,
                          equilibrium=False)
    reqs = requirements(best_rate).tolist()
    allocation = tuple(reqs[i] if i in best_subset else 0.0 for i in range(n_users))
    return NashResult(rate_bps=best_rate, served_set=best_subset, allocation=allocation,
                      price=price(best_rate), sp_revenue=best_rev, equilibrium=True)
