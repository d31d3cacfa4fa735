"""Probability weighting's impact on the equilibrium and the recovery strategies.

With weighting switched on, users judge the advertised guarantee through w(.)
and may reject an offer they accepted before. This module tests whether the
equilibrium survives unchanged, quantifies the minimum revenue loss when the
provider keeps every constraint fixed (and when only the allocation may move),
and implements the three offer-restructuring strategies, admission control,
band resizing, and rate control, each reduced to a required-bandwidth
threshold compared against the provider's endowment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _search
from .channel import service_guarantee
from .game import (_EPS, FEASIBILITY_SLACK, NashResult, Scenario, _feasible, _RequirementMatrix,
                   _require_equilibrium, _revenue, _spread, _total, _Users)
from .weighting import WeightingModel, weight

# strict acceptance inequalities are realized by shaving this relative amount
# off every computed price
PRICE_EPS_REL = 1e-9
# the level search's smallest positive level, and its tolerance step in ln x
_TINY = 5e-324
_LEVEL_TOL = 5e-15
# the top of every level search, as a fraction of the cap no level reaches
_CAP_END = 1.0 - 1e-12
# bandwidth expansion's edges in v = ln(-ln(x/cap)), rising: the cap end,
# 1 - 10^-k for k = 11 down to 2, then k/12 for k = 11 down to 1
_EXPANSION_EDGES = np.log(-np.log(np.concatenate((
    [_CAP_END], 1.0 - 10.0 ** -np.arange(11.0, 1.0, -1.0), np.arange(11.0, 0.0, -1.0) / 12))))


@dataclass(frozen=True)
class NePreservation:
    per_user: tuple[bool, ...]
    preserved: bool
    required_bandwidths: tuple[float, ...]
    aggregate_required: float
    aggregate_sufficient: bool
    unrecoverable: tuple[int, ...]


@dataclass(frozen=True)
class StrategyOutcome:
    strategy_name: str
    recovered_revenue: float
    revenue_loss: float
    new_price: float
    min_bandwidth_threshold_hz: float
    feasible: bool
    new_rate_bps: float | None = None
    new_total_bandwidth_hz: float | None = None
    served_set: tuple[int, ...] | None = None
    allocation: tuple[float, ...] | None = None


@dataclass(frozen=True)
class MinAlphaResult:
    alpha: float | None
    never_infeasible: bool
    recoverable_at_one: bool
    monotone: bool


def ne_preserved(scenario: Scenario, ne: NashResult,
                 model: WeightingModel) -> NePreservation:
    """Does every served user still accept the unchanged offer under weighting?

    User i passes iff the allocated bandwidth strictly exceeds the level where
    the weighted guarantee drops to the indifference ratio r/h. Users whose
    indifference level is unattainable at any bandwidth are reported in
    unrecoverable rather than raising. The aggregate is sufficient by the
    strategies' one rule, game._feasible: below the endowment less its slack.
    """
    _require_equilibrium(ne)
    reqs = admission_requirements(scenario, ne, model, ne.price)
    required = tuple(reqs[i] for i in ne.served_set)
    per_user = tuple(ne.allocation[i] > reqs[i] for i in ne.served_set)
    aggregate = float(_total(required))
    return NePreservation(
        per_user=per_user,
        preserved=all(per_user) and len(per_user) > 0,
        required_bandwidths=required,
        aggregate_required=aggregate,
        aggregate_sufficient=_feasible(aggregate, scenario.total_bandwidth_hz),
        unrecoverable=tuple(i for i in ne.served_set if math.isinf(reqs[i])))


def no_pricing_bands(scenario: Scenario, ne: NashResult, alphas) -> list[float]:
    """The no-pricing threshold of every alpha in one evaluation: the band the
    served users need, summed in user order, to accept the unchanged offer.
    The aggregate_required of ne_preserved; inf when a target is out of reach."""
    _require_equilibrium(ne)
    need = _Users(scenario, ne.served_set).at(ne.rate_bps, alphas)(ne.price)
    return _total(need).tolist()


def _min_willingness(scenario: Scenario, ne: NashResult, alphas, users=None) -> list[float]:
    """The lowest willingness of the served (or given) users at their allocation, per
    alpha: h times w of the lowest guarantee, as w rises, bitwise the minimum of
    game.willingness. The guarantees are evaluated once for every alpha."""
    _require_equilibrium(ne)
    h = scenario.benefit(ne.rate_bps)
    lowest = min(service_guarantee(ne.rate_bps, ne.allocation[i], scenario.users[i])
                 for i in (ne.served_set if users is None else users))
    return [h * weight(lowest, model) for model in map(WeightingModel, alphas)]


def _capped_price(ne: NashResult, level: float) -> float:
    """The price users at willingness level accept, never above the offered one."""
    return min(ne.price, level - PRICE_EPS_REL * ne.price)


def _price_gap_loss(ne: NashResult, level: float) -> float:
    """Revenue lost dropping the price to level: the gap, floored at 0, per served user."""
    return ne.n_served * max(0.0, ne.price - level)


def strict_rrm_price(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Highest price every served user accepts with the offer otherwise frozen.

    Capped at the original price: the provider never needs to charge more than
    it did before weighting entered.
    """
    return _capped_price(ne, _min_willingness(scenario, ne, [model.alpha])[0])


def loss_strict_rrm(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Total revenue lost to the price drop that keeps every constraint fixed.

    The provider drops the price to the minimum weighted willingness across the
    served set; the per-user gap, floored at zero, is charged once per served
    user.
    """
    return _price_gap_loss(ne, _min_willingness(scenario, ne, [model.alpha])[0])


def _sum_and_slope(need: _RequirementMatrix, x) -> tuple[np.ndarray, ...]:
    """The summed requirement at levels x, its derivative in ln x and the
    requirements themselves, from one evaluator pass (with_slopes). Both
    sums add in user order: a problem's level does not depend on the
    problems it is batched with, nor on the memory order of a subset's
    columns."""
    at_x, slope = need.with_slopes(x)
    return _total(at_x), _total(slope), at_x


class _Seen:
    """The requirement columns a search evaluates, each at a point of one of
    its problems, kept per evaluation, to read back each problem's column
    at its best point without evaluating it again."""

    def __init__(self, n_users: int) -> None:
        self._points, self._problems = [np.empty(0)], [np.empty(0, dtype=int)]
        self._needs = [np.empty((n_users, 0))]

    def add(self, points, problems, need) -> None:
        """Keep need, whose column k is problem problems[k]'s at points[k]."""
        self._points.append(points)
        self._problems.append(problems)
        self._needs.append(need)

    def columns(self, best) -> np.ndarray:
        """Users x problems: problem k's column at best[k], a point added for
        it. Columns at one point of one problem are bitwise the same, as a
        column does not depend on the columns evaluated with it."""
        points, problems = np.concatenate(self._points), np.concatenate(self._problems)
        at = np.flatnonzero(points == best[problems])
        pick = np.empty(best.size, dtype=int)
        pick[problems[at]] = at
        return np.concatenate(self._needs, axis=1)[:, pick]


def _solve_levels(need: _RequirementMatrix, totals, max_iter: int = 100) -> np.ndarray:
    """Levels at which the summed requirement meets each problem's band.

    The summed requirement S grows with the level x up to the cap
    min_i h*w(sup_i), but falls only like 1/log log(1/x) as x goes to 0:
    Newton in x or in log x stalls. In v = log t, t = -ln(x/cap), each
    user's lc is linear in log(-ln q), so each level is found by Newton on
    ln S - ln B in v, safeguarded by a bracket (rtsafe, Press et al.,
    Numerical Recipes, section 9.4). All problems run in lockstep, and each
    step evaluates only the problems whose brackets are still open.

    The bracket is held in x, so a step of dv moves x to
    x*exp(-t*expm1(dv)) at full float resolution. It runs from
    x = cap*_CAP_END = cap*(1 - 1e-12), returned when it fits, down to the
    smallest positive float, below which the level is 0. Newton starts at the top,
    where ln S is about -v + const. A step that is not finite or leaves the
    bracket is replaced by the midpoint in v (in x, once the ends are
    within a factor of 2). A step below the tolerance steps across the root
    by the tolerance, 5e-15 of x, and each further one in a row by twice
    the last. A bracket closes at a width of 1e-14 of its upper end, or at
    adjacent floats, as subnormal levels do. Returns the ends that fit.
    """
    caps = need.caps()
    totals = np.broadcast_to(totals, caps.shape)
    x_top, x_tiny = caps * _CAP_END, np.full_like(caps, _TINY)
    top, top_slope, _ = _sum_and_slope(need, x_top)
    x = np.where(top < totals, x_top, 0.0)
    keep = np.flatnonzero((top >= totals) & (_total(need(x_tiny)) < totals))
    if not keep.size:
        return x
    need = need.columns(keep)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        band, ln_cap = totals[keep], np.log(caps[keep])
        # x_in fits, x_out does not; Newton steps from the point last evaluated
        x_in, x_out = x_tiny[keep], x_top[keep]
        at, s, ds = x_out, top[keep], top_slope[keep]
        creep = np.zeros(keep.shape)
        for _ in range(max_iter):
            # Newton in v: with ds = dS/d ln x, dS/dv = -t*ds, and a step dv
            # moves ln x by -t*expm1(dv)
            t = ln_cap - np.log(at)
            step = -t * np.expm1(np.log(s / band) * s / (t * ds))
            tiny = np.abs(step) < _LEVEL_TOL
            creep = np.where(tiny, np.where(creep > 0.0, 2.0 * creep, _LEVEL_TOL), 0.0)
            step = np.where(tiny, np.where(at == x_in, creep, -creep), step)
            t_mid = np.sqrt((ln_cap - np.log(x_in)) * (ln_cap - np.log(x_out)))
            mid = np.where(x_out > 2.0 * x_in, np.exp(ln_cap - t_mid), 0.5 * (x_in + x_out))
            at = at * np.exp(step)
            at = np.where((x_in < at) & (at < x_out), at, mid)
            s, ds, _ = _sum_and_slope(need, at)
            fits = s < band
            x_in, x_out = np.where(fits, at, x_in), np.where(fits, x_out, at)
            closed = (x_out - x_in <= 1e-14 * x_out) | (np.nextafter(x_in, np.inf) >= x_out)
            x[keep[closed]] = x_in[closed]
            if closed.all():
                return x
            if closed.any():
                left = np.flatnonzero(~closed)
                need, keep = need.columns(left), keep[left]
                band, ln_cap, x_in, x_out, at, s, ds, creep = (
                    a[left] for a in (band, ln_cap, x_in, x_out, at, s, ds, creep))
    _search._warn_cap("equalized_levels", max_iter, 1e-14)
    x[keep] = x_in
    return x


def _caps_at(one: _RequirementMatrix, alphas) -> np.ndarray:
    """caps() of the problems of one, an evaluator of every user at alpha =
    1, at alphas instead, broadcast against them: h*exp(-m^alpha), m the
    largest -ln sup_i. Power and exp are monotone, so the minimum over the
    users is the worst user's term, bitwise caps() of an evaluator at alphas."""
    # full-size operands, as the evaluator's (_RequirementMatrix.__init__)
    worst, alphas = map(np.array, np.broadcast_arrays(-one.ln_sup.min(axis=0), alphas))
    return one.benefit * np.exp(-np.power(worst, alphas))


def _scaled_levels(users: _Users, rates_bps, alphas, total_hz: float) -> np.ndarray:
    """Common weighted-willingness level of the users' problems (rates_bps[k],
    alphas[k]) at the band total_hz, each distinct rate searched once, at
    alpha = 1, and scaled to every alpha. Not bitwise equalized_levels: a
    scaled level is within about 3e-11 of the root (see below), where a
    search at the problem's own alpha is within about 1e-14.

    Under Prelec's weight a requirement depends on alpha and the level x
    only through u = log(-ln(x/h))/alpha: the evaluator's lc is u - log(-ln
    sup_i). So at a fixed rate S(x) = B has one root u*, and the level at
    alpha = 1, x_1 = h*exp(-e^u*), gives x = h*exp(-exp(alpha*u*)) at every
    alpha. Where x_1 is 0 or the cap end, u* lies outside the alpha = 1
    search's range, and where the mapped level is not below its own cap
    end, it lies outside that alpha's: those problems are searched at their
    own alpha, so no level passes its cap end. A level does not depend on
    the problems batched with it. Near h the map magnifies the alpha = 1
    search's closing tolerance of 1e-14: a level whose x_1 lies within
    about 1e-5 of h (the lowest rates, at alphas up to 0.1) keeps fewer
    digits, down to about 3e-11.
    """
    rates, alphas = np.broadcast_arrays(*(np.array(v, dtype=float, ndmin=1)
                                          for v in (rates_bps, alphas)))
    distinct, which = np.unique(rates, return_inverse=True)
    one = users.at(distinct, 1.0)
    x_one = _solve_levels(one, total_hz)
    outside = (x_one == 0.0) | (x_one >= one.caps() * _CAP_END)
    # from here on, one problem per (rate, alpha)
    one, x_one, outside = one.columns(which), x_one[which], outside[which]
    with np.errstate(divide="ignore"):
        u = np.log(-np.log(x_one / one.benefit))
    x = one.benefit * np.exp(-np.exp(alphas * u))
    redo = np.flatnonzero(outside | ~(x < _caps_at(one, alphas) * _CAP_END))
    if redo.size:
        x[redo] = _solve_levels(users.at(rates[redo], alphas[redo]), total_hz)
    return x


def equalized_levels(scenario: Scenario, users: tuple[int, ...], rates_bps,
                     alphas, totals_hz) -> np.ndarray:
    """Common weighted-willingness level of many independent band splits.

    Problem k splits the band totals_hz[k] over users at rates_bps[k] under
    the weighting exponent alphas[k]; the three broadcast to one 1-D array of
    problems. The level is the largest x at which the users' requirements
    (each reaching h(rate) * w(guarantee) == x) still fit the band. All
    problems search in lockstep by a bracketed Newton step, each step
    inverting the requirement columns of the problems whose brackets are
    still open: on sweep-compare's grid about 7 columns per problem, two of
    them the end checks. Returns the levels, one per problem. A rate must be
    finite and > 0, and a band >= 0: a band of 0 gives level 0, and an
    infinite one the top of the search.
    """
    rates, alphas, totals = np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(v, dtype=float)) for v in (rates_bps, alphas, totals_hz)))
    bad_rate, bad_band = ~(np.isfinite(rates) & (rates > 0.0)), ~(totals >= 0.0)
    if bad_rate.any():
        raise ValueError(f"rates_bps must be finite and > 0, got {rates[bad_rate][0]}")
    if bad_band.any():
        raise ValueError(f"totals_hz must be >= 0, got {totals[bad_band][0]}")
    need = _Users(scenario, users).at(rates, alphas)
    if not users:
        return np.zeros(rates.shape)
    return _solve_levels(need, totals)


def equalized_willingness(scenario: Scenario, ne: NashResult,
                          model: WeightingModel) -> tuple[float, tuple[float, ...]]:
    """Split the band so every served user's weighted willingness equals a common x.

    The one-problem case of equalized_levels, at the offered rate and the
    whole endowment; dataclasses.replace on the scenario or the result moves
    either. Returns (x, allocation over the served subset); x is the end of
    the Newton search's bracket that fits, and the allocation is the
    requirement column at x, which fits the band, plus an equal share of what
    is left.
    """
    _require_equilibrium(ne)
    total = scenario.total_bandwidth_hz
    need = _Users(scenario, ne.served_set).at(ne.rate_bps, model.alpha)
    x = _solve_levels(need, total)
    alloc = need(x)[:, 0].tolist()
    # the level's summed requirement is below the band, so the slack is positive
    slack = total - float(_total(alloc))
    alloc = [a + slack / len(alloc) for a in alloc]
    return float(x[0]), tuple(alloc)


def reallocation_price(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Highest common price after the provider re-splits the band optimally."""
    x, _ = equalized_willingness(scenario, ne, model)
    return _capped_price(ne, x)


def loss_with_reallocation(scenario: Scenario, ne: NashResult,
                           model: WeightingModel) -> tuple[float, tuple[float, ...]]:
    """Minimum total loss when only the bandwidth split may change.

    Equalizing weighted willingness across served users maximizes the minimum,
    hence minimizes the forced price gap. Returns (total loss, allocation over
    the full user vector).
    """
    x, served_alloc = equalized_willingness(scenario, ne, model)
    return _price_gap_loss(ne, x), _spread(scenario, ne.served_set, served_alloc)


def admission_price(scenario: Scenario, ne: NashResult, n_kept: int) -> float:
    """Revenue-preserving common price when n_kept of the served users remain."""
    if n_kept < 1:
        raise ValueError(f"n_kept must be >= 1, got {n_kept}")
    ratio = ne.n_served / n_kept
    return ratio * ne.price - (ratio - 1.0) * scenario.cost.c1 * ne.rate_bps


def admission_requirements(scenario: Scenario, ne: NashResult, model: WeightingModel,
                            price: float) -> dict[int, float]:
    """Bandwidth at which each served user accepts price at the offered rate."""
    need = _Users(scenario, ne.served_set).at(ne.rate_bps, model.alpha)(price)
    return dict(zip(ne.served_set, need[:, 0].tolist()))


def _fit_outcome(scenario: Scenario, ne: NashResult, strategy_name: str, total: float,
                 price: float, users: tuple[int, ...], need,
                 new_rate_bps: float | None = None) -> StrategyOutcome:
    """The outcome of a revenue-preserving strategy: users, whose requirements
    at price are need and sum to total, keep the baseline revenue iff total
    fits the band, and then split what is left of it equally."""
    budget = scenario.total_bandwidth_hz
    eut_rev = _revenue(scenario, ne.n_served, ne.price, ne.rate_bps)
    feasible = _feasible(total, budget)
    allocation = (0.0,) * scenario.n_users
    if feasible:
        allocation = _spread(scenario, users, need, (budget - total) / len(users))
    return StrategyOutcome(
        strategy_name=strategy_name,
        recovered_revenue=eut_rev if feasible else 0.0,
        revenue_loss=0.0 if feasible else eut_rev,
        new_price=price - PRICE_EPS_REL * ne.price,
        min_bandwidth_threshold_hz=total,
        feasible=feasible,
        new_rate_bps=new_rate_bps,
        served_set=users,
        allocation=allocation)


def admission_controls(scenario: Scenario, ne: NashResult, alphas,
                       max_drops: int) -> list[StrategyOutcome]:
    """Serve a subset at the revenue-preserving markup, if any subset fits.

    One outcome per weighting exponent in alphas. Candidate subsets keep at
    least n_served - max_drops users. The revenue-preserving price depends
    on the subset only through its size and per-user requirements are
    separable and rise with s = N0/P, so for each size the cheapest subset
    keeps all but the d worst channels (_Users.kept), of tied ones the lower
    index. One evaluation inverts every alpha at every candidate price, each
    kept set as its members, so each total adds the kept users in user
    order, the dropped as +0.0. Per alpha the first smallest total wins; on
    a tie, the fewest drops.
    """
    _require_equilibrium(ne)
    n = ne.n_served
    if not (0 <= max_drops < n):
        raise ValueError(f"max_drops must lie in [0, {n}), got {max_drops}")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    # one problem per alpha and number of drops, each at its revenue-preserving price
    prices = [admission_price(scenario, ne, n - drop) for drop in range(max_drops + 1)]
    d = len(prices)
    served = _Users(scenario, ne.served_set)
    kept = np.tile(served.kept(np.arange(d)), alphas.size)
    need = served.at(ne.rate_bps, np.repeat(alphas, d), kept)(np.tile(prices, alphas.size))
    totals = _total(need)
    best = np.argmin(totals.reshape(-1, d), axis=1) + d * np.arange(alphas.size)
    return [_fit_outcome(scenario, ne, "admission", total, prices[k % d],
                         tuple(i for i, keep in zip(ne.served_set, kept[:, k]) if keep),
                         need[kept[:, k], k].tolist())
            for k, total in zip(best.tolist(), totals[best].tolist())]


def admission_control(scenario: Scenario, ne: NashResult, model: WeightingModel,
                      max_drops: int) -> StrategyOutcome:
    """The one-alpha case of admission_controls."""
    return admission_controls(scenario, ne, model.alpha, max_drops)[0]


def bandwidth_expansions(scenario: Scenario, ne: NashResult,
                         alphas) -> list[StrategyOutcome]:
    """Resize the whole band, repricing at the equalized weighted willingness.

    One outcome per weighting exponent in alphas. The served users need S(x)
    in total to reach level x; S rises strictly on [0, cap), cap =
    min_i h*w(sup_i), so max_B n*x(B) - c3*B is the minimum of the loss
    L = c3*S(x) - n*x. _search.stationary_min finds every alpha's minimum at
    once in v = ln(-ln u), u = x/cap, the coordinate _solve_levels steps in:
    x = cap*exp(-e^v), and dL/dv = (n*x - c3*sum(slopes))*e^v. The start is
    v = inf, u = 0 (no band, loss 0). The edges, in u, are k/12, 1 - 10^-k
    for k = 2..11 and the cap end _CAP_END = 1 - 1e-12, to which its v maps
    back bitwise. S' grows without bound at 0, so the loss rises first,
    peaks near u = 1e-4 and, on the cells measured, is least between u =
    0.8 (alphas near 0.1 at the largest c3 that leaves an equilibrium) and
    1 - 1e-4 (c3 = 1e-10). Even edges keep the peak apart from the minimum;
    edges at 1 - 10^-k alone would make [0, 0.9] one bracket and miss the
    minima below 0.9. Near the cap the slope in u is flat and then turns
    within 1e-3 of the cap, where the root search in u took midpoints; in v
    it interpolates: 7 evaluations of 145 columns for five alphas on the
    default cell, against 16 of 131 in u. The allocation is the requirement
    column the search evaluated at the best level (_Seen), and the band
    S(x*) sums it. Full recovery is possible iff the threshold (n*r - best
    value)/c3 stays below the endowment; with c3 = 0 the level takes the cap
    end, whose column is the one evaluation, and the threshold is -inf.
    """
    _require_equilibrium(ne)
    c3 = scenario.cost.c3
    n = ne.n_served
    eut_rev = _revenue(scenario, n, ne.price, ne.rate_bps)
    need = _Users(scenario, ne.served_set).at(ne.rate_bps, alphas)
    caps = need.caps()
    v = np.full(caps.shape, _EXPANSION_EDGES[0])
    if c3 > 0.0:
        seen, picked = _Seen(n), (None, None)

        def loss(v, j):
            nonlocal picked
            # the search passes the same problems j until a bracket closes
            if picked[0] is not j:
                picked = j, need.columns(j)
            t = np.exp(v)
            x = caps[j] * np.exp(-t)
            total, slope, at_x = _sum_and_slope(picked[1], x)
            seen.add(v, j, at_x)
            # the start, v = inf, has x = 0 and a slope of 0*inf, never read
            with np.errstate(invalid="ignore"):
                return c3 * total - n * x, (n * x - c3 * slope) * t, -np.inf, np.inf

        v, _ = _search.stationary_min(loss, _EXPANSION_EDGES, np.full(caps.size, np.inf))
    x = caps * np.exp(-np.exp(v))
    alloc = seen.columns(v) if c3 > 0.0 else need(x)
    band = _total(alloc)

    outcomes = []
    for j, (x_j, band_j) in enumerate(zip(x.tolist(), band.tolist())):
        value = n * x_j - c3 * band_j
        threshold = (n * ne.price - value) / c3 if c3 > 0.0 else -math.inf
        max_revenue = _revenue(scenario, n, x_j, ne.rate_bps, band_j)
        outcomes.append(StrategyOutcome(
            strategy_name="expansion",
            recovered_revenue=max_revenue,
            revenue_loss=max(0.0, eut_rev - max_revenue),
            new_price=x_j - PRICE_EPS_REL * ne.price,
            min_bandwidth_threshold_hz=threshold,
            feasible=_feasible(threshold, scenario.total_bandwidth_hz),
            new_total_bandwidth_hz=band_j,
            served_set=ne.served_set,
            allocation=_spread(scenario, ne.served_set, alloc[:, j].tolist())))
    return outcomes


def bandwidth_expansion(scenario: Scenario, ne: NashResult,
                        model: WeightingModel) -> StrategyOutcome:
    """The one-alpha case of bandwidth_expansions."""
    return bandwidth_expansions(scenario, ne, model.alpha)[0]


def rate_control_price(scenario: Scenario, ne: NashResult, rate_bps: float) -> float:
    """Revenue-preserving price when the offered rate moves to rate_bps."""
    return ne.price + scenario.cost.c1 * (rate_bps - ne.rate_bps)


def _rate_totals(scenario: Scenario, ne: NashResult, served: _Users, need: _RequirementMatrix,
                 keep=None) -> tuple[np.ndarray, ...]:
    """The summed requirement T of the served users at shifted rates,
    dT/d ln rate, and bounds on the ln rates where T can be finite.

    need is an evaluator of the served users (served.at): its problem k
    moves the offered rate to need.rates[k] at the revenue-preserving
    price. A problem whose price is not positive gets a column of inf. One
    evaluator pass (with_rate_slopes) gives the requirements and their
    slopes, the price moving by c1*b/p per unit of ln b, and where T is
    finite its slope is the sum of theirs. keep, if given, is called with
    the users x problems requirements. Each user's reach margin
    (_RequirementMatrix.margins) is concave in ln b while the price less
    c1*b stays positive, so the rates that keep every target within reach
    form one interval and T is finite exactly there. Where T is inf, the
    worst channel (the last of served.order), whose margin is the smallest,
    tells on which side of that interval the rate lies: left if its margin
    rises, and the slope is then -inf; right otherwise, and the slope is
    +inf. A price that is not positive lies left of every positive one.
    There, too, each user's tangent lies above its concave margin, so the
    interval lies strictly between the largest zero of a rising tangent and
    the smallest zero of a falling one: the bounds.
    Elsewhere, or where the offer's price is not above c1 times its rate,
    the bounds are -inf and inf.
    """
    price = rate_control_price(scenario, ne, need.rates)
    with np.errstate(divide="ignore", invalid="ignore"):
        elasticity = scenario.cost.c1 * need.rates / price
    at, slopes = need.with_rate_slopes(price, elasticity)
    at = np.where(price <= 0.0, np.inf, at)
    if keep is not None:
        keep(at)
    total, slope = _total(at), _total(slopes)
    lower, upper = -np.inf, np.inf
    out = np.isinf(total)
    if out.any():
        margin, rising = need.margins(price, elasticity)
        left = (price <= 0.0) | (rising[served.order[-1]] > 0.0)
        slope = np.where(out, np.where(left, -np.inf, np.inf), slope)
        if ne.price > scenario.cost.c1 * ne.rate_bps:
            with np.errstate(divide="ignore", invalid="ignore"):
                zero = np.log(need.rates) - margin / rising
            known = out & ~np.isnan(zero)
            lower = np.where(known & (rising > 0.0), zero, -np.inf).max(axis=0)
            upper = np.where(known & (rising < 0.0), zero, np.inf).min(axis=0)
    return total, slope, lower, upper


def rate_controls(scenario: Scenario, ne: NashResult, alphas) -> list[StrategyOutcome]:
    """Shift the offered rate to wherever the total requirement is smallest.

    One outcome per weighting exponent in alphas. The objective T need not
    be unimodal, so _search.stationary_min cuts the range [1e-3 * rate,
    10 * rate] at 13 log-spaced edges: one evaluation gives T and
    dT/d ln b at every edge of every alpha, and T at the offered rate, the
    start (_rate_totals), and one lockstep root search of dT closes the
    brackets where dT rises through 0. Out of reach, the users' tangents
    bound the rates where T can be finite, so a bracket whose points leave
    no such rate is dropped before the search or closed at the point that
    shows it. Per alpha, the best rate starts at the offered one, and the
    edges and roots, in order, replace it only when strictly smaller. The
    threshold and the allocation are the best rate's requirement column, as
    the search evaluated it (_Seen): no evaluation follows the search's last
    root step.
    """
    _require_equilibrium(ne)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    served = _Users(scenario, ne.served_set)

    lo, hi = math.log(1e-3 * ne.rate_bps), math.log(10.0 * ne.rate_bps)
    edges = lo + (hi - lo) * np.arange(13.0) / 12

    def rates(t):
        # the offered rate, the start, enters as t = nan: exp(ln b) need not be b
        return np.where(np.isnan(t), ne.rate_bps, np.exp(t))

    # the alphas, checked once; each step moves their problems' rates
    offered, seen = served.at(ne.rate_bps, alphas), _Seen(ne.n_served)

    def totals(t, j):
        # columns are picked by rate: the start's t is nan
        b = rates(t)
        return _rate_totals(scenario, ne, served, offered.at_rates(b, j),
                            lambda at: seen.add(b, j, at))

    best_t, _ = _search.stationary_min(totals, edges, np.full(len(alphas), np.nan))
    best_rate = rates(best_t)
    # the threshold and the allocation come from one requirement column
    need = seen.columns(best_rate)
    return [_fit_outcome(scenario, ne, "rate", total, rate_control_price(scenario, ne, rate),
                         ne.served_set, column, new_rate_bps=rate)
            for total, rate, column in zip(_total(need).tolist(), best_rate.tolist(),
                                           need.T.tolist())]


def rate_control(scenario: Scenario, ne: NashResult, model: WeightingModel) -> StrategyOutcome:
    """The one-alpha case of rate_controls."""
    return rate_controls(scenario, ne, model.alpha)[0]


STRATEGY_IDS = ("no_pricing", "admission", "expansion", "rate")


def _strategy_thresholds(scenario: Scenario, ne: NashResult, alphas: list[float],
                         strategy_id: str, max_drops: int) -> list[float]:
    """strategy_threshold at each alpha, from one batched call: no_pricing
    and admission invert every alpha in one evaluation, and expansion and
    rate search all at once."""
    _require_equilibrium(ne)
    if strategy_id == "no_pricing":
        return no_pricing_bands(scenario, ne, alphas)
    if strategy_id == "admission":
        outcomes = admission_controls(scenario, ne, alphas, max_drops)
    elif strategy_id == "expansion":
        outcomes = bandwidth_expansions(scenario, ne, alphas)
    elif strategy_id == "rate":
        outcomes = rate_controls(scenario, ne, alphas)
    else:
        raise ValueError(f"unknown strategy {strategy_id!r}, expected one of {STRATEGY_IDS}")
    return [o.min_bandwidth_threshold_hz for o in outcomes]


def strategy_threshold(scenario: Scenario, ne: NashResult, model: WeightingModel,
                       strategy_id: str, max_drops: int = 1) -> float:
    """Required-bandwidth threshold a strategy compares against the endowment."""
    return _strategy_thresholds(scenario, ne, [model.alpha], strategy_id, max_drops)[0]


def min_alpha(scenario: Scenario, ne: NashResult, strategy_id: str,
              max_drops: int = 1, floor: float = 0.01) -> MinAlphaResult:
    """Smallest alpha at which the strategy's threshold still fits the endowment.

    The threshold T is sampled on a 9-point grid from the floor to 1, in one
    batched call whatever the strategy; the grid's ends decide the early
    returns. Between the last failing and the first fitting grid point,
    _search.bracketed_root closes on a root of f = 1 - T/(B*(1 - slack)),
    game's feasibility rule as a margin: f > 0 exactly where T fits, and f
    is kept strictly below 0 where T does not, so the returned end fits. A
    grid that fits and then fails again is reported (warning +
    monotone=False), and the search takes its last change. The floor must
    lie in (0, 1].
    """
    if not (0.0 < floor <= 1.0):
        raise ValueError(f"floor must lie in (0, 1], got {floor}")
    budget = scenario.total_bandwidth_hz * (1.0 - FEASIBILITY_SLACK)

    def margin(alphas, _=None):
        t = np.array(_strategy_thresholds(scenario, ne, list(alphas), strategy_id, max_drops))
        f = 1.0 - t / budget
        # a failing T, even one equal to the budget, is at least one rounding of
        # T/budget below 0: never a root, and a secant through it still moves
        return np.where(t < budget, f, np.fmin(f, -_EPS))

    grid = [floor + (1.0 - floor) * k / 8 for k in range(8)] + [1.0]
    f = margin(grid)
    flags = f > 0.0
    if not flags[-1]:
        return MinAlphaResult(alpha=None, never_infeasible=False,
                              recoverable_at_one=False, monotone=True)
    if flags[0]:
        return MinAlphaResult(alpha=floor, never_infeasible=True,
                              recoverable_at_one=True, monotone=True)
    monotone = not np.any(flags[:-1] & ~flags[1:])
    if not monotone:
        warnings.warn(f"feasibility of {strategy_id} is not monotone in alpha "
                      f"on the sampled grid; the result may bracket only "
                      f"one of several transitions", RuntimeWarning, stacklevel=2)

    # flags[-1] holds and flags[0] does not: the last failing point has a successor
    k = np.flatnonzero(~flags)[-1]
    _, hi = _search.bracketed_root(margin, [grid[k]], [grid[k + 1]], [f[k]], [f[k + 1]])
    return MinAlphaResult(alpha=float(hi[0]), never_infeasible=False,
                          recoverable_at_one=True, monotone=monotone)
