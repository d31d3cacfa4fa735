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
from .channel import (_LN2, UnattainableGuaranteeError, _ln_supremum,
                      _spectral_efficiency, min_bandwidth, service_guarantee)
from .game import FEASIBILITY_SLACK, NashResult, Scenario
from .weighting import WeightingModel, inverse_weight, weight

# strict acceptance inequalities are realized by shaving this relative amount
# off every computed price
PRICE_EPS_REL = 1e-9


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


def _eut_revenue(scenario: Scenario, ne: NashResult) -> float:
    margin = ne.price - scenario.cost.c1 * ne.rate_bps
    return ne.n_served * margin - scenario.cost.c3 * scenario.total_bandwidth_hz


def willingness(scenario: Scenario, ne: NashResult, model: WeightingModel,
                 i: int, bandwidth_hz: float) -> float:
    ch, h = scenario.users[i]
    return h(ne.rate_bps) * weight(service_guarantee(ne.rate_bps, bandwidth_hz, ch), model)


def _required_bandwidth(scenario: Scenario, rate_bps: float, i: int,
                        weighted_target: float, model: WeightingModel) -> float:
    """Bandwidth giving user i weighted willingness == h_i * w(guarantee) target.

    weighted_target is the willingness level divided by h_i(rate), i.e. the
    value w(guarantee) must reach. Returns inf when unattainable.
    """
    if weighted_target <= 0.0:
        return 0.0
    if weighted_target >= 1.0:
        return math.inf
    raw_target = inverse_weight(weighted_target, model)
    # at alpha < 1 the inverse can round to 1.0, which min_bandwidth rejects
    if raw_target >= 1.0:
        return math.inf
    if raw_target <= 0.0:
        return 0.0
    try:
        return min_bandwidth(rate_bps, raw_target, scenario.channel(i))
    except UnattainableGuaranteeError:
        return math.inf


def ne_preserved(scenario: Scenario, ne: NashResult,
                 model: WeightingModel) -> NePreservation:
    """Does every served user still accept the unchanged offer under weighting?

    User i passes iff the allocated bandwidth strictly exceeds the level where
    the weighted guarantee drops to the indifference ratio r/h. Users whose
    indifference level is unattainable at any bandwidth are reported in
    unrecoverable rather than raising.
    """
    per_user: list[bool] = []
    required: list[float] = []
    unrecoverable: list[int] = []
    for i in ne.served_set:
        h = scenario.benefit(i)
        lam = ne.price / h(ne.rate_bps)
        req = _required_bandwidth(scenario, ne.rate_bps, i, lam, model)
        required.append(req)
        if math.isinf(req):
            unrecoverable.append(i)
            per_user.append(False)
        else:
            per_user.append(ne.allocation[i] > req)
    aggregate = sum(required)
    return NePreservation(
        per_user=tuple(per_user),
        preserved=all(per_user) and len(per_user) > 0,
        required_bandwidths=tuple(required),
        aggregate_required=aggregate,
        aggregate_sufficient=scenario.total_bandwidth_hz > aggregate,
        unrecoverable=tuple(unrecoverable))


def _min_willingness(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    return min(willingness(scenario, ne, model, i, ne.allocation[i])
               for i in ne.served_set)


def strict_rrm_price(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Highest price every served user accepts with the offer otherwise frozen.

    Capped at the original price: the provider never needs to charge more than
    it did before weighting entered.
    """
    cap = _min_willingness(scenario, ne, model)
    return min(ne.price, cap - PRICE_EPS_REL * ne.price)


def loss_strict_rrm(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Total revenue lost to the price drop that keeps every constraint fixed.

    The provider drops the price to the minimum weighted willingness across the
    served set; the per-user gap, floored at zero, is charged once per served
    user.
    """
    gap = max(0.0, ne.price - _min_willingness(scenario, ne, model))
    return ne.n_served * gap


class _RequirementMatrix:
    """Bandwidths a set of users needs, for many independent problems at once.

    Problem k offers the users rates_bps[k] under the weighting exponent
    alphas[k]; the two broadcast to one 1-D array of problems. Called with a
    willingness target per problem, it returns the users x problems matrix of
    bandwidths at which h_i(rate) * w(guarantee) reaches that target: with
    q = target / h_i(rate), the Prelec inverse taken in log space and
    inverted by _spectral_efficiency, 0 at a zero target and inf at or above
    the wide-band supremum, as in _required_bandwidth.
    """

    def __init__(self, scenario: Scenario, users: tuple[int, ...], rates_bps,
                 alphas) -> None:
        self.rates, self.alphas = np.broadcast_arrays(*(
            np.atleast_1d(np.asarray(v, dtype=float)) for v in (rates_bps, alphas)))
        channels = [scenario.channel(i) for i in users]
        benefits = [scenario.benefit(i) for i in users]
        col = lambda values: np.array(values)[:, None]
        self.benefit = (col([h.coefficient for h in benefits])
                        * (self.rates * 1e-3) ** col([h.exponent for h in benefits]))
        self.ln_sup = _ln_supremum(self.rates,
                                   col([ch.noise_psd_w_per_hz for ch in channels]),
                                   col([ch.received_power_w for ch in channels]))
        self._inv_alpha = 1.0 / self.alphas
        self._rate_ln2 = self.rates * _LN2

    def __call__(self, targets) -> np.ndarray:
        q = targets / self.benefit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ln_target = -(-np.log(q)) ** self._inv_alpha
            need = self._rate_ln2 / _spectral_efficiency(ln_target, self.ln_sup, np)
        return np.where((q >= 1.0) | (ln_target >= self.ln_sup), np.inf,
                        np.where(q <= 0.0, 0.0, need))


def _column_totals(need: np.ndarray) -> np.ndarray:
    """Requirement summed over users, one total per problem."""
    # cumsum adds in user order, as a scalar loop would; sum pairs terms on a
    # short axis
    return np.cumsum(need, axis=0)[-1]


def _bisect_levels(need: _RequirementMatrix, totals) -> np.ndarray:
    """Levels at which the summed requirement meets each problem's band.

    The requirement grows with the level x, so each level solves
    sum-of-requirements == total by bisection on [0, min_i h_i*w(sup_i)],
    all problems in lockstep. Returns the true ends of the brackets, where
    the requirements still fit the band.
    """
    caps = (need.benefit * np.exp(-(-need.ln_sup) ** need.alphas)).min(axis=0)
    x_hi = caps * (1.0 - 1e-12)
    x, _ = _search.bisect_boundary(lambda x: _column_totals(need(x)) < totals,
                                   np.zeros_like(x_hi), x_hi, rel_tol=1e-14)
    return x


def equalized_levels(scenario: Scenario, users: tuple[int, ...], rates_bps,
                     alphas, totals_hz) -> np.ndarray:
    """Common weighted-willingness level of many independent band splits.

    Problem k splits the band totals_hz[k] over users at rates_bps[k] under
    the weighting exponent alphas[k]; the three broadcast to one 1-D array of
    problems. The level is the largest x at which the users' requirements
    (each reaching h_i(rate) * w(guarantee) == x) still fit the band. All
    problems bisect in lockstep, one users x problems requirement matrix per
    step. Returns the levels, one per problem.
    """
    rates, alphas, totals = np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(v, dtype=float)) for v in (rates_bps, alphas, totals_hz)))
    if not users:
        return np.zeros(rates.shape)
    return _bisect_levels(_RequirementMatrix(scenario, users, rates, alphas), totals)


def equalized_willingness(scenario: Scenario, ne: NashResult, model: WeightingModel,
                          total_bandwidth_hz: float | None = None,
                          rate_bps: float | None = None,
                          served: tuple[int, ...] | None = None) -> tuple[float, tuple[float, ...]]:
    """Split a band so every served user's weighted willingness equals a common x.

    The one-problem case of equalized_levels. Returns (x, allocation over the
    served subset); the allocation is the search's own requirement column at
    x, which fits the band, plus an equal share of what is left.
    """
    total = scenario.total_bandwidth_hz if total_bandwidth_hz is None else total_bandwidth_hz
    rate = ne.rate_bps if rate_bps is None else rate_bps
    users = ne.served_set if served is None else served
    if total <= 0.0 or not users:
        return 0.0, tuple(0.0 for _ in users)

    need = _RequirementMatrix(scenario, users, rate, model.alpha)
    x = _bisect_levels(need, total)
    alloc = need(x)[:, 0].tolist()
    slack = total - sum(alloc)
    if slack > 0.0:
        alloc = [a + slack / len(alloc) for a in alloc]
    return float(x[0]), tuple(alloc)


def reallocation_price(scenario: Scenario, ne: NashResult, model: WeightingModel) -> float:
    """Highest common price after the provider re-splits the band optimally."""
    x, _ = equalized_willingness(scenario, ne, model)
    return min(ne.price, x - PRICE_EPS_REL * ne.price)


def loss_with_reallocation(scenario: Scenario, ne: NashResult,
                           model: WeightingModel) -> tuple[float, tuple[float, ...]]:
    """Minimum total loss when only the bandwidth split may change.

    Equalizing weighted willingness across served users maximizes the minimum,
    hence minimizes the forced price gap. Returns (total loss, allocation over
    the full user vector).
    """
    x, served_alloc = equalized_willingness(scenario, ne, model)
    gap = max(0.0, ne.price - x)
    full = [0.0] * scenario.n_users
    for i, bw in zip(ne.served_set, served_alloc):
        full[i] = bw
    return ne.n_served * gap, tuple(full)


def admission_price(scenario: Scenario, ne: NashResult, n_kept: int) -> float:
    """Revenue-preserving common price when n_kept of the served users remain."""
    if n_kept < 1:
        raise ValueError(f"n_kept must be >= 1, got {n_kept}")
    ratio = ne.n_served / n_kept
    return ratio * ne.price - (ratio - 1.0) * scenario.cost.c1 * ne.rate_bps


def admission_requirements(scenario: Scenario, ne: NashResult, model: WeightingModel,
                            price: float) -> dict[int, float]:
    reqs = {}
    for i in ne.served_set:
        h = scenario.benefit(i)
        lam = price / h(ne.rate_bps)
        reqs[i] = _required_bandwidth(scenario, ne.rate_bps, i, lam, model)
    return reqs


def admission_control(scenario: Scenario, ne: NashResult, model: WeightingModel,
                      max_drops: int) -> StrategyOutcome:
    """Serve a subset at the revenue-preserving markup, if any subset fits.

    Candidate subsets keep at least n_served - max_drops users. The
    revenue-preserving price depends on the subset only through its size and
    per-user requirements are separable, so for each size the cheapest subset
    is the size-many smallest-requirement users.
    """
    if not (0 <= max_drops < ne.n_served):
        raise ValueError(f"max_drops must lie in [0, {ne.n_served}), got {max_drops}")
    budget = scenario.total_bandwidth_hz
    eut_rev = _eut_revenue(scenario, ne)

    # (total, subset, price, requirements at that price)
    best: tuple[float, tuple[int, ...], float, dict[int, float]] | None = None
    for n_drop in range(0, max_drops + 1):
        n_kept = ne.n_served - n_drop
        price = admission_price(scenario, ne, n_kept)
        reqs = admission_requirements(scenario, ne, model, price)
        order = sorted(ne.served_set, key=lambda i: (reqs[i], i))
        subset = tuple(sorted(order[:n_kept]))
        total = sum(reqs[i] for i in subset)
        if best is None or total < best[0]:
            best = (total, subset, price, reqs)

    threshold, subset, price, reqs = best
    feasible = not math.isinf(threshold) and threshold < budget * (1.0 - FEASIBILITY_SLACK)
    allocation = tuple(0.0 for _ in range(scenario.n_users))
    if feasible:
        pad = (budget - threshold) / len(subset)
        full = [0.0] * scenario.n_users
        for i in subset:
            full[i] = reqs[i] + pad
        allocation = tuple(full)
    return StrategyOutcome(
        strategy_name="admission",
        recovered_revenue=eut_rev if feasible else 0.0,
        revenue_loss=0.0 if feasible else eut_rev,
        new_price=price - PRICE_EPS_REL * ne.price,
        min_bandwidth_threshold_hz=threshold,
        feasible=feasible,
        served_set=subset,
        allocation=allocation)


def expansion_value(scenario: Scenario, ne: NashResult, model: WeightingModel,
                    total_bandwidth_hz: float) -> float:
    """n * (equalized willingness at this band size) - c3 * band size."""
    x, _ = equalized_willingness(scenario, ne, model, total_bandwidth_hz)
    return ne.n_served * x - scenario.cost.c3 * total_bandwidth_hz


def bandwidth_expansion(scenario: Scenario, ne: NashResult,
                        model: WeightingModel) -> StrategyOutcome:
    """Resize the whole band, repricing at the acceptance cap.

    Inner problem: for a candidate band size, the best split equalizes weighted
    willingness. Outer problem: 1-D maximization of n*x(B) - c3*B over the band
    size B by golden section on a doubling bracket. Full recovery is possible
    iff the implied threshold (n*r - best value)/c3 stays below the endowment.
    """
    budget = scenario.total_bandwidth_hz
    c1, c3 = scenario.cost.c1, scenario.cost.c3
    eut_rev = _eut_revenue(scenario, ne)

    f = lambda bw: expansion_value(scenario, ne, model, bw)
    hi = budget
    f_hi = f(hi)
    while True:
        nxt = hi * 2.0
        f_nxt = f(nxt)
        if f_nxt <= f_hi or nxt > budget * 2.0 ** 40:
            break
        hi, f_hi = nxt, f_nxt
    bw_star, value = _search.golden_max(f, budget * 1e-6, hi * 2.0, rel_tol=1e-10)

    threshold = (ne.n_served * ne.price - value) / c3 if c3 > 0.0 else -math.inf
    feasible = threshold < budget * (1.0 - FEASIBILITY_SLACK)
    x, served_alloc = equalized_willingness(scenario, ne, model, bw_star)
    max_revenue = ne.n_served * (x - c1 * ne.rate_bps) - c3 * bw_star
    full = [0.0] * scenario.n_users
    for i, bw in zip(ne.served_set, served_alloc):
        full[i] = bw
    return StrategyOutcome(
        strategy_name="expansion",
        recovered_revenue=max_revenue,
        revenue_loss=max(0.0, eut_rev - max_revenue),
        new_price=x - PRICE_EPS_REL * ne.price,
        min_bandwidth_threshold_hz=threshold,
        feasible=feasible,
        new_total_bandwidth_hz=bw_star,
        served_set=ne.served_set,
        allocation=tuple(full))


def rate_control_price(scenario: Scenario, ne: NashResult, rate_bps: float) -> float:
    """Revenue-preserving price when the offered rate moves to rate_bps."""
    return ne.price + scenario.cost.c1 * (rate_bps - ne.rate_bps)


def _rate_needs(scenario: Scenario, ne: NashResult, rates_bps, alphas,
                enforce_benefit_margin_bound: bool) -> np.ndarray:
    """Users x problems requirements of the served users at shifted rates.

    Problem k moves the offered rate to rates_bps[k] at the revenue-preserving
    price, under the weighting exponent alphas[k]. A problem whose price is
    not positive, or that breaks the side condition when it is enforced, gets
    a column of inf.
    """
    need = _RequirementMatrix(scenario, ne.served_set, rates_bps, alphas)
    c1 = scenario.cost.c1
    price = rate_control_price(scenario, ne, need.rates)
    out_of_reach = price <= 0.0
    if enforce_benefit_margin_bound:
        # stated side condition on admissible rates, normally disabled
        out_of_reach |= ~np.all(need.benefit - c1 * need.rates
                                < ne.price - c1 * ne.rate_bps, axis=0)
    return np.where(out_of_reach, np.inf, need(price))


def rate_requirement(scenario: Scenario, ne: NashResult, model: WeightingModel,
                     rate_bps: float,
                     enforce_benefit_margin_bound: bool = False) -> float:
    """Total bandwidth needed to keep all served users at the shifted rate."""
    return float(_column_totals(_rate_needs(scenario, ne, rate_bps, model.alpha,
                                            enforce_benefit_margin_bound))[0])


def rate_controls(scenario: Scenario, ne: NashResult, alphas,
                  enforce_benefit_margin_bound: bool = False) -> list[StrategyOutcome]:
    """Shift the offered rate to wherever the total requirement is smallest.

    One outcome per weighting exponent in alphas. The objective need not be
    unimodal, so the bracket [1e-3 * rate, 10 * rate] is covered by
    log-spaced golden-section multi-starts. Every start of every alpha runs
    in one lockstep golden_min, one users x problems requirement matrix per
    step. Per alpha, the best rate starts at the offered one and a start
    replaces it only when strictly smaller.
    """
    budget = scenario.total_bandwidth_hz
    eut_rev = _eut_revenue(scenario, ne)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))

    lo = math.log(1e-3 * ne.rate_bps)
    hi = math.log(10.0 * ne.rate_bps)
    n_starts = 12
    edges = lo + (hi - lo) * np.arange(n_starts + 1.0) / n_starts
    start_alphas = np.tile(alphas, n_starts)  # start-major, like the brackets
    obj = lambda log_b: _column_totals(_rate_needs(
        scenario, ne, np.exp(log_b), start_alphas, enforce_benefit_margin_bound))
    x, fx = _search.golden_min(obj, np.repeat(edges[:-1], len(alphas)),
                               np.repeat(edges[1:], len(alphas)), rel_tol=1e-10)
    x, fx = x.reshape(n_starts, -1), fx.reshape(n_starts, -1)

    best_rate = np.full(len(alphas), ne.rate_bps)
    best_total = _column_totals(_rate_needs(scenario, ne, best_rate, alphas,
                                            enforce_benefit_margin_bound))
    for k in range(n_starts):
        better = fx[k] < best_total
        best_total = np.where(better, fx[k], best_total)
        best_rate = np.where(better, np.exp(x[k]), best_rate)
    # the threshold and the allocation come from one requirement column
    need = _rate_needs(scenario, ne, best_rate, alphas, enforce_benefit_margin_bound)
    best_total = _column_totals(need)

    outcomes = []
    for j in range(len(alphas)):
        total, rate = float(best_total[j]), float(best_rate[j])
        feasible = not math.isinf(total) and total < budget * (1.0 - FEASIBILITY_SLACK)
        allocation = tuple(0.0 for _ in range(scenario.n_users))
        if feasible:
            pad = (budget - total) / ne.n_served
            full = [0.0] * scenario.n_users
            for i, bw in zip(ne.served_set, need[:, j].tolist()):
                full[i] = bw + pad
            allocation = tuple(full)
        outcomes.append(StrategyOutcome(
            strategy_name="rate",
            recovered_revenue=eut_rev if feasible else 0.0,
            revenue_loss=0.0 if feasible else eut_rev,
            new_price=rate_control_price(scenario, ne, rate) - PRICE_EPS_REL * ne.price,
            min_bandwidth_threshold_hz=total,
            feasible=feasible,
            new_rate_bps=rate,
            served_set=ne.served_set,
            allocation=allocation))
    return outcomes


def rate_control(scenario: Scenario, ne: NashResult, model: WeightingModel,
                 enforce_benefit_margin_bound: bool = False) -> StrategyOutcome:
    """The one-alpha case of rate_controls."""
    return rate_controls(scenario, ne, model.alpha, enforce_benefit_margin_bound)[0]


STRATEGY_IDS = ("no_pricing", "admission", "expansion", "rate")


def strategy_threshold(scenario: Scenario, ne: NashResult, model: WeightingModel,
                       strategy_id: str, max_drops: int = 1) -> float:
    """Required-bandwidth threshold a strategy compares against the endowment."""
    if strategy_id == "no_pricing":
        return ne_preserved(scenario, ne, model).aggregate_required
    if strategy_id == "admission":
        return admission_control(scenario, ne, model, max_drops).min_bandwidth_threshold_hz
    if strategy_id == "expansion":
        return bandwidth_expansion(scenario, ne, model).min_bandwidth_threshold_hz
    if strategy_id == "rate":
        return rate_control(scenario, ne, model).min_bandwidth_threshold_hz
    raise ValueError(f"unknown strategy {strategy_id!r}, expected one of {STRATEGY_IDS}")


def min_alpha(scenario: Scenario, ne: NashResult, strategy_id: str,
              max_drops: int = 1, floor: float = 0.01) -> MinAlphaResult:
    """Smallest alpha at which the strategy's threshold still fits the endowment.

    Bisection to 1e-4 between the search floor and 1. Feasibility is expected
    monotone in alpha; the predicate is sampled on a coarse grid first and a
    violation is reported (warning + monotone=False) instead of silently
    bisecting through it.
    """
    budget = scenario.total_bandwidth_hz

    def pred(alpha: float) -> bool:
        t = strategy_threshold(scenario, ne, WeightingModel(alpha=alpha),
                               strategy_id, max_drops)
        return t < budget * (1.0 - FEASIBILITY_SLACK)

    if not pred(1.0):
        return MinAlphaResult(alpha=None, never_infeasible=False,
                              recoverable_at_one=False, monotone=True)
    if pred(floor):
        return MinAlphaResult(alpha=floor, never_infeasible=True,
                              recoverable_at_one=True, monotone=True)

    grid = [floor + (1.0 - floor) * k / 8 for k in range(9)]
    flags = [pred(a) for a in grid]
    monotone = all(not (flags[k] and not flags[k + 1]) for k in range(len(flags) - 1))
    if not monotone:
        warnings.warn(f"feasibility of {strategy_id} is not monotone in alpha "
                      f"on the sampled grid; bisection result may bracket only "
                      f"one of several transitions", RuntimeWarning)

    lo, hi = floor, 1.0
    for k in range(len(flags) - 1, -1, -1):
        if not flags[k]:
            lo = grid[k]
            hi = grid[k + 1] if k + 1 < len(grid) else 1.0
            break
    # alpha <= 1, so the relative tolerance is an absolute 1e-4
    _, hi = _search.bisect_boundary(lambda a: not pred(a), lo, hi, rel_tol=1e-4)
    return MinAlphaResult(alpha=hi, never_infeasible=False,
                          recoverable_at_one=True, monotone=monotone)
