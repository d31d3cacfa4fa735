"""Leader-follower pricing game: scenario model, utilities, equilibrium solver.

The provider offers every user the same rate and price and a per-user bandwidth
slice; a user accepts when weighted willingness to pay, the benefit h(b) times
the (possibly probability-weighted) service guarantee, exceeds the price.
Users share one benefit law and differ only by their channel. The
solver locates the revenue-maximizing pure-strategy equilibrium by scanning
served-set sizes n from large to small: maximize n*(r(b) - c1*b) over rates b
whose n cheapest users, the first n of _Users.order, fit in the band, then
disqualify any n for which a strictly larger set would also fit at that rate.

The scan stops early: no rate earns a user more than m* = max_b r(b) - c1*b,
so size n earns at most n*m* - c3*B. Once a positive revenue found so far is
>= that bound for the next n, no smaller set can earn strictly more, and the
pick (the first strictly larger revenue, large n to small) is bitwise that of
the full scan. Without a positive revenue the scan runs to n = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _search
from .channel import (_LN2, UnattainableGuaranteeError, UserChannel, _efficiency_root,
                      _ln_supremum, _log_ratio, _require_finite, _spectral_efficiency,
                      guarantee_supremum, min_bandwidth, service_guarantee)
from .weighting import IDENTITY, WeightingModel, weight

# strict "<" feasibility comparisons carry this relative slack for determinism
FEASIBILITY_SLACK = 1e-9
_EPS = 2.0 ** -52
_TINY_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class PowerLaw:
    """coefficient * (b * 1e-3)^exponent, 0 at b = 0, increasing and concave.

    Both the provider's price r(b) and the users' benefit h(b) take this form.
    """

    coefficient: float
    exponent: float

    def __post_init__(self) -> None:
        _require_finite(coefficient=self.coefficient)
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
        _require_finite(c1=self.c1, c3=self.c3)
        if self.c1 < 0.0 or self.c3 < 0.0:
            raise ValueError("cost coefficients must be >= 0")

    def per_user(self, rate_bps: float, bandwidth_hz: float) -> float:
        return self.c1 * rate_bps + self.c3 * bandwidth_hz


@dataclass(frozen=True)
class Scenario:
    """Each user's channel, plus the benefit law, pricing, cost and band endowment
    that all users share."""

    users: tuple[UserChannel, ...]
    benefit: PowerLaw
    pricing: PowerLaw
    cost: CostModel
    total_bandwidth_hz: float

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ValueError("scenario needs at least one user")
        _require_finite(total_bandwidth_hz=self.total_bandwidth_hz)
        if self.total_bandwidth_hz <= 0.0:
            raise ValueError("total bandwidth must be > 0")

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class Offer:
    """Rate, price at that rate, and the per-user bandwidth vector."""

    rate_bps: float
    price: float
    allocation: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite(rate_bps=self.rate_bps, price=self.price,
                        **{f"allocation[{i}]": a for i, a in enumerate(self.allocation)})
        if self.rate_bps < 0.0 or self.price < 0.0:
            raise ValueError("rate and price must be >= 0")
        if any(a < 0.0 for a in self.allocation):
            raise ValueError("allocation entries must be >= 0")

    def validate_against(self, scenario: Scenario) -> None:
        total = 0.0
        for a in self.allocation:
            total += a
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


def _efficiency_slope(y):
    """g'(y) = 1/(1 - e^-y) - 1/y, the derivative of log(expm1(y)/y)."""
    return 1.0 / -np.expm1(-y) - 1.0 / y


def _total(need):
    """Requirements summed over users (axis 0), one total per problem: cumsum
    adds left to right on every Python, where the builtin sum compensates its
    rounding from 3.12 on and numpy's sum pairs terms."""
    return np.cumsum(need, axis=0)[-1]


def _revenue(scenario: Scenario, n: int, price: float, rate_bps: float,
             band_hz: float | None = None) -> float:
    """The provider's revenue from n users accepting price at rate_bps: their
    margin less c3 per Hz of band_hz, the whole endowment by default."""
    band = scenario.total_bandwidth_hz if band_hz is None else band_hz
    return n * (price - scenario.cost.c1 * rate_bps) - scenario.cost.c3 * band


def willingness(scenario: Scenario, ne: NashResult | Offer, model: WeightingModel,
                i: int, bandwidth_hz: float) -> float:
    """User i's weighted willingness to pay at the offered rate and bandwidth_hz."""
    guarantee = service_guarantee(ne.rate_bps, bandwidth_hz, scenario.users[i])
    return scenario.benefit(ne.rate_bps) * weight(guarantee, model)


def _spread(scenario: Scenario, users, bandwidths, pad: float = 0.0) -> tuple[float, ...]:
    """Allocation over every user: bandwidths[k] + pad to users[k], 0 elsewhere."""
    full = [0.0] * scenario.n_users
    for i, bw in zip(users, bandwidths):
        full[i] = bw + pad
    return tuple(full)


def user_utility(accept_prob: float, offer: Offer, user_index: int,
                 scenario: Scenario, model: WeightingModel = IDENTITY) -> float:
    """accept_prob * (benefit * weighted guarantee - price); declining yields 0."""
    if accept_prob == 0.0:
        return 0.0
    own = willingness(scenario, offer, model, user_index, offer.allocation[user_index])
    return accept_prob * (-offer.price + own)


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
    """Bandwidth where the user is exactly indifferent: guarantee == r(b)/h(b)."""
    if not rate_bps > 0.0:
        raise ValueError(f"rate must be > 0, got {rate_bps}")
    if rate_bps == math.inf:
        # r(b)/h(b) would be inf/inf
        raise ValueError(f"rate must be finite, got {rate_bps}")
    ch = scenario.users[user_index]
    target = scenario.pricing(rate_bps) / scenario.benefit(rate_bps)
    if target >= 1.0:
        raise UnattainableGuaranteeError(rate_bps, target, guarantee_supremum(rate_bps, ch))
    return min_bandwidth(rate_bps, target, ch)


class NoEquilibriumError(ValueError):
    """The pricing game has no equilibrium for a strategy or a sweep to perturb."""


def _require_equilibrium(ne: NashResult) -> None:
    """The guard of every entry point that perturbs a solved offer."""
    if not ne.equilibrium:
        raise NoEquilibriumError("scenario has no equilibrium to perturb")


def _reciprocals(alphas) -> np.ndarray:
    """1/alpha of each alpha, refusing NaN, one outside (0, 1] and one whose 1/alpha overflows."""
    alphas = np.asarray(alphas, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_alpha = 1.0 / alphas
    bad = ~((0.0 < alphas) & (alphas <= 1.0) & np.isfinite(inv_alpha))
    if bad.any():
        raise ValueError(f"alpha must lie in (0, 1] with a finite reciprocal, "
                         f"got {alphas[bad][0]}")
    return inv_alpha


class _RequirementMatrix:
    """Bandwidths a set of users needs, for many independent problems at once.

    Problem k offers the users rates[k] under the weighting exponent
    alphas[k], each in (0, 1] with a finite reciprocal. Called with a
    willingness target per problem, it returns the users x problems matrix of
    bandwidths at which h(rate) * w(guarantee) reaches that target: with q =
    target / h(rate), the Prelec inverse tau = (-ln q)^(1/alpha) makes the
    guarantee target exp(-tau), inverted by _efficiency_root; 0 only at a
    zero target and inf where q reaches w(sup), the weighted wide-band
    supremum. Only the supremum and what follows from it are per user. Where
    q is subnormal or underflows to 0 for a positive target, ln q is ln
    target - ln h; where tau or its ratio to ln sup overflows, lc =
    log(tau/-ln sup) is log tau - log(-ln sup). A price target at alpha = 1
    gives bitwise _Users.price_requirements, since x ** 1.0 is exact and
    w(sup) is then the supremum itself; it is min_bandwidth_for_user only to
    a few ulps, as numpy's log, log1p and expm1 can round apart from math's
    (test_game bounds the gap by 8 eps kappa). Made by _Users.at, with
    membership, a users x problems bool array, as per-problem data (every
    user by default): a non-member's requirement and slope are +0.0, so a
    total over users is bitwise the members' sum in user order.
    """

    def __init__(self, users: _Users, rates_bps, alphas, members=True) -> None:
        rates, alphas = np.broadcast_arrays(*(np.array(v, dtype=float, ndmin=1)
                                              for v in (rates_bps, alphas)))
        self._fill(users, rates, alphas, _reciprocals(alphas), members)

    def _fill(self, users: _Users, rates, alphas, inv_alpha, members) -> None:
        """Set the problems' rate and users data, for alphas already checked."""
        self._users, self.rates, self._alphas, self._inv_alpha = users, rates, alphas, inv_alpha
        # full-size exponents: numpy powers a one-problem matrix's broadcast
        # exponent in another kernel, at times an ulp apart from a batch's, and
        # takes a broadcast exponent of 0.5 as a square root
        self._exp = np.full(rates.shape, users.benefit.exponent)
        self.benefit = users.benefit.coefficient * np.power(rates * 1e-3, self._exp)
        self.ln_sup = _ln_supremum(rates, users.noise, users.power)
        self._rate_ln2 = rates * _LN2
        self._weighted_sup = np.exp(-(-self.ln_sup) ** (np.zeros_like(self.ln_sup) + alphas))
        self.members = np.full(self.ln_sup.shape, members)

    def worst(self) -> np.ndarray:
        """Per problem, m = max_i -ln sup_i of the members (0 with none)."""
        return np.max(-self.ln_sup, axis=0, initial=0.0, where=self.members)

    def caps(self, alphas=None) -> np.ndarray:
        """Per problem, the level h*exp(-m^alpha), m = worst(), no band reaches
        (the members' minimum h*w(sup_i): power and exp are monotone), at the
        problems' alphas or at alphas broadcast against the problems."""
        # full-size operands, as for _weighted_sup
        worst, alphas = map(np.array, np.broadcast_arrays(
            self.worst(), self._alphas if alphas is None else alphas))
        return self.benefit * np.exp(-np.power(worst, alphas))

    def levels(self, log_tau) -> np.ndarray:
        """Per problem, the level h*exp(-tau^alpha) of tau = exp(log_tau) (with_tau_slopes)."""
        with np.errstate(over="ignore"):
            return self.benefit * np.exp(-np.exp(self._alphas * log_tau))

    def columns(self, keep) -> _RequirementMatrix:
        """The evaluator of the problems that the index array keep picks."""
        sub = object.__new__(_RequirementMatrix)
        for name, value in vars(self).items():
            setattr(sub, name, value if name == "_users" else value[..., keep])
        return sub

    def at_rates(self, rates, keep) -> _RequirementMatrix:
        """The evaluator of the problems that the index array keep picks, at
        rates, one per kept problem, instead of their own: bitwise
        _Users.at(rates, their alphas, their members), without checking
        the alphas again."""
        sub = object.__new__(_RequirementMatrix)
        sub._fill(self._users, rates, self._alphas[keep], self._inv_alpha[keep],
                  self.members[:, keep])
        return sub

    def _ln_share(self, targets, q):
        """ln q, taken as ln target - ln h where q = target/h is below the
        smallest normal float, where the quotient keeps few bits or none."""
        ln_q = np.log(q)
        low = q < _TINY_NORMAL
        if not low.any():
            return ln_q
        return np.where(low, np.log(targets) - np.log(self.benefit), ln_q)

    def margins(self, targets, elasticity) -> tuple[np.ndarray, np.ndarray]:
        """Each user's reach margin m = ln h - ln target - (-ln sup_i)^alpha,
        positive where need is finite, and its derivative in ln rate,
        e - elasticity - alpha*(-ln sup_i)^alpha, with elasticity and e as in
        with_rate_slopes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # a full-size exponent, as for _weighted_sup
            alpha = np.zeros_like(self.ln_sup) + 1.0 / self._inv_alpha
            sup_power = (-self.ln_sup) ** alpha
            margin = np.log(self.benefit) - np.log(targets) - sup_power
            return margin, self._exp - elasticity - sup_power / self._inv_alpha

    def __call__(self, targets) -> np.ndarray:
        """The users x problems requirements at one willingness target per problem."""
        return self._pass(targets)[0]

    def with_slopes(self, targets) -> tuple[np.ndarray, np.ndarray]:
        """self(targets) and d need/d ln target, from one pass.

        y = rate*ln2/need is the root of log(expm1(y)/y) = lc that
        _efficiency_root solved, with lc = log(ln target/ln sup), so y
        moves by 1/g'(y), g'(y) = 1/(1 - e^-y) - 1/y, per unit of lc, and lc
        by 1/(alpha*ln q) per unit of ln target. Hence
        d need/d ln target = -(rate*ln2)/(y^2*g'(y))/(alpha*ln q). Not finite
        where need is 0 or inf; a non-member's slope is +0.0.
        """
        return self._pass(targets, level=True)

    def with_rate_slopes(self, targets, elasticity) -> tuple[np.ndarray, np.ndarray]:
        """self(targets) and d need/d ln rate, from one pass, where each
        problem's target moves with its rate by elasticity = d ln target/d ln
        rate.

        With ln q held, ln sup is linear in the rate, so lc falls by 1 per
        unit of ln rate and y = rate*ln2/need rises by 1/g'(y); ln q itself
        moves by elasticity - e, e the benefit exponent, and lc by
        1/(alpha*ln q) per unit of it. Hence, with s = need/(y*g'(y)),
        d need/d ln rate = need + s*(1 - (elasticity - e)/(alpha*ln q)):
        the with_slopes term times elasticity - e, plus need*(1 + 1/(y*g'(y))).
        Not finite where need is 0 or inf.
        """
        return self._pass(targets, elasticity=elasticity)

    def with_tau_slopes(self, log_tau) -> tuple[np.ndarray, np.ndarray]:
        """The requirements at the guarantee target exp(-tau), tau =
        exp(log_tau), and d need/d log tau, from one pass without alpha: lc
        moves by 1 per unit of log tau, so the slope is -(rate*ln2)/(y^2*g'(y))."""
        return self._pass(log_tau, tau=True)

    def _pass(self, targets, level=False, elasticity=None, tau=False):
        """The evaluator's one pass: the requirements at targets (log tau with
        tau) and, for with_slopes (level), with_tau_slopes (tau) or
        with_rate_slopes (elasticity), their slopes; None otherwise."""
        targets = np.asarray(targets)
        outside = ~self.members
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if tau:
                power = np.exp(targets)
                out_of_reach, zero = power <= -self.ln_sup, targets == np.inf
            else:
                q = targets / self.benefit
                ln_q = self._ln_share(targets, q)
                power = (-ln_q) ** self._inv_alpha
                out_of_reach, zero = q >= self._weighted_sup, targets <= 0.0
            lc = _log_ratio(-power, self.ln_sup, np)
            big = np.isinf(lc)
            if big.any():
                # tau = (-ln q)^(1/alpha) or its ratio to ln sup overflowed
                log_tau = targets if tau else self._inv_alpha * np.log(-ln_q)
                lc = np.where(big, log_tau - np.log(-self.ln_sup), lc)
            need = self._rate_ln2 / _efficiency_root(lc)
            need = np.where(out_of_reach, np.inf, np.where(zero, 0.0, need))
            np.copyto(need, 0.0, where=outside)
            if level or tau:
                # d lc/d ln x is 1/(alpha*ln q), d lc/d log tau is 1
                y = self._rate_ln2 / need
                slope = need * need / (self._rate_ln2 * _efficiency_slope(y)
                                       * (1.0 if tau else ln_q))
                slope = -slope * (1.0 if tau else self._inv_alpha)
                np.copyto(slope, 0.0, where=outside)
            elif elasticity is not None:
                y = self._rate_ln2 / need
                s = need * need / (self._rate_ln2 * _efficiency_slope(y))
                slope = need + s * (1.0 - (elasticity - self._exp) * self._inv_alpha / ln_q)
            else:
                slope = None
        return need, slope


class _Users:
    """Some users' channel parameters, gathered once into columns, with the
    pricing and the benefit law that they share.

    The one place a bandwidth requirement is inverted in numpy: at(rates,
    alphas) makes the cheap per-problem evaluator over these columns.
    order, the one user ranking, sorts them by s = N0/P (a requirement rises
    with s at every target), tied channels by index; served and kept sets are
    its prefixes.
    """

    def __init__(self, scenario: Scenario, users=None) -> None:
        self.pricing, self.benefit = scenario.pricing, scenario.benefit
        picked = scenario.users if users is None else [scenario.users[i] for i in users]
        rows = np.array([(ch.noise_psd_w_per_hz, ch.received_power_w)
                         for ch in picked]).reshape(-1, 2)
        # one contiguous users x 1 column per parameter
        self.noise, self.power = rows.T[:, :, None].copy()
        self.order = np.argsort((self.noise / self.power)[:, 0], kind="stable")

    def kept(self, drops) -> np.ndarray:
        """users x len(drops) membership: all but the drops[k] last users of order."""
        return np.argsort(self.order)[:, None] < self.order.size - np.asarray(drops)

    def at(self, rates_bps, alphas, members=True) -> _RequirementMatrix:
        """Evaluator of the problems rates_bps x alphas, one 1-D array, and their members."""
        return _RequirementMatrix(self, rates_bps, alphas, members)

    def price_requirements(self, rates_bps, slopes=False):
        """Each user's min_bandwidth_for_user at each rate, inf where unservable:
        a users vector for a float rate, users x rates for a 1-D array; with
        slopes, also d need/d ln rate, from the same pass.

        Bitwise the column of at(rate, 1.0)(r(rate)) at a positive price, but
        cheaper: each price is the float r(rate), the Prelec powers are left
        out (x ** 1.0 is exact) and a positive target needs no zero mask. The
        slope is with_rate_slopes' at the price's exponent, with x the root
        the need came from; not finite where the need is inf.
        """
        rates = np.array(rates_bps, dtype=float, ndmin=1)
        prices = np.array([self.pricing(b) for b in rates.tolist()])
        h = self.benefit
        # numpy's power on an exponent array, as at(), where Python's ** can
        # round an ulp apart
        q = prices / (h.coefficient * np.power(rates * 1e-3, np.full(rates.shape, h.exponent)))
        ln_q, ln_sup = np.log(q), _ln_supremum(rates, self.noise, self.power)
        x = _spectral_efficiency(ln_q, ln_sup, np)
        need = np.where(q >= np.exp(ln_sup), np.inf, rates * _LN2 / x)
        shape = need.shape[:1] + np.shape(rates_bps)
        if not slopes:
            return need.reshape(shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rising = 1.0 - (self.pricing.exponent - h.exponent) / ln_q
            slope = need + need / (x * _efficiency_slope(x)) * rising
        return need.reshape(shape), slope.reshape(shape)


def _feasible(total_required, budget: float):
    """Whether each total fits the budget: strictly below it less the slack."""
    return total_required < budget * (1.0 - FEASIBILITY_SLACK)


# rates per requirement evaluation of a ladder: from 1 bps, one call reaches
# 2^31 bps, past every boundary of the bundled scenarios
_RUNGS_PER_CALL = 32
def _rate_feasibility_interval(probe, fits, value, slope, scenario: Scenario, known=(),
                               rounding=None, then=None) -> tuple[float, float] | None:
    """Rates b at which fits(b), the n cheapest users fitting in the band,
    holds, as (lower, upper), or None; probe, fits, value, slope and known
    read a memo of probed rates as _search._bisect_edge takes them.

    The summed requirement grows with the rate for increasing r/h ratios, so
    the feasible rates usually form an interval anchored at 0, found by
    trying 1 bps and then its halvings down to 2^-30. When the price grows
    more slowly than the benefit, r/h grows without bound as the rate goes to
    0 and the interval starts above it: the probe then climbs by doublings
    until the rates fit or the margin r(b) - c1*b stops being positive, and
    the lower edge is bisected as well. From the lowest rate that fits, the
    ladder doubles up to 1e18 and the upper edge is bisected, its Newton
    started from the two rungs about it; where the rung below is the lower
    edge, whose slope points away, from the rung past it. Rates are read one
    at a time; a rung the memo misses is probed with the rungs its ladder
    would read after it, _RUNGS_PER_CALL in all. then(lower, boundary) names
    rates to probe with the upper edge's predicted path (solve_nash's b*).

    Where the price's exponent is at least the benefit's, q = r/h does not
    fall as b rises, so no requirement does, and given rounding, a bound
    gamma on a computed total's relative roundoff, the upper edge's
    bisection infers its far midpoints (_search._bisect_edge's blur). beta
    bounds each requirement's roundoff as a shift of ln b: ln q carries some
    6 ulps of q over |ln q| and the inversion some 4 ulps, each at most such
    a shift, since a requirement's elasticity in b is at least 1 where q
    does not fall. beta = 32*(1 + 1/|ln q|)*2^-52, with q at the bracket's
    end hi, where it is largest, covers them three times over.
    """
    def rung(b, factor, more):
        # fits at rung b of a ladder that goes on past a rung while more holds
        fit = fits(b)
        if fit is None:
            rungs = [b]
            while len(rungs) < _RUNGS_PER_CALL and more(rungs[-1]):
                rungs.append(factor * rungs[-1])
            probe(rungs)
            fit = fits(b)
        return fit

    below_cap, above_floor = (lambda b: 2.0 * b <= 1e18), (lambda b: b > 1e-9)
    lower, lo = 0.0, 1.0
    if not rung(lo, 2.0, below_cap):
        while not rung(lo, 0.5, above_floor) and lo > 1e-9:
            lo *= 0.5
        if not fits(lo):
            pays = lambda b: scenario.pricing(b) > scenario.cost.c1 * b and b <= 1e18
            below, lo = 1.0, 2.0
            while not rung(lo, 2.0, pays):
                if not pays(lo):
                    return None
                below, lo = lo, 2.0 * lo
            _, lower = _search._bisect_edge(probe, fits, value, slope, below, lo, known=known)
            lo = lower
    hi = 2.0 * lo
    while hi <= 1e18 and rung(hi, 2.0, below_cap):
        hi *= 2.0
    blur = None
    if rounding is not None and scenario.pricing.exponent >= scenario.benefit.exponent:
        q = scenario.pricing(hi) / scenario.benefit(hi)
        if q < 1.0:
            blur = 32.0 * (1.0 - 1.0 / math.log(q)) * _EPS, rounding
    start = (0.5 * hi, hi) if 0.5 * hi > lo else None
    lo, _ = _search._bisect_edge(probe, fits, value, slope, lo, hi, start, known, blur,
                                 then and (lambda a, b: then(lower, a)))
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
    the best revenue is >= the bound n*m* - c3*B of the next n (m* from
    _margin_bound), and either it is positive or some n scanned earned >= 0
    (a disqualified n earns 0): a smaller set could at best tie, and only a
    strictly larger revenue displaces a larger set, so the result is bitwise
    the full scan's. Returns a no-equilibrium result (equilibrium=False) when
    every n earns <= 0; its sp_revenue is then the largest revenue over every
    n, which no n left unscanned could exceed, its bound being <= 0.

    Every rate is read from one memo, which keeps each probed rate's
    requirement totals over the first n users of _Users.order and their
    slopes in ln b, for every n, and its column of the evaluation that
    probed it. Each feasibility edge is a Newton root of ln T_n(b) - ln(B*(1
    - slack)) that aims the bisection (_search._bisect_edge); where the
    price rises at least as fast as the benefit, the bisection's far
    midpoints are inferred, with gamma = (n + 2)*2^-52 for the n users'
    running sum and its ratio to the band. b*, the golden search's rate on
    the edge's predicted interval, is probed with the edge's path. The
    served users' need at the best rate is that rate's column, bitwise a
    fresh evaluation's.
    """
    n_users = scenario.n_users
    budget = scenario.total_bandwidth_hz
    price, c1, c3 = scenario.pricing, scenario.cost.c1, scenario.cost.c3
    reqs = _Users(scenario)
    room = budget * (1.0 - FEASIBILITY_SLACK)
    # each probed rate's evaluation, (totals over the first n users of order,
    # their derivatives in ln b, users x rates requirements), and its column
    # there; the probed rates, ascending
    probed: dict[float, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]] = {}
    known: list[float] = []

    def probe(rates):
        # the ladders and bisections of several set sizes probe the same rates:
        # each new rate is evaluated once, all of a call's in one evaluation
        new = [b for b in dict.fromkeys(rates) if b not in probed]
        if new:
            need, slopes = reqs.price_requirements(new, slopes=True)
            with np.errstate(invalid="ignore"):
                evaluation = (np.cumsum(need[reqs.order].T, axis=1),
                              np.cumsum(slopes[reqs.order].T, axis=1), need)
            probed.update(zip(new, zip([evaluation] * len(new), range(len(new)))))
            known.extend(new)
            known.sort()

    def readers(n: int):
        # whether the first n users fit at b, ln T_n(b) - ln(B*(1 - slack)),
        # below 0 where they do, and d ln T_n/d ln b, read from the memo
        j = n - 1

        def fits(b):
            at = probed.get(b)
            return _feasible(at[0][0][at[1], j], budget) if at else None

        def value(b):
            at = probed.get(b)
            if not at:
                return math.nan
            t = float(at[0][0][at[1], j])
            return math.log(t / room) if t > 0.0 else -math.inf

        def slope(b):
            at = probed.get(b)
            if not at:
                return math.nan
            t = float(at[0][0][at[1], j])
            return float(at[0][1][at[1], j]) / t if t > 0.0 else math.nan
        return fits, value, slope

    bound = _margin_bound(price, c1)

    n_star, best_rev, best_rate, top = 0, 0.0, 0.0, -math.inf
    for n in range(n_users, 0, -1):
        if (n_star or top >= 0.0) and best_rev >= n * bound - c3 * budget:
            break
        peaks: dict[tuple[float, float], float] = {}

        def peak(lower, boundary):
            # b*, on each interval once: the predicted one, then the found one
            if (lower, boundary) not in peaks:
                peaks[lower, boundary], _ = _search.golden_max(
                    lambda b: n * _margin(price, c1, b), lower, boundary, rel_tol=1e-9)
            return peaks[lower, boundary]

        def then(lower, boundary):
            # b* on the edge's predicted interval, probed with its path
            b_star = peak(lower, boundary)
            return [b_star] if b_star > 0.0 else []

        fits, value, slope = readers(n)
        interval = _rate_feasibility_interval(probe, fits, value, slope, scenario, known,
                                              (n + 2) * _EPS, then)
        if interval is None:
            continue
        lower, boundary = interval
        b_star = peak(lower, boundary)
        if b_star > 0.0:
            probe([b_star])
        if b_star <= 0.0 or not fits(b_star):
            # boundary end may sit epsilon outside the strict constraint
            b_star = boundary
            probe([b_star])
        rev = _revenue(scenario, n, price(b_star), b_star)
        if n < n_users and readers(n + 1)[0](b_star):
            rev = 0.0  # a larger set accepts at this rate, not an equilibrium
        top = max(top, rev)
        if rev > best_rev:
            n_star, best_rev, best_rate = n, rev, b_star
    if n_star == 0:
        return NashResult(rate_bps=0.0, served_set=(), allocation=(0.0,) * n_users,
                          price=0.0, sp_revenue=top, equilibrium=False)

    served = tuple(sorted(reqs.order[:n_star].tolist()))
    # a column of an evaluation is bitwise its rate's own vector
    (_, _, need), k = probed[best_rate]
    served_need = need[list(served), k].tolist()
    # hand the whole band to the served users: every acceptance strict, and the
    # reported revenue (which charges c3 on the full endowment) matches
    # sp_utility on the returned offer exactly
    pad = (budget - float(_total(served_need))) / n_star
    allocation = _spread(scenario, served, served_need, pad)
    return NashResult(rate_bps=best_rate, served_set=served, allocation=allocation,
                      price=price(best_rate), sp_revenue=best_rev, equilibrium=True)
