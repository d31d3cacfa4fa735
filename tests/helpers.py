"""Seeded property checks shared between the module tests and the acceptance suite.

Each checker draws its own inputs from a numpy Generator so the module tests
can run them at modest sample counts while the acceptance suite reruns the
same code at 10^3 samples.  All randomness is explicit: a checker called twice
with the same seed exercises identical inputs.
"""

import math
import sys
from dataclasses import replace

import numpy as np

from prospect_pricing import _search, channel, experiments, game, prospect
from prospect_pricing.channel import (
    LinkBudget,
    UnattainableGuaranteeError,
    channel_from_budget,
    dbm_to_watts,
    guarantee_supremum,
    min_bandwidth,
    service_guarantee,
    watts_to_dbm,
)
from prospect_pricing.game import (
    CostModel,
    NashResult,
    Offer,
    PowerLaw,
    Scenario,
    min_bandwidth_for_user,
    solve_nash,
    sp_utility,
    willingness,
)
from prospect_pricing.prospect import (
    PRICE_EPS_REL,
    STRATEGY_IDS,
    StrategyOutcome,
    equalized_willingness,
    loss_strict_rrm,
    loss_with_reallocation,
    ne_preserved,
    strategy_threshold,
)
from prospect_pricing.weighting import (
    IDENTITY,
    Lottery,
    WeightingModel,
    inverse_weight,
    lottery_value,
    weight,
)

INV_E = math.exp(-1.0)

STD_PRICING = PowerLaw(coefficient=2e-3, exponent=0.82)
STD_BENEFIT = PowerLaw(coefficient=1e-2, exponent=0.65)
STD_COST = CostModel(c1=(1.0 / 3.0) * 1e-6, c3=1e-8)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_reference(f, lo, hi, rel_tol=1e-9, max_iter=200):
    """The one-bracket golden-section loop, as it stood before arrays were
    accepted: the reference for _search.golden_max and the rate-control oracle."""
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
    cands = [(f(a), a), (f1, x1), (f2, x2), (f(b), b)]
    fx, x = max(cands)
    return x, fx


def gathered_chandrupatla(f, lo, hi, f_lo, f_hi, rel_tol=1e-10, max_iter=100):
    """_search.bracketed_root as it stood when it kept every bracket's state
    at full length, gathering and scattering it by the open index on every
    step: the reference for the points the search takes and its cap warning."""
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = np.array(f_lo, dtype=float), np.array(f_hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(np.isfinite(f1) & np.isfinite(f2), f1 / (f1 - f2), 0.5)
    open_ = np.arange(x1.size)
    for step in range(max_iter + 1):
        p1, p2 = x1[open_], x2[open_]
        width = np.abs(p2 - p1)
        tol = rel_tol * np.maximum(np.maximum(np.abs(p1), np.abs(p2)), 1.0)
        wide = width > tol
        open_, p1, p2, width, tol = open_[wide], p1[wide], p2[wide], width[wide], tol[wide]
        if not open_.size:
            break
        if step == max_iter:
            _search._warn_cap("bracketed_root", max_iter, rel_tol)
            break
        tl = 0.5 * tol / width
        x = p1 + np.clip(t[open_], tl, 1.0 - tl) * (p2 - p1)
        fx = f(x, open_)
        q1, q2 = f1[open_], f2[open_]
        same = (fx < 0.0) == (q1 < 0.0)
        p3, q3 = np.where(same, p1, p2), np.where(same, q1, q2)
        p2, q2 = np.where(same, p2, p1), np.where(same, q2, q1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi, phi = (x - p2) / (p3 - p2), (fx - q2) / (q3 - q2)
            quadratic = (fx / (q2 - fx) * q3 / (q2 - q3)
                         + (p3 - x) / (p2 - x) * fx / (q3 - fx) * q2 / (q3 - q2))
        t[open_] = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), quadratic, 0.5)
        x1[open_], f1[open_], x2[open_], f2[open_] = x, fx, np.where(fx == 0.0, x, p2), q2
    return np.fmin(x1, x2), np.fmax(x1, x2)


def compensated_sum(iterable, /, start=0):
    """The builtin sum() as CPython 3.12 computes it (builtin_sum_impl).

    Exact ints add exactly; from the first exact float on, floats add with
    Neumaier's compensation, and the compensation joins the result at the
    end only when it is nonzero and finite. Ints keep the float path as
    plain doubles; anything else falls back to generic addition. Up to 3.11
    the float path adds left to right without compensation, so a float sum
    can differ between the two in its last bits.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def make_budget(distance_m, shadow_db=0.0):
    return LinkBudget(
        tx_power_dbm=40.0,
        antenna_const_db=-64.5,
        pathloss_exponent=4.0,
        distance_m=distance_m,
        ref_distance_m=20.0,
        shadow_db=shadow_db,
        noise_psd_dbm_per_hz=-174.0,
    )


def make_channel(distance_m, shadow_db=0.0):
    return channel_from_budget(make_budget(distance_m, shadow_db))


def served_offer(res):
    """The offer actually extended in equilibrium: served users only."""
    return Offer(rate_bps=res.rate_bps, price=res.price,
                 allocation=tuple(res.allocation[i] for i in res.served_set))


# ---------------------------------------------------------------------------
# weighting


def check_weight_monotone(n, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 1.0, size=n)
    lo = rng.uniform(1e-6, 1.0 - 2e-6, size=n)
    hi = lo + rng.uniform(1e-9, 1.0, size=n) * (1.0 - 1e-6 - lo)
    for a, p, q in zip(alphas, lo, hi):
        model = WeightingModel(alpha=float(a))
        assert weight(float(p), model) < weight(float(q), model)


def check_weight_regions(n, seed):
    # alpha < 1 inflates small probabilities and deflates large ones
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 0.999, size=n)
    small = rng.uniform(1e-6, INV_E - 1e-6, size=n)
    large = rng.uniform(INV_E + 1e-9, 1.0 - 1e-9, size=n)
    for a, p, q in zip(alphas, small, large):
        model = WeightingModel(alpha=float(a))
        assert weight(float(p), model) > p
        assert weight(float(q), model) < q


def check_inverse_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 1.0, size=n)
    ps = rng.uniform(1e-9, 1.0, size=n)
    for a, p in zip(alphas, ps):
        model = WeightingModel(alpha=float(a))
        q = weight(float(p), model)
        assert abs(inverse_weight(q, model) - p) <= 1e-12
    # the forward direction pushes the intermediate towards 1 at small alpha,
    # where doubles cannot hold it; check it on the representable regime
    fwd_alphas = rng.uniform(0.5, 1.0, size=n)
    fwd_ps = rng.uniform(1e-9, 0.9, size=n)
    for a, p in zip(fwd_alphas, fwd_ps):
        model = WeightingModel(alpha=float(a))
        assert abs(weight(inverse_weight(float(p), model), model) - p) <= 1e-12


def check_fixed_points(n, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 1.0, size=n)
    for a in alphas:
        model = WeightingModel(alpha=float(a))
        assert abs(weight(INV_E, model) - INV_E) <= 1e-12
        assert weight(1.0, model) == 1.0


def check_lottery_identity(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(1, 5))
        payoffs = rng.uniform(-100.0, 100.0, size=k)
        probs = rng.uniform(0.05, 1.0, size=k)
        probs = probs / probs.sum()
        outcomes = tuple((float(x), float(p)) for x, p in zip(payoffs, probs))
        lot = Lottery(outcomes=outcomes)
        expected = sum(x * p for x, p in outcomes)
        assert abs(lottery_value(lot, IDENTITY) - expected) <= 1e-9 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# channel


def check_db_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    dbs = rng.uniform(-180.0, 60.0, size=n)
    for v in dbs:
        assert abs(watts_to_dbm(dbm_to_watts(float(v))) - v) <= 1e-12 * max(1.0, abs(v))


def check_guarantee_monotone(n, seed):
    rng = np.random.default_rng(seed)
    dists = rng.uniform(50.0, 780.0, size=n)
    shadows = rng.normal(0.0, 4.0, size=n)
    rates = rng.uniform(1e6, 2e7, size=n)
    bws = rng.uniform(2e5, 2e7, size=n)
    strict = 0
    for d, s, b, bw in zip(dists, shadows, rates, bws):
        ch = make_channel(float(d), float(s))
        base = service_guarantee(float(b), float(bw), ch)
        up_rate = service_guarantee(float(b) * 1.01, float(bw), ch)
        up_bw = service_guarantee(float(b), float(bw) * 1.01, ch)
        assert up_rate <= base
        assert up_bw >= base
        if 1e-9 < base < 1.0 - 1e-9:
            assert up_rate < base
            assert up_bw > base
            strict += 1
    # the sampling ranges keep a sizable share of draws off the saturated tails
    assert strict >= n // 4


def check_min_bandwidth_consistency(n, seed):
    rng = np.random.default_rng(seed)
    dists = rng.uniform(100.0, 700.0, size=n)
    shadows = rng.normal(0.0, 4.0, size=n)
    rates = rng.uniform(2e6, 1.2e7, size=n)
    targets = rng.uniform(0.5, 0.99, size=n)
    for d, s, b, t in zip(dists, shadows, rates, targets):
        ch = make_channel(float(d), float(s))
        # keep the target attainable at both probed rates; the supremum
        # falls as the rate grows, so clamp against the higher rate too
        sup_hi = guarantee_supremum(float(b) * 1.05, ch)
        t = min(float(t), sup_hi - 0.02)
        if t <= 0.05:
            continue
        mb = min_bandwidth(float(b), t, ch)
        achieved = service_guarantee(float(b), mb, ch)
        assert abs(achieved - t) <= 1e-7
        # tightening either requirement can only cost bandwidth
        assert min_bandwidth(float(b), min(t + 0.005, 0.999), ch) > mb
        assert min_bandwidth(float(b) * 1.05, t, ch) > mb


# ---------------------------------------------------------------------------
# game


def random_small_scenario(rng, n_users=None):
    """Random 1-3 user scenario with the standard economics.

    The band is scaled around the aggregate requirement at the unconstrained
    revenue-optimal rate so both binding and slack budgets occur.
    """
    from prospect_pricing.experiments import unconstrained_optimal_rate

    if n_users is None:
        n_users = int(rng.integers(1, 4))
    channels = []
    for _ in range(n_users):
        d = float(rng.uniform(50.0, 790.0))
        s = float(rng.normal(0.0, 4.0))
        channels.append(make_channel(d, s))
    b_opt = unconstrained_optimal_rate(STD_PRICING, STD_COST)
    target = STD_PRICING(b_opt) / STD_BENEFIT(b_opt)
    # users beyond reach at the optimal rate stay in the scenario (the solver
    # must cope with them) but cannot anchor the band size
    need = 0.0
    for ch in channels:
        try:
            need += min_bandwidth(b_opt, target, ch)
        except UnattainableGuaranteeError:
            pass
    if need == 0.0:
        need = 2e6
    budget = need * float(rng.uniform(0.5, 1.5))
    return Scenario(
        users=tuple(channels),
        benefit=STD_BENEFIT,
        pricing=STD_PRICING,
        cost=STD_COST,
        total_bandwidth_hz=budget,
    )


def required_bandwidth(scenario, rate_bps, i, level, model):
    """Bandwidth giving user i weighted willingness h_i * w(guarantee) == level,
    by the scalar route: inverse_weight, then min_bandwidth.

    The value w(guarantee) must reach is q = level / h_i(rate). Returns inf
    when unattainable and 0 only at a zero level. The oracle of the numpy
    requirement matrix. Where the raw target underflows (levels below about
    1e-200 at alpha 0.85), its log, -(-ln q)^(1/alpha), goes to
    min_bandwidth's kernel instead, as the matrix keeps it in log space; where
    q itself is subnormal or underflows, ln q is ln level - ln h_i, as in the
    matrix.
    """
    if level <= 0.0:
        return 0.0
    h = scenario.benefit(rate_bps)
    weighted_target = level / h
    if weighted_target >= 1.0:
        return math.inf
    raw_target = inverse_weight(weighted_target, model)
    # at alpha < 1 the inverse can round to 1.0, which min_bandwidth rejects
    if raw_target >= 1.0:
        return math.inf
    if raw_target <= 0.0 or weighted_target < sys.float_info.min:
        ch = scenario.users[i]
        ln_q = (math.log(weighted_target) if weighted_target >= sys.float_info.min
                else math.log(level) - math.log(h))
        ln_raw = -(-ln_q) ** (1.0 / model.alpha)
        ln_sup = channel._ln_supremum(rate_bps, ch.noise_psd_w_per_hz, ch.received_power_w)
        return rate_bps * math.log(2.0) / channel._spectral_efficiency(ln_raw, ln_sup,
                                                                       channel._Scalar)
    try:
        return min_bandwidth(rate_bps, raw_target, scenario.users[i])
    except UnattainableGuaranteeError:
        return math.inf


def reference_efficiency_root(lc):
    """channel._efficiency_root's Newton text, the one its float path runs,
    on numpy with a new array at every operation: the reference that
    channel._newton_arrays, with its buffers and sign folds, must match
    bitwise."""
    lcn = np.maximum(lc, 1e-5)
    x = np.where(lcn < 1.0, channel._series_root(lcn),
                 lcn + np.log(lcn + np.log1p(lcn) + 0.43))
    for _ in range(3):
        one_minus_exp = -np.expm1(-x)
        x = x - (x + np.log(one_minus_exp / x) - lcn) / (1.0 / one_minus_exp - 1.0 / x)
    tiny = lc < 1e-5
    return np.where(tiny, channel._series_root(lc), x) if np.any(tiny) else x


def mp_min_bandwidth(mpmath, rate, target, ch):
    """50-digit root of F(bw) = target, from log(expm1(x)/x) = log c, with
    c = ln(target)/ln(sup).

    With x = rate*ln2/bw the guarantee is ln F = ln sup * expm1(x)/x, and
    e^(x/2) <= expm1(x)/x <= e^x brackets the root x in [log c, 2 log c].
    Solved in log form, the root keeps its tolerance where c is
    astronomically large (raw targets like exp(-1e900) at small alpha).
    """
    with mpmath.workdps(50):
        b, q = mpmath.mpf(rate), mpmath.mpf(target)
        ln_sup = -b * mpmath.log(2) * ch.noise_psd_w_per_hz / ch.received_power_w
        log_c = mpmath.log(mpmath.log(q) / ln_sup)
        x = mpmath.findroot(lambda x: mpmath.log(mpmath.expm1(x) / x) - log_c,
                            (log_c, 2 * log_c), solver="anderson")
        return b * mpmath.log(2) / x


def count_evaluations(monkeypatch):
    """Record (problems, targets) of every requirement evaluation: each pass
    of the evaluator, whether it gives the requirements alone or with their
    slopes (with_slopes, with_rate_slopes), and each call of
    _Users.price_requirements, with a problem per rate whose target is the
    price."""
    calls = []
    evaluate = game._RequirementMatrix._pass
    price_requirements = game._Users.price_requirements

    def counting(self, targets, *args, **kwargs):
        calls.append((np.size(self.rates), np.asarray(targets)))
        return evaluate(self, targets, *args, **kwargs)

    def counting_prices(self, rates_bps, **kwargs):
        rates = np.array(rates_bps, dtype=float, ndmin=1).tolist()
        calls.append((len(rates), np.array([self.pricing(b) for b in rates])))
        return price_requirements(self, rates_bps, **kwargs)
    monkeypatch.setattr(game._RequirementMatrix, "_pass", counting)
    monkeypatch.setattr(game._Users, "price_requirements", counting_prices)
    return calls


def count_level_steps(monkeypatch):
    """Record, per level search (prospect._solve_levels), the problems of
    each evaluator call it makes in sequence, one per lockstep Newton step
    over the roots still open (with_tau_slopes). A search's first entry is
    its number of level problems, one per distinct (rate, band, member
    set) whatever its alphas, and its length its number of evaluator
    calls."""
    searches, inside = [], []
    solve, step = prospect._solve_levels, game._RequirementMatrix.with_tau_slopes

    def counting_search(need, totals, *args, **kwargs):
        searches.append([])
        inside.append(True)
        try:
            return solve(need, totals, *args, **kwargs)
        finally:
            inside.pop()

    def counting_step(self, log_tau):
        if inside:
            searches[-1].append(np.size(self.rates))
        return step(self, log_tau)
    monkeypatch.setattr(prospect, "_solve_levels", counting_search)
    monkeypatch.setattr(game._RequirementMatrix, "with_tau_slopes", counting_step)
    return searches


def count_root_steps(monkeypatch):
    """Record, of every _search.bracketed_root search, the number of lockstep
    steps, each one evaluation of its open brackets, and the number of
    brackets it opens with: returns (steps, brackets)."""
    steps, brackets = [], []
    search = _search.bracketed_root

    def counting(f, lo, *args, **kwargs):
        steps.append(0)
        brackets.append(np.size(lo))

        def counted(x, open_):
            steps[-1] += 1
            return f(x, open_)
        return search(counted, lo, *args, **kwargs)
    monkeypatch.setattr(_search, "bracketed_root", counting)
    return steps, brackets


def count_search_ends(monkeypatch, calls):
    """Record, as each _search.stationary_min search returns, how many
    evaluations calls (of count_evaluations) holds: the search makes none
    after its last root step, so a strategy that takes its result from the
    search's own evaluations makes no evaluation after that number."""
    ends = []
    search = _search.stationary_min

    def recording(*args, **kwargs):
        found = search(*args, **kwargs)
        ends.append(len(calls))
        return found
    monkeypatch.setattr(_search, "stationary_min", recording)
    return ends


def full_grid_comparison(spec):
    """sweep_comparison's level-dependent cells as a search of every grid
    point finds them: one prospect._solve_levels call over the 37 problems
    of each alpha (the offered rate, then the 36-rate grid), one root per
    rate, its levels read without the fit, as the sweep reads them, the
    best grid revenue taken in grid order. Returns (levels, caps, cells):
    the levels and their problems' caps, from an evaluator at each
    problem's alpha, alpha-major, and per alpha the cells
    (rev_expansion_norm, rev_rate_norm)."""
    sc = spec.scenario
    ne = solve_nash(sc)
    ref = experiments.reference_offer(sc, ne, spec.offer_margin)
    b_star, n, eut = ref.rate_bps, ref.n_served, ne.sp_revenue
    rate_grid = [float(b) for b in np.geomspace(1e-3 * b_star, 10.0 * b_star, 36)]
    rates, alphas = [b_star] + rate_grid, spec.alphas()
    rate_col, alpha_col = np.tile(rates, len(alphas)), np.repeat(alphas, len(rates))
    served = game._Users(sc, ref.served_set)
    need = served.at(rate_col, alpha_col)
    levels, caps = prospect._solve_levels(need, sc.total_bandwidth_hz, fit=False), need.caps()
    cells = []
    for x_hat, *grid in levels.reshape(len(alphas), len(rates)).tolist():
        best = -math.inf
        for b, x in zip(rate_grid, grid):
            best = max(best, game._revenue(sc, n, x, b) / eut)
        cells.append((game._revenue(sc, n, x_hat, b_star) / eut, best))
    return levels, caps, cells


def drop_order(scenario, ref):
    """The served users in the order the sweeps deny them, from the scalar
    requirements at the offered rate: the largest first, of equal ones the
    higher index."""
    reqs = {i: _requirement_or_inf(ref.rate_bps, i, scenario) for i in ref.served_set}
    return sorted(ref.served_set, key=lambda i: (-reqs[i], -i))


def per_set_admission(spec, max_drops):
    """sweep_admission's rows as one equalized_levels search per kept set
    finds them, each over an evaluator of the kept users alone."""
    sc = spec.scenario
    ne = solve_nash(sc)
    ref = experiments.reference_offer(sc, ne, spec.offer_margin)
    eut = ne.sp_revenue
    order = drop_order(sc, ref)
    alphas = spec.alphas()
    kept_sets = [tuple(sorted(order[k:])) for k in range(max_drops + 1)]
    caps = [prospect.equalized_levels(sc, kept, ref.rate_bps, alphas,
                                      sc.total_bandwidth_hz).tolist() for kept in kept_sets]
    targets = [prospect.admission_price(sc, ref, len(kept)) for kept in kept_sets]
    rows = []
    for j, a in enumerate(alphas):
        for kept, kept_caps, target in zip(kept_sets, caps, targets):
            cap = kept_caps[j]
            feasible = cap > target
            price = target if feasible else cap - PRICE_EPS_REL * ref.price
            rev = game._revenue(sc, len(kept), price, ref.rate_bps)
            loss = min(1.0, max(0.0, (eut - max(0.0, rev)) / eut))
            rows.append((a, len(kept), price / ref.price, loss, feasible))
    return rows


def survivors_bands(spec):
    """sweep_comparison's admission band before the price-cap test: the
    survivors' summed requirement at the markup, from an evaluator of the
    survivors alone, over the endowment, one per alpha."""
    sc = spec.scenario
    ref = experiments.reference_offer(sc, solve_nash(sc), spec.offer_margin)
    kept = tuple(sorted(drop_order(sc, ref)[1:]))
    markup = prospect.admission_price(sc, ref, len(kept))
    need = game._Users(sc, kept).at(ref.rate_bps, spec.alphas())(markup)
    return (game._total(need) / sc.total_bandwidth_hz).tolist()


def row_bits(rows):
    """Table rows with every cell as its type and, for a float, its exact bits."""
    return [tuple((type(v), v.hex() if type(v) is float else v) for v in row)
            for row in rows]


def count_guarantees(monkeypatch):
    """Record the arguments of every service_guarantee call, through each
    module that binds the function."""
    calls = []

    def counting(*args):
        calls.append(args)
        return service_guarantee(*args)
    for module in (channel, game, prospect, experiments):
        if getattr(module, "service_guarantee", None) is service_guarantee:
            monkeypatch.setattr(module, "service_guarantee", counting)
    return calls


def _requirement_or_inf(rate_bps, i, scenario):
    try:
        return min_bandwidth_for_user(rate_bps, i, scenario)
    except UnattainableGuaranteeError:
        return math.inf


def check_solver_posthoc(scenario, res):
    """Structural invariants on one solve_nash result."""
    n_users = scenario.n_users
    if not res.equilibrium:
        assert res.served_set == ()
        assert res.rate_bps == 0.0
        return
    n = res.n_served
    assert 1 <= n <= n_users
    reqs = [_requirement_or_inf(res.rate_bps, i, scenario) for i in range(n_users)]
    order = sorted(range(n_users), key=lambda i: (reqs[i], i))
    assert set(res.served_set) == set(order[:n])
    served_total = sum(reqs[i] for i in order[:n])
    assert served_total <= scenario.total_bandwidth_hz * (1.0 + 1e-9)
    if n < n_users:
        # no strictly larger set fits at the returned rate
        bigger = served_total + reqs[order[n]]
        assert bigger >= scenario.total_bandwidth_hz * (1.0 - 1e-9)
    assert res.price == scenario.pricing(res.rate_bps)
    direct = sp_utility((1.0,) * n, served_offer(res), scenario)
    assert abs(direct - res.sp_revenue) <= 1e-12 * max(1.0, abs(direct))
    alloc = res.allocation
    assert len(alloc) == n_users
    for i in range(n_users):
        if i in res.served_set:
            assert alloc[i] >= reqs[i] * (1.0 - 1e-12)
        else:
            assert alloc[i] == 0.0
    assert abs(sum(alloc) - scenario.total_bandwidth_hz) <= 1e-9 * scenario.total_bandwidth_hz


def sequential_bisection(pred, lo, hi, rel_tol=1e-12, max_iter=200):
    """The one-point-per-call bisection loop, with no cap warning: pred takes
    one point."""
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1.0):
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def fake_memo(pred, value=lambda b: 0.0, probes=None, seen=(), slope=lambda b: 0.0):
    """A memo of probed rates over a one-rate predicate, as
    game._rate_feasibility_interval and _search._bisect_edge read solve_nash's:
    (probe, fits, value, slope). fits, value and slope read only the rates
    probed so far or given in seen, None and NaN elsewhere; probes, if given,
    records the rates of each probe. A slope of 0, the default, points
    neither way, so no edge estimate counts it."""
    known = set(seen)

    def probe(rates):
        if probes is not None:
            probes.append(list(rates))
        known.update(rates)
    return (probe, lambda b: bool(pred(b)) if b in known else None,
            lambda b: float(value(b)) if b in known else math.nan,
            lambda b: float(slope(b)) if b in known else math.nan)


def sequential_feasibility_interval(fits, scenario):
    """game._rate_feasibility_interval as it stood before its ladders and
    bisections probed many rates per evaluation: one rate at a time, each
    read of fits its own evaluation."""
    lower, lo = 0.0, 1.0
    if not fits(lo):
        while lo > 1e-9 and not fits(lo):
            lo *= 0.5
        if not fits(lo):
            below, lo = 1.0, 2.0
            while not fits(lo):
                if not scenario.pricing(lo) > scenario.cost.c1 * lo or lo > 1e18:
                    return None
                below, lo = lo, 2.0 * lo
            _, lower = sequential_bisection(lambda b: not fits(b), below, lo)
            lo = lower
    hi = 2.0 * lo
    while hi <= 1e18 and fits(hi):
        hi *= 2.0
    lo, hi = sequential_bisection(fits, lo, hi)
    return lower, lo


def full_scan_nash(scenario):
    """solve_nash as it stood before the scan was pruned and before its
    probes were batched: every set size n from N down to 1 is solved, one
    rate per requirement vector (sequential_feasibility_interval), and the
    pick is made over all of them. The reference solve_nash must match
    bitwise."""
    n_users = scenario.n_users
    budget = scenario.total_bandwidth_hz
    price, c1, c3 = scenario.pricing, scenario.cost.c1, scenario.cost.c3
    reqs = game._Users(scenario)
    # each rate's sorted running totals, inverted once however many set sizes read them
    totals = {}

    def fits(b, n):
        if b not in totals:
            totals[b] = np.cumsum(np.sort(reqs.price_requirements(b)))
        return game._feasible(float(totals[b][n - 1]), budget)

    best_rates = [None] * (n_users + 1)
    per_n = [0.0] * (n_users + 1)
    for n in range(n_users, 0, -1):
        interval = sequential_feasibility_interval(lambda b: fits(b, n), scenario)
        if interval is None:
            per_n[n] = -math.inf
            continue
        lower, boundary = interval
        b_star, _ = _search.golden_max(
            lambda b: n * (price(b) - c1 * b), lower, boundary, rel_tol=1e-9)
        if b_star <= 0.0 or not fits(b_star, n):
            b_star = boundary
        best_rates[n] = b_star
        per_n[n] = n * (price(b_star) - c1 * b_star) - c3 * budget
        if n < n_users and fits(b_star, n + 1):
            per_n[n] = 0.0

    n_star, best_rev = 0, 0.0
    for n in range(n_users, 0, -1):
        if per_n[n] > best_rev:
            n_star, best_rev = n, per_n[n]
    if n_star == 0:
        return NashResult(rate_bps=0.0, served_set=(), allocation=(0.0,) * n_users,
                          price=0.0, sp_revenue=max(x for x in per_n[1:]),
                          equilibrium=False)

    b_star = best_rates[n_star]
    need = reqs.price_requirements(b_star).tolist()
    order = sorted(range(n_users), key=lambda i: (need[i], i))
    served = tuple(sorted(order[:n_star]))
    served_total = float(game._total([need[i] for i in served]))
    pad = (budget - served_total) / n_star
    allocation = tuple(need[i] + pad if i in served else 0.0 for i in range(n_users))
    return NashResult(rate_bps=b_star, served_set=served, allocation=allocation,
                      price=price(b_star),
                      sp_revenue=n_star * (price(b_star) - c1 * b_star) - c3 * budget,
                      equilibrium=True)


def brute_force_nash(scenario: Scenario, grid_resolution: int = 2000) -> NashResult:
    """Exhaustive oracle: enumerate served subsets on a dense rate grid.

    Each subset is allocated its per-user minimum bandwidths; the revenue
    maximizer wins. Only for small instances. One evaluation inverts every
    user at every grid rate, and every subset's totals come from one users x
    subsets x rates array holding 0 for non-members: adding 0.0 is exact, and
    masking holds an unservable user's inf (inf * 0 is NaN) out of the rest.
    """
    n_users = scenario.n_users
    if n_users > 4:
        raise ValueError(f"brute force limited to 4 users, got {n_users}")
    price, c1 = scenario.pricing, scenario.cost.c1
    budget = scenario.total_bandwidth_hz

    # profitable rates live below the break-even point r(b) = c1*b
    hi = 1.0
    while price(hi) > c1 * hi and hi < 1e18:
        hi *= 2.0

    subsets = [tuple(i for i in range(n_users) if mask & (1 << i))
               for mask in range(1, 1 << n_users)]
    members = np.array([[[i in subset] for subset in subsets] for i in range(n_users)])
    rates = [hi * k / grid_resolution for k in range(1, grid_resolution + 1)]
    prices = [price(b) for b in rates]
    need = game._Users(scenario).at(rates, 1.0)(np.array(prices))
    totals = game._total(np.where(members, need[:, None, :], 0.0)).tolist()
    best_rev, best_n, best_subset, best_k = -math.inf, 0, (), 0
    for k, (b, p) in enumerate(zip(rates, prices)):
        for subset, total in zip(subsets, totals):
            if not game._feasible(total[k], budget):
                continue
            rev = game._revenue(scenario, len(subset), p, b)
            if rev > best_rev or (rev == best_rev and len(subset) > best_n):
                best_rev, best_n, best_subset, best_k = rev, len(subset), subset, k

    if best_n == 0 or best_rev <= 0.0:
        return NashResult(rate_bps=0.0, served_set=(), allocation=(0.0,) * n_users,
                          price=0.0, sp_revenue=best_rev,
                          equilibrium=False)
    reqs = need[:, best_k].tolist()
    allocation = game._spread(scenario, best_subset, [reqs[i] for i in best_subset])
    return NashResult(rate_bps=rates[best_k], served_set=best_subset, allocation=allocation,
                      price=prices[best_k], sp_revenue=best_rev, equilibrium=True)


def nash_bits(res):
    """A NashResult's fields with every float as its exact bit pattern."""
    hexed = lambda x: x.hex() if isinstance(x, float) else x
    return (hexed(res.rate_bps), res.served_set, tuple(map(hexed, res.allocation)),
            hexed(res.price), hexed(res.sp_revenue), res.equilibrium)


def check_solver_random_scenarios(n, seed):
    rng = np.random.default_rng(seed)
    solved = 0
    for _ in range(n):
        scenario = random_small_scenario(rng)
        res = solve_nash(scenario)
        check_solver_posthoc(scenario, res)
        if res.equilibrium:
            solved += 1
    assert solved >= max(1, n // 2)


def check_mean_acceptance_invariance(n, seed, scenario, res):
    """sp_utility depends on the acceptance vector only through its mean."""
    rng = np.random.default_rng(seed)
    offer = served_offer(res)
    k = res.n_served
    for _ in range(n):
        probs = rng.uniform(0.0, 1.0, size=k)
        base = sp_utility(tuple(float(p) for p in probs), offer, scenario)
        perm = rng.permutation(probs)
        shuffled = sp_utility(tuple(float(p) for p in perm), offer, scenario)
        flat = sp_utility((float(probs.mean()),) * k, offer, scenario)
        scale = max(1.0, abs(base))
        assert abs(shuffled - base) <= 1e-12 * scale
        assert abs(flat - base) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# prospect


def check_loss_ordering(n, seed, scenario, ne):
    """Reallocation never loses more revenue than holding allocations fixed."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.7, 1.0, size=n)
    for a in alphas:
        model = WeightingModel(alpha=float(a))
        strict = loss_strict_rrm(scenario, ne, model)
        realloc, _ = loss_with_reallocation(scenario, ne, model)
        assert realloc <= strict + 1e-9 * max(1.0, strict)
        assert strict >= 0.0
        assert realloc >= 0.0


def check_loss_zero_iff_preserved(scenario, ne, alphas):
    # preservation is strict in the bandwidth domain, the loss lives in the
    # price domain; both directions therefore get an epsilon at the boundary
    tol = 1e-8 * max(1.0, ne.price) * max(1, ne.n_served)
    for a in alphas:
        model = WeightingModel(alpha=float(a))
        rep = ne_preserved(scenario, ne, model)
        strict = loss_strict_rrm(scenario, ne, model)
        if rep.preserved:
            assert strict <= tol
        elif strict <= tol:
            worst = min(
                willingness(scenario, ne, model, i, ne.allocation[i]) for i in ne.served_set
            )
            assert abs(worst - ne.price) <= 1e-7 * max(1.0, ne.price)


def nested_expansion(scenario, ne, model):
    """bandwidth_expansion as it stood before the search moved to level space:
    a golden search over the band size B on a doubling bracket, with a full
    equalized_willingness bisection at every probe. The oracle for
    bandwidth_expansions."""
    budget = scenario.total_bandwidth_hz
    c1, c3 = scenario.cost.c1, scenario.cost.c3
    eut_rev = ne.n_served * (ne.price - c1 * ne.rate_bps) - c3 * budget

    def f(bw):
        x, _ = equalized_willingness(replace(scenario, total_bandwidth_hz=bw), ne, model)
        return ne.n_served * x - c3 * bw

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
    feasible = threshold < budget * (1.0 - game.FEASIBILITY_SLACK)
    x, served_alloc = equalized_willingness(replace(scenario, total_bandwidth_hz=bw_star),
                                            ne, model)
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


def check_threshold_monotone(scenario, ne, alphas, strategies=STRATEGY_IDS, max_drops=1):
    alphas = sorted(alphas)
    base = sum(min_bandwidth_for_user(ne.rate_bps, i, scenario) for i in ne.served_set)
    for sid in strategies:
        prev = None
        for a in alphas:
            model = WeightingModel(alpha=float(a))
            th = strategy_threshold(scenario, ne, model, sid, max_drops=max_drops)
            if prev is not None and math.isfinite(prev) and math.isfinite(th):
                assert th <= prev * (1.0 + 1e-9)
            prev = th
        th1 = strategy_threshold(scenario, ne, IDENTITY, sid, max_drops=max_drops)
        assert th1 <= base * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# experiments


def check_sweep_bounds(table, loss_cols=(), unit_interval_cols=()):
    idx = {name: k for k, name in enumerate(table.header)}
    for row in table.rows:
        for name in loss_cols:
            v = row[idx[name]]
            assert 0.0 <= v <= 1.0
        for name in unit_interval_cols:
            v = row[idx[name]]
            if v is None:
                continue
            assert 0.0 < v <= 1.0 + 1e-12


def check_sweep_deterministic(sweep_fn, spec, **kwargs):
    first = sweep_fn(spec, **kwargs)
    second = sweep_fn(spec, **kwargs)
    assert first.header == second.header
    assert first.to_csv() == second.to_csv()
    return first
