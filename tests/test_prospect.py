import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from prospect_pricing import experiments, game, prospect
from prospect_pricing.channel import guarantee_supremum, min_bandwidth, service_guarantee
from prospect_pricing.game import (
    FEASIBILITY_SLACK,
    NashResult,
    NoEquilibriumError,
    Scenario,
    min_bandwidth_for_user,
    solve_nash,
    willingness,
)
from prospect_pricing.prospect import (
    PRICE_EPS_REL,
    admission_control,
    admission_price,
    admission_requirements,
    bandwidth_expansion,
    bandwidth_expansions,
    equalized_levels,
    equalized_willingness,
    loss_strict_rrm,
    loss_with_reallocation,
    min_alpha,
    ne_preserved,
    no_pricing_bands,
    rate_control,
    rate_control_price,
    reallocation_price,
    strategy_threshold,
    strict_rrm_price,
)
from prospect_pricing.weighting import IDENTITY, WeightingModel, inverse_weight, weight


@pytest.fixture(scope="module")
def trio():
    sc = experiments.build_scenario(n_users=3)
    ne = solve_nash(sc)
    return sc, ne, experiments.reference_offer(sc, ne)


@pytest.fixture(scope="module")
def duo():
    sc = experiments.build_scenario(n_users=2)
    ne = solve_nash(sc)
    return sc, ne, experiments.reference_offer(sc, ne)


def eut_revenue(sc, ne):
    margin = ne.price - sc.cost.c1 * ne.rate_bps
    return ne.n_served * margin - sc.cost.c3 * sc.total_bandwidth_hz


def direct_willingness(sc, rate, i, bw, model):
    ch, h = sc.users[i]
    return h(rate) * weight(service_guarantee(rate, bw, ch), model)


def test_willingness_formula(default_scenario, default_ref):
    model = WeightingModel(alpha=0.8)
    i = default_ref.served_set[0]
    bw = default_ref.allocation[i]
    got = willingness(default_scenario, default_ref, model, i, bw)
    assert got == direct_willingness(default_scenario, default_ref.rate_bps, i, bw, model)


def test_identity_alpha_preserves_everything(default_scenario, default_ref):
    rep = ne_preserved(default_scenario, default_ref, IDENTITY)
    assert rep.preserved
    assert all(rep.per_user)
    assert rep.unrecoverable == ()
    assert rep.aggregate_sufficient
    assert loss_strict_rrm(default_scenario, default_ref, IDENTITY) == 0.0
    loss, _ = loss_with_reallocation(default_scenario, default_ref, IDENTITY)
    assert loss == 0.0
    assert strict_rrm_price(default_scenario, default_ref, IDENTITY) == default_ref.price
    assert reallocation_price(default_scenario, default_ref, IDENTITY) == default_ref.price


def offer_at_margin(sc, ne, rel):
    alloc = [0.0] * sc.n_users
    for i in ne.served_set:
        alloc[i] = min_bandwidth_for_user(ne.rate_bps, i, sc) * rel
    return NashResult(rate_bps=ne.rate_bps, served_set=ne.served_set,
                      allocation=tuple(alloc), price=ne.price,
                      sp_revenue=ne.sp_revenue)


def test_preservation_flags_at_allocation_boundary(default_scenario, default_ne):
    above = offer_at_margin(default_scenario, default_ne, 1.0 + 1e-6)
    rep = ne_preserved(default_scenario, above, IDENTITY)
    assert rep.preserved and all(rep.per_user)

    below = offer_at_margin(default_scenario, default_ne, 1.0 - 1e-6)
    rep = ne_preserved(default_scenario, below, IDENTITY)
    assert not rep.preserved and not any(rep.per_user)

    mixed_alloc = list(above.allocation)
    first = default_ne.served_set[0]
    mixed_alloc[first] = below.allocation[first]
    mixed = NashResult(rate_bps=above.rate_bps, served_set=above.served_set,
                       allocation=tuple(mixed_alloc), price=above.price,
                       sp_revenue=above.sp_revenue)
    rep = ne_preserved(default_scenario, mixed, IDENTITY)
    assert not rep.preserved
    assert rep.per_user == (False,) + (True,) * (len(rep.per_user) - 1)


def test_single_user_loss_matches_direct_formula():
    sc = experiments.build_scenario(n_users=1)
    ne = solve_nash(sc)
    ref = experiments.reference_offer(sc, ne)
    model = WeightingModel(alpha=0.85)
    i = ref.served_set[0]
    will = direct_willingness(sc, ref.rate_bps, i, ref.allocation[i], model)
    expected = max(0.0, ref.price - will)
    got = loss_strict_rrm(sc, ref, model)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)


def test_losses_nonincreasing_in_alpha(default_scenario, default_ref):
    prev_strict = prev_realloc = math.inf
    for a in np.arange(0.90, 1.0001, 0.01):
        model = WeightingModel(alpha=float(min(a, 1.0)))
        strict = loss_strict_rrm(default_scenario, default_ref, model)
        realloc, _ = loss_with_reallocation(default_scenario, default_ref, model)
        assert 0.0 <= strict <= prev_strict + 1e-9
        assert 0.0 <= realloc <= prev_realloc + 1e-9
        prev_strict, prev_realloc = strict, realloc


def test_reallocation_never_worse(default_scenario, default_ref):
    helpers.check_loss_ordering(12, 401, default_scenario, default_ref)


def test_loss_zero_iff_preserved(default_scenario, default_ref):
    helpers.check_loss_zero_iff_preserved(
        default_scenario, default_ref, np.arange(0.90, 1.0001, 0.01))


def test_identical_users_reallocation_matches_strict():
    ch = helpers.make_channel(450.0, 1.5)
    users = tuple((ch, helpers.STD_BENEFIT) for _ in range(3))
    scratch = Scenario(users=users, pricing=helpers.STD_PRICING,
                       cost=helpers.STD_COST, total_bandwidth_hz=1.0)
    b_opt = experiments.unconstrained_optimal_rate(helpers.STD_PRICING, helpers.STD_COST)
    need = 3.0 * min_bandwidth_for_user(b_opt, 0, scratch)
    sc = Scenario(users=users, pricing=helpers.STD_PRICING,
                  cost=helpers.STD_COST, total_bandwidth_hz=1.05 * need)
    ne = solve_nash(sc)
    assert ne.equilibrium and ne.n_served == 3
    saw_positive = False
    for a in (0.6, 0.75, 0.9):
        model = WeightingModel(alpha=a)
        strict = loss_strict_rrm(sc, ne, model)
        realloc, _ = loss_with_reallocation(sc, ne, model)
        assert abs(strict - realloc) <= 1e-6 * max(strict, 1e-9)
        saw_positive = saw_positive or strict > 0.0
    assert saw_positive


def test_reallocation_allocation_supports_its_price(default_scenario, default_ref):
    sc = default_scenario
    model = WeightingModel(alpha=0.93)
    _, alloc = loss_with_reallocation(sc, default_ref, model)
    assert len(alloc) == sc.n_users
    total = sum(alloc)
    assert abs(total - sc.total_bandwidth_hz) <= 1e-9 * sc.total_bandwidth_hz
    price = reallocation_price(sc, default_ref, model)
    for i in range(sc.n_users):
        if i in default_ref.served_set:
            will = willingness(sc, default_ref, model, i, alloc[i])
            assert will >= price - 1e-8 * default_ref.price
        else:
            assert alloc[i] == 0.0


def test_strict_price_capped_by_baseline(default_scenario, default_ref):
    low = WeightingModel(alpha=0.9)
    ps = strict_rrm_price(default_scenario, default_ref, low)
    pr = reallocation_price(default_scenario, default_ref, low)
    assert ps < default_ref.price
    assert pr >= ps - 1e-9 * default_ref.price
    assert pr <= default_ref.price


def test_admission_price_formula(default_scenario, default_ref):
    ne = default_ref
    got = admission_price(default_scenario, ne, 8)
    ratio = ne.n_served / 8
    expected = ratio * ne.price - (ratio - 1.0) * default_scenario.cost.c1 * ne.rate_bps
    assert got == expected
    assert admission_price(default_scenario, ne, ne.n_served) == ne.price


def test_admission_zero_drops_reproduces_preservation(default_scenario, default_ref):
    for a in (0.9, 0.925, 0.94, 1.0):
        model = WeightingModel(alpha=a)
        out = admission_control(default_scenario, default_ref, model, 0)
        rep = ne_preserved(default_scenario, default_ref, model)
        assert out.min_bandwidth_threshold_hz == rep.aggregate_required
        assert out.feasible == rep.aggregate_sufficient
        assert out.new_price == default_ref.price - PRICE_EPS_REL * default_ref.price


def test_admission_inverts_each_candidate_price_once(monkeypatch, default_scenario,
                                                    default_ref):
    """Both candidate prices, one problem each, in a single evaluation."""
    calls = helpers.count_evaluations(monkeypatch)
    out = admission_control(default_scenario, default_ref, WeightingModel(alpha=1.0), 1)
    assert out.feasible
    [(problems, prices)] = calls
    assert problems == 2 and prices.shape == (2,) and prices[0] != prices[1]


def admission_oracle(sc, ne, model, max_drops):
    """Exhaustive subset enumeration using only channel/weighting primitives."""
    best_total, best_subset = math.inf, None
    for k in range(max_drops + 1):
        n_kept = ne.n_served - k
        price_k = admission_price(sc, ne, n_kept)
        for sub in itertools.combinations(ne.served_set, n_kept):
            tot = 0.0
            for i in sub:
                ch, h = sc.users[i]
                lam = price_k / h(ne.rate_bps)
                if lam >= 1.0:
                    tot = math.inf
                    break
                if lam <= 0.0:
                    continue
                tgt = inverse_weight(lam, model)
                if tgt >= guarantee_supremum(ne.rate_bps, ch):
                    tot = math.inf
                    break
                if tgt > 0.0:
                    tot += min_bandwidth(ne.rate_bps, tgt, ch)
            if best_subset is None or tot < best_total:
                best_total, best_subset = tot, sub
    return best_total, best_subset


def test_admission_matches_exhaustive_subsets():
    # (users, band margin, alphas, largest max_drops); the 10-user default
    # cell has enough subsets that keeping the smallest requirements is a
    # real choice
    cases = ((4, 0.15, (0.88,), 2), (10, 0.10, (0.90, 0.95), 3))
    for n_users, margin, alphas, max_drops in cases:
        sc = experiments.build_scenario(n_users=n_users, bandwidth_margin=margin)
        ne = solve_nash(sc)
        ref = experiments.reference_offer(sc, ne)
        assert ne.n_served == n_users
        for alpha, drops in itertools.product(alphas, range(max_drops + 1)):
            model = WeightingModel(alpha=alpha)
            out = admission_control(sc, ref, model, drops)
            want_total, want_subset = admission_oracle(sc, ref, model, drops)
            assert abs(out.min_bandwidth_threshold_hz - want_total) <= 1e-9 * want_total
            assert out.served_set == want_subset
            assert out.feasible == (want_total < sc.total_bandwidth_hz * (1.0 - 1e-9))
            if out.feasible:
                assert out.revenue_loss == 0.0
                assert sum(out.allocation) <= sc.total_bandwidth_hz * (1.0 + 1e-9)


def test_admission_infeasible_when_markup_exceeds_benefit():
    sc = experiments.build_scenario(n_users=3, price_coeff=2.4e-3,
                                    total_bandwidth_hz=5e6)
    ne = solve_nash(sc)
    assert ne.equilibrium and ne.n_served == 3
    markup = admission_price(sc, ne, 2)
    assert markup / sc.benefit(0)(ne.rate_bps) > 1.0
    model = WeightingModel(alpha=0.5)
    assert all(math.isinf(v)
               for v in admission_requirements(sc, ne, model, markup).values())
    out = admission_control(sc, ne, model, 1)
    assert not out.feasible
    assert math.isinf(out.min_bandwidth_threshold_hz)
    assert out.recovered_revenue == 0.0
    eut = eut_revenue(sc, ne)
    assert abs(out.revenue_loss - eut) <= 1e-12 * abs(eut)


def test_admission_max_drops_validation(default_scenario, default_ref):
    with pytest.raises(ValueError):
        admission_control(default_scenario, default_ref, IDENTITY, -1)
    with pytest.raises(ValueError):
        admission_control(default_scenario, default_ref, IDENTITY,
                          default_ref.n_served)


def expansion_oracle(sc, ne, model, n_coarse=500):
    """Level-set frontier: sweep the common willingness level x, charge x,
    and buy exactly the band that supports it."""
    caps = []
    for i in ne.served_set:
        ch, h = sc.users[i]
        caps.append(h(ne.rate_bps) * weight(guarantee_supremum(ne.rate_bps, ch), model))
    x_cap = min(caps) * (1.0 - 1e-9)

    def band_for(x):
        tot = 0.0
        for i in ne.served_set:
            ch, h = sc.users[i]
            lam = x / h(ne.rate_bps)
            if lam >= 1.0:
                return math.inf
            if lam <= 0.0:
                continue
            tgt = inverse_weight(lam, model)
            if tgt >= guarantee_supremum(ne.rate_bps, ch):
                return math.inf
            if tgt > 0.0:
                tot += min_bandwidth(ne.rate_bps, tgt, ch)
        return tot

    n = ne.n_served
    c3 = sc.cost.c3
    grid = np.linspace(0.2 * x_cap, x_cap, n_coarse)
    vals = [n * float(x) - c3 * band_for(float(x)) for x in grid]
    k = int(np.argmax(vals))
    fine = np.linspace(grid[max(0, k - 2)], grid[min(n_coarse - 1, k + 2)], n_coarse)
    vals += [n * float(x) - c3 * band_for(float(x)) for x in fine]
    m_star = max(vals)
    return (n * ne.price - m_star) / c3


def test_expansion_matches_level_frontier(duo):
    sc, _, ref = duo
    model = WeightingModel(alpha=0.9)
    out = bandwidth_expansion(sc, ref, model)
    want = expansion_oracle(sc, ref, model)
    assert abs(out.min_bandwidth_threshold_hz - want) <= 1e-5 * abs(want)
    assert out.feasible == (out.min_bandwidth_threshold_hz
                            < sc.total_bandwidth_hz * (1.0 - 1e-9))
    assert out.new_total_bandwidth_hz > 0.0
    total = sum(out.allocation)
    assert abs(total - out.new_total_bandwidth_hz) <= 1e-6 * out.new_total_bandwidth_hz
    if out.feasible:
        assert out.revenue_loss == 0.0


def test_expansion_identity_alpha_full_recovery(default_scenario, default_ref):
    out = bandwidth_expansion(default_scenario, default_ref, IDENTITY)
    assert out.feasible
    assert out.revenue_loss == 0.0
    eut = eut_revenue(default_scenario, default_ref)
    assert out.recovered_revenue >= eut * (1.0 - 1e-9)
    assert out.min_bandwidth_threshold_hz < default_scenario.total_bandwidth_hz


EXPANSION_ALPHAS = (0.5, 0.8, 0.9, 0.95, 1.0)


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 1, 3, 5, 7])
@pytest.mark.parametrize("n_users, radius_m", [(10, 800.0), (40, 300.0)])
def test_bandwidth_expansions_match_the_nested_search(seed, n_users, radius_m):
    """The level-space search against the golden search over band size with a
    bisection at every probe. Both maximize n*x - c3*S(x); the nested search
    only reaches levels its bisection finds, so it never earns more. The
    objective is sampled on [0, cap) to show that no second peak was missed."""
    sc = experiments.build_scenario(n_users, seed=seed, cell_radius_m=radius_m)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    n, c1, c3 = ref.n_served, sc.cost.c1, sc.cost.c3
    outcomes = bandwidth_expansions(sc, ref, EXPANSION_ALPHAS)
    assert len(outcomes) == len(EXPANSION_ALPHAS)
    for alpha, out in zip(EXPANSION_ALPHAS, outcomes):
        model = WeightingModel(alpha=alpha)
        want = helpers.nested_expansion(sc, ref, model)
        got_t, want_t = out.min_bandwidth_threshold_hz, want.min_bandwidth_threshold_hz
        assert abs(got_t - want_t) <= 1e-12 * abs(want_t), (alpha, got_t, want_t)
        assert out.feasible == want.feasible
        assert out.recovered_revenue >= want.recovered_revenue \
            - 1e-12 * abs(want.recovered_revenue), alpha
        assert out == bandwidth_expansion(sc, ref, model)
        # the band is the sum of the allocation, added in user order
        assert float(game._total(out.allocation)) == out.new_total_bandwidth_hz
        if out.feasible:
            recheck_acceptance(sc, ref, out, model)

        need = game._Users(sc, ref.served_set).at(ref.rate_bps, alpha)
        x = need.caps()[0] * np.arange(2000) / 2000
        grid = n * (x - c1 * ref.rate_bps) - c3 * game._total(need(x))
        best = grid.max()
        assert out.recovered_revenue >= best - 1e-12 * abs(best), alpha


def assert_expansion_finite(out):
    assert math.isfinite(out.recovered_revenue)
    assert math.isfinite(out.revenue_loss)
    assert math.isfinite(out.new_total_bandwidth_hz) and out.new_total_bandwidth_hz > 0.0
    assert all(math.isfinite(bw) for bw in out.allocation)


def test_expansion_with_free_band_goes_to_the_level_cap():
    """c3 = 0: every level is worth buying, so the level goes to the cap end
    of the bracket and the band is the finite requirement there."""
    sc = experiments.build_scenario(c3=0.0)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    alphas = (0.5, 0.9, 1.0)
    for alpha, out in zip(alphas, bandwidth_expansions(sc, ref, alphas)):
        assert_expansion_finite(out)
        assert out.min_bandwidth_threshold_hz == -math.inf and out.feasible
        need = game._Users(sc, ref.served_set).at(ref.rate_bps, alpha)
        x = need.caps()[0] * (1.0 - 1e-12)
        assert out.new_price == x - PRICE_EPS_REL * ref.price
        assert out.new_total_bandwidth_hz == float(game._total(need(x))[0])
    want = helpers.nested_expansion(sc, ref, WeightingModel(alpha=0.9))
    assert want.min_bandwidth_threshold_hz == -math.inf
    assert bandwidth_expansions(sc, ref, 0.9)[0].recovered_revenue >= want.recovered_revenue


def test_expansion_with_linear_price_and_no_rate_cost():
    """c1 = 0 with a linear price: the margin has no peak, the band is given."""
    band = experiments.build_scenario().total_bandwidth_hz
    sc = experiments.build_scenario(c1=0.0, price_exp=1.0, total_bandwidth_hz=band)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    outcomes = bandwidth_expansions(sc, ref, EXPANSION_ALPHAS)
    for out in outcomes:
        assert_expansion_finite(out)
        assert math.isfinite(out.min_bandwidth_threshold_hz)
    want = helpers.nested_expansion(sc, ref, WeightingModel(alpha=0.9))
    got = outcomes[EXPANSION_ALPHAS.index(0.9)].min_bandwidth_threshold_hz
    assert abs(got - want.min_bandwidth_threshold_hz) \
        <= 1e-12 * abs(want.min_bandwidth_threshold_hz)


def test_bandwidth_expansions_evaluate_few_requirement_matrices(default_scenario, default_ref,
                                                                monkeypatch):
    """One golden search over the level for every alpha: about 50 matrices
    for all five, where the nested search took about 2,700 for one."""
    calls = helpers.count_evaluations(monkeypatch)
    bandwidth_expansions(default_scenario, default_ref, EXPANSION_ALPHAS)
    assert len(calls) <= 60
    assert all(targets.shape == (len(EXPANSION_ALPHAS),) for _, targets in calls)


def rate_requirement_oracle(sc, ne, model, rate):
    price = ne.price + sc.cost.c1 * (rate - ne.rate_bps)
    if price <= 0.0:
        return math.inf
    tot = 0.0
    for i in ne.served_set:
        ch, h = sc.users[i]
        lam = price / h(rate)
        if lam >= 1.0:
            return math.inf
        if lam <= 0.0:
            continue
        tgt = inverse_weight(lam, model)
        if tgt >= guarantee_supremum(rate, ch):
            return math.inf
        if tgt > 0.0:
            tot += min_bandwidth(rate, tgt, ch)
    return tot


def rate_control_oracle(sc, ne, model):
    """Smallest total requirement of rate control's scalar multi-start: the
    offered rate, then 12 log-spaced golden searches of the oracle, each kept
    only when strictly smaller."""
    def obj(log_b):
        return rate_requirement_oracle(sc, ne, model, math.exp(log_b))

    lo, hi = math.log(1e-3 * ne.rate_bps), math.log(10.0 * ne.rate_bps)
    best = rate_requirement_oracle(sc, ne, model, ne.rate_bps)
    for k in range(12):
        _, neg = helpers.golden_reference(lambda t: -obj(t), lo + (hi - lo) * k / 12,
                                          lo + (hi - lo) * (k + 1) / 12, rel_tol=1e-10)
        best = min(best, -neg)
    return best


@pytest.mark.parametrize("seed, n_users, alphas", [
    (experiments.DEFAULT_SEED, 10, [0.3, 0.4, 0.85, 0.9, 0.95, 0.985, 1.0]),
    (experiments.DEFAULT_SEED, 3, [0.9]),
    (7, 10, [0.86, 0.93])])
def test_rate_controls_match_the_scalar_oracle(seed, n_users, alphas):
    sc = experiments.build_scenario(n_users, seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    budget = sc.total_bandwidth_hz
    outcomes = prospect.rate_controls(sc, ref, alphas)
    assert len(outcomes) == len(alphas)
    for alpha, out in zip(alphas, outcomes):
        want = rate_control_oracle(sc, ref, WeightingModel(alpha=alpha))
        got = out.min_bandwidth_threshold_hz
        assert got == want or abs(got - want) <= 1e-12 * want, (alpha, got, want)
        assert out.feasible == (want < budget * (1.0 - FEASIBILITY_SLACK))
        assert out == rate_control(sc, ref, WeightingModel(alpha=alpha))
        if math.isinf(want):
            # no start is strictly smaller, so the offered rate stays
            assert out.new_rate_bps == ref.rate_bps
        if out.feasible:
            # the allocation is the threshold's own requirement column plus
            # an equal share of the rest of the band
            n = ref.n_served
            assert abs(math.fsum(out.allocation) - budget) <= n * 2.0 ** -52 * budget


def test_rate_control_matches_grid_search(trio):
    sc, _, ref = trio
    model = WeightingModel(alpha=0.9)
    out = rate_control(sc, ref, model)
    grid = np.geomspace(1e-3 * ref.rate_bps, 10.0 * ref.rate_bps, 4000)
    grid_min = min(rate_requirement_oracle(sc, ref, model, float(b)) for b in grid)
    assert abs(out.min_bandwidth_threshold_hz - grid_min) <= 1e-3 * grid_min
    assert 1e-3 * ref.rate_bps <= out.new_rate_bps <= 10.0 * ref.rate_bps
    assert out.feasible
    assert out.recovered_revenue == eut_revenue(sc, ref)
    total = sum(out.allocation)
    assert abs(total - sc.total_bandwidth_hz) <= 1e-9 * sc.total_bandwidth_hz
    for i in ref.served_set:
        will = direct_willingness(sc, out.new_rate_bps, i, out.allocation[i], model)
        assert will >= out.new_price - 1e-8 * ref.price


def test_rate_control_improves_on_fixed_rate(trio):
    sc, _, ref = trio
    model = WeightingModel(alpha=0.9)
    out = rate_control(sc, ref, model)
    at_baseline = ne_preserved(sc, ref, model).aggregate_required
    assert out.min_bandwidth_threshold_hz <= at_baseline * (1.0 + 1e-9)
    assert out.min_bandwidth_threshold_hz < 0.99 * at_baseline
    assert out.new_price == rate_control_price(sc, ref, out.new_rate_bps) \
        - PRICE_EPS_REL * ref.price


def test_strategy_thresholds_monotone(default_scenario, default_ref):
    helpers.check_threshold_monotone(default_scenario, default_ref,
                                     [0.88, 0.92, 0.96, 1.0])


def recheck_acceptance(sc, ne, out, model):
    """Feasible outcomes must survive a direct acceptance recomputation."""
    rate = out.new_rate_bps if out.new_rate_bps is not None else ne.rate_bps
    band = out.new_total_bandwidth_hz if out.new_total_bandwidth_hz is not None \
        else sc.total_bandwidth_hz
    assert sum(out.allocation) <= band * (1.0 + 1e-9)
    for i in out.served_set:
        bw = out.allocation[i]
        assert bw > 0.0
        will = direct_willingness(sc, rate, i, bw, model)
        assert will >= out.new_price - 1e-8 * max(1.0, ne.price)


def test_feasible_outcomes_pass_acceptance_recheck(default_scenario, default_ref):
    model = WeightingModel(alpha=0.95)
    outs = [
        admission_control(default_scenario, default_ref, model, 1),
        bandwidth_expansion(default_scenario, default_ref, model),
        rate_control(default_scenario, default_ref, model),
    ]
    for out in outs:
        assert out.feasible
        recheck_acceptance(default_scenario, default_ref, out, model)


# deterministic bisection outputs on the default scenario, frozen
MIN_ALPHA_NO_PRICING = 0.8785461425781249
MIN_ALPHA_ADMISSION_1 = 0.7071209716796875
MIN_ALPHA_RATE = 0.3533337402343749
MIN_ALPHA_EXPANSION = 0.628145751953125


def test_min_alpha_frozen_values(default_scenario, default_ref):
    budget = default_scenario.total_bandwidth_hz
    for strategy_id, frozen in (("no_pricing", MIN_ALPHA_NO_PRICING),
                                ("expansion", MIN_ALPHA_EXPANSION)):
        res = min_alpha(default_scenario, default_ref, strategy_id)
        assert abs(res.alpha - frozen) <= 1e-12
        assert res.recoverable_at_one and res.monotone and not res.never_infeasible
        for da, want in ((1e-3, True), (-1e-3, False)):
            model = WeightingModel(alpha=res.alpha + da)
            t = strategy_threshold(default_scenario, default_ref, model, strategy_id)
            assert (t < budget * (1.0 - 1e-9)) == want

    res = min_alpha(default_scenario, default_ref, "admission", max_drops=1)
    assert abs(res.alpha - MIN_ALPHA_ADMISSION_1) <= 1e-12
    res = min_alpha(default_scenario, default_ref, "rate")
    assert abs(res.alpha - MIN_ALPHA_RATE) <= 1e-12


@pytest.mark.parametrize("strategy_id, batched",
                         [("expansion", "bandwidth_expansions"), ("rate", "rate_controls")])
def test_min_alpha_samples_its_grid_in_one_batched_call(default_scenario, default_ref,
                                                        monkeypatch, strategy_id, batched):
    sc, ref = default_scenario, default_ref
    grid = [0.01 + 0.99 * k / 8 for k in range(9)]
    thresholds = prospect._strategy_thresholds(sc, ref, grid, strategy_id, 1)
    one_by_one = [strategy_threshold(sc, ref, WeightingModel(alpha=a), strategy_id)
                  for a in grid]
    assert [t.hex() for t in thresholds] == [t.hex() for t in one_by_one]

    real = getattr(prospect, batched)
    sizes = []

    def counting(scenario, ne, alphas, *args):
        sizes.append(np.size(alphas))
        return real(scenario, ne, alphas, *args)

    monkeypatch.setattr(prospect, batched, counting)
    min_alpha(sc, ref, strategy_id)
    # the grid, its ends included, then one alpha per bisection step
    assert sizes[0] == len(grid) and set(sizes[1:]) == {1}


def test_min_alpha_samples_the_no_pricing_grid_in_one_evaluation(default_scenario,
                                                                 default_ref, monkeypatch):
    sc, ref = default_scenario, default_ref
    grid = [0.01 + 0.99 * k / 8 for k in range(9)]
    thresholds = prospect._strategy_thresholds(sc, ref, grid, "no_pricing", 1)
    one_by_one = [ne_preserved(sc, ref, WeightingModel(alpha=a)).aggregate_required
                  for a in grid]
    assert [t.hex() for t in thresholds] == [t.hex() for t in one_by_one]

    calls = helpers.count_evaluations(monkeypatch)
    min_alpha(sc, ref, "no_pricing")
    # the grid, its ends included, then one alpha per bisection step
    problems = [n for n, _ in calls]
    assert problems[0] == len(grid) and set(problems[1:]) == {1}


def test_min_alpha_floor_when_never_infeasible():
    sc = experiments.build_scenario(n_users=3, price_coeff=6e-4)
    ne = solve_nash(sc)
    assert ne.price / sc.benefit(0)(ne.rate_bps) < math.exp(-1.0)
    ref = experiments.reference_offer(sc, ne)
    res = min_alpha(sc, ref, "no_pricing")
    assert res.alpha == 0.01
    assert res.never_infeasible and res.recoverable_at_one and res.monotone


def test_min_alpha_unrecoverable_offer():
    sc = experiments.build_scenario(n_users=2)
    ne = solve_nash(sc)
    inflated = ne.rate_bps * 1.3
    crafted = NashResult(rate_bps=inflated, served_set=ne.served_set,
                         allocation=ne.allocation, price=sc.pricing(inflated),
                         sp_revenue=ne.sp_revenue)
    rep = ne_preserved(sc, crafted, IDENTITY)
    assert not rep.aggregate_sufficient
    res = min_alpha(sc, crafted, "no_pricing")
    assert res.alpha is None
    assert not res.recoverable_at_one and not res.never_infeasible


HALF = WeightingModel(alpha=0.5)
NO_EQUILIBRIUM_CALLS = {
    "bandwidth_expansion": lambda sc, ne: bandwidth_expansion(sc, ne, HALF),
    "bandwidth_expansions": lambda sc, ne: bandwidth_expansions(sc, ne, [0.5, 0.9]),
    "rate_control": lambda sc, ne: rate_control(sc, ne, HALF),
    "rate_controls": lambda sc, ne: prospect.rate_controls(sc, ne, [0.5, 0.9]),
    "loss_strict_rrm": lambda sc, ne: loss_strict_rrm(sc, ne, HALF),
    "strict_rrm_price": lambda sc, ne: strict_rrm_price(sc, ne, HALF),
    "admission_control": lambda sc, ne: admission_control(sc, ne, HALF, 0),
    "ne_preserved": lambda sc, ne: ne_preserved(sc, ne, HALF),
    "no_pricing_bands": lambda sc, ne: no_pricing_bands(sc, ne, [0.5, 0.9]),
    "equalized_willingness": lambda sc, ne: equalized_willingness(sc, ne, HALF),
    "reallocation_price": lambda sc, ne: reallocation_price(sc, ne, HALF),
    "loss_with_reallocation": lambda sc, ne: loss_with_reallocation(sc, ne, HALF),
    **{f"min_alpha-{sid}": (lambda sc, ne, sid=sid: min_alpha(sc, ne, sid))
       for sid in prospect.STRATEGY_IDS},
}


@pytest.mark.parametrize("entry", NO_EQUILIBRIUM_CALLS)
def test_strategies_reject_a_no_equilibrium_result(entry):
    """A result that serves nobody has no offer to restructure: each entry
    point says so instead of failing inside a reduction or a search."""
    sc = experiments.build_scenario(2, c3=1.0, total_bandwidth_hz=1e6)
    ne = solve_nash(sc)
    assert not ne.equilibrium
    with pytest.raises(NoEquilibriumError, match="no equilibrium"):
        NO_EQUILIBRIUM_CALLS[entry](sc, ne)


def test_unknown_strategy_rejected(default_scenario, default_ref):
    with pytest.raises(ValueError):
        strategy_threshold(default_scenario, default_ref, IDENTITY, "bogus")


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 2, 5])
def test_no_pricing_bands_are_the_preserved_aggregates_bitwise(seed):
    """One evaluation gives every alpha's no-pricing band, bit for bit the
    aggregate ne_preserved sums, in the sweep-compare window and in a wide
    one whose low alphas put some target out of reach."""
    sc = experiments.build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    wide = experiments.SweepSpec(sc, 0.3, 1.0, 0.05).alphas()
    assert any(math.isinf(t) for t in no_pricing_bands(sc, ref, wide))
    for alphas in (experiments.SweepSpec(sc, *experiments.DEFAULT_RANGE_COMPARISON).alphas(),
                   wide):
        bands = no_pricing_bands(sc, ref, alphas)
        one_by_one = [ne_preserved(sc, ref, WeightingModel(alpha=a)).aggregate_required
                      for a in alphas]
        assert [t.hex() for t in bands] == [t.hex() for t in one_by_one]


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 2, 5])
def test_min_willingness_is_the_scalar_minimum_bitwise(seed):
    """One guarantee pass gives every alpha's lowest willingness, bit for bit
    the minimum of game.willingness, over the served set and over
    sweep_comparison's kept set (the heaviest consumer denied), in the
    sweep-compare window and in a wide one."""
    sc = experiments.build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    kept = tuple(sorted(experiments._drop_order(sc, ref)[1:]))
    for alphas in (experiments.SweepSpec(sc, *experiments.DEFAULT_RANGE_COMPARISON).alphas(),
                   experiments.SweepSpec(sc, 0.3, 1.0, 0.05).alphas()):
        for users in (None, kept):
            got = prospect._min_willingness(sc, ref, alphas, users)
            want = [min(willingness(sc, ref, WeightingModel(alpha=a), i, ref.allocation[i])
                        for i in (ref.served_set if users is None else users))
                    for a in alphas]
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 2, 3])
def test_batched_levels_sit_where_the_scalar_sum_meets_the_band(seed):
    """Every level of an alpha x rate batch, checked by the scalar requirement.

    The batch inverts in numpy and the check in math; the two differ by a few
    ulp times the inversion's conditioning (up to 4e-11 of the summed band
    on seed 3's sweep grid), so the sum must fit 1e-12 below the level and
    exceed the band 1e-12 above it. The bisection stops at an absolute width
    of 1e-14 for levels below 1, which the upper point adds.
    """
    sc = experiments.build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    budget = sc.total_bandwidth_hz
    alphas = [0.85 + 0.01 * k for k in range(16)]
    b_star = ref.rate_bps
    rates = [b_star] + np.geomspace(1e-3 * b_star, 10.0 * b_star, 36).tolist()
    levels = equalized_levels(sc, ref.served_set, np.tile(rates, len(alphas)),
                              np.repeat(alphas, len(rates)), budget)
    assert levels.shape == (len(alphas) * len(rates),)
    for k, x in enumerate(levels.tolist()):
        alpha, rate = alphas[k // len(rates)], rates[k % len(rates)]
        model = WeightingModel(alpha=alpha)

        def total(level):
            return sum(helpers.required_bandwidth(sc, rate, i, level / sc.benefit(i)(rate),
                                                  model)
                       for i in ref.served_set)

        assert total(x * (1.0 - 1e-12)) < budget, (alpha, rate, x)
        assert total(x * (1.0 + 1e-12) + 1e-14) >= budget, (alpha, rate, x)


def test_equalized_willingness_is_one_batched_problem(default_scenario, default_ref):
    model = WeightingModel(alpha=0.9)
    rate = 0.5 * default_ref.rate_bps
    x, alloc = equalized_willingness(default_scenario, replace(default_ref, rate_bps=rate),
                                     model)
    assert x == equalized_levels(default_scenario, default_ref.served_set, rate, 0.9,
                                 default_scenario.total_bandwidth_hz)[0]
    assert math.isclose(sum(alloc), default_scenario.total_bandwidth_hz, rel_tol=1e-12)


def test_equalized_allocations_fit_the_band(default_scenario, default_ref):
    """Every split of the default sweep-compare grid stays inside the band,
    to the rounding of its n additions (at alpha 0.985 and 1,036,762 bps,
    re-inverting each user at the level overshot it by 2.5e-14). The grid is
    one equalized_levels search, its requirement columns one evaluation at
    the levels; equalized_willingness pads each alpha's split at the offered
    rate to the whole band."""
    sc, ref = default_scenario, default_ref
    bound = sc.total_bandwidth_hz * (1.0 + ref.n_served * 2.0 ** -52)
    b_star = ref.rate_bps
    rates = [b_star] + np.geomspace(1e-3 * b_star, 10.0 * b_star, 36).tolist()
    alphas = experiments.SweepSpec(sc, *experiments.DEFAULT_RANGE_COMPARISON).alphas()
    rate_col, alpha_col = np.tile(rates, len(alphas)), np.repeat(alphas, len(rates))
    levels = equalized_levels(sc, ref.served_set, rate_col, alpha_col, sc.total_bandwidth_hz)
    need = game._Users(sc, ref.served_set).at(rate_col, alpha_col)(levels)
    for k, column in enumerate(need.T.tolist()):
        if all(math.isfinite(a) for a in column):
            assert math.fsum(column) <= bound, (alpha_col[k], rate_col[k])
    for alpha in alphas:
        _, alloc = equalized_willingness(sc, ref, WeightingModel(alpha=alpha))
        assert math.fsum(alloc) <= bound, alpha
