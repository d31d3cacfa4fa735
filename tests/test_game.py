import math

import numpy as np
import pytest

import helpers
from prospect_pricing import channel, experiments, game
from prospect_pricing.channel import UnattainableGuaranteeError
from prospect_pricing.game import (
    CostModel,
    Offer,
    PowerLaw,
    Scenario,
    brute_force_nash,
    min_bandwidth,
    min_bandwidth_for_user,
    solve_nash,
    sp_utility,
    user_utility,
)
from prospect_pricing.weighting import WeightingModel

# frozen values at the unconstrained optimal rate of the standard economics
B_U = 6986353.7310231712945
PRICE_AT_B_U = 2.8399811914728338595
BENEFIT_AT_B_U = 3.1532824312125984818
TARGET_AT_B_U = 0.90064282328833949053
RATE_COST_AT_B_U = 2.3287845770077237648


def test_pricing_and_benefit_zero_at_zero():
    assert helpers.STD_PRICING(0.0) == 0.0
    assert helpers.STD_BENEFIT(0.0) == 0.0


def test_pricing_validation():
    with pytest.raises(ValueError):
        PowerLaw(coefficient=0.0, exponent=0.5)
    with pytest.raises(ValueError):
        PowerLaw(coefficient=1.0, exponent=0.0)
    with pytest.raises(ValueError):
        PowerLaw(coefficient=1.0, exponent=1.5)
    with pytest.raises(ValueError):
        PowerLaw(coefficient=-1.0, exponent=0.5)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(c1=-1e-9, c3=0.0)
    with pytest.raises(ValueError):
        CostModel(c1=0.0, c3=-1e-9)
    CostModel(c1=0.0, c3=0.0)


def test_frozen_economics_at_optimal_rate():
    assert abs(helpers.STD_PRICING(B_U) - PRICE_AT_B_U) <= 1e-12 * PRICE_AT_B_U
    assert abs(helpers.STD_BENEFIT(B_U) - BENEFIT_AT_B_U) <= 1e-12 * BENEFIT_AT_B_U
    ratio = helpers.STD_PRICING(B_U) / helpers.STD_BENEFIT(B_U)
    assert abs(ratio - TARGET_AT_B_U) <= 1e-12
    assert abs(helpers.STD_COST.c1 * B_U - RATE_COST_AT_B_U) <= 1e-12 * RATE_COST_AT_B_U
    per_user = helpers.STD_COST.per_user(B_U, 1e6)
    assert abs(per_user - (RATE_COST_AT_B_U + 1e-8 * 1e6)) <= 1e-12 * per_user


def make_scenario(distances, budget, shadows=None, cost=helpers.STD_COST):
    shadows = shadows or [0.0] * len(distances)
    users = tuple((helpers.make_channel(d, s), helpers.STD_BENEFIT)
                  for d, s in zip(distances, shadows))
    return Scenario(users=users, pricing=helpers.STD_PRICING, cost=cost,
                    total_bandwidth_hz=budget)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(users=(), pricing=helpers.STD_PRICING, cost=helpers.STD_COST,
                 total_bandwidth_hz=1e6)
    with pytest.raises(ValueError):
        make_scenario([300.0], budget=0.0)
    sc = make_scenario([300.0, 500.0], budget=1e6)
    assert sc.n_users == 2
    assert sc.channel(1) is sc.users[1][0]
    assert sc.benefit(0) is helpers.STD_BENEFIT


def test_offer_validation():
    with pytest.raises(ValueError):
        Offer(rate_bps=-1.0, price=1.0, allocation=(1e6,))
    with pytest.raises(ValueError):
        Offer(rate_bps=1e6, price=-1.0, allocation=(1e6,))
    with pytest.raises(ValueError):
        Offer(rate_bps=1e6, price=1.0, allocation=(1e6, -1.0))
    sc = make_scenario([300.0], budget=1e6)
    offer = Offer(rate_bps=1e6, price=1.0, allocation=(2e6,))
    with pytest.raises(ValueError):
        offer.validate_against(sc)
    Offer(rate_bps=1e6, price=1.0, allocation=(1e6,)).validate_against(sc)


def test_min_bandwidth_for_user_matches_direct():
    sc = make_scenario([400.0], budget=1e7)
    got = min_bandwidth_for_user(7e6, 0, sc)
    target = helpers.STD_PRICING(7e6) / helpers.STD_BENEFIT(7e6)
    assert got == min_bandwidth(7e6, target, sc.channel(0))


def test_min_bandwidth_for_user_unattainable_at_high_rates():
    # the price/benefit ratio passes 1 near 1.3e7 kbps-equivalent rates
    sc = make_scenario([400.0], budget=1e7)
    with pytest.raises(UnattainableGuaranteeError):
        min_bandwidth_for_user(2e7, 0, sc)


def test_user_utility_formula():
    from prospect_pricing.channel import service_guarantee
    from prospect_pricing.weighting import weight

    sc = make_scenario([400.0], budget=1e7)
    offer = Offer(rate_bps=7e6, price=2.0, allocation=(2e6,))
    model = WeightingModel(alpha=0.8)
    guar = service_guarantee(7e6, 2e6, sc.channel(0))
    expected = 0.75 * (-2.0 + helpers.STD_BENEFIT(7e6) * weight(guar, model))
    assert abs(user_utility(0.75, offer, 0, sc, model) - expected) <= 1e-12
    assert user_utility(0.0, offer, 0, sc, model) == 0.0


def test_sp_utility_formula():
    sc = make_scenario([300.0, 500.0], budget=1e7)
    offer = Offer(rate_bps=5e6, price=2.0, allocation=(1e6, 2e6))
    expected = 0.0
    for p, bw in zip((0.3, 0.9), offer.allocation):
        c = helpers.STD_COST.c1 * 5e6 + helpers.STD_COST.c3 * bw
        expected += p * (2.0 - c) + (1.0 - p) * (-c)
    assert abs(sp_utility((0.3, 0.9), offer, sc) - expected) <= 1e-12
    with pytest.raises(ValueError):
        sp_utility((0.3,), offer, sc)


def grid_best_revenue(scenario, n_rates=40000, hi=3.4e7):
    """Single-user oracle: full-band offers on a dense rate grid, recomputing
    the outage guarantee and economics directly with numpy."""
    ch = scenario.channel(0)
    band = scenario.total_bandwidth_hz
    b = np.linspace(hi / n_rates, hi, n_rates)
    r = 2e-3 * (b * 1e-3) ** 0.82
    h = 1e-2 * (b * 1e-3) ** 0.65
    target = r / h
    guar = np.exp(-(np.exp2(b / band) - 1.0) * band
                  * ch.noise_psd_w_per_hz / ch.received_power_w)
    margin = r - scenario.cost.c1 * b
    rev = np.where((guar > target) & (target < 1.0), margin, -np.inf) \
        - scenario.cost.c3 * band
    slack = float(np.abs(np.diff(margin)).max())
    return float(rev.max()), slack


@pytest.mark.parametrize("band_scale", [1.5, 0.8])
def test_single_user_solver_matches_grid(band_scale):
    base = make_scenario([300.0], budget=1.0)
    need = min_bandwidth_for_user(B_U, 0, base)
    sc = make_scenario([300.0], budget=band_scale * need)
    res = solve_nash(sc)
    assert res.equilibrium
    expected, slack = grid_best_revenue(sc)
    assert abs(res.sp_revenue - expected) <= slack + 1e-6 * abs(expected)
    helpers.check_solver_posthoc(sc, res)


def test_two_identical_users_both_served():
    base = make_scenario([350.0], budget=1.0)
    need = min_bandwidth_for_user(B_U, 0, base)
    sc = make_scenario([350.0, 350.0], budget=3.0 * need)
    res = solve_nash(sc)
    assert res.equilibrium
    assert res.served_set == (0, 1)
    assert res.allocation[0] == res.allocation[1]
    helpers.check_solver_posthoc(sc, res)


def revenue_slack(scenario, brute_grid=2000):
    """Bound on the rate-discretization error of brute_force_nash."""
    hi = 1.0
    while scenario.pricing(hi) > scenario.cost.c1 * hi and hi < 1e18:
        hi *= 2.0
    step = hi / brute_grid
    # the margin is steepest at the small-rate end of the grid
    worst = scenario.pricing(2.0 * step) - scenario.pricing(step)
    return scenario.n_users * worst


def test_solver_matches_brute_force():
    rng = np.random.default_rng(301)
    for _ in range(6):
        sc = helpers.random_small_scenario(rng)
        fast = solve_nash(sc)
        slow = brute_force_nash(sc)
        assert fast.equilibrium == slow.equilibrium
        if fast.equilibrium:
            assert fast.n_served == slow.n_served
            slack = revenue_slack(sc) + 1e-9 * abs(fast.sp_revenue)
            assert fast.sp_revenue >= slow.sp_revenue - 1e-9 * abs(slow.sp_revenue)
            assert fast.sp_revenue - slow.sp_revenue <= slack


# the price grows more slowly than the benefit, so r/h is unbounded at small
# rates and no rate at or below 1 bps fits a user: the feasible rates start
# near 10 bps
RISING_AT_ZERO = {"seed": 8465, "cell_radius_m": 763.3046782678164,
                  "tx_power_dbm": 23.142466997304687,
                  "pathloss_exponent": 4.243336880390416,
                  "shadow_sigma_db": 5.932261655089591,
                  "price_exp": 0.5112139324540586, "benefit_exp": 0.8648852266034239,
                  "c1": 3.5432803729283845e-07, "c3": 3.420674350857891e-08,
                  "price_coeff": 0.0002652909412138356,
                  "benefit_coeff": 0.002464028307956114}


@pytest.mark.parametrize("n_users", [3, 4])
def test_solver_finds_rates_above_an_infeasible_start(n_users):
    sc = experiments.build_scenario(n_users, **RISING_AT_ZERO)
    fast = solve_nash(sc)
    slow = brute_force_nash(sc)
    assert fast.equilibrium and slow.equilibrium
    assert fast.n_served == slow.n_served == n_users
    slack = revenue_slack(sc) + 1e-9 * abs(fast.sp_revenue)
    assert fast.sp_revenue >= slow.sp_revenue - 1e-9 * abs(slow.sp_revenue)
    assert fast.sp_revenue - slow.sp_revenue <= slack
    helpers.check_solver_posthoc(sc, fast)


def test_brute_force_rejects_large_instances():
    sc = make_scenario([200.0, 300.0, 400.0, 500.0, 600.0], budget=1e8)
    with pytest.raises(ValueError):
        brute_force_nash(sc)


def test_no_equilibrium_when_band_cost_dominates():
    sc = make_scenario([300.0, 500.0], budget=2e7,
                       cost=CostModel(c1=(1.0 / 3.0) * 1e-6, c3=1.0))
    res = solve_nash(sc)
    assert not res.equilibrium
    assert res.served_set == ()
    assert res.rate_bps == 0.0
    assert res.price == 0.0
    assert res.sp_revenue <= 0.0
    assert not brute_force_nash(sc).equilibrium


def test_solver_invariants_on_random_scenarios():
    helpers.check_solver_random_scenarios(12, seed=302)


def test_revenue_equals_unanimous_acceptance_utility(default_scenario, default_ne):
    direct = sp_utility((1.0,) * default_ne.n_served,
                        helpers.served_offer(default_ne), default_scenario)
    assert abs(direct - default_ne.sp_revenue) <= 1e-12 * abs(direct)


def test_allocation_exhausts_band(default_scenario, default_ne):
    total = sum(default_ne.allocation)
    assert abs(total - default_scenario.total_bandwidth_hz) \
        <= 1e-12 * default_scenario.total_bandwidth_hz
    for i in default_ne.served_set:
        req = min_bandwidth_for_user(default_ne.rate_bps, i, default_scenario)
        assert default_ne.allocation[i] > req


def test_acceptance_mean_invariance(default_scenario, default_ne):
    helpers.check_mean_acceptance_invariance(50, 303, default_scenario, default_ne)


# ---------------------------------------------------------------------------
# the batched requirement vector: agreement with the scalar path, and counts
# that do not depend on the machine

# requirement vectors one solve of the 80-user 300 m cell inverts (5,505
# without sharing): the doubling ladder every set size climbs, and the rate
# of the n and n + 1 checks, are inverted once
NASH_80_VECTORS = 3379


@pytest.fixture(scope="module")
def cell_80():
    return experiments.build_scenario(80, cell_radius_m=300.0)


@pytest.mark.parametrize("n_users, radius", [(10, 800.0), (80, 300.0)])
def test_requirement_vector_matches_scalar_path(n_users, radius):
    """numpy's power, log, log1p and expm1 differ from math's by an ulp or
    two here and there, and the inversion turns a relative change in the
    target q into kappa = 1 / (min(1, -ln q) * x * d/dx log(expm1(x)/x)) times
    that change in the bandwidth, x = rate*ln2/bw. Measured worst case over
    16 cells and 700 rates: 2.9 eps * kappa."""
    sc = experiments.build_scenario(n_users, cell_radius_m=radius)
    reqs = game._Requirements(sc)
    for rate in np.geomspace(1e2, 2e7, 60):
        rate = float(rate)
        vector = reqs(rate)
        for i in range(n_users):
            try:
                want = min_bandwidth_for_user(rate, i, sc)
            except UnattainableGuaranteeError:
                assert vector[i] == math.inf
                continue
            q = sc.pricing(rate) / sc.benefit(i)(rate)
            x = rate * math.log(2.0) / want
            slope = x * (1.0 / -math.expm1(-x) - 1.0 / x)
            kappa = max(1.0, 1.0 / (min(1.0, -math.log(q)) * slope))
            assert abs(vector[i] - want) <= 8 * 2.0 ** -52 * kappa * want, (rate, i)


def test_solve_nash_shares_requirement_vectors(monkeypatch, cell_80):
    calls = [0]
    batch = game.min_bandwidths

    def counted(*args):
        calls[0] += 1
        return batch(*args)
    monkeypatch.setattr(game, "min_bandwidths", counted)
    ne = solve_nash(cell_80)
    assert ne.n_served == 80
    assert 0 < calls[0] <= NASH_80_VECTORS


def test_solve_nash_makes_no_scalar_inversion(monkeypatch, cell_80):
    def forbidden(*args):
        raise AssertionError("solve_nash must invert whole requirement vectors")
    for module in (channel, game):
        monkeypatch.setattr(module, "min_bandwidth", forbidden)
    monkeypatch.setattr(game, "min_bandwidth_for_user", forbidden)
    assert solve_nash(cell_80).n_served == 80


# ---------------------------------------------------------------------------
# the pruned set-size scan: bitwise the full scan's result, a bound that holds
# for computed floats, and the work it saves

def oracle_cases():
    def small(seed, count):
        rng = np.random.default_rng(seed)
        return [helpers.random_small_scenario(rng) for _ in range(count)]
    return {
        # the band is sized at the margin's peak: one size is scanned
        "default": lambda: [experiments.build_scenario()],
        # the draws of test_solver_invariants_on_random_scenarios and the
        # first 60 of acceptance criterion 8's
        "random-302": lambda: small(302, 12),
        "random-809": lambda: small(809, 60),
        # the band binds far below the margin's peak: 5 sizes are scanned
        "band-1e6-800m": lambda: [experiments.build_scenario(
            10, cell_radius_m=800.0, total_bandwidth_hz=1e6)],
        # the winner serves 9 of 10 users, after 7 sizes are scanned
        "winner-below-n": lambda: [experiments.build_scenario(
            10, cell_radius_m=3000.0, total_bandwidth_hz=1e6)],
        # serving all 5 users earns a positive revenue, serving 4 earns more:
        # pruning one size too early would return the 5
        "winner-after-a-positive-n": lambda: [experiments.build_scenario(
            5, cell_radius_m=2000.0, total_bandwidth_hz=5e6)],
        "no-equilibrium": lambda: [make_scenario(
            [300.0, 500.0], budget=2e7, cost=CostModel(c1=(1.0 / 3.0) * 1e-6, c3=1.0))],
        "c1-zero": lambda: [experiments.build_scenario(
            10, c1=0.0, total_bandwidth_hz=1e7)],
        "linear-price": lambda: [experiments.build_scenario(
            10, price_exp=1.0, total_bandwidth_hz=1e7)],
        "rising-at-zero": lambda: [experiments.build_scenario(n, **RISING_AT_ZERO)
                                   for n in (3, 4)],
    }


@pytest.mark.parametrize("case", list(oracle_cases()))
def test_pruned_scan_matches_full_scan_bitwise(case):
    for sc in oracle_cases()[case]():
        assert helpers.nash_bits(solve_nash(sc)) == helpers.nash_bits(helpers.full_scan_nash(sc))


def test_oracle_cases_cover_what_they_name():
    cases = oracle_cases()
    assert solve_nash(cases["winner-below-n"]()[0]).n_served == 9
    sc = cases["winner-after-a-positive-n"]()[0]
    assert solve_nash(sc).n_served == 4 and game._margin_bound(
        sc.pricing, sc.cost.c1) < math.inf
    assert not solve_nash(cases["no-equilibrium"]()[0]).equilibrium
    for case in ("c1-zero", "linear-price"):
        sc = cases[case]()[0]
        assert game._margin_bound(sc.pricing, sc.cost.c1) == math.inf


def exact_margin_peak(k, e, c1):
    """max_b k*(b/1e3)^e - c1*b at 50 digits, from the zero of its slope."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        k, e, c1 = mpmath.mpf(k), mpmath.mpf(e), mpmath.mpf(c1)
        peak = 1000 * (1000 * c1 / (k * e)) ** (1 / (e - 1))
        price = k * (peak / 1000) ** e
        return price - c1 * peak, price + c1 * peak


@pytest.mark.parametrize("k", [2e-3, 0.7])
@pytest.mark.parametrize("e", [0.3, 0.65, 0.82, 0.999])
# c1 as a share of k*e*1e-3, the rate cost at which the peak sits at 1 kbps;
# toward 1 the margin nears break-even, where the linear term cancels the
# price at small rates
@pytest.mark.parametrize("share", [0.01, 0.5, 0.99, 1.0 - 1e-9])
def test_margin_bound_is_above_the_exact_peak(k, e, share):
    c1 = share * k * e * 1e-3
    bound = game._margin_bound(PowerLaw(k, e), c1)
    exact, operands = exact_margin_peak(k, e, c1)
    assert bound >= exact
    if operands < 1e300:
        # finite and no looser than the rounding it covers
        assert bound - exact <= 16 * 2.0 ** -52 * float(operands)


def test_margin_bound_is_infinite_without_a_peak():
    assert game._margin_bound(PowerLaw(2e-3, 0.82), 0.0) == math.inf
    assert game._margin_bound(PowerLaw(2e-3, 1.0), 1e-7) == math.inf
    assert game._margin_bound(PowerLaw(2e-3, 1.0 - 1e-13), 1e-7) == math.inf
    # the peak lies beyond the largest float
    assert game._margin_bound(PowerLaw(2e-3, 0.999), 1e-9) == math.inf


@pytest.mark.parametrize("case", ["default", "band-1e6-800m", "winner-below-n",
                                  "rising-at-zero"])
def test_margin_bound_covers_every_margin_a_solve_computes(monkeypatch, case):
    seen = []
    margin = game._margin

    def recorded(pricing, c1, rate_bps):
        seen.append(margin(pricing, c1, rate_bps))
        return seen[-1]
    monkeypatch.setattr(game, "_margin", recorded)
    sc = oracle_cases()[case]()[0]
    solve_nash(sc)
    assert len(seen) > 40
    assert max(seen) <= game._margin_bound(sc.pricing, sc.cost.c1)


def test_pruned_solve_of_cell_80_scans_one_set_size(monkeypatch, cell_80):
    counts = {"intervals": 0, "vectors": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(game, "_rate_feasibility_interval",
                        counted("intervals", game._rate_feasibility_interval))
    monkeypatch.setattr(game, "min_bandwidths", counted("vectors", game.min_bandwidths))
    assert solve_nash(cell_80).n_served == 80
    assert counts["intervals"] == 1
    assert 0 < counts["vectors"] <= 100
