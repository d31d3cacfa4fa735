import dataclasses
import math
import sys

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
    min_bandwidth,
    min_bandwidth_for_user,
    solve_nash,
    sp_utility,
    user_utility,
)
from prospect_pricing.weighting import WeightingModel, inverse_weight
from test_cli import fuzz_configs

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
    users = tuple(helpers.make_channel(d, s) for d, s in zip(distances, shadows))
    return Scenario(users=users, benefit=helpers.STD_BENEFIT, pricing=helpers.STD_PRICING,
                    cost=cost, total_bandwidth_hz=budget)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(users=(), benefit=helpers.STD_BENEFIT, pricing=helpers.STD_PRICING,
                 cost=helpers.STD_COST, total_bandwidth_hz=1e6)
    with pytest.raises(ValueError):
        make_scenario([300.0], budget=0.0)
    sc = make_scenario([300.0, 500.0], budget=1e6)
    assert sc.n_users == 2
    assert sc.users[1] == helpers.make_channel(500.0, 0.0)
    assert sc.benefit is helpers.STD_BENEFIT


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


# every float field of the library's value types, built with one value in it
FINITE_FIELDS = {
    "PowerLaw.coefficient": lambda v: PowerLaw(v, 0.5),
    "CostModel.c1": lambda v: CostModel(v, 0.0),
    "CostModel.c3": lambda v: CostModel(0.0, v),
    "UserChannel.received_power_w": lambda v: channel.UserChannel(v, 1e-20),
    "UserChannel.noise_psd_w_per_hz": lambda v: channel.UserChannel(1e-9, v),
    "Offer.rate_bps": lambda v: Offer(v, 1.0, (1.0,)),
    "Offer.price": lambda v: Offer(1.0, v, (1.0,)),
    "Offer.allocation": lambda v: Offer(1.0, 1.0, (1.0, v)),
    "Scenario.total_bandwidth_hz": lambda v: make_scenario([300.0], budget=v),
}


@pytest.mark.parametrize("field", FINITE_FIELDS)
def test_value_types_refuse_non_finite_fields(field):
    """NaN passes every < 0 or <= 0 check, and inf every lower bound: both
    are refused by name, where a finite value is accepted."""
    build = FINITE_FIELDS[field]
    build(1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{field.split('.')[1]}.* must be finite"):
            build(value)


def test_min_bandwidth_for_user_refuses_a_rate_at_or_below_0():
    sc = make_scenario([400.0], budget=1e7)
    for rate in (0.0, -5.0, -math.inf):
        with pytest.raises(ValueError, match="rate must be > 0"):
            min_bandwidth_for_user(rate, 0, sc)


def test_min_bandwidth_for_user_refuses_an_infinite_rate():
    """r(b)/h(b) is inf/inf there: the rate is named, not a NaN target."""
    sc = make_scenario([400.0], budget=1e7)
    with pytest.raises(ValueError, match="rate must be finite, got inf"):
        min_bandwidth_for_user(math.inf, 0, sc)


def test_min_bandwidth_for_user_matches_direct():
    sc = make_scenario([400.0], budget=1e7)
    got = min_bandwidth_for_user(7e6, 0, sc)
    target = helpers.STD_PRICING(7e6) / helpers.STD_BENEFIT(7e6)
    assert got == min_bandwidth(7e6, target, sc.users[0])


def test_min_bandwidth_for_user_unattainable_at_high_rates():
    # the price/benefit ratio passes 1 near 1.3e7 kbps-equivalent rates
    sc = make_scenario([400.0], budget=1e7)
    with pytest.raises(UnattainableGuaranteeError):
        min_bandwidth_for_user(2e7, 0, sc)


def test_min_bandwidth_for_user_refuses_a_nan_rate():
    sc = make_scenario([400.0], budget=1e7)
    with pytest.raises(ValueError, match="rate must be > 0, got nan"):
        min_bandwidth_for_user(math.nan, 0, sc)


def test_user_utility_formula():
    from prospect_pricing.channel import service_guarantee
    from prospect_pricing.weighting import weight

    sc = make_scenario([400.0], budget=1e7)
    offer = Offer(rate_bps=7e6, price=2.0, allocation=(2e6,))
    model = WeightingModel(alpha=0.8)
    guar = service_guarantee(7e6, 2e6, sc.users[0])
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
    ch = scenario.users[0]
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
        slow = helpers.brute_force_nash(sc)
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
    slow = helpers.brute_force_nash(sc)
    assert fast.equilibrium and slow.equilibrium
    assert fast.n_served == slow.n_served == n_users
    slack = revenue_slack(sc) + 1e-9 * abs(fast.sp_revenue)
    assert fast.sp_revenue >= slow.sp_revenue - 1e-9 * abs(slow.sp_revenue)
    assert fast.sp_revenue - slow.sp_revenue <= slack
    helpers.check_solver_posthoc(sc, fast)


def test_brute_force_rejects_large_instances():
    sc = make_scenario([200.0, 300.0, 400.0, 500.0, 600.0], budget=1e8)
    with pytest.raises(ValueError):
        helpers.brute_force_nash(sc)


def test_no_equilibrium_when_band_cost_dominates():
    sc = make_scenario([300.0, 500.0], budget=2e7,
                       cost=CostModel(c1=(1.0 / 3.0) * 1e-6, c3=1.0))
    res = solve_nash(sc)
    assert not res.equilibrium
    assert res.served_set == ()
    assert res.rate_bps == 0.0
    assert res.price == 0.0
    assert res.sp_revenue <= 0.0
    assert not helpers.brute_force_nash(sc).equilibrium


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

# requirement evaluations one solve makes, and the rates they invert. Rates
# are read one at a time from a memo; a miss probes up to 32 rungs of a
# ladder, a Newton step toward a feasibility edge, or a bisection's path as
# the edge's Newton root predicts it, with its far midpoints inferred
# (_search._bisect_edge). The guards hold the counts measured when the edges
# became Newton roots (parent counts in parentheses): the 80-user 300 m
# cell 3 calls of 42 rates (5 of 77), the default cell 4 of 43 (5 of 80),
# the 80-user cell at 1/10 of its band 83 of 304 (86 of 1,502), and the 3 km
# cell with a band of 2e7 Hz 22 of 198 (22 of 272).
NASH_80_CALLS, NASH_80_RATES = 3, 42
DEFAULT_CALLS, DEFAULT_RATES = 4, 43
NASH_80_TENTH_BAND_CALLS, NASH_80_TENTH_BAND_RATES = 83, 304
FAR_CELL_BAND_CALLS, FAR_CELL_BAND_RATES = 22, 198


@pytest.fixture(scope="module")
def cell_80():
    return experiments.build_scenario(80, cell_radius_m=300.0)


def test_benefit_exponent_of_one_half_is_batched_bitwise():
    """numpy takes a broadcast exponent of 0.5 as a square root, which can
    round apart from its power; with a full-size exponent, a batch of
    problems, each problem alone and price_requirements all agree to the bit."""
    sc = dataclasses.replace(make_scenario([300.0, 500.0], budget=1e7),
                             benefit=PowerLaw(1e-2, 0.5))
    users = game._Users(sc)
    rates = np.geomspace(1e4, 1e7, 2000)
    batch = users.at(rates, 1.0)
    prices = np.array([sc.pricing(rate) for rate in rates.tolist()])
    need = batch(prices)
    for k, rate in enumerate(rates.tolist()):
        alone = users.at(rate, 1.0)
        assert alone.benefit[0] == batch.benefit[k], rate
        assert (alone(prices[k])[:, 0] == need[:, k]).all(), rate
        assert (users.price_requirements(rate) == need[:, k]).all(), rate


@pytest.mark.parametrize("n_users, radius", [(10, 800.0), (80, 300.0)])
def test_requirement_vector_matches_scalar_path(n_users, radius):
    """numpy's power, log, log1p and expm1 differ from math's by an ulp or
    two here and there, and the inversion turns a relative change in the
    raw target p = w^-1(q) into kappa = 1 / (min(1, -ln p) * x * d/dx
    log(expm1(x)/x)) times that change in the bandwidth, x = rate*ln2/bw.
    The Prelec inverse adds an ulp or two to ln p, which kappa scales the
    same way, so every alpha keeps the alpha = 1 bound. Measured worst case
    over seeds 4966, 1, 2, 3, 5, 7 of both cells and 60 rates: 2.3 eps * kappa
    at every alpha (relative 3.6e-12 at alpha 0.5, 4.8e-16 at alpha 1)."""
    sc = experiments.build_scenario(n_users, cell_radius_m=radius)
    users = game._Users(sc)
    alphas = (0.5, 0.85, 0.95, 1.0)
    for rate in np.geomspace(1e2, 2e7, 60):
        rate = float(rate)
        matrix = users.at(rate, alphas)(sc.pricing(rate))
        # the solve's price-target vector is the alpha = 1 column's problem
        columns = [*zip(alphas, matrix.T), (1.0, users.price_requirements(rate))]
        for alpha, column in columns:
            model = WeightingModel(alpha=alpha)
            for i in range(n_users):
                q = sc.pricing(rate) / sc.benefit(rate)
                want = helpers.required_bandwidth(sc, rate, i, sc.pricing(rate), model)
                if math.isinf(want):
                    assert column[i] == math.inf
                    continue
                p = inverse_weight(q, model)
                x = rate * math.log(2.0) / want
                slope = x * (1.0 / -math.expm1(-x) - 1.0 / x)
                kappa = max(1.0, 1.0 / (min(1.0, -math.log(p)) * slope))
                assert abs(column[i] - want) <= 8 * 2.0 ** -52 * kappa * want, \
                    (alpha, rate, i)


def test_price_targets_are_the_alpha_1_column_bitwise(cell_80):
    """price_requirements keeps the rate a float and leaves out the powers
    (x ** 1.0 is exact); its requirements are bitwise the evaluator's
    alpha = 1 column, alone or batched with another alpha."""
    users = game._Users(cell_80)
    for rate in np.geomspace(1e2, 2e7, 60).tolist():
        price = cell_80.pricing(rate)
        floats = users.price_requirements(rate)
        assert (floats == users.at(rate, 1.0)(price)[:, 0]).all(), rate
        assert (floats == users.at([rate], [1.0])(price)[:, 0]).all(), rate
        assert (floats == users.at(rate, [0.5, 1.0])(price)[:, 1]).all(), rate


def requirement_columns(users, rates):
    """users x problems requirements of every kind a ranking reads: the price
    vectors, and at alphas 0.5, 0.8 and 1 the price targets and levels from
    near 0 to past the cap."""
    yield users.price_requirements(rates)
    for alpha in (0.5, 0.8, 1.0):
        need = users.at(rates, alpha)
        yield need(np.array([users.pricing(b) for b in rates.tolist()]))
        for fraction in (1e-6, 0.1, 0.5, 0.9, 0.999, 1.5):
            yield need(fraction * need.caps())


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 1, 2, 3, 5, 11])
def test_requirements_are_sorted_in_channel_order_bitwise(seed):
    """A requirement rises with s = N0/P at every rate, alpha and target, so
    on the bundled cells each evaluated column taken in _Users.order is
    bitwise the column sorted: the running totals solve_nash reads, and the
    kept sets admission reads, are those of ranking by requirement."""
    rates = np.geomspace(1e2, 2e7, 200)
    for n_users, radius in ((10, 800.0), (80, 300.0)):
        users = game._Users(experiments.build_scenario(n_users, cell_radius_m=radius, seed=seed))
        for need in requirement_columns(users, rates):
            assert np.array_equal(need[users.order], np.sort(need, axis=0))


def near_ties(rng, noise_apart):
    """12 users, half of them a received power a few ulps from another's:
    a common noise PSD, or noise PSDs a few ulps apart that keep each s
    within ulps of its twin's."""
    n0 = channel.dbm_to_watts(-174.0)
    powers = [helpers.make_channel(float(rng.uniform(20.0, 800.0)),
                                   float(rng.normal(0.0, 4.0))).received_power_w
              for _ in range(6)]
    users = []
    for p in powers + [p * (1.0 + int(rng.integers(-4, 5)) * 2.0 ** -52) for p in powers]:
        k = int(rng.integers(-3, 4)) if noise_apart else 0
        users.append(channel.UserChannel(p * (1.0 + k * 2.0 ** -52), n0 * (1.0 + k * 2.0 ** -52)))
    rng.shuffle(users)
    return game._Users(Scenario(users=tuple(users), benefit=helpers.STD_BENEFIT,
                                pricing=helpers.STD_PRICING, cost=helpers.STD_COST,
                                total_bandwidth_hz=1e7))


@pytest.mark.parametrize("noise_apart", [False, True])
def test_channel_order_is_a_definition_within_ulps_of_equal_s(noise_apart):
    """Where two users' s lie within ulps, the computed requirements need not
    keep their order: the inversion rounds to a few ulps, not monotonically.
    There the order is a definition. A column taken in order steps down, as
    it does in these cells, only between neighbours whose s lie within 8 eps
    of each other, and solve_nash's running totals at the price targets,
    summed in order, lie within 4 eps of the sorted sums (measured over 200
    such cells of each kind: up to 1.6 eps, in 19 and 109 of 91,096 totals)."""
    rates = np.geomspace(1e2, 2e7, 40)
    steps_down = 0
    for seed in range(20):
        users = near_ties(np.random.default_rng(seed), noise_apart)
        s = (users.noise / users.power)[users.order, 0]
        close = (np.diff(s) <= 8 * 2.0 ** -52 * s[1:])[:, None]
        for need in requirement_columns(users, rates):
            with np.errstate(invalid="ignore"):
                down = np.diff(need[users.order], axis=0) < 0.0
            assert not (down & ~close).any(), seed
            steps_down += down.sum()
        need = users.price_requirements(rates)
        ordered = np.cumsum(need[users.order], axis=0)
        ranked = np.cumsum(np.sort(need, axis=0), axis=0)
        finite = np.isfinite(ranked)
        assert np.array_equal(np.isfinite(ordered), finite)
        gap = np.abs(ordered[finite] - ranked[finite])
        assert (gap <= 4 * 2.0 ** -52 * ranked[finite]).all(), seed
    assert steps_down > 0


# rates and alphas as floats or lists: the evaluator broadcasts every form to
# one 1-D array of problems; below alpha 0.01, (-ln q)^(1/alpha) overflows
# and lc is taken in log space
EVALUATOR_FORMS = [(3e6, 1.0), ([1e5, 3e6, 2e7], 1.0), (3e6, [0.85, 0.9, 1.0]),
                   ([1e5, 3e6, 2e7], [0.85, 0.9, 1.0]), (3e6, [0.001, 0.003, 0.01])]


@pytest.mark.parametrize("rates, alphas", EVALUATOR_FORMS)
def test_a_column_subset_evaluates_its_problems_bitwise(default_scenario, rates, alphas):
    """columns(keep) is the evaluator of the kept problems alone: its
    requirements and caps are bitwise the full evaluator's kept columns."""
    need = game._Users(default_scenario).at(rates, alphas)
    caps = need.caps()
    targets = 0.5 * caps
    full = need(targets)
    keeps = [[0], [2, 0], [1]] if caps.size > 1 else [[0]]
    for keep in map(np.array, keeps):
        sub = need.columns(keep)
        assert np.size(sub.rates) == keep.size
        assert (sub.caps() == caps[keep]).all(), keep
        assert (sub(targets[keep]) == full[:, keep]).all(), keep


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _per_problem_members(n_users, rates, alphas):
    """A users x problems membership that differs per problem: problem k
    keeps the users i with (i + k) % 3 != 0."""
    n_problems = np.broadcast(np.atleast_1d(rates), np.atleast_1d(alphas)).size
    return (np.arange(n_users)[:, None] + np.arange(n_problems)) % 3 != 0


@pytest.mark.parametrize("rates, alphas", EVALUATOR_FORMS)
def test_members_evaluate_as_their_own_evaluator_bitwise(default_scenario, rates, alphas):
    """With a membership per problem, each problem's members have the
    requirements, slopes and cap of an evaluator over them alone, bitwise,
    and every non-member's requirement and slope is +0.0: at targets
    from far below the cap to above it, where some members are out of
    reach."""
    members = _per_problem_members(default_scenario.n_users, rates, alphas)
    need = game._Users(default_scenario).at(rates, alphas, members)
    caps = need.caps()
    for k, column in enumerate(members.T):
        own = game._Users(default_scenario, np.flatnonzero(column)).at(rates, alphas)
        assert _bits(caps[k]) == _bits(own.caps()[k]), k
    for share in (1e-30, 0.5, 0.999, 1.5):
        targets = share * caps
        at, slopes = need.with_slopes(targets)
        assert (_bits(at) == _bits(need(targets))).all(), share
        assert (_bits(at[~members]) == 0).all() and (_bits(slopes[~members]) == 0).all()
        for k, column in enumerate(members.T):
            own = game._Users(default_scenario, np.flatnonzero(column)).at(rates, alphas)
            own_at, own_slopes = own.with_slopes(targets)
            assert (_bits(at[column, k]) == _bits(own_at[:, k])).all(), (share, k)
            assert (_bits(slopes[column, k]) == _bits(own_slopes[:, k])).all(), (share, k)


@pytest.mark.parametrize("rates, alphas", EVALUATOR_FORMS)
def test_a_column_subset_keeps_its_membership(default_scenario, rates, alphas):
    """columns(keep) of an evaluator with members keeps each kept problem's
    membership, so its requirements are the kept columns', bitwise."""
    members = _per_problem_members(default_scenario.n_users, rates, alphas)
    need = game._Users(default_scenario).at(rates, alphas, members)
    targets = 0.5 * need.caps()
    full = need(targets)
    for keep in map(np.array, [[0], [2, 0], [1]] if members.shape[1] > 1 else [[0]]):
        sub = need.columns(keep)
        assert (sub.members == members[:, keep]).all(), keep
        assert (_bits(sub.caps()) == _bits(need.caps()[keep])).all(), keep
        assert (_bits(sub(targets[keep])) == _bits(full[:, keep])).all(), keep


@pytest.mark.parametrize("rates, alphas", EVALUATOR_FORMS)
def test_the_default_membership_is_every_user(default_scenario, rates, alphas):
    """Given no membership, the evaluator is every user's: bitwise the
    evaluator given every user as a member, in requirements, slopes and
    caps, and its caps the plain minimum over users."""
    users = game._Users(default_scenario)
    need = users.at(rates, alphas)
    every = users.at(rates, alphas, np.ones((default_scenario.n_users, 1), dtype=bool))
    assert need.members.all()
    assert (_bits(need.caps()) == _bits(every.caps())).all()
    assert (_bits(need.caps()) == _bits((need.benefit * need._weighted_sup).min(axis=0))).all()
    for share in (1e-30, 0.5, 1.5):
        targets = share * need.caps()
        at = need(targets)
        assert (_bits(at) == _bits(every(targets))).all(), share
        assert (_bits(need.with_slopes(targets)[1])
                == _bits(every.with_slopes(targets)[1])).all(), share


@pytest.mark.parametrize("rates, alphas", EVALUATOR_FORMS)
def test_requirement_slopes_match_a_central_difference(default_scenario, rates, alphas):
    """with_slopes(targets) gives d need/d ln target, formed from need and
    ln q in the pass that gives need, bitwise need(targets); a central
    difference of step 1e-6 in ln target agrees to 1e-7, plus the
    difference's own rounding of a few ulp of need over 2e-6, from targets
    of 1e-300 of the cap up to 0.9 of it."""
    need = game._Users(default_scenario).at(rates, alphas)
    for share in (1e-300, 1e-30, 1e-3, 0.5, 0.9):
        targets = share * need.caps()
        at = need(targets)
        h = 1e-6
        diff = (need(targets * math.exp(h)) - need(targets * math.exp(-h))) / (2.0 * h)
        fused, got = need.with_slopes(targets)
        assert (_bits(fused) == _bits(at)).all(), share
        assert (abs(got - diff) <= 1e-7 * abs(diff) + 1e-9 * at).all(), share


# alphas 1 and 0.9, and 0.003, where the smaller targets take lc in log space
RATE_SLOPE_FORMS = [([1e5, 3e6, 2e7], [1.0, 0.9, 0.003]), (3e6, [0.9, 0.003, 1.0])]


@pytest.mark.parametrize("rates, alphas", RATE_SLOPE_FORMS)
@pytest.mark.parametrize("elasticity", [-0.5, 0.0, 0.4, 3.0])
def test_rate_slopes_match_a_central_difference(default_scenario, rates, alphas, elasticity):
    """with_rate_slopes(targets, e) gives d need/d ln rate while each target
    moves by e per unit of ln rate, formed from need and ln q in the pass
    that gives need, bitwise need(targets). A central
    difference of step 1e-6 in ln rate agrees to the bound of the slopes
    test, 1e-7 plus a few ulp of need over 2e-6 (measured: 2.6e-8), from
    targets of 1e-300 of the cap up to 0.9 of it."""
    users = game._Users(default_scenario)
    need = users.at(rates, alphas)
    h = 1e-6
    for share in (1e-300, 1e-30, 1e-3, 0.5, 0.9):
        targets = share * need.caps()
        at = need(targets)
        up = users.at(need.rates * math.exp(h), alphas)(targets * math.exp(elasticity * h))
        down = users.at(need.rates * math.exp(-h), alphas)(targets * math.exp(-elasticity * h))
        diff = (up - down) / (2.0 * h)
        fused, got = need.with_rate_slopes(targets, elasticity)
        assert (_bits(fused) == _bits(at)).all(), share
        assert (abs(got - diff) <= 1e-7 * abs(diff) + 1e-9 * at).all(), share


@pytest.mark.parametrize("rates, alphas", RATE_SLOPE_FORMS)
def test_reach_margins_tell_where_a_target_is_out_of_reach(default_scenario, rates, alphas):
    """margins(targets, e) is positive exactly where the requirement is
    finite, and its derivative in ln rate matches a central difference to
    1e-7, out of reach as well as within it (targets from 0.5 to 3 times
    each problem's cap)."""
    users = game._Users(default_scenario)
    need = users.at(rates, alphas)
    elasticity, h = 0.4, 1e-6
    for share in (0.5, 0.99, 1.01, 3.0):
        targets = share * need.caps()
        margin, rising = need.margins(targets, elasticity)
        assert ((margin > 0.0) == np.isfinite(need(targets))).all(), share
        assert (~np.isfinite(need.with_rate_slopes(targets, elasticity)[1])
                == (margin <= 0.0)).all(), share
        up, _ = users.at(need.rates * math.exp(h), alphas).margins(
            targets * math.exp(elasticity * h), elasticity)
        down, _ = users.at(need.rates * math.exp(-h), alphas).margins(
            targets * math.exp(-elasticity * h), elasticity)
        diff = (up - down) / (2.0 * h)
        assert (abs(rising - diff) <= 1e-7 * np.maximum(abs(diff), 1.0)).all(), share


def test_subnormal_shares_invert_in_log_space(default_scenario, default_ref):
    """At 69.9 kbps and alpha 0.003 the level 5e-324 leaves every served
    user the share q = x/h_i = 3e-323, a subnormal float of 3 bits; ln q
    is then ln x - ln h_i. Each requirement matches the 50-digit inversion
    to 1e-14 (the quotient's log put them 1.07e-5 off), and each slope a
    50-digit central difference of step 1e-12 in ln x to 1e-12."""
    mpmath = pytest.importorskip("mpmath")
    sc, ref = default_scenario, default_ref
    rate, alpha, x = 69.9e3, 0.003, 5e-324
    need = game._Users(sc, ref.served_set).at(rate, alpha)
    assert ((x / need.benefit) < sys.float_info.min).all()
    at, slopes = need.with_slopes(x)
    with mpmath.workdps(50):
        kbps, inv_alpha, h = mpmath.mpf(rate) / 1000, 1 / mpmath.mpf(alpha), mpmath.mpf(1e-12)
        for k, i in enumerate(ref.served_set):
            benefit = sc.benefit.coefficient * kbps ** sc.benefit.exponent

            def mp_need(u):
                share = mpmath.exp(u) / benefit
                return helpers.mp_min_bandwidth(
                    mpmath, rate, mpmath.exp(-(-mpmath.log(share)) ** inv_alpha), sc.users[i])
            u = mpmath.log(mpmath.mpf(x))
            want = mp_need(u)
            assert float(abs(at[k, 0] - want) / want) <= 1e-14, i
            slope = (mp_need(u + h) - mp_need(u - h)) / (2 * h)
            assert float(abs(slopes[k, 0] - slope) / abs(slope)) <= 1e-12, i


def tenth_band(scenario, share=10):
    return dataclasses.replace(scenario, total_bandwidth_hz=scenario.total_bandwidth_hz / share)


def test_solve_nash_shares_requirement_vectors(monkeypatch, cell_80):
    calls = helpers.count_evaluations(monkeypatch)
    ne = solve_nash(cell_80)
    assert ne.n_served == 80
    assert 0 < len(calls) <= NASH_80_CALLS
    assert sum(rates for rates, _ in calls) <= NASH_80_RATES


def test_default_solve_evaluation_count(monkeypatch, default_scenario):
    calls = helpers.count_evaluations(monkeypatch)
    assert solve_nash(default_scenario).n_served == 10
    assert 0 < len(calls) <= DEFAULT_CALLS
    assert sum(rates for rates, _ in calls) <= DEFAULT_RATES


# rising-at-zero cells of many users (RISING_AT_ZERO at other seeds and
# exponents), each with the evaluations its solve takes, and at the parent:
# a lower edge whose unfit end is out of reach, and an upper edge bracketed
# from the lower edge itself
RISING_CELLS = {
    "seed1255-36": (36, dict(RISING_AT_ZERO, seed=1255), 12, 25),
    "seed5845-60": (60, dict(RISING_AT_ZERO, seed=5845, price_exp=0.52, benefit_exp=0.76), 3, 5)}


@pytest.mark.parametrize("cell", list(RISING_CELLS))
def test_rising_at_zero_solves_take_fewer_evaluations(monkeypatch, cell):
    """No Newton of an upper edge starts from the lower edge, and a lower
    edge whose unfit end is out of reach is closed in: each cell's solve
    takes at most its measured evaluations, fewer than when the edges'
    paths were interpolated, and is bitwise the full scan's."""
    n_users, config, most, parent = RISING_CELLS[cell]
    sc = experiments.build_scenario(n_users, **config)
    calls = helpers.count_evaluations(monkeypatch)
    ne = solve_nash(sc)
    monkeypatch.undo()
    assert 0 < len(calls) <= most < parent
    assert helpers.nash_bits(ne) == helpers.nash_bits(helpers.full_scan_nash(sc))


def test_band_bound_solve_evaluation_count(monkeypatch, cell_80):
    calls = helpers.count_evaluations(monkeypatch)
    assert solve_nash(tenth_band(cell_80)).n_served == 80
    assert 0 < len(calls) <= NASH_80_TENTH_BAND_CALLS
    assert sum(rates for rates, _ in calls) <= NASH_80_TENTH_BAND_RATES


def test_far_cell_solve_evaluation_count(monkeypatch):
    """The 3 km cell with a band of 2e7 Hz serves 9 of its 10 users: its
    solve scans two set sizes, the edges of both bisected."""
    sc = experiments.build_scenario(cell_radius_m=3000.0, total_bandwidth_hz=2e7)
    calls = helpers.count_evaluations(monkeypatch)
    assert solve_nash(sc).n_served == 9
    assert 0 < len(calls) <= FAR_CELL_BAND_CALLS
    assert sum(rates for rates, _ in calls) <= FAR_CELL_BAND_RATES


# cells unlike the 80-user and default cells, each with the evaluations
# and rates its solve takes, and at the parent: the 30-user 600 m cell of
# seed 9, whose first Newton step leaves an error of 4.6e-12 in ln b, above
# 1/8 of the settle width, so it takes a second; the 20-user 1 km cell,
# whose rung past the edge is beyond a user's reach (T_n infinite), so its
# first estimate is a fan of midpoints
OTHER_CELLS = {
    "30-users-600m-seed9": (30, dict(cell_radius_m=600.0, seed=9), (4, 42), (5, 81)),
    "20-users-1km": (20, dict(cell_radius_m=1000.0), (4, 73), (8, 95))}


@pytest.mark.parametrize("cell", list(OTHER_CELLS))
def test_other_cells_solve_in_few_evaluations(monkeypatch, cell):
    """Each cell's solve takes at most its measured evaluations and rates,
    fewer than at the parent, and is bitwise the full scan's."""
    n_users, config, (most, most_rates), parent = OTHER_CELLS[cell]
    sc = experiments.build_scenario(n_users, **config)
    calls = helpers.count_evaluations(monkeypatch)
    ne = solve_nash(sc)
    monkeypatch.undo()
    count = (len(calls), sum(rates for rates, _ in calls))
    assert 0 < count[0] <= most < parent[0] and count[1] <= most_rates < parent[1]
    assert helpers.nash_bits(ne) == helpers.nash_bits(helpers.full_scan_nash(sc))


def test_solve_nash_inverts_each_probed_rate_once(monkeypatch, cell_80):
    """At 1/10 of its band the cell's solve scans 41 set sizes, whose ladders
    and bisections probe many rates more than once; each probed rate is a
    column of one evaluation only, the best rate (a set size's boundary)
    among them, and no evaluation follows the scan: the served users' need
    is the best rate's column. With the sized band the best rate is b*,
    probed with its edge's path. Either way the allocation is bitwise the
    one a fresh evaluation gives."""
    evaluations = []
    price_requirements = game._Users.price_requirements

    def recorded(self, rates_bps, **kwargs):
        evaluations.append(np.array(rates_bps, dtype=float, ndmin=1).tolist())
        return price_requirements(self, rates_bps, **kwargs)
    for sc in (tenth_band(cell_80), cell_80):
        evaluations.clear()
        monkeypatch.setattr(game._Users, "price_requirements", recorded)
        ne = solve_nash(sc)
        monkeypatch.undo()
        assert ne.n_served == 80
        columns = [rate for rates in evaluations for rate in rates]
        assert len(columns) == len(set(columns))
        assert ne.rate_bps in columns and ne.rate_bps not in evaluations[0]
        # a ladder's rungs and a bisection's predicted path fill one evaluation
        assert max(map(len, evaluations)) > 1
        need = game._Users(sc).price_requirements(ne.rate_bps)
        pad = (sc.total_bandwidth_hz - float(game._total(need))) / 80
        assert ne.allocation == tuple((need + pad).tolist())


def test_batched_price_requirements_are_each_rates_vector_bitwise(cell_80):
    """A users x rates evaluation is, column by column, bitwise the one-rate
    vector, at every rung the solve's ladders can probe: 2^-30 to 2^60 bps
    doubling, and 60 rates between."""
    users = game._Users(cell_80)
    rates = [2.0 ** k for k in range(-30, 61)] + np.geomspace(1e2, 2e7, 60).tolist()
    batch = users.price_requirements(rates)
    assert batch.shape == (80, len(rates))
    for k, rate in enumerate(rates):
        assert (users.price_requirements(rate) == batch[:, k]).all(), rate


@pytest.mark.parametrize("lowest, highest", [
    (0.0, 0.3), (0.0, 1e-9), (0.0, 3e-10), (0.0, 1.0), (0.0, 7e6), (0.0, 7e17), (0.0, 3e18),
    (0.7, 5.0), (5.0, 7e6), (3e4, 3e4 * (1.0 + 1e-13)), (1e5, 1e3)])
def test_feasibility_interval_of_a_rate_window(default_scenario, lowest, highest):
    """Rates fit strictly inside (lowest, highest): every ladder, the halvings
    below 1 bps down to the last, 2^-30, the climb of a rising-at-zero price,
    a window no ladder rung falls in and one past the 1e18 cap, ends as
    probing one rate at a time."""
    fits = lambda b: lowest < b < highest
    memo = helpers.fake_memo(fits, lambda b: max(lowest - b, b - highest))
    got = game._rate_feasibility_interval(*memo, default_scenario)
    want = helpers.sequential_feasibility_interval(fits, default_scenario)
    assert got == want


@pytest.mark.parametrize("highest", [7e17, 3e18])
def test_the_rung_past_the_cap_is_never_probed(default_scenario, highest):
    """Every rung up to 1e18 fits: the upper bisection ends at the rung past
    the cap, 2^60 bps, which no ladder probed, and it is not evaluated for
    its value either."""
    probes = []
    memo = helpers.fake_memo(lambda b: b < highest, lambda b: b - highest, probes)
    got = game._rate_feasibility_interval(*memo, default_scenario)
    assert got == helpers.sequential_feasibility_interval(lambda b: b < highest,
                                                          default_scenario)
    probed = [rate for rates in probes for rate in rates]
    assert 2.0 ** 59 in probed and 2.0 ** 60 not in probed


@pytest.mark.parametrize("case", ["default", "band-1e6-800m", "rising-at-zero"])
def test_ladders_probe_rates_as_one_at_a_time(monkeypatch, case):
    """The batched ladders and bisections end on the bracket that probing one
    rate at a time reaches, set size by set size."""
    seen = []
    interval = game._rate_feasibility_interval

    def compared(probe, fits, value, slope, scenario, *args):
        got = interval(probe, fits, value, slope, scenario, *args)

        def one_rate(b):
            probe([b])
            return bool(fits(b))
        want = helpers.sequential_feasibility_interval(one_rate, scenario)
        seen.append(got)
        assert got == want
        return got
    monkeypatch.setattr(game, "_rate_feasibility_interval", compared)
    for sc in oracle_cases()[case]():
        solve_nash(sc)
    assert seen


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
        # band-bound cells, where the upper edges' far midpoints are
        # inferred for many set sizes
        "band-bound-80": lambda: [tenth_band(experiments.build_scenario(
            80, cell_radius_m=300.0), share) for share in (3, 10)],
        "band-2e7-3km": lambda: [experiments.build_scenario(
            cell_radius_m=3000.0, total_bandwidth_hz=2e7)],
    }


@pytest.mark.parametrize("case", list(oracle_cases()))
def test_pruned_scan_matches_full_scan_bitwise(case):
    for sc in oracle_cases()[case]():
        assert helpers.nash_bits(solve_nash(sc)) == helpers.nash_bits(helpers.full_scan_nash(sc))


# a fuzz config (tests/test_cli.py::fuzz_configs, the third) with no
# equilibrium: every set size earns at most 0
NO_EQUILIBRIUM_FUZZ = {
    "seed": 3495, "n_users": 11, "cell_radius_m": 34.72399425765272,
    "tx_power_dbm": 1.3706482678558292, "pathloss_exponent": 4.07518504222952,
    "shadow_sigma_db": 2.0709616155910915, "price_exp": 0.5094665159595708,
    "benefit_exp": 0.8377912405522258, "c1": 9.954760769902511e-08,
    "c3": 5.609680181459485e-09, "price_coeff": 0.017205440045775997,
    "benefit_coeff": 0.002700097571224604, "total_bandwidth_hz": 2499486178.626763}


def test_scan_without_equilibrium_stops_once_no_smaller_set_can_earn(monkeypatch):
    """Once a scanned size earns >= 0, a size whose bound is <= 0 can
    neither be picked nor raise sp_revenue: the scan of the fuzz config
    stops there, in at most 40 evaluations (measured: 39), where scanning
    every size took 209, and its result is bitwise the full scan's."""
    sc = experiments.build_scenario(**NO_EQUILIBRIUM_FUZZ)
    calls = helpers.count_evaluations(monkeypatch)
    ne = solve_nash(sc)
    assert not ne.equilibrium and 0 < len(calls) <= 40
    monkeypatch.undo()
    assert helpers.nash_bits(ne) == helpers.nash_bits(helpers.full_scan_nash(sc))


# evaluations and rates the solves of the 28 configs of test_cli.fuzz_configs
# that build take in all, as recorded when each feasibility edge came to be
# a Newton root (579 calls of 7,892 rates along paths interpolated through
# the values the memo holds, 797 of 9,303 along secant-predicted paths)
FUZZ_SOLVE_CALLS, FUZZ_SOLVE_RATES = 402, 7166


def test_fuzz_solves_are_the_full_scans_in_few_evaluations(monkeypatch):
    """Every config of test_cli.fuzz_configs that builds a scenario solves
    to bitwise the full scan's result, no equilibrium included, and the solves
    together take no more evaluations and rates than recorded."""
    scenarios = []
    for config in fuzz_configs():
        try:
            scenarios.append(experiments.build_scenario(**config))
        except ValueError:
            continue  # a refused config: test_cli checks its exit
    calls = helpers.count_evaluations(monkeypatch)
    solved = [solve_nash(sc) for sc in scenarios]
    monkeypatch.undo()
    assert len(scenarios) == 28
    assert len(calls) <= FUZZ_SOLVE_CALLS
    assert sum(rates for rates, _ in calls) <= FUZZ_SOLVE_RATES
    for sc, ne in zip(scenarios, solved):
        assert helpers.nash_bits(ne) == helpers.nash_bits(helpers.full_scan_nash(sc))


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
    intervals = [0]
    scan = game._rate_feasibility_interval

    def counted(*args):
        intervals[0] += 1
        return scan(*args)
    monkeypatch.setattr(game, "_rate_feasibility_interval", counted)
    vectors = helpers.count_evaluations(monkeypatch)
    assert solve_nash(cell_80).n_served == 80
    assert intervals[0] == 1
    assert 0 < len(vectors) <= 100
