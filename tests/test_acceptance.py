"""End-to-end behavior gate: one test per shipped guarantee, each timed.

Every test here states an external promise of the package: the classic
certainty-effect numbers, the weighting identities, solver agreement with
exhaustive search, the structure of the revenue-loss and recovery sweeps,
and the data fit. Timing budgets are asserted so regressions in asymptotics
fail loudly rather than slowly.
"""

import math
import time

import numpy as np

import helpers
from prospect_pricing.experiments import (
    DEFAULT_RANGE_COMPARISON,
    DEFAULT_RANGE_EXPANSION,
    DEFAULT_RANGE_LOSS,
    SweepSpec,
    bundled_psych_records,
    fit_psychophysics,
    sweep_comparison,
    sweep_expansion,
    sweep_revenue_loss,
)
from prospect_pricing.game import solve_nash
from prospect_pricing.prospect import ne_preserved
from prospect_pricing.weighting import (
    IDENTITY,
    Lottery,
    WeightingModel,
    fit_alpha,
    lottery_value,
    weight,
)

INV_E = math.exp(-1.0)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(name, budget, elapsed):
    print(f"{name}: PASS ({elapsed:.3f}s of {budget:.0f}s budget)")


def test_criterion_1_certainty_effect_values():
    safe_2400 = Lottery(((2400.0, 1.0),))
    mixed_high = Lottery(((2500.0, 0.33), (2400.0, 0.66), (0.0, 0.01)))
    long_shot = Lottery(((2500.0, 0.33), (0.0, 0.67)))
    near_long_shot = Lottery(((2500.0, 0.34), (0.0, 0.66)))
    lottery_value(mixed_high, IDENTITY)  # warm-up outside the timer

    with Stopwatch() as sw:
        value_a = lottery_value(mixed_high, IDENTITY)
        value_b = lottery_value(safe_2400, IDENTITY)
        value_c = lottery_value(long_shot, IDENTITY)
        value_d = lottery_value(near_long_shot, IDENTITY)

    assert value_a == 2409.0
    assert value_b == 2400.0
    assert value_c == 825.0
    # 2500 * 0.34 is not representable; the exact expected value is the
    # correctly rounded product, one ulp above 850
    assert value_d == 2500.0 * 0.34
    assert abs(value_d - 850.0) < 1e-12
    assert sw.elapsed < 1e-3
    report("criterion 1 (certainty-effect values)", 1e-3, sw.elapsed)


def test_criterion_2_weighting_identities():
    with Stopwatch() as sw:
        for alpha in np.linspace(0.1, 1.0, 10):
            model = WeightingModel(alpha=float(alpha))
            assert abs(weight(INV_E, model) - INV_E) <= 1e-12
        for p in np.linspace(1e-9, 1.0, 1000):
            assert abs(weight(float(p), IDENTITY) - float(p)) <= 1e-12
    assert sw.elapsed < 1.0
    report("criterion 2 (weighting identities)", 1.0, sw.elapsed)


def brute_grid_slack(scenario, brute_grid=2000):
    # same doubling rule the exhaustive search uses to pick its rate ceiling
    hi = 1.0
    while scenario.pricing(hi) > scenario.cost.c1 * hi and hi < 1e18:
        hi *= 2.0
    step = hi / brute_grid
    worst = scenario.pricing(2.0 * step) - scenario.pricing(step)
    return scenario.n_users * worst


def test_criterion_3_solver_matches_exhaustive_search():
    rng = np.random.default_rng(777)
    with Stopwatch() as sw:
        for _ in range(20):
            sc = helpers.random_small_scenario(rng)
            fast = solve_nash(sc)
            slow = helpers.brute_force_nash(sc)
            assert fast.equilibrium == slow.equilibrium
            assert fast.n_served == slow.n_served
            if fast.equilibrium:
                slack = brute_grid_slack(sc)
                assert fast.sp_revenue >= slow.sp_revenue - 1e-9 * abs(slow.sp_revenue)
                assert fast.sp_revenue - slow.sp_revenue <= slack
            helpers.check_solver_posthoc(sc, fast)
    assert sw.elapsed < 60.0
    report("criterion 3 (solver vs exhaustive search)", 60.0, sw.elapsed)


def test_criterion_4_revenue_loss_structure(default_scenario, default_ref):
    sc = default_scenario
    with Stopwatch() as sw:
        identity_row = sweep_revenue_loss(
            SweepSpec(scenario=sc, alpha_min=1.0, alpha_max=1.0,
                      alpha_step=0.005)).rows[0]
        assert identity_row == (1.0, 0.0, 0.0)

        def preserved(alpha):
            return ne_preserved(sc, default_ref,
                                WeightingModel(alpha=alpha)).preserved

        lo, hi = 0.85, 1.0
        assert not preserved(lo)
        assert preserved(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if preserved(mid):
                hi = mid
            else:
                lo = mid
        alpha_th = hi
        assert 0.90 <= alpha_th <= 0.97
        assert abs(alpha_th - 0.9324594366904853) <= 1e-4

        amin, amax = DEFAULT_RANGE_LOSS
        table = sweep_revenue_loss(
            SweepSpec(scenario=sc, alpha_min=amin, alpha_max=amax,
                      alpha_step=0.005))
        for alpha, strict, realloc in table.rows:
            assert realloc <= strict + 1e-12
            if alpha < 0.93:
                assert 0.002 <= strict - realloc <= 0.03
    assert sw.elapsed < 60.0
    report("criterion 4 (revenue-loss structure)", 60.0, sw.elapsed)


def test_criterion_5_expansion_threshold_crossing(default_scenario):
    amin, amax = DEFAULT_RANGE_EXPANSION
    with Stopwatch() as sw:
        table = sweep_expansion(
            SweepSpec(scenario=default_scenario, alpha_min=amin,
                      alpha_max=amax, alpha_step=0.005))
        fits = []
        for alpha, bw_norm, rev_norm, _ in table.rows:
            # needing no extra bandwidth and recovering the revenue are the
            # same event, row by row
            assert (bw_norm <= 1.0) == (rev_norm >= 1.0)
            fits.append((alpha, bw_norm <= 1.0))
        crossing = next(alpha for alpha, ok in fits if ok)
        assert all(not ok for alpha, ok in fits if alpha < crossing)
        assert all(ok for alpha, ok in fits if alpha >= crossing)
        assert 0.84 <= crossing <= 0.93
        assert crossing == 0.88
    assert sw.elapsed < 60.0
    report("criterion 5 (expansion threshold crossing)", 60.0, sw.elapsed)


def test_criterion_6_strategy_comparison(default_scenario):
    amin, amax = DEFAULT_RANGE_COMPARISON
    with Stopwatch() as sw:
        table = sweep_comparison(
            SweepSpec(scenario=default_scenario, alpha_min=amin,
                      alpha_max=amax, alpha_step=0.005))
        admission_defined = []
        for row in table.rows:
            alpha, bw_np, bw_exp, bw_adm, bw_rate = row[:5]
            if alpha < 0.95:
                # pricing-free acceptance needs the most bandwidth
                assert bw_np >= bw_exp - 1e-12
                assert bw_np >= bw_rate - 1e-12
                if bw_adm is not None:
                    assert bw_np >= bw_adm - 1e-12
            # rate adaptation is the cheapest recovery everywhere
            assert bw_rate <= bw_exp + 1e-12
            assert bw_rate <= bw_np + 1e-12
            if bw_adm is not None:
                assert bw_rate <= bw_adm + 1e-12
            admission_defined.append((alpha, bw_adm is not None))
        first_defined = next(alpha for alpha, ok in admission_defined if ok)
        assert all(not ok for alpha, ok in admission_defined
                   if alpha < first_defined)
        assert 0.93 <= first_defined <= 0.98
    assert sw.elapsed < 120.0
    report("criterion 6 (strategy comparison)", 120.0, sw.elapsed)


def test_criterion_7_exponent_fit():
    with Stopwatch() as sw:
        model, _, samples = fit_psychophysics(bundled_psych_records())
        assert 0.45 <= model.alpha <= 0.70
        assert len(samples) == 30

        truth = WeightingModel(alpha=0.6)
        synthetic = [(float(p), weight(float(p), truth))
                     for p in np.linspace(0.02, 0.98, 49)]
        recovered, mse = fit_alpha(synthetic)
        assert abs(recovered.alpha - 0.6) <= 1e-4
        assert mse <= 1e-10
    assert sw.elapsed < 1.0
    report("criterion 7 (weighting-exponent fit)", 1.0, sw.elapsed)


def test_criterion_8_property_suites(default_scenario, default_ne):
    sc, ne = default_scenario, default_ne
    with Stopwatch() as sw:
        helpers.check_weight_monotone(1000, 801)
        helpers.check_weight_regions(1000, 802)
        helpers.check_inverse_roundtrip(1000, 803)
        helpers.check_fixed_points(1000, 804)
        helpers.check_lottery_identity(1000, 805)
        helpers.check_db_roundtrip(1000, 806)
        helpers.check_guarantee_monotone(1000, 807)
        helpers.check_min_bandwidth_consistency(1000, 808)
        helpers.check_solver_random_scenarios(1000, 809)
        helpers.check_mean_acceptance_invariance(1000, 810, sc, ne)
        helpers.check_loss_ordering(1000, 811, sc, ne)
        helpers.check_loss_zero_iff_preserved(
            sc, ne, np.arange(0.90, 1.0001, 0.01))
        helpers.check_threshold_monotone(sc, ne, (0.88, 0.94, 1.0))
        spec = SweepSpec(scenario=sc, alpha_min=0.95, alpha_max=0.96,
                         alpha_step=0.005)
        table = helpers.check_sweep_deterministic(sweep_revenue_loss, spec)
        helpers.check_sweep_bounds(
            table, loss_cols=("loss_strict_norm", "loss_realloc_norm"))
    assert sw.elapsed < 300.0
    report("criterion 8 (module property suites)", 300.0, sw.elapsed)
