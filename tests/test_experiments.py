import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

import helpers
import prospect_pricing
import test_cli
import test_golden
from prospect_pricing import channel, experiments, game, prospect
from prospect_pricing.channel import UnattainableGuaranteeError, watts_to_dbm
from prospect_pricing.game import min_bandwidth_for_user, solve_nash
from prospect_pricing.weighting import InsufficientDataError, WeightingModel
from prospect_pricing.experiments import (
    DEFAULT_SEED,
    HEADER_ADMISSION,
    HEADER_COMPARISON,
    HEADER_EXPANSION,
    HEADER_FIT,
    HEADER_LOSS,
    HEADER_NE,
    HEADER_PRICE,
    InfeasibleScenarioError,
    NoEquilibriumError,
    PsychRecord,
    SweepSpec,
    SweepTable,
    build_scenario,
    bundled_psych_records,
    fit_psychophysics,
    fit_table,
    format_cell,
    load_psych_records,
    ne_table,
    reference_offer,
    sweep_admission,
    sweep_comparison,
    sweep_expansion,
    sweep_price,
    sweep_revenue_loss,
    unconstrained_optimal_rate,
    write_csv,
)

# frozen outputs of the default scenario (seed 4966), regression anchors
B_U = 6986353.7310231712945
FROZEN_DISTANCES = [391.511368503, 640.845097397, 611.81088432, 421.804067179,
                    749.781800672, 524.915508175, 505.282959135, 293.969138314,
                    511.630089945, 685.562951359]
FROZEN_SHADOWS = [0.931056398, 4.104080505, -0.359845283, -2.784706062,
                  -3.051487699, 4.067303082, 5.796955967, 0.620067028,
                  2.073742519, 1.929620112]
FROZEN_RX_DBM = [-75.237518871655, -80.624842317057, -84.283333415346,
                 -80.24793675744, -90.507683658876, -77.195073244193,
                 -74.803230276261, -70.570802720172, -78.743300783919,
                 -83.971073651702]
FROZEN_MIN_BW = [687494.226458, 869115.78699, 1069160.482844, 853026.877278,
                 1854960.879981, 743211.706558, 676329.716378, 584897.7094,
                 794784.905348, 1048147.191673]
# 50-digit mpmath root of the band-sizing sum; the bisection this replaced
# gave 10099242.916558003, 3.2e-6 Hz short of it
FROZEN_BAND = 10099242.9165611766
FROZEN_NE_RATE = 6986353.51799847
FROZEN_NE_PRICE = 2.839981120464599
FROZEN_NE_REVENUE = 5.010973715485514

FROZEN_LOSS_ROWS = {
    0.92: (0.018130940609289697, 0.0),
    0.925: (0.010796197645866474, 0.0),
    0.93: (0.0035403425260000176, 0.0),
    0.935: (0.0, 0.0),
}
FROZEN_PRICE_STRICT = {
    0.92: 0.9968009049575961,
    0.925: 0.9980950756805882,
    0.93: 0.9993753271240581,
    0.935: 1.0,
}
FROZEN_EXPANSION_ROWS = {
    0.87: (1.0085404569371181, 0.9868906047548909),
    0.875: (1.0034813559075817, 0.9946158216221619),
    0.88: (0.9985540061224467, 1.0022527848764415),
    0.885: (0.9937528806034853, 1.0098023720076903),
}
FROZEN_ADMISSION_RATIOS = {10: 1.0, 9: 1.0200000005000613,
                           8: 1.045000001125138, 7: 1.077142859071665}
FROZEN_COMPARISON_ROWS = {
    0.955: (0.937340745, 0.937340745, None, 0.100146002,
            1.0, 1.106800349, 0.998310523, 1.607760667),
    0.96: (0.933943686, 0.933943686, 0.777350873, 0.099817066,
           1.0, 1.113140809, 1.0, 1.609448488),
}
FROZEN_FIT_ALPHA = 0.6975240356393876
FROZEN_FIT_MSE = 0.025088496317807272


def spec_for(sc, lo, hi, step=0.005):
    return SweepSpec(scenario=sc, alpha_min=lo, alpha_max=hi, alpha_step=step)


def test_unconstrained_optimal_rate_frozen():
    got = unconstrained_optimal_rate(helpers.STD_PRICING, helpers.STD_COST)
    assert abs(got - B_U) <= 1e-6 * B_U


def test_default_scenario_frozen_draws(default_scenario):
    sc = default_scenario
    assert sc.n_users == 10
    for i in range(10):
        rx = watts_to_dbm(sc.users[i].received_power_w)
        assert abs(rx - FROZEN_RX_DBM[i]) <= 1e-6
    rng = np.random.default_rng(DEFAULT_SEED)
    for i in range(10):
        dist = max(20.0, 800.0 * math.sqrt(rng.random()))
        shadow = rng.normal(0.0, 4.0)
        assert abs(dist - FROZEN_DISTANCES[i]) <= 1e-6
        assert abs(shadow - FROZEN_SHADOWS[i]) <= 1e-6


def replayed_scenario(config):
    """build_scenario(**config) through the public path: each user's draws,
    in the frozen order, replayed through LinkBudget and channel_from_budget,
    with the received power checked bitwise against the link arithmetic in
    its order ((tx + K) - path) + shadow, and the band sized through
    min_bandwidth_for_user. A received power past the float range is
    refused by the config keys it comes from, as ScenarioParams refuses
    such a noise PSD."""
    p = experiments.ScenarioParams(**config)
    rng = np.random.default_rng(p.seed)
    users = []
    for _ in range(p.n_users):
        dist = max(p.ref_distance_m, p.cell_radius_m * math.sqrt(rng.random()))
        link = channel.LinkBudget(
            tx_power_dbm=p.tx_power_dbm, antenna_const_db=p.antenna_const_db,
            pathloss_exponent=p.pathloss_exponent, distance_m=dist,
            ref_distance_m=p.ref_distance_m, shadow_db=rng.normal(0.0, p.shadow_sigma_db),
            noise_psd_dbm_per_hz=p.noise_psd_dbm_per_hz)
        path = 10.0 * p.pathloss_exponent * math.log10(dist / p.ref_distance_m)
        rx = ((p.tx_power_dbm + p.antenna_const_db) - path) + link.shadow_db
        assert channel.received_power(link).hex() == rx.hex()
        try:
            users.append(channel.channel_from_budget(link))
        except ValueError as exc:
            if str(exc) != "received_power_w must be finite, got inf":
                raise
            # build_scenario names the config keys a received power comes from
            raise ValueError("invalid config value for 'tx_power_dbm', 'antenna_const_db' "
                             f"or 'shadow_sigma_db': {exc}") from exc
    pricing = game.PowerLaw(p.price_coeff, p.price_exp)
    sc = game.Scenario(users=tuple(users), benefit=game.PowerLaw(p.benefit_coeff, p.benefit_exp),
                       pricing=pricing, cost=game.CostModel(p.c1, p.c3),
                       total_bandwidth_hz=p.total_bandwidth_hz or 1.0)
    if p.total_bandwidth_hz is not None:
        return sc
    rate = unconstrained_optimal_rate(pricing, sc.cost)
    try:
        need = game._total([min_bandwidth_for_user(rate, i, sc) for i in range(p.n_users)])
    except UnattainableGuaranteeError as exc:
        raise InfeasibleScenarioError(exc.rate_bps, exc.target, exc.supremum) from exc
    return dataclasses.replace(sc, total_bandwidth_hz=(1.0 + p.bandwidth_margin) * float(need))


def scenario_bits(config, build):
    """The bits of every user's channel and of the band, or the refusal."""
    try:
        sc = build(config)
    except ValueError as exc:
        return type(exc), str(exc)
    return ([(ch.received_power_w.hex(), ch.noise_psd_w_per_hz.hex()) for ch in sc.users],
            sc.total_bandwidth_hz.hex(), sc.pricing, sc.benefit, sc.cost)


def test_build_scenario_is_the_public_path_bitwise():
    """Each user's channel is formed straight from its draws, with no
    LinkBudget, yet every channel, the band and every refusal (its type and
    message) are those of the public path: over the CLI fuzz configs, the
    golden files' cells, and powers past the float range."""
    configs = [*test_cli.fuzz_configs(), {},
               *({"seed": seed} for seed in test_golden.SEEDS),
               test_golden.FAR_CELL, test_golden.FAR_CELL_BAND, test_golden.CELL_80,
               test_golden.CELL_80_TENTH_BAND, test_golden.RISING_AT_ZERO_4,
               *({key: value} for key in ("tx_power_dbm", "antenna_const_db",
                                          "noise_psd_dbm_per_hz", "shadow_sigma_db")
                 for value in (4000, 1e300, -1e300))]
    refused = 0
    for config in configs:
        got = scenario_bits(config, lambda c: build_scenario(**c))
        assert got == scenario_bits(config, replayed_scenario), config
        refused += isinstance(got[0], type)
    assert 12 <= refused <= len(configs) - 20


def test_build_scenario_deterministic():
    a = build_scenario()
    b = build_scenario()
    for i in range(a.n_users):
        assert a.users[i].received_power_w == b.users[i].received_power_w
    assert a.total_bandwidth_hz == b.total_bandwidth_hz


def test_band_sizing_rule(default_scenario):
    sc = default_scenario
    assert abs(sc.total_bandwidth_hz - FROZEN_BAND) <= 1e-6
    rate_opt = unconstrained_optimal_rate(sc.pricing, sc.cost)
    mins = [min_bandwidth_for_user(rate_opt, i, sc) for i in range(10)]
    # anchors were computed at the exact stationary rate; the searched rate
    # sits within 1e-6 relative of it, moving each requirement by under 1 Hz
    for got, want in zip(mins, FROZEN_MIN_BW):
        assert abs(got - want) <= 1.0
    assert sc.total_bandwidth_hz == (1.0 + 0.10) * float(game._total(mins))


def test_explicit_band_override():
    sc = build_scenario(n_users=2, total_bandwidth_hz=3e6)
    assert sc.total_bandwidth_hz == 3e6


def test_build_scenario_rejects_empty():
    with pytest.raises(ValueError):
        build_scenario(n_users=0)


@pytest.mark.parametrize("key, value, expected", [
    ("n_users", 2.5, "an integer"), ("seed", 1.5, "an integer"), ("n_users", True, "an integer"),
    ("seed", True, "an integer"), ("c1", True, "a number"), ("c1", "1e-7", "a number"),
    ("total_bandwidth_hz", np.True_, "a number")])
def test_scenario_params_refuse_a_value_of_the_wrong_type(key, value, expected):
    """A bool is not taken as 1, nor a fraction of a user as a count: the
    refusal names the field, in the CLI's words, before the builder runs."""
    with pytest.raises(ValueError,
                       match=f"invalid config value for {key!r}: expected {expected}$"):
        build_scenario(**{key: value})


def test_scenario_params_take_numpy_scalars_and_store_floats():
    params = experiments.ScenarioParams(n_users=np.int64(3), seed=np.uint8(7), c1=0,
                                        total_bandwidth_hz=np.float32(2e6))
    assert params == experiments.ScenarioParams(n_users=3, seed=7, c1=0.0,
                                                total_bandwidth_hz=2e6)
    assert type(params.n_users) is int and type(params.seed) is int
    assert type(params.c1) is float and type(params.total_bandwidth_hz) is float
    assert build_scenario(np.int64(3), seed=np.uint8(7)).n_users == 3


def test_band_sizing_raises_a_typed_error_for_an_unservable_user():
    # in a 3 km cell a far user's guarantee stays below the price-to-benefit
    # target at the optimal rate, whatever the band
    with pytest.raises(InfeasibleScenarioError) as exc:
        build_scenario(cell_radius_m=3000.0)
    assert isinstance(exc.value, UnattainableGuaranteeError)
    assert exc.value.target > exc.value.supremum
    # a given band skips the sizing, and the scenario builds
    assert build_scenario(cell_radius_m=3000.0, total_bandwidth_hz=1e6).n_users == 10


def test_nash_anchors(default_scenario, default_ne):
    ne = default_ne
    assert ne.equilibrium
    assert ne.n_served == 10
    assert abs(ne.rate_bps - FROZEN_NE_RATE) <= 1e-9 * FROZEN_NE_RATE
    assert abs(ne.price - FROZEN_NE_PRICE) <= 1e-12
    assert abs(ne.sp_revenue - FROZEN_NE_REVENUE) <= 1e-12


def test_reference_offer_allocations(default_scenario, default_ne, default_ref):
    ref = default_ref
    assert ref.served_set == default_ne.served_set
    assert ref.price == default_ne.price
    for i in ref.served_set:
        req = min_bandwidth_for_user(ref.rate_bps, i, default_scenario)
        assert ref.allocation[i] == (1.0 + 0.10) * req


def rows_by_alpha(table):
    return {row[0]: row[1:] for row in table.rows}


def test_loss_sweep_frozen_rows(default_scenario):
    table = sweep_revenue_loss(spec_for(default_scenario, 0.92, 0.94))
    assert table.header == HEADER_LOSS
    got = rows_by_alpha(table)
    for a, (strict, realloc) in FROZEN_LOSS_ROWS.items():
        assert abs(got[a][0] - strict) <= 1e-9
        assert abs(got[a][1] - realloc) <= 1e-9
    helpers.check_sweep_bounds(table, loss_cols=("loss_strict_norm",
                                                 "loss_realloc_norm"))


def test_losses_vanish_exactly_at_identity(default_scenario):
    table = sweep_revenue_loss(spec_for(default_scenario, 1.0, 1.0))
    assert table.rows == ((1.0, 0.0, 0.0),)
    prices = sweep_price(spec_for(default_scenario, 1.0, 1.0))
    assert prices.rows == ((1.0, 1.0, 1.0),)


def test_price_sweep_frozen_rows(default_scenario):
    table = sweep_price(spec_for(default_scenario, 0.92, 0.96))
    assert table.header == HEADER_PRICE
    got = rows_by_alpha(table)
    for a, strict in FROZEN_PRICE_STRICT.items():
        assert abs(got[a][0] - strict) <= 1e-9
        assert abs(got[a][1] - 1.0) <= 1e-9
    alphas = [row[0] for row in table.rows]
    strict_col = [row[1] for row in table.rows]
    assert alphas == sorted(alphas)
    for lo, hi in zip(strict_col[:-1], strict_col[1:]):
        assert hi >= lo - 1e-12
    for row in table.rows:
        assert row[2] >= row[1] - 1e-12
    helpers.check_sweep_bounds(table, unit_interval_cols=("price_strict_norm",
                                                          "price_realloc_norm"))


def test_expansion_sweep_frozen_rows_and_crossing(default_scenario):
    table = sweep_expansion(spec_for(default_scenario, 0.87, 0.885))
    assert table.header == HEADER_EXPANSION
    got = rows_by_alpha(table)
    for a, (bw, rev) in FROZEN_EXPANSION_ROWS.items():
        assert abs(got[a][0] - bw) <= 1e-9
        assert abs(got[a][1] - rev) <= 1e-9
        assert got[a][2] == 1.0
        # the two normalized columns cross their common reference together
        assert (got[a][0] <= 1.0) == (got[a][1] >= 1.0)
    at_identity = sweep_expansion(spec_for(default_scenario, 1.0, 1.0))
    row = at_identity.rows[0]
    assert abs(row[1] - 0.9090908654008973) <= 1e-9
    # with no weighting distortion the headroom margin is exactly recovered
    assert abs(row[1] - 1.0 / 1.1) <= 1e-6
    assert abs(row[2] - 1.1612615632112577) <= 1e-9


def test_admission_sweep_structure(default_scenario):
    table = sweep_admission(spec_for(default_scenario, 0.85, 0.88), max_drops=3)
    assert table.header == HEADER_ADMISSION
    first_feasible = {}
    for alpha, n_served, ratio, loss, feasible in table.rows:
        assert n_served in (10, 9, 8, 7)
        if feasible:
            first_feasible.setdefault(n_served, alpha)
            assert abs(ratio - FROZEN_ADMISSION_RATIOS[n_served]) <= 1e-9
            assert loss == 0.0
        else:
            assert ratio < FROZEN_ADMISSION_RATIOS[n_served]
            assert loss > 0.0
        assert 0.0 <= loss <= 1.0
    assert first_feasible == {10: 0.88, 9: 0.85, 8: 0.85, 7: 0.85}


def test_comparison_sweep_frozen_rows(default_scenario):
    table = sweep_comparison(spec_for(default_scenario, 0.955, 0.96))
    assert table.header == HEADER_COMPARISON
    got = rows_by_alpha(table)
    for a, want in FROZEN_COMPARISON_ROWS.items():
        row = got[a]
        for col, (g, w) in enumerate(zip(row, want)):
            if w is None:
                assert g is None, f"alpha {a} col {col}"
            else:
                assert abs(g - w) <= 1e-6, f"alpha {a} col {col}"


@pytest.mark.parametrize("sweep, kwargs, batches", [
    (sweep_revenue_loss, {}, 1), (sweep_price, {}, 1), (sweep_expansion, {}, 1),
    (sweep_comparison, {}, 1), (sweep_admission, {"max_drops": 2}, 1)])
def test_sweeps_search_every_alpha_in_one_batch(default_scenario, monkeypatch,
                                               sweep, kwargs, batches):
    """Every sweep solves its levels in one level search, one root per
    distinct (rate, band, member set) whatever the alphas: sweep-loss,
    sweep-price and sweep-expansion one, the offered rate, through one
    equalized_levels call of every alpha; sweep-compare 37, the offered
    rate and the 36-rate grid, graded at every alpha; and sweep-admission
    one per kept set. In the default windows (and 3 drops) the commands
    solve 1, 1, 1, 37 and 4 roots (17, 17, 33, 124 and 4 problems while
    each alpha was a problem of its own; sweep-compare 4 while a branch and
    bound solved only each alpha's three grid points of largest bound, a
    search of as many steps)."""
    real = experiments.equalized_levels
    sizes = []

    def counting(scenario, users, rates, alphas, totals):
        levels = real(scenario, users, rates, alphas, totals)
        sizes.append(levels.size)
        return levels

    def one_problem(*args, **kw):
        raise AssertionError("a sweep solved a single equalized problem")

    monkeypatch.setattr(experiments, "equalized_levels", counting)
    monkeypatch.setattr(experiments.prospect, "equalized_willingness", one_problem)
    steps = helpers.count_level_steps(monkeypatch)
    default_window = {sweep_revenue_loss: experiments.DEFAULT_RANGE_LOSS,
                      sweep_price: experiments.DEFAULT_RANGE_PRICE,
                      sweep_expansion: experiments.DEFAULT_RANGE_EXPANSION,
                      sweep_admission: experiments.DEFAULT_RANGE_ADMISSION,
                      sweep_comparison: experiments.DEFAULT_RANGE_COMPARISON}[sweep]
    runs = [(spec_for(default_scenario, 1.0 - 0.05 * (n - 1), 1.0, step=0.05), kwargs)
            for n in (1, 3)] + [(SweepSpec(default_scenario, *default_window), {})]
    for spec, extra in runs:
        sizes.clear()
        steps.clear()
        sweep(spec, **extra)
        if sweep is sweep_admission:
            problems = extra.get("max_drops", 3) + 1
        else:
            problems = 37 if sweep is sweep_comparison else 1
        assert [search[0] for search in steps] == [problems] * batches
        assert sizes == ([] if sweep in (sweep_admission, sweep_comparison) else [spec.n_alphas])


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 1, 2, 3, 5, 11])
def test_admission_sweep_matches_one_search_per_kept_set(seed):
    """One search over the served users, each kept set a membership column,
    gives every row bitwise what one search per kept set gives: over alphas
    0.01 to 1.0, where targets go out of reach, for 0 to 3 drops. The
    survivors' band of sweep-compare, taken from the served users'
    evaluator, is bitwise the survivors' own evaluator's wherever it prints:
    at seeds 2 and 5 the survivors accept the markup at no alpha."""
    spec = SweepSpec(build_scenario(seed=seed), 0.01, 1.0, 0.01)
    for max_drops in range(4):
        want = helpers.per_set_admission(spec, max_drops)
        assert helpers.row_bits(sweep_admission(spec, max_drops).rows) == helpers.row_bits(want)
    bands = [row[3] for row in sweep_comparison(spec).rows]
    assert any(band is not None for band in bands) == (seed not in (2, 5))
    for band, want in zip(bands, helpers.survivors_bands(spec)):
        assert band is None or band.hex() == want.hex()


def test_tied_channels_keep_the_lower_index(monkeypatch):
    """Of two users with the same channel, every ranking keeps the lower
    index: solve_nash serves it, and admission_controls, sweep_admission's
    kept sets and sweep_comparison's survivors deny the higher one first.
    The default cell with user 4's channel, its worst, copied to user 0."""
    sc = build_scenario()
    users = list(sc.users)
    users[0] = users[4]
    tied = dataclasses.replace(sc, users=tuple(users))
    ref = experiments.reference_offer(tied, solve_nash(tied))
    assert ref.served_set == tuple(range(10))
    alphas = [0.01 * k for k in range(1, 101)]
    kept_sets = {o.served_set for o in prospect.admission_controls(tied, ref, alphas, 1)}
    assert kept_sets == {ref.served_set, (0, 1, 2, 3, 5, 6, 7, 8, 9)}
    members = []
    solve_levels = prospect._solve_levels

    def recorded(need, totals, *args, **kwargs):
        members.append(need.members)
        return solve_levels(need, totals, *args, **kwargs)
    monkeypatch.setattr(prospect, "_solve_levels", recorded)
    sweep_admission(SweepSpec(tied, 0.9, 0.9), max_drops=2)
    assert [np.flatnonzero(~column).tolist() for column in members[0].T] == [[], [4], [0, 4]]
    survivors = []
    min_willingness = experiments._min_willingness

    def recorded_willingness(sc, ref, alphas, users=None):
        survivors.append(users)
        return min_willingness(sc, ref, alphas, users)
    monkeypatch.setattr(experiments, "_min_willingness", recorded_willingness)
    sweep_comparison(SweepSpec(tied, 0.9, 0.9))
    assert survivors == [(0, 1, 2, 3, 5, 6, 7, 8, 9)]
    # a pair only one of whom fits: a price rising more slowly than the
    # benefit puts a floor under each requirement
    far, near = helpers.make_channel(700.0), helpers.make_channel(300.0)
    pair = game.Scenario(users=(far, near, far), benefit=helpers.STD_BENEFIT,
                         pricing=game.PowerLaw(5e-3, 0.5), cost=helpers.STD_COST,
                         total_bandwidth_hz=1.2)
    assert solve_nash(pair).served_set == (0, 1)


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 2, 5, 10])
def test_comparison_matches_a_search_of_every_grid_point(seed):
    """The level cap skips only grid points strictly below their row's best,
    so every cell that reads a level (rev_expansion_norm at the offered
    rate, rev_rate_norm over the grid) has the bits that grading every grid
    point through the same levels gives: in the default window and over
    0.01-1.0, where targets go out of reach. The bound's premise holds: no
    level passes cap*(1 - 1e-12), the cap of an evaluator at the problem's
    own alpha, and the bound's caps, formed from one evaluator at alpha =
    1 (caps(alphas)), are bitwise those caps. The other seven columns read
    no level."""
    sc = build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    rates = np.append(ref.rate_bps, np.geomspace(1e-3 * ref.rate_bps, 10.0 * ref.rate_bps, 36))
    one = game._Users(sc, ref.served_set).at(rates, 1.0)
    for window in (experiments.DEFAULT_RANGE_COMPARISON, (0.01, 1.0, 0.01)):
        spec = SweepSpec(sc, *window)
        levels, caps, cells = helpers.full_grid_comparison(spec)
        assert (levels <= caps * (1.0 - 1e-12)).all()
        closed = one.caps(np.array(spec.alphas())[:, None])
        assert closed.ravel().tobytes() == caps.tobytes()
        assert [(row[6], row[8]) for row in sweep_comparison(spec).rows] == cells


@pytest.mark.parametrize("seed, benefit_exp", [
    (experiments.DEFAULT_SEED, 0.65), (2, 0.65), (5, 0.65), (11, 0.65), (3, 0.9)])
def test_scaled_levels_print_what_a_search_at_every_alpha_prints(seed, benefit_exp,
                                                                monkeypatch):
    """Reading every alpha's level off one root per rate moves no printed
    cell: sweep-compare over alphas 0.01-1.0, one level search of 37 roots,
    prints exactly the CSV it prints when each root is searched alone, and
    its level cells have the bits of each (rate, alpha) problem searched as
    its own root (helpers.full_grid_comparison). {"benefit_exp": 0.9}, seed
    3, is a cell where grid points past the three of largest bound reach
    their row's best."""
    spec = SweepSpec(build_scenario(seed=seed, benefit_exp=benefit_exp), 0.01, 1.0, 0.01)
    _, _, cells = helpers.full_grid_comparison(spec)
    steps = helpers.count_level_steps(monkeypatch)
    batched = sweep_comparison(spec)
    assert [search[0] for search in steps] == [37]
    assert helpers.row_bits([(row[6], row[8]) for row in batched.rows]) == helpers.row_bits(cells)
    search = prospect._level_roots

    def one_by_one(need, band, *args, **kwargs):
        return np.concatenate([search(need.columns([k]), band[k:k + 1], *args, **kwargs)
                               for k in range(band.size)])
    monkeypatch.setattr(prospect, "_level_roots", one_by_one)
    steps.clear()
    assert sweep_comparison(spec).to_csv() == batched.to_csv()
    assert len(steps) == 37 and all(alone == [1] * len(alone) for alone in steps)


@pytest.mark.parametrize("seed", [experiments.DEFAULT_SEED, 2, 5, 10])
def test_a_level_at_an_alpha_column_is_its_own_problems_level(seed):
    """levels(log_tau, alphas) broadcasts alphas against the problems as
    caps(alphas) does: read off an evaluator of sweep-compare's 37 rates at
    alpha = 1, at the column of alphas 0.01-1.0, every level is bitwise
    levels() of an evaluator at its own rate and alpha, at each rate's root
    and at log tau 0, +-700 and +-inf."""
    sc = build_scenario(seed=seed)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    rates = np.append(ref.rate_bps, np.geomspace(1e-3 * ref.rate_bps, 10.0 * ref.rate_bps, 36))
    served = game._Users(sc, ref.served_set)
    one = served.at(rates, 1.0)
    alphas = np.array(SweepSpec(sc, 0.01, 1.0, 0.01).alphas())
    own = served.at(np.tile(rates, alphas.size), np.repeat(alphas, rates.size))
    roots = prospect._level_roots(one, np.full(rates.size, sc.total_bandwidth_hz))
    for log_tau in (roots, *(np.full(rates.size, v) for v in (0.0, 700.0, -700.0, np.inf,
                                                                -np.inf))):
        broadcast = one.levels(log_tau, alphas[:, None])
        assert broadcast.shape == (alphas.size, rates.size)
        assert broadcast.tobytes() == own.levels(np.tile(log_tau, alphas.size)).tobytes()


def test_comparison_solves_few_level_problems(default_scenario, monkeypatch):
    """sweep-compare's 1,147 level problems at the default config, 31
    alphas at 37 rates, take one lockstep search of 37 roots, one per rate
    whatever the alpha, in 6 steps. The sweep inverts 889 requirement
    columns, the scenario solve's price vectors included, each
    requirement-and-slope pass counted once (772 while a branch and bound
    searched 4 of the rates, in as many steps; 826 while each rate was
    searched in x at alpha = 1, with an end check, and scaled; 1,907 when
    each alpha's problems were searched, 8,675 when every grid point was).
    Over 0.01-1.0 it is the same one search of 37 roots, in at most 6
    steps, for 3,700 problems."""
    columns = helpers.count_evaluations(monkeypatch)
    steps = helpers.count_level_steps(monkeypatch)
    sweep_comparison(SweepSpec(default_scenario, *experiments.DEFAULT_RANGE_COMPARISON))
    assert sum(np.size(targets) for _, targets in columns) <= 889
    assert len(steps) == 1 and steps[0][0] == 37 and len(steps[0]) <= 6
    steps.clear()
    sweep_comparison(spec_for(default_scenario, 0.01, 1.0, step=0.01))
    assert len(steps) == 1 and steps[0][0] == 37 and len(steps[0]) <= 6


def test_a_level_search_makes_no_evaluator_call_but_its_steps(default_scenario, monkeypatch):
    """Every evaluator call a level search makes is one of the Newton steps
    that helpers.count_level_steps records: its bracket's ends come in
    closed form, so sweep-compare's one search at the default config makes
    6 calls (8 while the search held the level, and its first call took
    each problem's column at both ends of the level range)."""
    calls = helpers.count_evaluations(monkeypatch)
    steps = helpers.count_level_steps(monkeypatch)
    made, search = [], prospect._level_roots

    def counted(*args, **kwargs):
        before = len(calls)
        try:
            return search(*args, **kwargs)
        finally:
            made.append(len(calls) - before)
    monkeypatch.setattr(prospect, "_level_roots", counted)
    sweep_comparison(SweepSpec(default_scenario, *experiments.DEFAULT_RANGE_COMPARISON))
    assert made == [len(search) for search in steps] == [6]


def test_comparison_takes_one_search_where_a_bound_searched_twice(monkeypatch):
    """At price_exp 0.6, seed 59, grid points past the three of largest
    bound reach their row's best revenue, where a branch and bound searched
    4 rates and then 33 more. The default window takes one search of 37
    roots in at most 6 steps, and the cells keep the bits that grading
    every grid point at its own root gives."""
    spec = SweepSpec(build_scenario(price_exp=0.6, seed=59),
                     *experiments.DEFAULT_RANGE_COMPARISON)
    _, _, cells = helpers.full_grid_comparison(spec)
    steps = helpers.count_level_steps(monkeypatch)
    rows = sweep_comparison(spec).rows
    assert [search[0] for search in steps] == [37] and len(steps[0]) <= 6
    assert helpers.row_bits([(row[6], row[8]) for row in rows]) == helpers.row_bits(cells)


def test_comparison_runs_every_rate_control_in_one_batch(default_scenario, monkeypatch):
    real = prospect.rate_controls
    batches = []

    def counting(scenario, ne, alphas, *args):
        batches.append(len(alphas))
        return real(scenario, ne, alphas, *args)

    def one_alpha(*args, **kw):
        raise AssertionError("the sweep ran rate control for a single alpha")

    monkeypatch.setattr(prospect, "rate_controls", counting)
    monkeypatch.setattr(prospect, "rate_control", one_alpha)
    for n_alphas in (1, 4):
        batches.clear()
        sweep_comparison(spec_for(default_scenario, 1.0 - 0.05 * (n_alphas - 1), 1.0,
                                  step=0.05))
        assert batches == [n_alphas]


@pytest.mark.parametrize("sweep", [sweep_expansion, sweep_comparison])
def test_sweeps_take_each_one_target_band_in_one_evaluation(default_scenario, default_ref,
                                                            monkeypatch, sweep):
    """The no-pricing band (target: the offered price) and sweep-compare's
    survivors' band (target: the markup) are admission problems of 0 and 1
    drops (prospect._admissions): one evaluation over every alpha gives
    them all, so 33 alphas make one band evaluation, as 3 do, and no
    evaluation takes one target for all its problems."""
    calls = helpers.count_evaluations(monkeypatch)
    prices = [default_ref.price]
    if sweep is sweep_comparison:
        prices.append(prospect.admission_price(default_scenario, default_ref,
                                               default_ref.n_served - 1))
    for step in (0.08, 0.005):
        calls.clear()
        spec = spec_for(default_scenario, 0.84, 1.0, step=step)
        n_alphas = len(spec.alphas())
        assert n_alphas in (3, 33)
        sweep(spec)
        bands = [targets for _, targets in calls if targets.tolist() == prices * n_alphas]
        assert len(bands) == 1
        assert not any(np.ndim(targets) == 0 for _, targets in calls)


# the cells on which the keep rule is checked against the survivors' price
# cap: the published cell and seeds 1-12, the 3 km cell with a band given,
# whose served set leaves user 4 out, and price_exp 0.6 at seed 59
KEEP_RULE_CELLS = {**{f"seed{seed}": {"seed": seed}
                      for seed in (experiments.DEFAULT_SEED, *range(1, 13))},
                   "radius3000-band2e7": {"cell_radius_m": 3000.0, "total_bandwidth_hz": 2e7},
                   "price0.6-seed59": {"price_exp": 0.6, "seed": 59}}


@pytest.mark.parametrize("params", KEEP_RULE_CELLS.values(), ids=KEEP_RULE_CELLS.keys())
def test_the_keep_rule_is_the_survivors_price_cap_rule(params):
    """sweep-compare's survivors keep their split, and accept the markup by
    the keep rule (prospect._keeps): each one's allocation strictly exceeds
    its requirement at the markup. At every alpha of 0.85-1 (step 0.005)
    and 0.01-1 (step 0.001) that is the rule the sweep took before, kept
    here as the oracle: the survivors' price cap, their lowest weighted
    willingness at their allocation (prospect._min_willingness), at least
    the markup."""
    sc = build_scenario(**params)
    ref = experiments.reference_offer(sc, solve_nash(sc))
    for window in ((0.85, 1.0, 0.005), (0.01, 1.0, 0.001)):
        alphas = SweepSpec(sc, *window).alphas()
        need, [markup], at = prospect._admissions(sc, ref, alphas, [1])
        kept = tuple(np.compress(need.members[:, 0], ref.served_set).tolist())
        assert kept == tuple(sorted(helpers.drop_order(sc, ref)[1:]))
        oracle = [cap >= markup for cap in prospect._min_willingness(sc, ref, alphas, kept)]
        assert prospect._keeps(ref, need, at).all(axis=0).tolist() == oracle


@pytest.mark.parametrize("sweep", [sweep_revenue_loss, sweep_price, sweep_expansion,
                                   sweep_admission, sweep_comparison])
def test_sweeps_weigh_each_guarantee_once(default_scenario, monkeypatch, sweep):
    """Only the weighting depends on alpha, so a sweep evaluates each user's
    guarantee at its allocation at most once: 33 alphas make as many
    service_guarantee calls as 3."""
    calls = helpers.count_guarantees(monkeypatch)
    counts = []
    for step in (0.08, 0.005):
        calls.clear()
        spec = spec_for(default_scenario, 0.84, 1.0, step=step)
        assert len(spec.alphas()) in (3, 33)
        sweep(spec)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= default_scenario.n_users


def test_sweeps_are_deterministic(default_scenario):
    spec = spec_for(default_scenario, 0.93, 0.95, step=0.01)
    helpers.check_sweep_deterministic(sweep_revenue_loss, spec)
    helpers.check_sweep_deterministic(sweep_admission, spec, max_drops=2)


def test_sweep_requires_equilibrium():
    sc = build_scenario(n_users=2, c3=1.0)
    assert not solve_nash(sc).equilibrium
    with pytest.raises(ValueError, match="no equilibrium"):
        sweep_revenue_loss(spec_for(sc, 0.95, 1.0))


def test_reference_offer_refuses_a_result_without_equilibrium():
    """Seed 2 at c3 = 3e-7 has no equilibrium: the offer is refused before
    its served users' requirements at rate 0 are read, whose 0/0 warned."""
    sc = build_scenario(seed=2, c3=3e-7)
    ne = solve_nash(sc)
    assert not ne.equilibrium
    with warnings.catch_warnings(), pytest.raises(NoEquilibriumError):
        warnings.simplefilter("error", RuntimeWarning)
        reference_offer(sc, ne)


def test_no_equilibrium_error_is_one_class_everywhere():
    assert experiments.NoEquilibriumError is game.NoEquilibriumError
    assert prospect_pricing.NoEquilibriumError is game.NoEquilibriumError


def test_sweeps_and_strategies_make_no_one_user_inversion(monkeypatch, default_scenario,
                                                          default_ref):
    """Past band sizing, every requirement comes from the numpy evaluator."""
    def forbidden(*args):
        raise AssertionError("a requirement was inverted one user at a time")
    for module in (channel, game):
        monkeypatch.setattr(module, "min_bandwidth", forbidden)
    spec = spec_for(default_scenario, 0.9, 1.0, step=0.05)
    for sweep in (sweep_revenue_loss, sweep_price, sweep_expansion, sweep_admission,
                  sweep_comparison):
        assert sweep(spec).rows
    model = WeightingModel(alpha=0.9)
    prospect.ne_preserved(default_scenario, default_ref, model)
    prospect.admission_control(default_scenario, default_ref, model, 1)
    prospect.bandwidth_expansion(default_scenario, default_ref, model)
    prospect.rate_control(default_scenario, default_ref, model)
    for strategy_id in prospect.STRATEGY_IDS:
        assert prospect.min_alpha(default_scenario, default_ref, strategy_id).alpha


def test_sweep_spec_validation(default_scenario):
    with pytest.raises(ValueError):
        spec_for(default_scenario, 0.0, 1.0)
    with pytest.raises(ValueError):
        spec_for(default_scenario, 0.9, 0.8)
    with pytest.raises(ValueError):
        spec_for(default_scenario, 0.9, 1.1)
    with pytest.raises(ValueError):
        spec_for(default_scenario, 0.9, 1.0, step=0.0)
    for margin in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="offer_margin"):
            SweepSpec(scenario=default_scenario, alpha_min=0.9, alpha_max=1.0,
                      offer_margin=margin)


def test_sweep_spec_counts_its_grid_before_building_it(default_scenario, monkeypatch):
    """The finest grid a sweep takes, a 1e-4 step over all of (0, 1], has
    10,001 alphas; a finer one is refused by counting, never by building."""
    assert len(spec_for(default_scenario, 1e-12, 1.0, step=1e-4).alphas()) == 10_001

    def build(self):
        raise AssertionError("the grid was built")
    monkeypatch.setattr(SweepSpec, "alphas", build)
    for step in (1e-13, 1.5e-9, 5e-324, 1e-4 / 1.001):
        with pytest.raises(ValueError, match="more than 10001 alphas"):
            spec_for(default_scenario, 1e-12, 1.0, step=step)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            spec_for(default_scenario, 0.9, 1.0, step=step)


@pytest.mark.parametrize("alpha", [0.5, 1e-300])
def test_sweep_spec_refuses_a_step_finer_than_its_rounding(default_scenario, alpha):
    """alphas() rounds to 12 decimals, so a step below 1e-12 would repeat
    alphas: refused, though the grid would be short. A step of 1e-12 is not."""
    with pytest.raises(ValueError, match="finer than the grid's rounding"):
        spec_for(default_scenario, alpha, alpha, step=1e-13)
    alphas = spec_for(default_scenario, 0.5, 0.5 + 1e-11, step=1e-12).alphas()
    assert alphas[:11] == [round(0.5 + k * 1e-12, 12) for k in range(11)]
    assert (np.diff(alphas) > 0.0).all()


def test_sweep_spec_alpha_grid(default_scenario):
    spec = spec_for(default_scenario, 0.85, 1.0)
    alphas = spec.alphas()
    assert len(alphas) == 31
    assert alphas[0] == 0.85
    assert alphas[-1] == 1.0
    assert all(a <= 1.0 for a in alphas)
    diffs = np.diff(alphas)
    assert np.allclose(diffs, 0.005, atol=1e-12)


@pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e-100, 1e-20, 4e-13, 0.123456789012345])
def test_sweep_spec_grid_starts_at_its_alpha_min(default_scenario, alpha):
    """Rounding to 12 decimals snaps float drift but never moves an alpha below
    alpha_min: a window of one tiny alpha is that alpha, not 0."""
    assert spec_for(default_scenario, alpha, alpha).alphas() == [alpha]
    alphas = spec_for(default_scenario, alpha, 0.2).alphas()
    assert alphas[0] == alpha
    assert alphas[1:] == [round(alpha + k * 0.005, 12) for k in range(1, len(alphas))]


def test_ne_table(default_scenario, default_ne):
    table = ne_table(default_scenario)
    assert table.header == HEADER_NE
    rate, n_served, revenue = table.rows[0]
    assert rate == default_ne.rate_bps
    assert n_served == 10
    assert revenue == default_ne.sp_revenue


def test_ne_table_leaves_revenue_empty_when_no_rate_fits():
    # with the price growing more slowly than the benefit, r/h is unbounded
    # at small rates, and this band fits no user at any rate
    sc = build_scenario(3, price_exp=0.5, benefit_exp=0.9, total_bandwidth_hz=1e-3)
    assert ne_table(sc).rows == ((0.0, 0, None),)


def test_format_cell_conventions():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(7) == "7"
    assert format_cell(0.123456789123) == "0.123456789"
    assert format_cell(10000000.0) == "10000000"


def test_write_csv_layout():
    buf = io.StringIO()
    write_csv(buf, ("a", "b"), [(1.0, None), (0.5, True)])
    assert buf.getvalue() == "a,b\n1,\n0.5,1\n"
    table = SweepTable(header=("a", "b"), rows=((1.0, None),))
    assert table.to_csv() == "a,b\n1,\n"


# ---------------------------------------------------------------------------
# psychophysics data and fitting


def test_bundled_records_shape():
    records = bundled_psych_records()
    assert len(records) == 40
    valid = [rec for rec in records if rec.valid]
    assert len(valid) == 30
    by_cell = {(rec.packet_loss_pct, rec.delay_ms): rec for rec in records}
    assert by_cell[(0.0, 40.0)].valid
    assert by_cell[(0.0, 40.0)].fps_mean == 21.84
    blacked = by_cell[(16.0, 80.0)]
    assert not blacked.valid
    assert blacked.fps_mean is None


def test_fit_psychophysics_frozen(default_scenario):
    model, mse, samples = fit_psychophysics(bundled_psych_records())
    assert abs(model.alpha - FROZEN_FIT_ALPHA) <= 1e-6
    assert abs(mse - FROZEN_FIT_MSE) <= 1e-9
    assert len(samples) == 30
    for p, w in samples:
        assert 0.0 < p <= 1.0
        assert 0.0 <= w <= 1.0
    assert any(p == 1.0 and abs(w - 0.94) <= 1e-9 for p, w in samples)
    assert any(abs(p - 2.47 / 21.84) <= 1e-12 for p, _ in samples)


def test_fit_table_layout():
    table = fit_table(bundled_psych_records())
    assert table.header == HEADER_FIT
    assert len(table.rows) == 30
    assert all(abs(row[0] - FROZEN_FIT_ALPHA) <= 1e-6 for row in table.rows)


def test_fit_requires_two_valid_records():
    records = [
        PsychRecord(packet_loss_pct=0.0, delay_ms=0.0, rating_mean=None,
                    rating_dev=None, fps_mean=None, fps_dev=None, valid=False),
        PsychRecord(packet_loss_pct=2.0, delay_ms=0.0, rating_mean=3.0,
                    rating_dev=0.1, fps_mean=20.0, fps_dev=0.5),
    ]
    with pytest.raises(InsufficientDataError):
        fit_psychophysics(records)


def test_psych_record_validation():
    with pytest.raises(ValueError):
        PsychRecord(packet_loss_pct=0.0, delay_ms=0.0, rating_mean=3.0,
                    rating_dev=0.1, fps_mean=None, fps_dev=None)
    with pytest.raises(ValueError):
        PsychRecord(packet_loss_pct=0.0, delay_ms=0.0, rating_mean=5.0,
                    rating_dev=0.1, fps_mean=20.0, fps_dev=0.5)
    PsychRecord(packet_loss_pct=0.0, delay_ms=0.0, rating_mean=None,
                rating_dev=None, fps_mean=None, fps_dev=None, valid=False)


def test_load_psych_records_parses_blanks():
    text = ("packet_loss_pct,delay_ms,rating_mean,rating_dev,fps_mean,fps_dev\n"
            "0,0,3.5,0.2,22.1,0.4\n"
            "2,40,,,,\n")
    records = load_psych_records(io.StringIO(text))
    assert [rec.valid for rec in records] == [True, False]
    assert records[0].fps_mean == 22.1
    assert records[1].rating_mean is None


@pytest.mark.parametrize("fps", ["inf", "Infinity", "1e999"])
def test_load_psych_records_refuses_an_infinite_fps_mean(fps):
    """inf / inf would map the record to p = nan; the record names the field."""
    text = ("packet_loss_pct,delay_ms,rating_mean,rating_dev,fps_mean,fps_dev\n"
            f"0,0,3.5,0.2,{fps},0.4\n"
            "2,40,3.0,0.3,20.0,0.5\n")
    with pytest.raises(ValueError, match="finite fps_mean"):
        load_psych_records(io.StringIO(text))


def test_load_psych_records_missing_column():
    text = "packet_loss_pct,delay_ms,rating_mean\n0,0,3.5\n"
    with pytest.raises(ValueError, match="missing columns"):
        load_psych_records(io.StringIO(text))
