"""Deterministic sweep datasets and the perception-data fitting pipeline.

Builds the seeded random cell scenario, sweeps the weighting exponent alpha
across the recovery strategies, and emits each study as CSV rows (floats
printed with 9 significant digits). Also maps the bundled subjective-rating /
decoded-fps tables onto the unit square and fits the weighting exponent to
them.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from . import _search, prospect
from .channel import (UnattainableGuaranteeError, UserChannel, _received_dbm, dbm_to_watts,
                      guarantee_supremum, min_bandwidth)
from .game import (CostModel, NashResult, NoEquilibriumError, PowerLaw, Scenario, _feasible,
                   _reciprocals, _require_equilibrium, _revenue, _spread, _total, _Users,
                   solve_nash)
from .prospect import (PRICE_EPS_REL, _capped_price, _min_willingness, _price_gap_loss,
                       equalized_levels, no_pricing_bands)
from .weighting import InsufficientDataError, WeightingModel, fit_alpha

DEFAULT_SEED = 4966
DEFAULT_ALPHA_STEP = 0.005
# the most alphas one sweep takes: a 1e-4 step over all of (0, 1]
_MAX_ALPHAS = 10_001
# per-sweep default alpha windows; the loss/price window starts where the
# strict-vs-reallocation gap is still small, the others where the curves of
# interest (crossings, admission boundaries) live
DEFAULT_RANGE_LOSS = (0.92, 1.0)
DEFAULT_RANGE_PRICE = (0.92, 1.0)
DEFAULT_RANGE_EXPANSION = (0.84, 1.0)
DEFAULT_RANGE_ADMISSION = (0.85, 1.0)
DEFAULT_RANGE_COMPARISON = (0.85, 1.0)

HEADER_LOSS = ("alpha", "loss_strict_norm", "loss_realloc_norm")
HEADER_PRICE = ("alpha", "price_strict_norm", "price_realloc_norm")
HEADER_EXPANSION = ("alpha", "min_bw_norm", "max_revenue_norm", "const_1.0")
HEADER_ADMISSION = ("alpha", "n_served", "price_ratio", "loss_norm", "feasible")
HEADER_COMPARISON = ("alpha",
                     "bw_no_pricing_norm", "bw_expansion_norm",
                     "bw_admission_norm", "bw_rate_norm",
                     "rev_no_pricing_norm", "rev_expansion_norm",
                     "rev_admission_norm", "rev_rate_norm")
HEADER_NE = ("rate_bps", "n_served", "sp_revenue")
HEADER_FIT = ("alpha", "mse", "p", "w")


class InfeasibleScenarioError(UnattainableGuaranteeError):
    """Band sizing found a user no bandwidth serves at the optimal rate."""


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario parameters; the defaults reproduce the published cell setup.

    total_bandwidth_hz = None lets build_scenario size the band. An int field
    takes any integral value but a bool, numpy's included; a float field any
    real value but a bool, stored as a float. Every value must be finite and
    inside the ranges checked below; a bad value raises ValueError naming its
    field.
    """

    tx_power_dbm: float = 40.0
    antenna_const_db: float = -64.5
    noise_psd_dbm_per_hz: float = -174.0
    ref_distance_m: float = 20.0
    pathloss_exponent: float = 4.0
    shadow_sigma_db: float = 4.0
    cell_radius_m: float = 800.0
    n_users: int = 10
    price_coeff: float = 2e-3
    price_exp: float = 0.82
    benefit_coeff: float = 1e-2
    benefit_exp: float = 0.65
    c1: float = (1.0 / 3.0) * 1e-6
    c3: float = 1e-8
    bandwidth_margin: float = 0.10
    total_bandwidth_hz: float | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        def fail(key: str, why: str) -> None:
            raise ValueError(f"invalid config value for {key!r}: {why}")

        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    fail(f.name, "expected an integer")
                object.__setattr__(self, f.name, int(value))
            elif value is not None or f.type == "float":
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    fail(f.name, "expected a number")
                try:
                    value = float(value)
                except OverflowError:
                    value = math.inf
                if not math.isfinite(value):
                    fail(f.name, "must be a finite number")
                object.__setattr__(self, f.name, value)
        if self.n_users < 1:
            fail("n_users", "must be >= 1")
        if self.seed < 0:
            fail("seed", "must be >= 0")
        if self.ref_distance_m <= 0.0:
            fail("ref_distance_m", "must be > 0")
        if self.cell_radius_m < self.ref_distance_m:
            fail("cell_radius_m", "must be >= ref_distance_m")
        if self.pathloss_exponent <= 0.0:
            fail("pathloss_exponent", "must be > 0")
        if self.shadow_sigma_db < 0.0:
            fail("shadow_sigma_db", "must be >= 0")
        for key in ("price_coeff", "benefit_coeff"):
            if getattr(self, key) <= 0.0:
                fail(key, "must be > 0")
        for key in ("price_exp", "benefit_exp"):
            if not 0.0 < getattr(self, key) <= 1.0:
                fail(key, "must lie in (0, 1]")
        for key in ("c1", "c3"):
            if getattr(self, key) < 0.0:
                fail(key, "must be >= 0")
        if self.bandwidth_margin < 0.0:
            fail("bandwidth_margin", "must be >= 0")
        if self.total_bandwidth_hz is not None and self.total_bandwidth_hz <= 0.0:
            fail("total_bandwidth_hz", "must be > 0 when set")
        if dbm_to_watts(self.noise_psd_dbm_per_hz) == math.inf:
            fail("noise_psd_dbm_per_hz", "noise_psd_w_per_hz must be finite, got inf")


def build_scenario(n_users: int = ScenarioParams.n_users, **params) -> Scenario:
    """Scenario with users placed uniformly over the cell disc.

    Keyword arguments are the other ScenarioParams fields; anything left out
    takes its default there.

    Per user, in index order: one uniform draw for the radial position
    (area-uniform, radius = R*sqrt(u), floored at the reference distance) and
    one normal draw for the shadowing term. This draw order is frozen by
    regression tests; changing it silently changes every golden dataset.
    Each user's channel is channel_from_budget of its LinkBudget, bitwise,
    formed from its draws without one; the noise PSD is converted once.

    Unless total_bandwidth_hz is given, the band is sized to the per-user
    minimum at the unconstrained optimal rate plus the stated margin, or
    raises InfeasibleScenarioError when some user cannot be served there.
    """
    return _scenario(ScenarioParams(n_users=n_users, **params))


def _scenario(p: ScenarioParams) -> Scenario:
    """build_scenario of parameters already validated."""
    rng = np.random.default_rng(p.seed)
    pricing = PowerLaw(p.price_coeff, p.price_exp)
    benefit = PowerLaw(p.benefit_coeff, p.benefit_exp)
    noise = dbm_to_watts(p.noise_psd_dbm_per_hz)
    users = []
    for _ in range(p.n_users):
        dist = max(p.ref_distance_m, p.cell_radius_m * math.sqrt(rng.random()))
        shadow = rng.normal(0.0, p.shadow_sigma_db)
        power = dbm_to_watts(_received_dbm(p, dist, shadow))
        if power == math.inf:
            raise ValueError("invalid config value for 'tx_power_dbm', 'antenna_const_db' or "
                             "'shadow_sigma_db': received_power_w must be finite, got inf")
        users.append(UserChannel(power, noise))
    cost = CostModel(c1=p.c1, c3=p.c3)

    total_bandwidth_hz = p.total_bandwidth_hz
    if total_bandwidth_hz is None:
        rate_opt = unconstrained_optimal_rate(pricing, cost)
        # min_bandwidth_for_user's target, formed once for every user
        target = pricing(rate_opt) / benefit(rate_opt)
        # scalar inversions: bench/test_bench.py expects every workload to make some
        try:
            if target >= 1.0:
                # no band serves any user: the first is refused, as by min_bandwidth_for_user
                raise UnattainableGuaranteeError(rate_opt, target,
                                                 guarantee_supremum(rate_opt, users[0]))
            need = float(_total([min_bandwidth(rate_opt, target, ch) for ch in users]))
        except UnattainableGuaranteeError as exc:
            raise InfeasibleScenarioError(exc.rate_bps, exc.target, exc.supremum) from exc
        total_bandwidth_hz = (1.0 + p.bandwidth_margin) * need
    return Scenario(users=tuple(users), benefit=benefit, pricing=pricing, cost=cost,
                    total_bandwidth_hz=total_bandwidth_hz)


def unconstrained_optimal_rate(pricing: PowerLaw, cost: CostModel) -> float:
    """Rate maximizing the per-user margin r(b) - c1*b, ignoring bandwidth."""
    f = lambda b: pricing(b) - cost.c1 * b
    hi = 1e6
    while f(2.0 * hi) > f(hi):
        hi *= 2.0
        if hi > 1e15:
            raise ValueError("per-user margin does not peak below 1e15 bps")
    rate, _ = _search.golden_max(f, 1.0, 2.0 * hi, rel_tol=1e-10)
    return rate


def reference_offer(scenario: Scenario, ne: NashResult,
                    margin: float = ScenarioParams.bandwidth_margin) -> NashResult:
    """The solved outcome with each served user given margin over their minimum.

    This proportional split is the offer the sweeps perturb; with the band
    sized by the same margin at the solved rate it exhausts the endowment.
    On a band it did not size the split can exceed the endowment, and
    game.Offer.validate_against refuses it: 1.0999999989*B on the 3 km cell
    with a band of 2e7 Hz, and (1 + 1.2e-7)*B at seed 5, whose solved rate
    is not the sizing rate. A result without an equilibrium has no offer:
    NoEquilibriumError.
    """
    _require_equilibrium(ne)
    need = _Users(scenario, ne.served_set).price_requirements(ne.rate_bps)
    return replace(ne, allocation=_spread(scenario, ne.served_set,
                                          ((1.0 + margin) * need).tolist()))


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario
    alpha_min: float
    alpha_max: float
    alpha_step: float = DEFAULT_ALPHA_STEP
    offer_margin: float = ScenarioParams.bandwidth_margin

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha_min <= self.alpha_max <= 1.0):
            raise ValueError("alpha range must satisfy 0 < alpha_min <= alpha_max <= 1")
        if not 0.0 < self.alpha_step < math.inf:
            raise ValueError("alpha_step must be finite and > 0")
        if not 0.0 <= self.offer_margin < math.inf:
            raise ValueError("offer_margin must be finite and >= 0")
        # the grid's length, counted once, never built: alpha_min and one alpha per
        # whole step to alpha_max, allowing 1e-12 of float drift (the grid's
        # rounding) but under half a step, so a one-alpha window stays one alpha
        slack = min(1e-12, 0.5 * self.alpha_step)
        steps = (self.alpha_max - self.alpha_min + slack) / self.alpha_step
        object.__setattr__(self, "n_alphas", math.floor(min(steps, _MAX_ALPHAS)) + 1)
        if self.n_alphas > _MAX_ALPHAS:
            raise ValueError(f"a step of {self.alpha_step!r} gives more than {_MAX_ALPHAS} "
                             f"alphas from {self.alpha_min!r} to {self.alpha_max!r}")
        # alphas() rounds to 12 decimals, where a finer step repeats alphas
        if self.alpha_step < 1e-12:
            raise ValueError(f"a step of {self.alpha_step!r} is finer than the grid's "
                             f"rounding to 12 decimals")

    def alphas(self) -> list[float]:
        # the rounding snaps float drift; an alpha_min below 5e-13 stays itself
        grid = [min(max(round(self.alpha_min + k * self.alpha_step, 12), self.alpha_min), 1.0)
                for k in range(self.n_alphas)]
        _reciprocals(grid)  # refused as the evaluator refuses it, before any evaluation
        return grid


@dataclass(frozen=True)
class SweepTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        write_csv(buf, self.header, self.rows)
        return buf.getvalue()


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value.replace(",", ";")
    return "%.9g" % value


def write_csv(fileobj, header: tuple[str, ...], rows) -> None:
    fileobj.write(",".join(header) + "\n")
    for row in rows:
        fileobj.write(",".join(format_cell(v) for v in row) + "\n")


def _baseline(spec: SweepSpec) -> tuple[NashResult, float]:
    ne = solve_nash(spec.scenario)  # reference_offer refuses one without an equilibrium
    return reference_offer(spec.scenario, ne, spec.offer_margin), ne.sp_revenue


def _offered_levels(sc: Scenario, ref: NashResult, alphas: list[float]) -> list[float]:
    """Equalized willingness of the served users at the offered rate and the
    whole endowment, every alpha's read off one root."""
    return equalized_levels(sc, ref.served_set, ref.rate_bps, alphas,
                            sc.total_bandwidth_hz).tolist()


def _empty_if_inf(value: float) -> float | None:
    """A quantity out of reach at any band (one user's target is above its
    wide-band supremum) is written as an empty cell."""
    return None if math.isinf(value) else value


def sweep_revenue_loss(spec: SweepSpec) -> SweepTable:
    """Normalized revenue loss, constraints fixed vs allocation free."""
    alphas = spec.alphas()
    ref, eut = _baseline(spec)
    rows = []
    for a, x, strict in zip(alphas, _offered_levels(spec.scenario, ref, alphas),
                            _min_willingness(spec.scenario, ref, alphas)):
        rows.append((a, min(1.0, _price_gap_loss(ref, strict) / eut),
                     min(1.0, _price_gap_loss(ref, x) / eut)))
    return SweepTable(HEADER_LOSS, tuple(rows))


def sweep_price(spec: SweepSpec) -> SweepTable:
    """Acceptance-capped prices normalized by the baseline price."""
    alphas = spec.alphas()
    ref, _ = _baseline(spec)
    rows = []
    for a, x, strict in zip(alphas, _offered_levels(spec.scenario, ref, alphas),
                            _min_willingness(spec.scenario, ref, alphas)):
        rows.append((a, _capped_price(ref, strict) / ref.price, _capped_price(ref, x) / ref.price))
    return SweepTable(HEADER_PRICE, tuple(rows))


def sweep_expansion(spec: SweepSpec) -> SweepTable:
    """Band needed for full recovery at the old price, and best in-band revenue.

    Both columns are normalized so they cross 1.0 together: the aggregate
    requirement fits the endowment exactly when repricing at the equalized
    willingness recovers at least the baseline revenue. When one served
    user's target is out of reach at any band, min_bw_norm is empty.
    """
    alphas = spec.alphas()
    ref, eut = _baseline(spec)
    sc = spec.scenario
    budget = sc.total_bandwidth_hz
    rows = []
    for a, x, need in zip(alphas, _offered_levels(sc, ref, alphas),
                          no_pricing_bands(sc, ref, alphas)):
        rev = _revenue(sc, ref.n_served, x, ref.rate_bps)
        rows.append((a, _empty_if_inf(need / budget), rev / eut, 1.0))
    return SweepTable(HEADER_EXPANSION, tuple(rows))


def sweep_admission(spec: SweepSpec, max_drops: int = 3) -> SweepTable:
    """Markup price and residual loss when up to max_drops users are denied.

    Denial order is worst channel first (_Users.kept), the largest consumer
    at every rate and alpha. The freed band is re-split over the retained
    users; the provider charges the revenue-preserving markup when the
    retained users accept it, otherwise the highest price they do accept. One
    level search over the served users, each kept set as members (never
    empty as max_drops < n_served), solves one root per kept set for every
    alpha. The markup is accepted by the strategies' one rule, game._feasible:
    the kept users' requirements at it, from one more pass of the same
    evaluator, sum below the endowment less its slack, as in
    prospect.admission_controls.
    """
    alphas = spec.alphas()
    ref, eut = _baseline(spec)
    sc = spec.scenario
    if not (0 <= max_drops < ref.n_served):
        raise ValueError(f"max_drops must lie in [0, {ref.n_served}), got {max_drops}")
    drops = np.arange(max_drops + 1)
    served = _Users(sc, ref.served_set)
    need = served.at(ref.rate_bps, np.repeat(alphas, drops.size),
                     np.tile(served.kept(drops), len(alphas)))
    caps = prospect._solve_levels(need, sc.total_bandwidth_hz).reshape(len(alphas), -1)
    kept_sizes = (ref.n_served - drops).tolist()
    targets = [prospect.admission_price(sc, ref, n_kept) for n_kept in kept_sizes]
    fits = _feasible(_total(need(np.tile(targets, len(alphas)))), sc.total_bandwidth_hz)
    rows = []
    for a, alpha_caps, alpha_fits in zip(alphas, caps.tolist(),
                                         fits.reshape(len(alphas), -1).tolist()):
        for n_kept, cap, target, feasible in zip(kept_sizes, alpha_caps, targets, alpha_fits):
            price = target if feasible else cap - PRICE_EPS_REL * ref.price
            rev = _revenue(sc, n_kept, price, ref.rate_bps)
            loss = min(1.0, max(0.0, (eut - max(0.0, rev)) / eut))
            rows.append((a, n_kept, price / ref.price, loss, feasible))
    return SweepTable(HEADER_ADMISSION, tuple(rows))


def sweep_comparison(spec: SweepSpec) -> SweepTable:
    """Required band and best revenue for each recovery strategy, side by side.

    The no-pricing baseline holds the old price and buys whatever band the
    aggregate requirement demands. Expansion reprices at the equalized
    willingness; its full-recovery band equals the baseline's. Admission denies
    the worst channel without re-splitting the survivors' band, so below
    some alpha no markup is acceptable and the threshold cells are empty; with
    a single served user nobody is left and both admission cells are empty. Rate
    control additionally moves the offered rate to wherever the total
    requirement is smallest. When one served user's target is out of reach at
    any band, the no-pricing and expansion bands and the no-pricing revenue
    are empty (and the rate-control band, when no rate brings every target
    within reach).

    Rate control's best revenue is the best of a 36-rate grid, each point at
    its equalized level. One level search (prospect._level_roots) gives a
    root per rate, the offered one first, that every alpha's level comes
    off (prospect._capped_levels); read as a revenue only, a level is its
    root, without _solve_levels' fit. The survivors' band uses the served
    users' evaluator, with them as members.
    """
    alphas = spec.alphas()
    ref, eut = _baseline(spec)
    sc = spec.scenario
    budget = sc.total_bandwidth_hz
    b_star = ref.rate_bps
    served = _Users(sc, ref.served_set)
    kept = tuple(np.delete(ref.served_set, served.order[-1:]).tolist())
    markup = prospect.admission_price(sc, ref, len(kept)) if kept else None

    rates = np.append(b_star, np.geomspace(1e-3 * b_star, 10.0 * b_star, 36))
    one = served.at(rates, 1.0)
    levels = prospect._capped_levels(one, prospect._level_roots(one, np.full(rates.size, budget)),
                                     np.array(alphas)[:, None])
    grid_rev = _revenue(sc, ref.n_served, levels[:, 1:], rates[1:]) / eut

    rate_outcomes = prospect.rate_controls(sc, ref, alphas)
    # the survivors' band at the markup and their price cap, every alpha in one pass
    kept_bands = p_caps = [None] * len(alphas)
    if kept:
        at_markup = served.at(b_star, alphas, np.isin(ref.served_set, kept)[:, None])(markup)
        kept_bands = _total(at_markup).tolist()
        p_caps = _min_willingness(sc, ref, alphas, kept)

    rows = []
    for a, x, grid_row, rc, np_band, kept_band, p_cap in zip(
            alphas, levels[:, 0].tolist(), grid_rev.tolist(), rate_outcomes,
            no_pricing_bands(sc, ref, alphas), kept_bands, p_caps):
        bw_np = _empty_if_inf(np_band / budget)
        bw_exp = bw_np

        # out of reach, the band is inf, and at c3 = 0 its cost c3*inf is NaN
        rev_np = None if math.isinf(np_band) else _revenue(
            sc, ref.n_served, ref.price, b_star, max(budget, np_band)) / eut
        rev_exp = _revenue(sc, ref.n_served, x, b_star) / eut

        # admission: survivors keep their original split; the markup must be
        # acceptable as-is, else the strategy has no solution at this alpha
        bw_adm = rev_adm = None
        if kept:
            if p_cap >= markup:
                bw_adm = kept_band / budget
                rev_adm = 1.0
            else:
                rev_adm = _revenue(sc, len(kept), p_cap, b_star) / eut

        bw_rate = _empty_if_inf(rc.min_bandwidth_threshold_hz / budget)
        rows.append((a, bw_np, bw_exp, bw_adm, bw_rate,
                     rev_np, rev_exp, rev_adm, max(grid_row)))
    return SweepTable(HEADER_COMPARISON, tuple(rows))


@dataclass(frozen=True)
class PsychRecord:
    packet_loss_pct: float
    delay_ms: float
    rating_mean: float | None
    rating_dev: float | None
    fps_mean: float | None
    fps_dev: float | None
    valid: bool = True

    def __post_init__(self) -> None:
        if self.valid:
            if self.fps_mean is None or not self.fps_mean > 0.0:
                raise ValueError("valid records need fps_mean > 0")
            if self.fps_mean == math.inf:
                raise ValueError("valid records need a finite fps_mean")
            if self.rating_mean is None or not 1.0 <= self.rating_mean <= 4.0:
                raise ValueError("valid records need rating_mean in [1, 4]")


PSYCH_COLUMNS = ("packet_loss_pct", "delay_ms", "rating_mean", "rating_dev",
                 "fps_mean", "fps_dev")


def load_psych_records(fileobj) -> list[PsychRecord]:
    """Parse the merged ratings/fps CSV; empty fps_mean marks a cell invalid."""
    reader = csv.DictReader(fileobj)
    missing = [c for c in PSYCH_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"psychophysics CSV is missing columns: {missing}")
    records = []
    for row in reader:
        def num(col: str) -> float | None:
            text = (row[col] or "").strip()
            return float(text) if text else None
        fps = num("fps_mean")
        records.append(PsychRecord(
            packet_loss_pct=float(row["packet_loss_pct"]),
            delay_ms=float(row["delay_ms"]),
            rating_mean=num("rating_mean"),
            rating_dev=num("rating_dev"),
            fps_mean=fps,
            fps_dev=num("fps_dev"),
            valid=fps is not None))
    return records


def bundled_psych_records() -> list[PsychRecord]:
    path = resources.files(__package__) / "data" / "psychophysics.csv"
    with path.open("r", encoding="utf-8") as f:
        return load_psych_records(f)


def fit_psychophysics(records: list[PsychRecord]) -> tuple[WeightingModel, float, tuple[tuple[float, float], ...]]:
    """Map valid cells to the unit square and fit the weighting exponent.

    Objective probability: mean fps over the maximum mean fps among valid
    cells. Subjective weight: the 1-4 rating rescaled affinely onto [0, 1].
    Returns (model, mse, mapped samples).
    """
    valid = [rec for rec in records if rec.valid]
    if len(valid) < 2:
        raise InsufficientDataError(
            f"need at least 2 valid records, got {len(valid)}")
    fps_max = max(rec.fps_mean for rec in valid)
    samples = tuple((rec.fps_mean / fps_max, (rec.rating_mean - 1.0) / 3.0)
                    for rec in valid)
    model, mse = fit_alpha(samples)
    return model, mse, samples


def ne_table(scenario: Scenario) -> SweepTable:
    ne = solve_nash(scenario)
    # no rate fits any set size when every per-size revenue is -inf
    return SweepTable(HEADER_NE, ((ne.rate_bps, ne.n_served, _empty_if_inf(ne.sp_revenue)),))


def fit_table(records: list[PsychRecord]) -> SweepTable:
    model, mse, samples = fit_psychophysics(records)
    rows = tuple((model.alpha, mse, p, w) for p, w in samples)
    return SweepTable(HEADER_FIT, rows)
