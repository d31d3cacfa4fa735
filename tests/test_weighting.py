import math

import numpy as np
import pytest

import helpers
from prospect_pricing import experiments, weighting
from prospect_pricing.weighting import (
    IDENTITY,
    InsufficientDataError,
    Lottery,
    WeightingModel,
    fit_alpha,
    inverse_weight,
    lottery_value,
    weight,
)

INV_E = math.exp(-1.0)


# high-precision reference values, frozen
WEIGHT_09_ALPHA_05 = 0.72282159345903869205
INVERSE_05_ALPHA_0585 = 0.58599172068441089887


def test_weight_frozen_value():
    assert abs(weight(0.9, WeightingModel(alpha=0.5)) - WEIGHT_09_ALPHA_05) <= 1e-13


def test_inverse_weight_frozen_value():
    got = inverse_weight(0.5, WeightingModel(alpha=0.585))
    assert abs(got - INVERSE_05_ALPHA_0585) <= 1e-13


def test_weight_endpoints_exact():
    for a in (0.1, 0.5, 1.0):
        model = WeightingModel(alpha=a)
        assert weight(0.0, model) == 0.0
        assert weight(1.0, model) == 1.0
        assert inverse_weight(0.0, model) == 0.0
        assert inverse_weight(1.0, model) == 1.0


def test_fixed_point_at_inv_e():
    for a in np.linspace(0.1, 1.0, 10):
        assert abs(weight(INV_E, WeightingModel(alpha=float(a))) - INV_E) <= 1e-12


def test_alpha_one_is_bitwise_identity():
    for p in np.linspace(1e-9, 1.0, 1000):
        assert weight(float(p), IDENTITY) == float(p)
        assert inverse_weight(float(p), IDENTITY) == float(p)


def test_weight_formula_spot_check():
    model = WeightingModel(alpha=0.7)
    for p in (0.05, 0.3, 0.9):
        expected = math.exp(-((-math.log(p)) ** 0.7))
        assert abs(weight(p, model) - expected) <= 1e-15


def test_domain_validation():
    model = WeightingModel(alpha=0.5)
    with pytest.raises(ValueError):
        weight(-0.1, model)
    with pytest.raises(ValueError):
        weight(1.1, model)
    with pytest.raises(ValueError):
        inverse_weight(-1e-9, model)
    with pytest.raises(ValueError):
        inverse_weight(1.0 + 1e-9, model)


def test_alpha_validation():
    for bad in (0.0, -0.3, 1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError):
            WeightingModel(alpha=bad)
    WeightingModel(alpha=1e-9)
    WeightingModel(alpha=1.0)


def test_strictly_increasing():
    helpers.check_weight_monotone(200, seed=101)


def test_over_and_underweighting_regions():
    helpers.check_weight_regions(200, seed=102)


def test_inverse_roundtrip():
    helpers.check_inverse_roundtrip(200, seed=103)


def test_lottery_alpha_one_is_expectation():
    helpers.check_lottery_identity(100, seed=104)


def test_lottery_weighted_value():
    lot = Lottery(outcomes=((10.0, 0.2), (0.0, 0.8)))
    expected = 10.0 * math.exp(-((-math.log(0.2)) ** 0.7))
    assert abs(lottery_value(lot, WeightingModel(alpha=0.7)) - expected) <= 1e-15


def test_lottery_value_adds_left_to_right():
    """Terms of 1e16, 1 and -1e16: left to right, 1e16 + 1 rounds to 1e16
    and the value is 0, where the builtin sum, compensated from Python 3.12
    on, gives 1."""
    lot = Lottery(outcomes=((2e16, 0.5), (4.0, 0.25), (-4e16, 0.25)))
    assert lottery_value(lot, IDENTITY) == (1e16 + 1.0) - 1e16 == 0.0


def test_lottery_validation():
    with pytest.raises(ValueError):
        Lottery(outcomes=())
    with pytest.raises(ValueError):
        Lottery(outcomes=((1.0, 0.5), (2.0, 0.6)))
    with pytest.raises(ValueError):
        Lottery(outcomes=((1.0, -0.1), (2.0, 1.1)))
    Lottery(outcomes=((0.0, 0.25), (1.0, 0.75),))


@pytest.mark.parametrize("payoff", [math.nan, math.inf, -math.inf])
def test_lottery_refuses_a_non_finite_payoff(payoff):
    with pytest.raises(ValueError, match="payoff .* is not finite"):
        Lottery(outcomes=((payoff, 1.0),))
    with pytest.raises(ValueError, match="payoff .* is not finite"):
        Lottery(outcomes=((1.0, 0.5), (payoff, 0.5)))


@pytest.mark.parametrize("alpha_true", [0.6, 0.35])
def test_fit_recovers_generating_alpha(alpha_true):
    gen = WeightingModel(alpha=alpha_true)
    samples = [(float(p), weight(float(p), gen)) for p in np.linspace(0.02, 0.98, 49)]
    model, mse = fit_alpha(samples)
    assert abs(model.alpha - alpha_true) <= 1e-4
    assert mse <= 1e-10


def test_fit_mse_matches_recompute():
    rng = np.random.default_rng(105)
    gen = WeightingModel(alpha=0.55)
    samples = []
    for p in np.linspace(0.05, 0.95, 19):
        noisy = weight(float(p), gen) + float(rng.normal(0.0, 0.02))
        samples.append((float(p), float(np.clip(noisy, 0.0, 1.0))))
    model, mse = fit_alpha(samples)
    recomputed = sum((weight(p, model) - wp) ** 2 for p, wp in samples) / len(samples)
    assert abs(mse - recomputed) <= 1e-15
    # a local perturbation of alpha must not do better
    for da in (-0.002, 0.002):
        a = min(1.0, max(1e-6, model.alpha + da))
        worse = sum((weight(p, WeightingModel(alpha=a)) - wp) ** 2
                    for p, wp in samples) / len(samples)
        assert worse >= mse - 1e-15


def noisy_samples():
    """Noisy alpha = 0.55 ratings, with a sample at p = 0 and one at p = 1."""
    rng = np.random.default_rng(105)
    gen = WeightingModel(alpha=0.55)
    return [(0.0, 0.0), (1.0, 1.0)] + [
        (float(p), float(np.clip(weight(float(p), gen) + rng.normal(0.0, 0.02), 0.0, 1.0)))
        for p in np.linspace(0.05, 0.95, 19)]


FIT_SETS = {
    "bundled": lambda: list(experiments.fit_psychophysics(
        experiments.bundled_psych_records())[2]),
    "noisy": noisy_samples,
    # undistorted ratings: the minimum is at the edge alpha = 1
    "identity": lambda: [(float(p), float(p)) for p in np.linspace(0.0, 1.0, 21)],
}


def mp_fit_root(mpmath, samples, start):
    """The root of dMSE/dalpha nearest start, at 50 digits. Samples at p = 0
    or 1 have w = p at every alpha, so they add nothing to the slope."""
    with mpmath.workdps(50):
        inner = [(mpmath.log(-mpmath.log(p)), mpmath.mpf(wp)) for p, wp in samples
                 if 0.0 < p < 1.0]

        def slope(alpha):
            total = mpmath.mpf(0)
            for ln_l, wp in inner:
                power = mpmath.exp(alpha * ln_l)
                w = mpmath.exp(-power)
                total += (w - wp) * w * power * ln_l
            return total

        return float(mpmath.findroot(slope, mpmath.mpf(start)))


@pytest.mark.parametrize("name", FIT_SETS)
def test_fit_is_the_root_of_the_mse_slope(name, monkeypatch):
    """The fitted alpha against a 50-digit root of dMSE/dalpha. The search
    keeps the end of its closed bracket of smaller MSE, within the root
    tolerance 1e-10 of the root (measured: 7.2e-11 and 3.9e-11 relative),
    where the smallest MSE evaluated, flat to rounding within about 1e-9 of
    the minimum, was up to 1.1e-9 off. The fit is one numpy evaluation: no
    scalar weight call."""
    mpmath = pytest.importorskip("mpmath")
    samples = FIT_SETS[name]()

    def scalar_weight(p, model):
        raise AssertionError("fit_alpha called the scalar weight")

    monkeypatch.setattr(weighting, "weight", scalar_weight)
    model, mse = fit_alpha(samples)
    monkeypatch.undo()
    root = mp_fit_root(mpmath, samples, model.alpha)
    assert abs(model.alpha - root) <= 2e-10 * root
    recomputed = sum((weight(p, model) - wp) ** 2 for p, wp in samples) / len(samples)
    assert abs(mse - recomputed) <= 1e-15
    if name == "identity":
        assert model.alpha == 1.0


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_alpha([])
    with pytest.raises(InsufficientDataError):
        fit_alpha([(0.5, 0.5)])


def test_fit_rejects_samples_outside_unit_square():
    with pytest.raises(ValueError):
        fit_alpha([(0.5, 1.2), (0.3, 0.2)])
    with pytest.raises(ValueError):
        fit_alpha([(-0.1, 0.5), (0.3, 0.2)])
