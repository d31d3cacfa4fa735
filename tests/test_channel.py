import math

import numpy as np
import pytest

import helpers
from prospect_pricing import channel, game
from prospect_pricing.channel import (
    LinkBudget,
    UnattainableGuaranteeError,
    UserChannel,
    channel_from_budget,
    dbm_to_watts,
    guarantee_supremum,
    min_bandwidth,
    received_power,
    service_guarantee,
    watts_to_dbm,
)

# frozen reference link: 400 m, no shadowing, default budget parameters
RX_DBM_400M = -76.541199826559247809
GUARANTEE_7M_ON_1M4 = 0.99223897732692881906


@pytest.fixture(scope="module")
def link_400m():
    return helpers.make_budget(400.0, 0.0)


@pytest.fixture(scope="module")
def ch_400m(link_400m):
    return channel_from_budget(link_400m)


def test_received_power_frozen(link_400m):
    assert abs(received_power(link_400m) - RX_DBM_400M) <= 1e-9


def test_service_guarantee_frozen(ch_400m):
    assert abs(service_guarantee(7e6, 1.4e6, ch_400m) - GUARANTEE_7M_ON_1M4) <= 1e-12


def test_guarantee_at_zero_rate_is_one(ch_400m):
    assert service_guarantee(0.0, 1e6, ch_400m) == 1.0


def test_guarantee_argument_validation(ch_400m):
    with pytest.raises(ValueError):
        service_guarantee(1e6, 0.0, ch_400m)
    with pytest.raises(ValueError):
        service_guarantee(1e6, -1.0, ch_400m)
    with pytest.raises(ValueError):
        service_guarantee(-1.0, 1e6, ch_400m)
    with pytest.raises(ValueError, match="rate must be >= 0, got -1.0"):
        guarantee_supremum(-1.0, ch_400m)


def test_nan_arguments_are_refused_and_inf_kept(ch_400m):
    """NaN fails every argument check, with the message of an out-of-range
    value; an infinite rate behaves as it always has, and an infinite band
    gives the wide-band limit."""
    with pytest.raises(ValueError, match="rate must be >= 0, got nan"):
        service_guarantee(math.nan, 1e6, ch_400m)
    with pytest.raises(ValueError, match="bandwidth must be > 0, got nan"):
        service_guarantee(1e6, math.nan, ch_400m)
    with pytest.raises(ValueError, match="rate must be >= 0, got nan"):
        guarantee_supremum(math.nan, ch_400m)
    with pytest.raises(ValueError, match="rate must be > 0, got nan"):
        min_bandwidth(math.nan, 0.5, ch_400m)
    assert service_guarantee(math.inf, 1e6, ch_400m) == 0.0
    assert guarantee_supremum(math.inf, ch_400m) == 0.0
    with pytest.raises(UnattainableGuaranteeError):
        min_bandwidth(math.inf, 0.5, ch_400m)
    for rate in (1e3, 1e6, 7e6):
        assert service_guarantee(rate, math.inf, ch_400m) == guarantee_supremum(rate, ch_400m)
    assert service_guarantee(0.0, math.inf, ch_400m) == 1.0
    assert service_guarantee(math.inf, math.inf, ch_400m) == 0.0


def test_db_roundtrip():
    helpers.check_db_roundtrip(200, seed=201)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1e-9)


def test_watts_to_dbm_refuses_nan():
    with pytest.raises(ValueError, match="power must be positive, got nan"):
        watts_to_dbm(math.nan)


def test_channel_from_budget_consistency(link_400m, ch_400m):
    assert ch_400m.received_power_w == dbm_to_watts(received_power(link_400m))
    assert ch_400m.noise_psd_w_per_hz == dbm_to_watts(link_400m.noise_psd_dbm_per_hz)


def test_guarantee_monotonicity():
    helpers.check_guarantee_monotone(200, seed=202)


def test_guarantee_vanishes_at_extreme_rates(ch_400m):
    values = [service_guarantee(10.0 ** k, 1e6, ch_400m) for k in range(6, 14)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi
    assert values[-1] == 0.0


def test_supremum_is_wide_band_limit(ch_400m):
    for rate in (1e6, 7e6, 2e7):
        sup = guarantee_supremum(rate, ch_400m)
        below = [service_guarantee(rate, float(bw), ch_400m)
                 for bw in np.geomspace(1e6, 1e11, 11)]
        for lo, hi in zip(below[:-1], below[1:]):
            assert lo < hi < sup
        wide = service_guarantee(rate, 1e15, ch_400m)
        assert abs(wide - sup) <= 1e-6 * (1.0 - sup) + 1e-15


def test_min_bandwidth_against_grid_scan(ch_400m):
    """Vectorized independent recomputation of the guarantee on a dense
    bandwidth grid brackets the root the solver must return."""
    rate, target = 7e6, 0.9
    rx_dbm = 40.0 + (-64.5) - 10.0 * 4.0 * math.log10(400.0 / 20.0)
    rx_w = 10.0 ** ((rx_dbm - 30.0) / 10.0)
    n0_w = 10.0 ** ((-174.0 - 30.0) / 10.0)
    grid = np.geomspace(1e5, 1e8, 1_000_000)
    guar = np.exp(-(np.exp2(rate / grid) - 1.0) * grid * n0_w / rx_w)
    idx = int(np.argmax(guar >= target))
    assert 0 < idx < grid.size
    got = min_bandwidth(rate, target, ch_400m)
    assert grid[idx - 1] <= got <= grid[idx]
    assert abs(service_guarantee(rate, got, ch_400m) - target) <= 1e-9


def test_min_bandwidth_consistency():
    helpers.check_min_bandwidth_consistency(60, seed=203)


def test_min_bandwidth_unattainable_target(ch_400m):
    rate = 7e6
    sup = guarantee_supremum(rate, ch_400m)
    with pytest.raises(UnattainableGuaranteeError) as exc:
        min_bandwidth(rate, sup * (1.0 + 1e-9), ch_400m)
    err = exc.value
    assert err.rate_bps == rate
    assert err.supremum == sup
    assert err.target > sup


def test_min_bandwidth_argument_validation(ch_400m):
    with pytest.raises(ValueError):
        min_bandwidth(0.0, 0.9, ch_400m)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            min_bandwidth(7e6, bad, ch_400m)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        helpers.make_budget(10.0)  # closer than the reference distance
    with pytest.raises(ValueError):
        LinkBudget(tx_power_dbm=40.0, antenna_const_db=-64.5,
                   pathloss_exponent=0.0, distance_m=100.0, ref_distance_m=20.0,
                   shadow_db=0.0, noise_psd_dbm_per_hz=-174.0)


def test_user_channel_validation():
    with pytest.raises(ValueError):
        UserChannel(received_power_w=0.0, noise_psd_w_per_hz=1e-20)
    with pytest.raises(ValueError):
        UserChannel(received_power_w=1e-10, noise_psd_w_per_hz=-1e-20)


# ---------------------------------------------------------------------------
# high-precision oracle (mpmath), on the channels of the default cell

ORACLE_RATES = [10.0 ** k for k in range(2, 9)]
ORACLE_GAPS = [0.5, 1e-3, 1e-6, 1e-9, 1e-12]


def test_min_bandwidth_matches_mpmath_root(default_scenario):
    """Relative error within the problem's own conditioning: a target `gap`
    below the supremum (relative) fixes the root only to about 1e-16/gap."""
    mpmath = pytest.importorskip("mpmath")
    for ch in default_scenario.users:
        for rate in ORACLE_RATES:
            sup = guarantee_supremum(rate, ch)
            for gap in ORACLE_GAPS:
                target = sup * (1.0 - gap)
                got = min_bandwidth(rate, target, ch)
                want = helpers.mp_min_bandwidth(mpmath, rate, target, ch)
                rel = float(abs(got - want) / want)
                assert rel <= 1e-14 + 1e-15 / gap, (rate, gap, got, want)


def test_the_closed_form_oracle_is_the_root_search(default_scenario):
    """helpers.mp_min_bandwidth's Lambert W form agrees with the root search
    it replaced (helpers.mp_min_bandwidth_root) to 1e-25, far inside a
    float's rounding, on a few cells: the best and the worst channel of the
    default cell, targets 0.5 to 1e-12 below the supremum, the supremum
    squared, and a raw target of exp(-1e900)."""
    mpmath = pytest.importorskip("mpmath")
    users = sorted(default_scenario.users,
                   key=lambda ch: ch.noise_psd_w_per_hz / ch.received_power_w)
    for ch in (users[0], users[-1]):
        for rate in (1e3, 7e6):
            sup = guarantee_supremum(rate, ch)
            for target in [sup * (1.0 - gap) for gap in ORACLE_GAPS] + [
                    sup * sup, mpmath.exp(-mpmath.mpf(10) ** 900)]:
                want = helpers.mp_min_bandwidth_root(mpmath, rate, target, ch)
                got = helpers.mp_min_bandwidth(mpmath, rate, target, ch)
                assert abs(got - want) <= 1e-25 * want, (rate, target)


def test_min_bandwidth_one_ulp_below_supremum_is_finite(default_scenario):
    for ch in default_scenario.users:
        for rate in ORACLE_RATES:
            target = math.nextafter(guarantee_supremum(rate, ch), 0.0)
            got = min_bandwidth(rate, target, ch)
            assert math.isfinite(got) and got > 0.0, (rate, got)


def test_service_guarantee_near_supremum_matches_mpmath(default_scenario):
    """Wide bands put 2^(b/bw) - 1 near 0, where exp(t) - 1 cancels."""
    mpmath = pytest.importorskip("mpmath")
    for ch in default_scenario.users:
        for rate in (1e5, 7e6, 1e8):
            for t in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
                bw = rate * math.log(2.0) / t
                got = service_guarantee(rate, bw, ch)
                with mpmath.workdps(50):
                    scale = mpmath.mpf(bw) * ch.noise_psd_w_per_hz / ch.received_power_w
                    want = mpmath.exp(-mpmath.expm1(mpmath.mpf(rate) / bw * mpmath.log(2))
                                      * scale)
                    rel = float(abs(got - want) / want)
                assert rel <= 1e-15, (rate, t, got, want)


def test_min_bandwidth_evaluates_no_guarantee(monkeypatch, ch_400m):
    def forbidden(*args):
        raise AssertionError("min_bandwidth must not evaluate the guarantee")
    monkeypatch.setattr(channel, "service_guarantee", forbidden)
    assert min_bandwidth(7e6, 0.9, ch_400m) > 0.0


def test_requirement_matrix_matches_scalar_and_marks_unattainable(ch_400m):
    """The requirement evaluator at alpha = 1, one problem per guarantee
    target. Targets far from the supremum are well conditioned, so numpy's
    and the C library's elementary functions may only move the last bits."""
    rate = 7e6
    sup = guarantee_supremum(rate, ch_400m)
    targets = np.array([0.3, 0.6, 0.9, sup, 0.999999])
    # h(7e6) = 7000 exactly, and 7000 * t / 7000 gives back each t
    benefit = game.PowerLaw(1.0, 1.0)
    sc = game.Scenario(users=(ch_400m,), benefit=benefit, pricing=benefit,
                       cost=game.CostModel(0.0, 0.0), total_bandwidth_hz=1.0)
    willingness = targets * benefit(rate)
    assert (willingness / benefit(rate) == targets).all()
    got = game._Users(sc).at(rate, np.ones(5))(willingness)[0]
    for k, target in enumerate(targets[:3]):
        want = min_bandwidth(rate, float(target), ch_400m)
        assert abs(got[k] - want) <= 4e-15 * want
    assert np.isinf(got[3:]).all()


# every region of the kernel: NaN, 0 and subnormals (the series tail), both
# sides of the 1e-5 tail and of the series start at 1, the asymptotic start
# and an lc whose root overflows nothing but the series it does not take
KERNEL_LCS = [math.nan, 0.0, 5e-324, 1e-300, 9.99e-6, 1e-5, 0.5, math.nextafter(1.0, 0.0),
              1.0, math.nextafter(1.0, 2.0), 2.0, 700.0, 1e300]


def kernel_inputs():
    """KERNEL_LCS and 200 random lcs from 1e-7 to 1e3 laid out as (n,),
    (n, 1), (n, m) and a transposed (m, n) view, as the evaluators pass them."""
    lcs = np.concatenate([KERNEL_LCS, np.exp(np.random.default_rng(5).uniform(-16.0, 7.0, 200))])
    block = np.resize(lcs, (len(lcs), 7))
    return {"(n,)": lcs, "(n, 1)": lcs[:, None].copy(), "(n, m)": block,
            "transposed": block.copy().T}


@pytest.mark.parametrize("shape", list(kernel_inputs()))
def test_the_array_kernel_is_the_reference_text_bitwise(shape):
    """The array kernel's buffers and sign folds keep every bit of the
    reference text (helpers.reference_efficiency_root), in every layout, and
    leave its input as it was."""
    lc = kernel_inputs()[shape]
    before = lc.copy()
    with np.errstate(over="ignore"):
        # the series, formed at every lc as the reference forms it, overflows at 1e300
        got, want = channel._efficiency_root(lc), helpers.reference_efficiency_root(lc)
    assert got.shape == lc.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()
    assert (lc.view(np.int64) == before.view(np.int64)).all()

