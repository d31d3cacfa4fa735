"""Per-user radio link model.

Path loss follows the simplified log-distance form with lognormal shadowing,
P_r = P_t + K - 10*gamma*log10(d/d0) + shadow (all in dB). The delivered rate
on a Rayleigh channel exceeds an advertised rate b with probability
exp(-(2^(b/bw) - 1) * bw * N0 / P_r), the closed-form service guarantee this
module inverts with respect to bandwidth: min_bandwidth for one user in math,
and _spectral_efficiency (lc by _log_ratio, then _efficiency_root) for the
numpy requirement matrix of game._Users.

_newton_arrays, the array text of _efficiency_root's Newton steps, stays:
the float text gives the same bits on numpy, but nash-300m-80 runs slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)


class UnattainableGuaranteeError(ValueError):
    """Target exceeds the bandwidth->infinity guarantee limit at this rate."""

    def __init__(self, rate_bps: float, target: float, supremum: float):
        self.rate_bps = rate_bps
        self.target = target
        self.supremum = supremum
        super().__init__(
            f"guarantee {target} unattainable at rate {rate_bps:g} bps "
            f"(supremum {supremum})")


def _require_finite(**fields: float) -> None:
    """Refuse a NaN or infinite field: NaN passes every < 0 or <= 0 check."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float
    antenna_const_db: float
    pathloss_exponent: float
    distance_m: float
    ref_distance_m: float
    shadow_db: float
    noise_psd_dbm_per_hz: float

    def __post_init__(self) -> None:
        if not (self.distance_m >= self.ref_distance_m > 0.0):
            raise ValueError(
                f"need distance >= ref_distance > 0, got "
                f"{self.distance_m} / {self.ref_distance_m}")
        if self.pathloss_exponent <= 0.0:
            raise ValueError(f"pathloss exponent must be > 0, got {self.pathloss_exponent}")


@dataclass(frozen=True)
class UserChannel:
    """Link state reduced to the two linear-scale quantities the guarantee needs."""

    received_power_w: float
    noise_psd_w_per_hz: float

    def __post_init__(self) -> None:
        power, noise = self.received_power_w, self.noise_psd_w_per_hz
        if not (0.0 < power < math.inf and 0.0 < noise < math.inf):  # NaN fails too
            _require_finite(received_power_w=power, noise_psd_w_per_hz=noise)
            raise ValueError("received power and noise PSD must be strictly positive")


def dbm_to_watts(dbm: float) -> float:
    """Watts of dbm; inf past the float range, a power UserChannel refuses."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def watts_to_dbm(watts: float) -> float:
    # written so that NaN fails the check
    if not watts > 0.0:
        raise ValueError(f"power must be positive, got {watts}")
    return 10.0 * math.log10(watts) + 30.0


def _received_dbm(link, distance_m: float, shadow_db: float) -> float:
    """received_power at distance_m and shadow_db; link is a LinkBudget or a ScenarioParams."""
    path = 10.0 * link.pathloss_exponent * math.log10(distance_m / link.ref_distance_m)
    return link.tx_power_dbm + link.antenna_const_db - path + shadow_db


def received_power(lb: LinkBudget) -> float:
    """Received power in dBm; the log-distance term contributes 10*gamma*log10(d/d0) dB."""
    return _received_dbm(lb, lb.distance_m, lb.shadow_db)


def channel_from_budget(lb: LinkBudget) -> UserChannel:
    return UserChannel(
        received_power_w=dbm_to_watts(received_power(lb)),
        noise_psd_w_per_hz=dbm_to_watts(lb.noise_psd_dbm_per_hz))


def service_guarantee(rate_bps: float, bandwidth_hz: float, ch: UserChannel) -> float:
    """P(delivered rate > rate_bps) on bandwidth_hz; 1 at rate 0, falls to 0 as rate grows."""
    # written so that NaN fails each check
    if not bandwidth_hz > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz}")
    if not rate_bps >= 0.0:
        raise ValueError(f"rate must be >= 0, got {rate_bps}")
    if rate_bps == 0.0:
        return 1.0
    if bandwidth_hz == math.inf:
        # the wide-band limit, where expm1(t) * scale below is 0 * inf
        return guarantee_supremum(rate_bps, ch)
    t = (rate_bps / bandwidth_hz) * _LN2
    scale = bandwidth_hz * ch.noise_psd_w_per_hz / ch.received_power_w
    if t > 60.0:
        # 2^(b/bw) - 1 ~ e^t; stay in logs to dodge overflow
        ln_exponent = t + math.log(scale)
        return math.exp(-math.exp(ln_exponent)) if ln_exponent < 700.0 else 0.0
    return math.exp(-math.expm1(t) * scale)


def _ln_supremum(rate_bps, noise_psd_w_per_hz, received_power_w):
    """log of the wide-band guarantee limit, formed directly (floats or arrays)."""
    return -rate_bps * _LN2 * noise_psd_w_per_hz / received_power_w


def guarantee_supremum(rate_bps: float, ch: UserChannel) -> float:
    """Least upper bound of service_guarantee over bandwidth at fixed rate."""
    if not rate_bps >= 0.0:
        raise ValueError(f"rate must be >= 0, got {rate_bps}")
    return math.exp(_ln_supremum(rate_bps, ch.noise_psd_w_per_hz, ch.received_power_w))


class _Scalar:
    """The numpy functions that _spectral_efficiency uses, for one Python float."""

    log, log1p, expm1 = math.log, math.log1p, math.expm1
    maximum = staticmethod(max)
    any = staticmethod(bool)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


def _series_root(lc):
    """2lc - lc^2/3 + lc^3/9, the root's expansion in lc; off by 0.018 lc^3 relative."""
    return lc * (2.0 - lc * (1.0 / 3.0 - lc / 9.0))


def _spectral_efficiency(ln_target, ln_sup, xp):
    """x = rate*ln2/bandwidth at which the guarantee meets its target.

    With x so defined, ln F = ln_sup * expm1(x)/x, so x is _efficiency_root
    of lc = _log_ratio(ln_target, ln_sup). xp is numpy for arrays, _Scalar
    for a float.
    """
    return _efficiency_root(_log_ratio(ln_target, ln_sup, xp))


def _log_ratio(ln_target, ln_sup, xp):
    """lc = log(ln_target/ln_sup), formed from ln_target - ln_sup, which is
    exact near the supremum, where the ratio is not. A target within
    rounding of the supremum is taken as one 2^-52 below it, so it gets a
    finite bandwidth."""
    return xp.log1p(xp.maximum((ln_target - ln_sup) / ln_sup, 2.0 ** -52))


def _efficiency_root(lc):
    """The root x of log(expm1(x)/x) = lc > 0, for a float or an array.

    It is the W_-1 branch of the Lambert W function (Corless et al., 1996).
    log(expm1(x)/x) is convex and increasing; from the series start below
    lc = 1 and the asymptote x = lc + log x above it, three Newton steps
    reach the root to within an ulp times max(1, 1/lc), the conditioning of
    lc itself, for every lc from 1e-5 to 700 (checked against mpmath). Below
    1e-5 the series is the root to 2e-17, and Newton would meet cancellation
    in its derivative. A float takes the steps below in math (_Scalar), and
    an array takes them in _newton_arrays, bitwise as numpy takes this text.
    """
    if not isinstance(lc, np.ndarray):
        xp = _Scalar
        lcn = xp.maximum(lc, 1e-5)
        # 0.43 keeps the asymptotic start within 0.06 of the root for every lc >= 1
        x = xp.where(lcn < 1.0, _series_root(lcn), lcn + xp.log(lcn + xp.log1p(lcn) + 0.43))
        for _ in range(3):
            one_minus_exp = -xp.expm1(-x)
            x = x - (x + xp.log(one_minus_exp / x) - lcn) / (1.0 / one_minus_exp - 1.0 / x)
        tiny = lc < 1e-5  # rare: the series is the root there
        return xp.where(tiny, _series_root(lc), x) if xp.any(tiny) else x
    return _newton_arrays(lc)


def _newton_arrays(lc):
    """_efficiency_root of an array, its Newton steps written into three
    buffers made once: a step's arrays are the allocations, not the
    arithmetic, that cost. With e = expm1(-x), (1 - e^-x)/x is e/(-x) and
    1/(1 - e^-x) - 1/x is 1/(-x) - 1/e, bitwise, as negation is exact and
    rounding to nearest is symmetric in sign. lc is only read."""
    # out= keeps a 0-d array an array, where a ufunc would return a scalar
    lcn = np.maximum(lc, 1e-5, out=np.empty_like(lc, dtype=float))
    x = np.log1p(lcn, out=np.empty_like(lcn))
    x += lcn
    x += 0.43
    np.log(x, out=x)
    x += lcn
    small = lcn < 1.0
    if small.any():
        np.copyto(x, _series_root(lcn), where=small)
    neg_x, e, step = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(3):
        np.negative(x, out=neg_x)
        np.expm1(neg_x, out=e)
        np.divide(e, neg_x, out=step)
        np.log(step, out=step)
        step += x
        step -= lcn
        np.divide(1.0, neg_x, out=neg_x)
        np.divide(1.0, e, out=e)
        neg_x -= e
        step /= neg_x
        x -= step
    tiny = lc < 1e-5
    if tiny.any():
        np.copyto(x, _series_root(lc), where=tiny)
    return x


def min_bandwidth(rate_bps: float, target: float, ch: UserChannel) -> float:
    """Unique bandwidth with service_guarantee == target, without a search.

    The guarantee is strictly increasing in bandwidth, so the root is unique;
    _spectral_efficiency solves for it to double precision.
    Raises UnattainableGuaranteeError when target >= the supremum at this rate.
    """
    if not rate_bps > 0.0:
        raise ValueError(f"rate must be > 0, got {rate_bps}")
    if not (0.0 < target < 1.0):
        raise ValueError(f"target must lie in (0, 1), got {target}")
    ln_sup = _ln_supremum(rate_bps, ch.noise_psd_w_per_hz, ch.received_power_w)
    sup = math.exp(ln_sup)
    if target >= sup:
        raise UnattainableGuaranteeError(rate_bps, target, sup)
    return rate_bps * _LN2 / _spectral_efficiency(math.log(target), ln_sup, _Scalar)
