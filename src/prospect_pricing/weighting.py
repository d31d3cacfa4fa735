"""Prelec probability weighting, lottery valuation, and alpha fitting.

The weighting map w(p) = exp(-(-ln p)^alpha) distorts probabilities the way
behavioral subjects do: small p overweighted, moderate-to-high p underweighted,
with fixed points at 0, e^-1 and 1. alpha = 1 is the undistorted special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _search


class InsufficientDataError(ValueError):
    """Raised when a fit is requested on fewer than two samples."""


@dataclass(frozen=True)
class WeightingModel:
    """Single-parameter weighting curve, alpha in (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


IDENTITY = WeightingModel(alpha=1.0)


@dataclass(frozen=True)
class Lottery:
    """Discrete lottery: (finite payoff, probability) pairs with probabilities summing to 1."""

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) == 0:
            raise ValueError("lottery must have at least one outcome")
        total = 0.0
        for payoff, prob in self.outcomes:
            if not math.isfinite(payoff):
                raise ValueError(f"outcome payoff {payoff} is not finite")
            if not (0.0 <= prob <= 1.0):
                raise ValueError(f"outcome probability {prob} outside [0, 1]")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")


def weight(p: float, model: WeightingModel) -> float:
    """w(p) = exp(-(-ln p)^alpha), extended continuously with w(0)=0, w(1)=1."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if model.alpha == 1.0:
        return p
    return math.exp(-((-math.log(p)) ** model.alpha))


def inverse_weight(q: float, model: WeightingModel) -> float:
    """Inverse of weight: p = exp(-(-ln q)^(1/alpha))."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"probability {q} outside [0, 1]")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    if model.alpha == 1.0:
        return q
    return math.exp(-((-math.log(q)) ** (1.0 / model.alpha)))


def lottery_value(lottery: Lottery, model: WeightingModel) -> float:
    """Sum of payoff * w(probability), added left to right on every Python;
    the plain expectation when alpha = 1."""
    total = 0.0
    for payoff, prob in lottery.outcomes:
        total += payoff * weight(prob, model)
    return total


def _mse_and_slope(p: np.ndarray, wp: np.ndarray, alphas: np.ndarray):
    """The fit's mean squared error at each alpha and its slope dMSE/dalpha.

    p and wp are the samples, alphas the points: samples x alphas in one
    evaluation, with dw/dalpha = -w * L^alpha * ln L, L = -ln p. At p = 0
    and p = 1, w is 0 and 1 whatever alpha, and its slope 0.
    """
    p, wp = p[:, None], wp[:, None]
    inner = (0.0 < p) & (p < 1.0)
    ln_l = np.log(-np.log(np.where(inner, p, 0.5)))
    power = np.exp(ln_l * alphas)
    w = np.where(inner, np.exp(-power), p)
    slope = np.where(inner, -w * power * ln_l, 0.0)
    return np.mean((w - wp) ** 2, axis=0), np.mean(2.0 * (w - wp) * slope, axis=0)


def fit_alpha(samples: list[tuple[float, float]]) -> tuple[WeightingModel, float]:
    """Least-squares fit of alpha to (p, w(p)) samples; returns (model, mse).

    _search.stationary_min takes the MSE and its slope at the edges k/1000,
    k = 1..999, and at the start alpha = 1, in one evaluation, then closes
    every bracket where the slope rises through 0 on a root of the slope.
    The best alpha starts at 1, so a minimum at that end is kept, and each
    edge and root, in order, replace it only when strictly smaller.
    """
    if len(samples) < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {len(samples)}")
    for p, wp in samples:
        if not (0.0 <= p <= 1.0 and 0.0 <= wp <= 1.0):
            raise ValueError(f"sample ({p}, {wp}) outside the unit square")
    p, wp = np.array(samples, dtype=float).T

    alpha, err = _search.stationary_min(lambda alphas, _: _mse_and_slope(p, wp, alphas),
                                        np.arange(1, 1000) / 1000.0, [1.0])
    return WeightingModel(alpha=float(alpha[0])), float(err[0])
