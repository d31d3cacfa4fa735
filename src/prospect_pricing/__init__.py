"""Spectrum pricing under probability weighting.

A service provider leases bandwidth to users who judge outage guarantees
through a Prelec probability weighting function. The package solves the
provider-leads pricing game, quantifies the revenue lost when users start
weighting, and implements the recovery strategies (admission control, band
resizing, rate control), plus the seeded sweep experiments and a fitting
pipeline for perception data.
"""

from .channel import (LinkBudget, UnattainableGuaranteeError, UserChannel,
                      channel_from_budget, dbm_to_watts, guarantee_supremum,
                      min_bandwidth, received_power,
                      service_guarantee, watts_to_dbm)
from .experiments import InfeasibleScenarioError, NoEquilibriumError, ScenarioParams
from .game import (CostModel, NashResult, Offer, PowerLaw, Scenario,
                   min_bandwidth_for_user, solve_nash, sp_utility, user_utility)
from .prospect import (MinAlphaResult, NePreservation, StrategyOutcome,
                       admission_control, admission_controls, bandwidth_expansion,
                       bandwidth_expansions, equalized_levels, equalized_willingness,
                       loss_strict_rrm, loss_with_reallocation, min_alpha, ne_preserved,
                       no_pricing_bands, rate_control, rate_controls, reallocation_price,
                       strict_rrm_price)
from .weighting import (InsufficientDataError, Lottery, WeightingModel,
                        fit_alpha, inverse_weight, lottery_value, weight)

__version__ = "0.1.0"

__all__ = [
    "CostModel", "InfeasibleScenarioError", "InsufficientDataError", "LinkBudget", "Lottery",
    "MinAlphaResult", "NashResult", "NePreservation", "NoEquilibriumError",
    "Offer", "PowerLaw", "Scenario", "ScenarioParams", "StrategyOutcome",
    "UnattainableGuaranteeError", "UserChannel", "WeightingModel",
    "admission_control", "admission_controls", "bandwidth_expansion", "bandwidth_expansions",
    "channel_from_budget", "dbm_to_watts", "equalized_levels",
    "equalized_willingness", "fit_alpha", "guarantee_supremum",
    "inverse_weight", "loss_strict_rrm",
    "loss_with_reallocation", "lottery_value", "min_alpha", "min_bandwidth",
    "min_bandwidth_for_user", "ne_preserved", "no_pricing_bands", "rate_control",
    "rate_controls", "reallocation_price", "received_power", "service_guarantee", "solve_nash",
    "sp_utility", "strict_rrm_price", "user_utility", "watts_to_dbm",
    "__version__",
]
