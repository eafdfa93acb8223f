"""Capacity and feedback-rate toolbox for stationary additive Gaussian
noise channels: water-filling, linear feedback coding rates, and
feedback-capacity upper bound families.

The simulator's names are resolved on first use, so that importing gfcap
does not import numpy."""

from .spectrum import (
    PAPER_CHANNEL,
    ConditioningError,
    ConvergenceError,
    PsdSpec,
    UnsupportedFormError,
    load_psd,
    psd_describe,
    psd_eval,
)
from .waterfill import WaterfillSolution, nonfeedback_capacity, water_level
from .feedback import (
    BoundReport,
    SkSolution,
    chen_yanagi_bound,
    chen_yanagi_curve,
    conjecture_check,
    conjecture_margin,
    cover_pombra_bounds,
    default_alpha_grid,
    sandwich_failures,
    sk_poly,
    sk_rate_threshold,
    sk_root,
)

# exported by gfcap.simulator, which imports numpy
_SIMULATOR_EXPORTS = {
    "MonteCarloReport",
    "SchemeConfig",
    "VarianceTrace",
    "brute_force_conditioning",
    "simulate_transmission",
    "trace_to_csv",
    "variance_recursion",
}


def __getattr__(name):
    if name not in _SIMULATOR_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator

    value = globals()[name] = getattr(simulator, name)
    return value


__all__ = [
    "PAPER_CHANNEL",
    "BoundReport",
    "ConditioningError",
    "ConvergenceError",
    "MonteCarloReport",
    "PsdSpec",
    "SchemeConfig",
    "SkSolution",
    "UnsupportedFormError",
    "VarianceTrace",
    "WaterfillSolution",
    "brute_force_conditioning",
    "chen_yanagi_bound",
    "chen_yanagi_curve",
    "conjecture_check",
    "conjecture_margin",
    "cover_pombra_bounds",
    "default_alpha_grid",
    "load_psd",
    "nonfeedback_capacity",
    "psd_describe",
    "psd_eval",
    "sandwich_failures",
    "simulate_transmission",
    "sk_poly",
    "sk_rate_threshold",
    "sk_root",
    "trace_to_csv",
    "variance_recursion",
    "water_level",
]

__version__ = "0.1.0"
