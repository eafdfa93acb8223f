"""Capacity and feedback-rate toolbox for stationary additive Gaussian
noise channels: water-filling, linear feedback coding rates, and
feedback-capacity upper bound families."""

from .spectrum import (
    PAPER_CHANNEL,
    ConvergenceError,
    PsdSpec,
    QuadratureConfig,
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
from .simulator import (
    ConditioningError,
    MonteCarloReport,
    SchemeConfig,
    VarianceTrace,
    brute_force_conditioning,
    simulate_transmission,
    trace_to_csv,
    variance_recursion,
)

__all__ = [
    "PAPER_CHANNEL",
    "BoundReport",
    "ConditioningError",
    "ConvergenceError",
    "MonteCarloReport",
    "PsdSpec",
    "QuadratureConfig",
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
