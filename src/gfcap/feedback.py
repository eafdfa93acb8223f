"""Feedback-rate and feedback-capacity-bound computations for the MA(1)
channel with spectrum 2(1+cos theta).

The achievable linear-feedback rate is -log2(x0), where x0 is the unique
root in (0, 1) of P*x^2 = (1+x)(1-x)^3.  Upper bounds come in two families:
the classic pair 2*C(P) and C(P) + 1/2, and the one-parameter refinement
(1+1/a)*C(aP) and C(aP) + (1/2)log2(1+1/a) valid for every a > 0.  All
rates are in bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (
    PAPER_CHANNEL,
    ConvergenceError,
    PsdSpec,
    QuadratureConfig,
)
from .waterfill import nonfeedback_capacity

_EPS = np.finfo(float).eps
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# width of the alpha bracket at which the golden section stops
_ALPHA_TOL = 1e-6


@dataclass(frozen=True)
class SkSolution:
    power: float
    x0: float
    rate_bits: float
    residual: float


@dataclass(frozen=True)
class BoundReport:
    power: float
    c_p: float
    c_2p: float
    cp_double: float
    cp_plus_half: float
    cy_curve: tuple        # entries (alpha, bound1, bound2)
    cy_min_alpha: float
    cy_min_value: float
    conjecture_bound: float
    sk: SkSolution
    sk_rate: float
    violated: bool
    margin: float


def sk_poly(power, x):
    """P*x^2 - (1+x)(1-x)^3; negative at 0, equal to P at 1."""
    return power * x * x - (1.0 + x) * (1.0 - x) ** 3


def _sk_poly_deriv(power, x):
    return 2.0 * power * x + (1.0 - x) ** 2 * (2.0 + 4.0 * x)


def sk_root(power: float) -> SkSolution:
    """Unique root of P*x^2 = (1+x)(1-x)^3 in (0, 1) and the rate -log2 x0.

    P*x^2 is strictly increasing and (1+x)(1-x)^3 strictly decreasing on
    [0, 1], so the bracket [0, h] with h = min(1, P^-1/2) pins exactly one
    root: f(0) = -1 < 0 <= 1 - (1+h)(1-h)^3 <= f(h).  The root exceeds h/3,
    so bisection gives an enclosure tight relative to x0 at any P, and a
    few Newton steps, kept inside it, polish it to full double precision.
    The residual is held to a few ulps of its scale, the two terms of f
    and the rounding of x times f'; ConvergenceError is raised if it is
    not.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    lo, hi = 0.0, min(1.0, 1.0 / math.sqrt(power))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sk_poly(power, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        # near x = 1 at tiny P, f' is tiny and a free step leaves [0, 1]
        x = min(max(x - sk_poly(power, x) / _sk_poly_deriv(power, x), lo), hi)
    x = min(max(x, 1e-300), 1.0 - 1e-16)
    residual = abs(sk_poly(power, x))
    scale = (power * x * x + (1.0 + x) * (1.0 - x) ** 3
             + x * _sk_poly_deriv(power, x))
    if not residual <= 8.0 * _EPS * scale:
        raise ConvergenceError(
            f"sk_root residual {residual:.2e} at P = {power:g} exceeds "
            f"{8.0 * _EPS * scale:.2e}, 8 ulps of its scale")
    return SkSolution(power=float(power), x0=x, rate_bits=-math.log2(x),
                      residual=residual)


def sk_rate_threshold() -> float:
    """Power above which the feedback rate exceeds 1 bit (x0 = 1/2 exactly
    at P = 3/4, since (3/4)(1/4) = (3/2)(1/8))."""
    return 0.75


def cover_pombra_bounds(c_p: float):
    """The pair of upper bounds (2*C(P), C(P) + 1/2)."""
    if c_p < 0:
        raise ValueError("capacity must be nonnegative")
    return 2.0 * c_p, c_p + 0.5


def chen_yanagi_bound(psd: PsdSpec, power: float, alpha: float,
                      config: QuadratureConfig | None = None):
    """Bound pair ((1+1/a)*C(aP), C(aP) + (1/2)log2(1+1/a)) for a > 0."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    c = nonfeedback_capacity(psd, alpha * power, config).capacity_bits
    return (1.0 + 1.0 / alpha) * c, c + 0.5 * math.log2(1.0 + 1.0 / alpha)


def default_alpha_grid(n_points=50, lo=0.1, hi=10.0):
    """n_points alphas, log-spaced from lo to hi."""
    if not n_points >= 1:
        raise ValueError("alpha grid needs at least one point")
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError("alpha range ends must be positive and finite")
    return np.logspace(np.log10(lo), np.log10(hi), n_points)


def chen_yanagi_curve(psd: PsdSpec, power: float, alpha_grid,
                      config: QuadratureConfig | None = None):
    """The bound pair at every alpha of the grid and its minimum over alpha,
    from one pass: returns (curve, cy_min_alpha, cy_min_value), with curve
    entries (alpha, bound1, bound2).  The curve itself is the grid scan;
    a golden section between the grid neighbours of its lowest point
    refines the minimum, and the final midpoint replaces that point only
    if it is lower.  Each capacity is solved once."""
    curve = tuple(
        (float(a),) + chen_yanagi_bound(psd, power, float(a), config)
        for a in alpha_grid)
    if not curve:
        raise ValueError("alpha grid must be nonempty")

    def value(a):
        return min(chen_yanagi_bound(psd, power, a, config))

    scan = sorted((a, min(b1, b2)) for a, b1, b2 in curve)
    i = int(np.argmin([v for _, v in scan]))
    best_a, best_v = scan[i]
    if len(scan) == 1:
        return curve, best_a, best_v
    a, b = scan[max(i - 1, 0)][0], scan[min(i + 1, len(scan) - 1)][0]
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = value(c), value(d)
    while (b - a) > _ALPHA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = value(d)
    mid = 0.5 * (a + b)
    vmid = value(mid)
    if vmid < best_v:
        best_a, best_v = mid, vmid
    return curve, best_a, best_v


def conjecture_margin(power: float,
                      config: QuadratureConfig | None = None):
    """The achievable feedback rate against the conjectured ceiling C(2P)
    on the MA(1) channel: returns (sk, c_2p, margin, violated), where
    margin = -log2 x0 - C(2P) and violated means margin > 0.  One sk_root
    and one capacity solve."""
    sk = sk_root(power)
    c_2p = nonfeedback_capacity(PAPER_CHANNEL, 2.0 * power,
                                config).capacity_bits
    margin = sk.rate_bits - c_2p
    return sk, c_2p, margin, margin > 0


def conjecture_check(power: float, config: QuadratureConfig | None = None,
                     alpha_grid=None) -> BoundReport:
    """Full bound report for the MA(1) channel at the given power.

    Compares the achievable feedback rate -log2 x0 against the conjectured
    ceiling C(2P); violated means the achievable rate exceeds it.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    psd = PAPER_CHANNEL
    grid = default_alpha_grid() if alpha_grid is None else alpha_grid
    c_p = nonfeedback_capacity(psd, power, config).capacity_bits
    sk, c_2p, margin, violated = conjecture_margin(power, config)
    cp_double, cp_plus_half = cover_pombra_bounds(c_p)
    curve, cy_alpha, cy_value = chen_yanagi_curve(psd, power, grid, config)
    return BoundReport(
        power=float(power),
        c_p=c_p,
        c_2p=c_2p,
        cp_double=cp_double,
        cp_plus_half=cp_plus_half,
        cy_curve=curve,
        cy_min_alpha=cy_alpha,
        cy_min_value=cy_value,
        conjecture_bound=c_2p,
        sk=sk,
        sk_rate=sk.rate_bits,
        violated=violated,
        margin=margin,
    )


def sandwich_failures(report: BoundReport):
    """Consistency checks a valid report must satisfy; returns violations."""
    out = []
    tol = 1e-9
    if not report.c_p <= report.sk_rate + tol:
        out.append("nonfeedback capacity exceeds the achievable feedback rate")
    for name, bound in (("2*C(P)", report.cp_double),
                        ("C(P)+1/2", report.cp_plus_half),
                        ("min over alpha", report.cy_min_value)):
        if report.sk_rate > bound + tol:
            out.append(f"achievable rate {report.sk_rate:.9f} exceeds "
                       f"upper bound {name} = {bound:.9f}")
    for a, b1, b2 in report.cy_curve:
        if report.sk_rate > min(b1, b2) + tol:
            out.append(f"achievable rate exceeds alpha={a:.4f} bound")
    return out
