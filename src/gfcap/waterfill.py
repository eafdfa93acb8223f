"""Water-filling over a noise spectrum: water level, optimal input spectrum,
and nonfeedback capacity in bits per channel use.

The water level nu solves F(nu) = P for the filled power
F(nu) = mean((nu - S)^+).  F is convex and nondecreasing, with slope
F'(nu) = |{theta in [0, pi] : S(theta) < nu}| / pi.  Both are evaluated in
closed form from the exact crossings of S = nu, so Newton's method from
nu0 = mean(S) + P, where F(nu0) >= P, falls monotonically onto the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .spectrum import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    PsdSpec,
    QuadratureConfig,
    mean_integral,
    psd_eval,
    psd_zeros,
)

_EPS = np.finfo(float).eps
_NEWTON_MAX_ITER = 100
# Chebyshev roots farther than this from the real interval [-1, 1] cannot be
# crossings.  Extra candidates are harmless (each band is decided by the
# sign of S - nu at its midpoint), so the window is generous.
_ROOT_WINDOW = 1e-6


@dataclass(frozen=True)
class WaterfillSolution:
    power: float
    water_level: float
    capacity_bits: float
    power_residual: float
    input_psd: object = field(compare=False)  # callable theta -> (nu - S_Z)^+
    band_crossings: tuple = ()


def _cosine_series(spec: PsdSpec):
    """c with S(theta) = sum_k c[k] cos(k theta) = sum_k c[k] T_k(cos theta),
    from the autocorrelation of the MA taps."""
    b = np.asarray(spec.coeffs)
    c = 2.0 * spec.sigma2 * np.correlate(b, b, mode="full")[len(b) - 1:]
    c[0] *= 0.5
    return c


def _ma_crossings(c, nu):
    """Angles in [0, pi] where sum_k c[k] cos(k theta) = nu: real roots in
    [-1, 1] of the Chebyshev series c - nu, polished by Newton in x."""
    p = c.copy()
    p[0] -= nu
    x = chebyshev.chebroots(p)
    x = np.clip(x.real[(np.abs(x.imag) <= _ROOT_WINDOW)
                       & (np.abs(x.real) <= 1.0 + _ROOT_WINDOW)], -1.0, 1.0)
    dp = chebyshev.chebder(p)
    for _ in range(2):
        px = chebyshev.chebval(x, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(x - px / chebyshev.chebval(x, dp), -1.0, 1.0)
        better = np.abs(chebyshev.chebval(step, p)) < np.abs(px)
        x = np.where(better, step, x)
    return np.arccos(x)


def _level_terms(spec: PsdSpec, nu: float):
    """F(nu), F'(nu) and the band crossings of S = nu in (0, pi).

    The breakpoints (0, pi, every crossing and, for samples, every node)
    split [0, pi] into pieces on which S - nu keeps one sign; the sign at a
    piece's midpoint decides whether it is filled, so a tangent or spurious
    root cannot flip a band.  Each filled piece is integrated exactly.
    """
    if spec.form == "white":
        gap = nu - spec.level
        return max(gap, 0.0), float(gap > 0.0), ()
    if spec.form == "ma":
        c = _cosine_series(spec)
        k = np.arange(1, len(c))
        edges = np.unique(np.concatenate(([0.0, math.pi],
                                          _ma_crossings(c, nu))))
        mids, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        cos_mid = np.cos(np.outer(mids, k))
        filled = c[0] + cos_mid @ c[1:] < nu
        # the antiderivative (nu - c0) theta - sum_k c_k sin(k theta) / k,
        # differenced over each piece as 2 cos(k mid) sin(k half) so that
        # a narrow band does not lose its digits to cancellation
        pieces = (2.0 * (nu - c[0]) * half
                  - (cos_mid * np.sin(np.outer(half, k))) @ (2.0 * c[1:] / k))
    else:
        values = np.asarray(spec.values)
        nodes = np.linspace(0.0, math.pi, len(values))
        a, b = values[:-1], values[1:]
        straddle = (np.minimum(a, b) < nu) & (nu < np.maximum(a, b))
        frac = (nu - a[straddle]) / (b[straddle] - a[straddle])
        cross = nodes[:-1][straddle] + frac * np.diff(nodes)[straddle]
        edges = np.unique(np.concatenate((nodes, cross)))
        s = np.interp(edges, nodes, values)
        # S is linear on each piece: its midpoint value is the mean of the
        # ends, and the trapezoid rule is exact
        gap = nu - 0.5 * (s[:-1] + s[1:])
        filled = gap > 0.0
        pieces = np.diff(edges) * gap
    power = float(np.sum(pieces[filled])) / math.pi
    slope = float(np.sum(np.diff(edges)[filled])) / math.pi
    flips = edges[1:-1][filled[:-1] != filled[1:]]
    return power, slope, tuple(float(t) for t in flips)


def _mean_and_bound(spec: PsdSpec):
    """mean(S), and a bound on max S that also bounds the terms summed
    into F(nu): sigma2 * (sum |b_k|)^2 for MA forms."""
    if spec.form == "white":
        return spec.level, spec.level
    if spec.form == "ma":
        b = np.asarray(spec.coeffs)
        return (spec.sigma2 * float(b @ b),
                spec.sigma2 * float(np.abs(b).sum()) ** 2)
    v = np.asarray(spec.values)
    return float((v.sum() - 0.5 * (v[0] + v[-1])) / (len(v) - 1)), float(v.max())


def _solve_level(spec: PsdSpec, power: float):
    """Newton's method on the convex filled power F from nu0 = mean(S) + P.

    F(nu0) >= mean(nu0 - S) = P, and every tangent of a convex F lies below
    it, so the iterates decrease monotonically onto the root without a
    bracket.  The rounding error of F is a few ulps of (nu + max S) times
    F', so its root is only determined to a few ulps of nu + max S: the
    solve stops once the step falls to that, or once the computed excess
    F(nu) - P is no longer positive.  An unconverged nu is never returned.
    """
    if power <= 0:
        raise ValueError("power budget must be positive")
    mean, bound = _mean_and_bound(spec)
    nu = mean + power
    for _ in range(_NEWTON_MAX_ITER):
        filled, slope, crossings = _level_terms(spec, nu)
        excess = filled - power
        if excess <= 0.0:
            return nu, crossings
        step = excess / slope
        if step <= 4.0 * _EPS * (nu + bound):
            return nu, crossings
        nu -= step
    raise ConvergenceError(
        f"water-level Newton solve did not converge in {_NEWTON_MAX_ITER} "
        f"iterations (last level {nu!r})")


def water_level(psd: PsdSpec, power: float) -> float:
    """Water level nu with mean((nu - S_Z)^+) = power; raises
    ConvergenceError if the Newton solve does not converge."""
    nu, _ = _solve_level(psd, power)
    return nu


@lru_cache(maxsize=1024)
def _capacity_cached(psd, power, config):
    nu, crossings = _solve_level(psd, power)
    zeros = psd_zeros(psd)
    singular = tuple(zeros) + crossings

    def gain(th):
        sz = np.maximum(psd_eval(psd, th), 1e-300)
        return 0.5 * np.log2(np.maximum(sz, nu) / sz)

    capacity = mean_integral(gain, config, singular_points=singular)
    residual = abs(mean_integral(
        lambda th: np.maximum(nu - psd_eval(psd, th), 0.0),
        config, singular_points=crossings) - power)
    return nu, crossings, capacity, residual


def nonfeedback_capacity(psd: PsdSpec, power: float,
                         config: QuadratureConfig | None = None) -> WaterfillSolution:
    """Water-filling solution and capacity mean(0.5*log2(max(S, nu)/S))."""
    cfg = config or DEFAULT_QUADRATURE
    nu, crossings, capacity, residual = _capacity_cached(psd, float(power), cfg)

    def input_psd(th):
        return np.maximum(nu - psd_eval(psd, th), 0.0)

    return WaterfillSolution(
        power=float(power),
        water_level=nu,
        capacity_bits=capacity,
        power_residual=residual,
        input_psd=input_psd,
        band_crossings=crossings,
    )
