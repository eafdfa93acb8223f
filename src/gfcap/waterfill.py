"""Water-filling over a noise spectrum: water level, optimal input spectrum,
and nonfeedback capacity in bits per channel use.

The water level nu solves F(nu) = P for the filled power
F(nu) = mean((nu - S)^+).  F is convex and nondecreasing, with slope
F'(nu) = |{theta in [0, pi] : S(theta) < nu}| / pi.  Both are evaluated in
closed form from the exact crossings of S = nu, so Newton's method from
nu0 = mean(S) + P, where F(nu0) >= P, falls monotonically onto the root.
For MA spectra the crossings are the real roots of a Chebyshev series in
cos(theta), polished by Newton in theta itself; and once nu is at least
sigma2 (sum |b_k|)^2 >= max S, the whole band fills and
F(nu) = nu - mean(S) with no root finding, so a full band's level is
mean(S) + P exactly.

The capacity mean(0.5 log2(max(S, nu) / S)) is
(|F| ln nu - int_F ln S) / (2 pi ln 2) over the filled set F of [0, pi],
and no quadrature ever sees the log singularity at a zero of S:

- white: C = 0.5 log2(nu / N);
- samples: S is linear between the nodes and crossings, and ln S has an
  antiderivative on each filled piece;
- ma: Jensen's formula gives mean ln S from the roots of
  B(z) = sum_k b_k z^k, the eigenvalues of its companion matrix, and
  int_F ln S = pi mean ln S - int_U ln S, where S >= nu > 0 on the
  unfilled set U, so int_U ln S is smooth.

One composite Gauss-Legendre pass over [0, pi], whose panel edges include
the solve's breakpoints, integrates ln S over U and, as a check on the
solve that shares none of its code, nu - S over F: the power residual.
The panels double until two levels agree; the first two levels are
evaluated from one psd_eval call.  A spectrum that vanishes on a band has
infinite capacity and is rejected.
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
    psd_eval,
)

_EPS = np.finfo(float).eps
_LN2 = math.log(2.0)
_NEWTON_MAX_ITER = 100
_MAX_LEVELS = 8
# Gauss-Legendre panels on [0, pi] at the first quadrature level
_PANELS = 32
# 16-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_HALF_TURN = np.array([0.0, math.pi])
_FULL_BAND = np.array([True])
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
    """Angles in [0, pi] where S(theta) = sum_k c[k] cos(k theta) = nu:
    real roots in [-1, 1] of the Chebyshev series c - nu, mapped to theta
    and polished by Newton in theta, where a crossing near 0 or pi keeps
    the digits that arccos loses.  A step is kept only where it lowers
    |S - nu|."""
    p = c.copy()
    p[0] -= nu
    x = chebyshev.chebroots(p)
    x = np.clip(x.real[(np.abs(x.imag) <= _ROOT_WINDOW)
                       & (np.abs(x.real) <= 1.0 + _ROOT_WINDOW)], -1.0, 1.0)
    k = np.arange(1, len(c))
    kc = k * c[1:]

    def gap_and_slope(theta):
        arg = np.outer(theta, k)
        return p[0] + np.cos(arg) @ c[1:], -(np.sin(arg) @ kc)

    theta = np.arccos(x)
    gap, slope = gap_and_slope(theta)
    for _ in range(2):
        # a zero slope gives a step to 0 or pi, or nan, and nan is never kept
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(theta - gap / slope, 0.0, math.pi)
            step_gap, step_slope = gap_and_slope(step)
        better = np.abs(step_gap) < np.abs(gap)
        theta = np.where(better, step, theta)
        gap = np.where(better, step_gap, gap)
        slope = np.where(better, step_slope, slope)
    return theta


def _level_terms(spec: PsdSpec, mean, bound):
    """The map nu -> (F(nu), F'(nu), edges, filled) for one spectrum with
    the given mean(S) and bound on max S, with everything that depends only
    on the spectrum computed once, here.

    The breakpoints `edges` (0, pi, every crossing and, for samples, every
    node) split [0, pi] into pieces on which S - nu keeps one sign;
    filled[i] is the sign at piece i's midpoint, so a tangent or spurious
    root cannot flip a band.  Each filled piece is integrated exactly.
    """
    if spec.form == "white":
        def terms(nu):
            gap = nu - spec.level
            return max(gap, 0.0), float(gap > 0.0), _HALF_TURN, \
                np.array([gap > 0.0])
        return terms
    if spec.form == "ma":
        c = _cosine_series(spec)
        k = np.arange(1, len(c))
        weights = 2.0 * c[1:] / k

        def pieces(nu):
            edges = np.unique(np.concatenate(([0.0, math.pi],
                                              _ma_crossings(c, nu))))
            mids, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
            cos_mid = np.cos(np.outer(mids, k))
            filled = c[0] + cos_mid @ c[1:] < nu
            # the antiderivative (nu - c0) theta - sum_k c_k sin(k theta) / k,
            # differenced over each piece as 2 cos(k mid) sin(k half) so
            # that a narrow band does not lose its digits to cancellation
            areas = (2.0 * (nu - c[0]) * half
                     - (cos_mid * np.sin(np.outer(half, k))) @ weights)
            return edges, filled, areas
    else:
        values = np.asarray(spec.values)
        nodes = np.linspace(0.0, math.pi, len(values))
        a, b = values[:-1], values[1:]
        lo, hi, step = np.minimum(a, b), np.maximum(a, b), np.diff(nodes)

        def pieces(nu):
            straddle = (lo < nu) & (nu < hi)
            frac = (nu - a[straddle]) / (b[straddle] - a[straddle])
            cross = nodes[:-1][straddle] + frac * step[straddle]
            edges = np.unique(np.concatenate((nodes, cross)))
            s = np.interp(edges, nodes, values)
            # S is linear on each piece: its midpoint value is the mean of
            # the ends, and the trapezoid rule is exact
            gap = nu - 0.5 * (s[:-1] + s[1:])
            return edges, gap > 0.0, np.diff(edges) * gap

    def terms(nu):
        # at or above the bound on max S an MA band fills completely and
        # F = nu - mean(S) exactly, with no crossing to search for.  A
        # samples spectrum keeps its nodes as edges even then: its filled
        # log integral reads S as linear between consecutive edges.
        if spec.form == "ma" and nu >= bound:
            return nu - mean, 1.0, _HALF_TURN, _FULL_BAND
        edges, filled, areas = pieces(nu)
        return (float(np.sum(areas[filled])) / math.pi,
                float(np.sum(np.diff(edges)[filled])) / math.pi,
                edges, filled)
    return terms


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
    """Newton's method on the convex filled power F from nu0 = mean(S) + P;
    returns nu with the breakpoints and filled flags of its pieces.

    F(nu0) >= mean(nu0 - S) = P, and every tangent of a convex F lies below
    it, so the iterates decrease monotonically onto the root without a
    bracket.  The rounding error of F is a few ulps of (nu + max S) times
    F', so its root is only determined to a few ulps of nu + max S: the
    solve stops once the step falls to that, or once the computed excess
    F(nu) - P is no longer positive.  An unconverged nu is never returned.
    """
    if not 0 < power < math.inf:
        raise ValueError("power budget must be positive and finite")
    mean, bound = _mean_and_bound(spec)
    terms = _level_terms(spec, mean, bound)
    nu = mean + power
    for _ in range(_NEWTON_MAX_ITER):
        filled_power, slope, edges, filled = terms(nu)
        excess = filled_power - power
        if excess <= 0.0:
            return nu, edges, filled
        step = excess / slope
        if step <= 4.0 * _EPS * (nu + bound):
            return nu, edges, filled
        nu -= step
    raise ConvergenceError(
        f"water-level Newton solve did not converge in {_NEWTON_MAX_ITER} "
        f"iterations (last level {nu!r})")


def water_level(psd: PsdSpec, power: float) -> float:
    """Water level nu with mean((nu - S_Z)^+) = power; raises
    ConvergenceError if the Newton solve does not converge."""
    return _solve_level(psd, power)[0]


def _reject_vanishing(spec: PsdSpec):
    """A spectrum that is zero on a band gives infinite capacity."""
    if spec.form == "white":
        vanishes = spec.level == 0.0
    elif spec.form == "ma":
        vanishes = not any(spec.coeffs)
    else:
        v = np.asarray(spec.values)
        vanishes = bool(np.any((v[:-1] == 0.0) & (v[1:] == 0.0)))
    if vanishes:
        raise ValueError("the noise spectrum vanishes on a band, so the "
                         "capacity is infinite")


@lru_cache(maxsize=256)
def _jensen_mean_log(spec: PsdSpec, tol: float):
    """mean ln S over [-pi, pi] by Jensen's formula,
    ln sigma2 + 2 ln|b_lead| + 2 sum_k ln max(1, |z_k|) over the roots z_k
    of B.  Cached per spectrum: bound curves and power sweeps solve one
    spectrum at many powers.

    A computed root z is within dz = (|B(z)| + rounding of B(z)) / |B'(z)|
    of a true one, to first order.  Only a root within dz of the unit
    circle may lie on the other side of it and so move the sum, by at most
    dz; the sum of those dz, in bits, must not exceed tol.

    The roots are the eigenvalues of B's companion matrix (MA(1) has the
    one root -b0 / b1), and one Horner pass gives B(z), B'(z) and
    sum_j |b_j| |z|^j, the scale of the rounding of B(z).
    """
    b = np.trim_zeros(np.asarray(spec.coeffs), "b")
    if len(b) <= 2:
        z = -b[:-1] / b[-1]
    else:
        companion = np.eye(len(b) - 1, k=-1)
        companion[0] = -b[-2::-1] / b[-1]
        z = np.linalg.eigvals(companion)
    r = np.abs(z)
    value, slope, scale = np.zeros_like(z), np.zeros_like(z), np.zeros_like(r)
    for bj in b[::-1]:
        slope = slope * z + value
        value = value * z + bj
        scale = scale * r + abs(bj)
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = (np.abs(value) + 2 * len(b) * _EPS * scale) / np.abs(slope)
    bound = float(np.sum(dz[np.abs(r - 1.0) <= dz])) / _LN2
    if not bound <= tol:
        raise ConvergenceError(
            f"capacity error bound {bound:.2e} from spectral zeros on or "
            f"near the unit circle exceeds tolerance {tol:g}")
    return (math.log(spec.sigma2) + 2.0 * math.log(abs(b[-1]))
            + 2.0 * float(np.sum(np.log(np.maximum(r, 1.0)))))


def _filled_log_samples(spec: PsdSpec, edges, filled):
    """int_F ln S for a samples spectrum: on a piece where S runs linearly
    from a to b, the mean of ln S is ln m + g(t), with m = (a + b) / 2,
    t = (b - a) / (a + b) and
    g(t) = ((1+t) ln(1+t) - (1-t) ln(1-t)) / (2t) - 1, where 0 ln 0 = 0.
    g is replaced by its series -t^2/6 - t^4/20 near t = 0, where the
    quotient cancels."""
    nodes = np.linspace(0.0, math.pi, len(spec.values))
    s = np.interp(edges, nodes, np.asarray(spec.values))
    a, b = s[:-1][filled], s[1:][filled]
    m, t = 0.5 * (a + b), (b - a) / (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(t > -1.0, (1.0 + t) * np.log1p(t), 0.0)
        down = np.where(t < 1.0, (1.0 - t) * np.log1p(-t), 0.0)
        g = np.where(np.abs(t) < 1e-4, -t * t * (1.0 / 6.0 + t * t / 20.0),
                     (up - down) / (2.0 * t) - 1.0)
    return float(np.diff(edges)[filled] @ (np.log(m) + g))


def _band_integrals(psd: PsdSpec, nu, edges, filled, panel_counts):
    """For each n in panel_counts, (int_U ln S, int_F (nu - S)) / pi by
    16-point Gauss-Legendre on the panels of [0, pi] cut at n uniform steps
    and at every edge, all from one psd_eval."""
    grids = [np.unique(np.concatenate((np.linspace(0.0, math.pi, n + 1),
                                       edges)))
             for n in panel_counts]
    mid = np.concatenate([0.5 * (g[:-1] + g[1:]) for g in grids])
    half = np.concatenate([0.5 * np.diff(g) for g in grids])
    in_f = filled[np.searchsorted(edges, mid) - 1]
    s = psd_eval(psd, mid[:, None] + half[:, None] * _GL_NODES)
    w = half[:, None] * _GL_WEIGHTS
    ends = np.cumsum([0] + [len(g) - 1 for g in grids])
    out = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        wl, sl, fl = w[lo:hi], s[lo:hi], in_f[lo:hi]
        out.append((float(np.sum(wl[~fl] * np.log(sl[~fl]))) / math.pi,
                    float(np.sum(wl[fl] * (nu - sl[fl]))) / math.pi))
    return out


def _quadrature_levels(psd: PsdSpec, nu, edges, filled):
    """_band_integrals at _PANELS, 2 _PANELS, 4 _PANELS, ... panels, up to
    _MAX_LEVELS levels.  The first two levels share one psd_eval, since
    the agreement test needs both and most solves stop there."""
    counts = [_PANELS << i for i in range(_MAX_LEVELS)]
    for batch in (counts[:2], *([n] for n in counts[2:])):
        yield from _band_integrals(psd, nu, edges, filled, batch)


def _check_floor(tol, *values):
    """Raise ConvergenceError when tol is below the roundoff floor of the
    values: a tolerance below roundoff can never be certified honestly."""
    floor = 4.0 * _EPS * max(max(abs(v) for v in values), 1.0)
    if tol < floor:
        raise ConvergenceError(
            f"abs_tolerance {tol:g} is below the achievable roundoff floor "
            f"{floor:.2e}")


def _capacity(psd, power, config):
    _reject_vanishing(psd)
    tol = config.abs_tolerance
    nu, edges, filled = _solve_level(psd, power)
    crossings = tuple(float(t) for t in edges[1:-1][filled[:-1] != filled[1:]])
    if psd.form == "white":
        capacity = 0.5 * math.log2(nu / psd.level)
        _check_floor(tol, capacity)
        return nu, crossings, capacity, abs(nu - psd.level - power)
    width = float(np.sum(np.diff(edges)[filled])) / math.pi
    if psd.form == "ma":
        mean_log = _jensen_mean_log(psd, tol)
    else:
        filled_log = _filled_log_samples(psd, edges, filled) / math.pi
    # panels double until two levels agree on both numbers: the capacity
    # within tol, the filled power (about P) within tol * max(1, P)
    power_tol = tol * max(1.0, power)
    prev = None
    for unfilled_log, filled_power in _quadrature_levels(psd, nu, edges,
                                                         filled):
        if psd.form == "ma":
            filled_log = mean_log - unfilled_log
        capacity = 0.5 * (width * math.log(nu) - filled_log) / _LN2
        _check_floor(tol, capacity)
        _check_floor(power_tol, filled_power)
        if prev is not None and abs(capacity - prev[0]) <= tol \
                and abs(filled_power - prev[1]) <= power_tol:
            return nu, crossings, capacity, abs(filled_power - power)
        prev = capacity, filled_power
    raise ConvergenceError(
        f"capacity quadrature did not reach tolerance {tol:g} after "
        f"refinement up to {_PANELS << (_MAX_LEVELS - 1)} panels")


def nonfeedback_capacity(psd: PsdSpec, power: float,
                         config: QuadratureConfig | None = None) -> WaterfillSolution:
    """Water-filling solution and capacity mean(0.5*log2(max(S, nu)/S)).

    Raises ValueError for a spectrum that vanishes on a band (white level
    0, all-zero taps, two adjacent zero samples), whose capacity is
    infinite, and ConvergenceError when the stated tolerance cannot be
    met, e.g. for an MA spectrum with multiple zeros on the unit circle.
    """
    cfg = config or DEFAULT_QUADRATURE
    nu, crossings, capacity, residual = _capacity(psd, float(power), cfg)

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
