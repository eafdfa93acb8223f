"""The array half of water-filling: MA(q != 1) and samples spectra.

waterfill solves white noise and MA(1) in scalar closed forms and imports
this module on first use, for everything else: the level's full-band test
on these forms, the crossings and their polish, the sampled start, the
Newton loop, Jensen's formula, the full-band power check and the
Gauss-Legendre quadrature of a partial band.  The method is set out in
waterfill's docstring.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .spectrum import ConvergenceError, PsdSpec, psd_eval
from .waterfill import _EPS, _GL_NODES, _GL_WEIGHTS, _LN2, _check_floor

_NEWTON_MAX_ITER = 100
_MAX_LEVELS = 8
# Gauss-Legendre panels on [0, pi] at the first quadrature level
_PANELS = 32
# waterfill's 16-point Gauss-Legendre rule on [-1, 1], as arrays
_GL_X, _GL_W = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
# Chebyshev roots farther than this from the real interval [-1, 1] cannot be
# crossings.  Extra candidates are harmless (each band is decided by the
# sign of S - nu at its midpoint), so the window is generous.
_ROOT_WINDOW = 1e-6
# The Newton solve of a partial MA band starts from the discrete water level
# of S at this many midpoints of [0, pi]
_START_SAMPLES = 64
_START_THETA = (np.arange(_START_SAMPLES) + 0.5) * (math.pi / _START_SAMPLES)


def _cosine_series(spec: PsdSpec):
    """c with S(theta) = sum_k c[k] cos(k theta) = sum_k c[k] T_k(cos theta),
    from the autocorrelation of the MA taps."""
    b = np.asarray(spec.coeffs)
    c = 2.0 * spec.sigma2 * np.correlate(b, b, mode="full")[len(b) - 1:]
    c[0] *= 0.5
    return c


def _ma_crossings(c, nu):
    """Angles in [0, pi] where S(theta) = sum_k c[k] cos(k theta) = nu:
    the real roots in [-1, 1] of the Chebyshev series c - nu, mapped to
    theta by arccos, which loses digits next to 0 and pi."""
    p = c.copy()
    p[0] -= nu
    x = chebyshev.chebroots(p)
    x = np.clip(x.real[(np.abs(x.imag) <= _ROOT_WINDOW)
                       & (np.abs(x.real) <= 1.0 + _ROOT_WINDOW)], -1.0, 1.0)
    return np.arccos(x)


def _polish_crossings(c, nu, theta):
    """The crossings theta of S = nu polished by two Newton steps in theta
    itself, where a crossing near 0 or pi keeps the digits that arccos
    loses.  A step is kept only where it lowers |S - nu|."""
    gap0 = c[0] - nu
    k = np.arange(1, len(c))
    kc = k * c[1:]

    def gap_and_slope(theta):
        arg = np.outer(theta, k)
        return gap0 + np.cos(arg) @ c[1:], -(np.sin(arg) @ kc)

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


def _sampled_level(s, power):
    """The level of the discrete water-filling mean((nu - s_i)^+) = P over
    the samples s: with the m smallest samples filled the level is
    (n P + their sum) / m, and the first such level that does not exceed
    the next sample fills exactly those m."""
    s = np.sort(s)
    levels = (len(s) * power + np.cumsum(s)) / np.arange(1, len(s) + 1)
    fits = np.flatnonzero(levels[:-1] <= s[1:])
    return float(levels[fits[0] if len(fits) else -1])


def _ma_pieces(c):
    """(split, pieces) for an MA spectrum with cosine series c.
    split(nu, theta) sorts 0, pi and the crossings theta into the edges of
    pieces and flags each piece filled by the sign of nu - S at its
    midpoint, so a tangent or spurious root cannot flip a band;
    pieces(nu) -> (edges, filled, areas) adds the area of nu - S on each
    piece, in closed form."""
    k = np.arange(1, len(c))
    weights = 2.0 * c[1:] / k
    # a trailing term below eps sum |c_k| is lost in S's rounding, but as the
    # leading coefficient its reciprocal scales the crossings' companion
    # matrix and loses them (from a tap ratio of about 1e-26), so it is dropped
    kept = np.flatnonzero(np.abs(c) > _EPS * np.abs(c).sum())
    series = c[:kept[-1] + 1]

    def split(nu, theta):
        edges = np.unique(np.concatenate(([0.0, math.pi], theta)))
        cos_mid = np.cos(np.outer(0.5 * (edges[:-1] + edges[1:]), k))
        return edges, c[0] + cos_mid @ c[1:] < nu, cos_mid

    def pieces(nu):
        edges, filled, cos_mid = split(nu, _ma_crossings(series, nu))
        half = 0.5 * np.diff(edges)
        # the antiderivative (nu - c0) theta - sum_k c_k sin(k theta) / k,
        # differenced over each piece as 2 cos(k mid) sin(k half) so that a
        # narrow band does not lose its digits to cancellation
        areas = (2.0 * (nu - c[0]) * half
                 - (cos_mid * np.sin(np.outer(half, k))) @ weights)
        return edges, filled, areas

    return split, pieces


def _samples_pieces(values):
    """pieces(nu) -> (edges, filled, areas) for a samples spectrum: the
    nodes and the crossings between them, the sign of nu - S on each piece
    and its area.  The nodes stay edges even when the band fills, since
    the filled log integral reads S as linear between consecutive edges."""
    values = np.asarray(values)
    nodes = np.linspace(0.0, math.pi, len(values))
    a, b = values[:-1], values[1:]
    lo, hi, step = np.minimum(a, b), np.maximum(a, b), np.diff(nodes)

    def pieces(nu):
        straddle = (lo < nu) & (nu < hi)
        frac = (nu - a[straddle]) / (b[straddle] - a[straddle])
        cross = nodes[:-1][straddle] + frac * step[straddle]
        edges = np.unique(np.concatenate((nodes, cross)))
        s = np.interp(edges, nodes, values)
        # S is linear on each piece: its midpoint value is the mean of the
        # ends, and the trapezoid rule is exact
        gap = nu - 0.5 * (s[:-1] + s[1:])
        return edges, gap > 0.0, np.diff(edges) * gap

    return pieces


def _mean_and_bound(spec: PsdSpec):
    """mean(S), and a bound on max S that also bounds the terms summed
    into F(nu): sigma2 * (sum |b_k|)^2 >= c0 + sum |c_k| for MA forms."""
    if spec.form == "ma":
        b = np.asarray(spec.coeffs)
        return (spec.sigma2 * float(b @ b),
                spec.sigma2 * float(np.abs(b).sum()) ** 2)
    v = np.asarray(spec.values)
    return float((v.sum() - 0.5 * (v[0] + v[-1])) / (len(v) - 1)), float(v.max())


def _solve_level(spec: PsdSpec, power: float):
    """The water level nu of an MA(q != 1) or samples spectrum, with the
    breakpoints and filled flags of its pieces: a full band's nu0 first,
    else Newton on the convex F from a start at or above the root, as
    waterfill's docstring sets out.

    The terms summed into F are bounded by nu + bound, where bound is max S
    for samples and, for MA, sigma2 (sum |b_k|)^2 >= c0 + sum |c_k|.  So
    the rounding error of F is a few ulps of (nu + bound) times F', and its
    root is only determined to a few ulps of nu + bound: the solve stops
    once the step falls to that, or once the computed excess F(nu) - P is
    no longer positive.  An unconverged nu is never returned.
    """
    mean, bound = _mean_and_bound(spec)
    nu0 = nu = mean + power
    if spec.form != "samples" and nu0 >= bound:
        return nu0, np.array([0.0, math.pi]), np.array([True])
    if spec.form == "ma":
        c = _cosine_series(spec)
        split, pieces = _ma_pieces(c)
        s = c[0] + np.cos(np.outer(_START_THETA, np.arange(1, len(c)))) @ c[1:]
        nu = min(_sampled_level(s, power), nu0)
    else:
        pieces = _samples_pieces(spec.values)

    def terms(nu):
        edges, filled, areas = pieces(nu)
        return (float(np.sum(areas[filled])) / math.pi,
                float(np.sum(np.diff(edges)[filled])) / math.pi,
                edges, filled)

    filled_power, slope, edges, filled = terms(nu)
    if nu < nu0 and filled_power < power:
        # below the root: the tangent there meets P at or above it
        nu = min(nu + (power - filled_power) / slope, nu0) \
            if slope > 0.0 else nu0
        filled_power, slope, edges, filled = terms(nu)
    for _ in range(_NEWTON_MAX_ITER):
        excess = filled_power - power
        if excess <= 0.0:
            break
        step = excess / slope
        if step <= 4.0 * _EPS * (nu + bound):
            break
        nu -= step
        filled_power, slope, edges, filled = terms(nu)
    else:
        raise ConvergenceError(
            f"water-level Newton solve did not converge in "
            f"{_NEWTON_MAX_ITER} iterations (last level {nu!r})")
    if spec.form == "ma" and len(edges) > 2:
        edges, filled, _ = split(nu, _polish_crossings(c, nu, edges[1:-1]))
    return nu, edges, filled


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

    Trailing taps up to eps sum |b_k| are dropped first: as the leading
    coefficient, such a tap's reciprocal scales the companion matrix and
    spoils the roots on the unit circle.  The scale still runs over every
    tap, so the dropped tail, below B's rounding, is counted as rounding.
    """
    taps = np.asarray(spec.coeffs)
    # _reject_vanishing has left a nonzero tap, and so one that is kept
    kept = np.flatnonzero(np.abs(taps) > _EPS * np.abs(taps).sum())
    b = taps[:kept[-1] + 1]
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
    for bj in taps[::-1]:
        scale = scale * r + abs(bj)
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = (np.abs(value) + 2 * len(taps) * _EPS * scale) / np.abs(slope)
    bound = float(np.sum(dz[np.abs(r - 1.0) <= dz])) / _LN2
    if not bound <= tol:
        raise ConvergenceError(
            f"capacity error bound {bound:.2e} from spectral zeros on or "
            f"near the unit circle exceeds tolerance {tol:g}")
    return (math.log(spec.sigma2) + 2.0 * math.log(abs(b[-1]))
            + 2.0 * float(np.sum(np.log(np.maximum(r, 1.0)))))


def _full_band_power(psd: PsdSpec, nu):
    """F(nu) = nu - mean S on a full band, with mean S from psd_eval at m
    midpoints (j + 1/2) pi / m, a rule exact for S: for MA, m = len(b) and
    sum_j cos(k theta_j) = 0 for 0 < k < 2m; for samples, m cells between
    the nodes, on each of which S is linear."""
    m = len(psd.coeffs) if psd.form == "ma" else len(psd.values) - 1
    theta = (np.arange(m) + 0.5) * (math.pi / m)
    return nu - float(np.mean(psd_eval(psd, theta)))


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
    s = psd_eval(psd, mid[:, None] + half[:, None] * _GL_X)
    w = half[:, None] * _GL_W
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


def _capacity(psd: PsdSpec, power, nu, edges, filled, tol):
    """(C, power residual) at the level nu: Jensen's mean ln S for MA, the
    linear pieces' log integral for samples, and the power check, from m
    midpoints on a full band or from the quadrature levels, whose panels
    double until two levels agree on both numbers: the capacity within
    tol, the filled power (about P) within tol * max(1, P)."""
    width = float(np.sum(np.diff(edges)[filled])) / math.pi
    if psd.form == "ma":
        mean_log = _jensen_mean_log(psd, tol)
    else:
        filled_log = _filled_log_samples(psd, edges, filled) / math.pi
    full = bool(filled.all())
    if full:
        # U is empty
        levels = [(0.0, _full_band_power(psd, nu))]
    else:
        levels = _quadrature_levels(psd, nu, edges, filled)
    power_tol = tol * max(1.0, power)
    prev = None
    for unfilled_log, filled_power in levels:
        if psd.form == "ma":
            filled_log = mean_log - unfilled_log
        capacity = 0.5 * (width * math.log(nu) - filled_log) / _LN2
        _check_floor(tol, capacity)
        _check_floor(power_tol, filled_power)
        if full or prev is not None and abs(capacity - prev[0]) <= tol \
                and abs(filled_power - prev[1]) <= power_tol:
            break
        prev = capacity, filled_power
    else:
        raise ConvergenceError(
            f"capacity quadrature did not reach tolerance {tol:g} after "
            f"refinement up to {_PANELS << (_MAX_LEVELS - 1)} panels")
    return capacity, abs(filled_power - power)
