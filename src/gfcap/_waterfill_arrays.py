"""The array half of water-filling: the MA(q != 1) and samples rows.

waterfill solves white noise and MA(1) in scalar closed forms and imports
this module on first use, for everything else: the rows _MA and _SAMPLES
of its table of forms, which waterfill._form picks.  They hold the FFT
samples of B and their winding certificate, the sampled start, one engine
for the crossings of S = nu, each solved by waterfill's bracketed Newton,
and the areas between them, fed brackets from the samples or, where the
samples' check declines, from the roots of the cosine series by numpy's
chebroots, the Newton loop, the cepstrum of the samples with its
certificate, the roots of B with Jensen's formula and the dilogarithm
where the cepstrum declines, and the power checks.  The method is set out
in waterfill's docstring.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectrum import ConvergenceError, PsdSpec, psd_eval
from .waterfill import (_EPS, _LI2_BERNOULLI, _LN2, _bracketed_newton, _Form,
                        _ma_vanishes)

_NEWTON_MAX_ITER = 100
# Chebyshev roots farther than this from the real interval [-1, 1] cannot be
# crossings.  Extra candidates are harmless (each band is decided by the
# sign of S - nu at its midpoint), so the window is generous.
_ROOT_WINDOW = 1e-6
# The samples of B are one FFT of the taps at the first power of two from
# this size that exceeds 4q, or at four times that where the first does not
# certify the winding number
_FFT_SIZE = 256
# Tracked crossings pass the colleague check where their cosines agree to
# this with the crossings solved from the colleague roots: both are Newton
# solves in theta, so the window need hold only two solves' rounding
_CHECK_WINDOW = 1e-8
# Radii of the circles |z| = rho on which the cepstrum's certificate bounds
# ln |B|, and the most samples it takes before it declines
_LADDER = (2.0, 1.5, 1.25, 1.12, 1.06)
_CEPSTRUM_MAX_SIZE = 4096


@lru_cache(maxsize=256)
def _cosine_series(spec: PsdSpec):
    """c with S(theta) = sum_k c[k] cos(k theta) = sum_k c[k] T_k(cos theta),
    from the autocorrelation of the MA taps.  Cached per spectrum, like
    _ma_samples, so the level and the capacity of one op share it; read-only,
    since every caller shares the one array."""
    b = np.asarray(spec.coeffs)
    c = 2.0 * spec.sigma2 * np.correlate(b, b, mode="full")[len(b) - 1:]
    c[0] *= 0.5
    c.flags.writeable = False
    return c


def _ma_crossings(c, nu):
    """The angles in [0, pi] where S(theta) = sum_k c[k] cos(k theta) = nu:
    the real roots in [-1, 1] of the Chebyshev series c - nu, by numpy's
    chebroots (the eigenvalues of its colleague matrix; a series of degree 1
    has the one root (nu - c0) / c1, and one of degree 0 none), mapped to
    theta by arccos, which loses digits next to 0 and pi."""
    p = c.copy()
    p[0] -= nu
    x = np.polynomial.chebyshev.chebroots(p)
    x = x.real[(np.abs(x.imag) <= _ROOT_WINDOW)
               & (np.abs(x.real) <= 1.0 + _ROOT_WINDOW)]
    # np.clip to [-1, 1], without its call overhead
    return np.arccos(np.minimum(np.maximum(x, -1.0), 1.0))


class _Series:
    """The cosine series c of S in plain Python, for the few points where
    numpy's call overhead would cost more than the sums: the Newton solve
    of one crossing, and the area of nu - S on one piece."""

    def __init__(self, c):
        k = np.arange(1, len(c))
        self.c0 = float(c[0])
        self.slopes = list(zip(c[1:].tolist(), (k * c[1:]).tolist()))
        self.areas = list(zip(k.tolist(), (2.0 * c[1:] / k).tolist()))
        # the rounding of S - nu summed over the series, over its sum |c_k|
        self.rounding = 2.0 * len(c) * _EPS
        self.size = float(np.abs(c).sum())

    def crossing(self, nu, theta, lo, hi, rising):
        """(theta, S'(theta)) at the crossing of S = nu in [lo, hi], where
        S - nu rises through 0 if rising and falls otherwise:
        _bracketed_newton in theta itself from theta, where a crossing next
        to 0 or pi keeps the digits that arccos loses.  cos k theta and
        sin k theta come from the rotation e^{i(k+1) theta}
        = e^{ik theta} e^{i theta}, whose rounding grows only linearly in k.
        The solve also stops once |S - nu| is within the rounding of the
        sum, 2 (q + 1) eps (sum |c_k| + nu)."""
        gap0 = self.c0 - nu

        def gap(theta):
            w = complex(math.cos(theta), math.sin(theta))
            z, value, slope = w, gap0, 0.0
            for ck, kck in self.slopes:
                value += ck * z.real
                slope -= kck * z.imag
                z *= w
            return value, slope

        return _bracketed_newton(gap, theta, lo, hi, rising,
                                 self.rounding * (self.size + nu))

    def area(self, nu, a, b):
        """The area of nu - S on [a, b], as _ma_areas forms it."""
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        acc = 0.0
        for k, ck in self.areas:
            acc += ck * math.cos(k * mid) * math.sin(k * half)
        return 2.0 * (nu - self.c0) * half - acc


def _band_terms(series, nu, brackets, first):
    """(F(nu), F'(nu), edges, filled, found) at level nu, the one place an
    MA(q >= 2) level evaluation solves its crossings and integrates its
    bands.  Each bracket (lo, hi, start, rising), in order along [0, pi],
    holds one crossing of S = nu, which series.crossing solves from start;
    found lists its (theta, S'(theta)).  The crossings and 0 and pi are the
    edges, the flags alternate from first, the flag of the piece at 0, and
    each filled piece adds its closed-form area."""
    found = [series.crossing(nu, start, lo, hi, rising)
             for lo, hi, start, rising in brackets]
    edges = [0.0, *(theta for theta, _ in found), math.pi]
    filled = [first != (j % 2 == 1) for j in range(len(edges) - 1)]
    area = width = 0.0
    for a, b, inside in zip(edges, edges[1:], filled):
        if inside:
            area += series.area(nu, a, b)
            width += b - a
    return area / math.pi, width / math.pi, edges, filled, found


def _tracked_terms(c, s, rounding):
    """(terms, certified).  terms(nu) -> (F(nu), F'(nu), edges, filled), as
    lists, from _band_terms on brackets tracked on the samples s of S at
    theta_n = n h, h = pi / (len(s) - 1), over [0, pi], all in plain Python
    past one sign test.  Each sign change of s - nu brackets a crossing,
    started from the crossing in the same bracket at the previous level,
    moved by its first-order shift (nu - nu_prev) / S', or else from the
    secant of the bracket's two samples.  The flags alternate from that of
    the first sample.  A band between two samples is missed there.

    certified(nu), at the level of the last terms call, is True where the
    samples alone prove the tracked crossings are all of them, each s_n
    within rounding of S(theta_n) and farther than that from nu, so that
    its side of nu is S's.  With K = sum k^2 |c_k| >= max |S''|:
    - a crossing tracked with slope S' keeps S monotone within
      (|S'| - its rounding) / K of where S' was taken, so S crosses nu
      once there, in the crossing's own interval between samples, which
      that window must cover, and nowhere else in it;
    - between two samples S stays within D = (h^2 / 8) K of its chord, so
      an interval whose ends lie on one side of nu, both farther than
      D + rounding from it, holds no crossing.
    Every interval between samples must pass one of the two.  Where any
    fails, the colleague matrix checks the level instead."""
    series = _Series(c)
    spacing = math.pi / (len(s) - 1)
    values = s.tolist()
    last = {}
    curvature = float((np.arange(len(c)) ** 2 * np.abs(c)).sum())
    # the float sums of |S''| and S' round by a few eps per term
    depth = (spacing * spacing / 8.0 * curvature * (1.0 + 2.0 * len(c) * _EPS)
             + rounding)
    slope_rounding = 2.0 * (len(c) + 4) * _EPS * curvature

    def certified(nu):
        gap = np.abs(s - nu)
        if not np.all(gap > rounding):
            return False
        below = s < nu
        passed = ((below[1:] == below[:-1])
                  & (gap[1:] > depth) & (gap[:-1] > depth))
        floor = series.rounding * (series.size + nu)
        for i, (theta, slope, _) in last.items():
            if not abs(slope) > slope_rounding:
                return False
            # the returned crossing lies within its last step of where the
            # slope was taken
            reach = ((abs(slope) - slope_rounding) / curvature
                     - floor / abs(slope) - 8.0 * _EPS * math.pi)
            # the intervals first..end - 1 lie inside the window, with room
            # for the rounding of the quotients
            first = math.ceil((theta - reach) / spacing + 1e-9)
            end = math.floor((theta + reach) / spacing - 1e-9)
            if not first <= i < end:
                return False
            passed[max(first, 0):end] = True
        return bool(passed.all())

    def terms(nu):
        nonlocal last
        below = s < nu
        cells = np.flatnonzero(below[1:] != below[:-1]).tolist()
        brackets = []
        for i in cells:
            lo, hi = i * spacing, (i + 1) * spacing
            theta = math.nan
            if i in last:
                theta, slope, level = last[i]
                theta = theta + (nu - level) / slope if slope else math.nan
            if not lo < theta < hi:
                a, b = values[i] - nu, values[i + 1] - nu
                theta = lo + spacing * a / (a - b)
            brackets.append((lo, hi, theta, bool(below[i])))
        *result, found = _band_terms(series, nu, brackets, bool(below[0]))
        last = {i: (theta, slope, nu)
                for i, (theta, slope) in zip(cells, found)}
        return result

    return terms, certified


def _colleague_terms(c):
    """terms(nu) -> (F(nu), F'(nu), edges, filled), as lists, from
    _band_terms on brackets from the real roots of the colleague matrix:
    _ma_crossings of c without its trailing terms up to eps sum |c_k|.  Such
    a term is lost in S's rounding, but as the leading coefficient its
    reciprocal scales the colleague matrix and loses the crossings (from a
    tap ratio of about 1e-26).  The roots, 0 and pi cut [0, pi] into pieces,
    each flagged filled by the sign of nu - S at its midpoint, so a tangent
    or spurious root cannot flip a band.  Each root where the flag flips is
    a crossing, started from its arccos value inside its neighbouring
    roots; the other roots are dropped."""
    series = _Series(c)
    kept = np.flatnonzero(np.abs(c) > _EPS * np.abs(c).sum())
    trimmed = c[:kept[-1] + 1]
    k = np.arange(1, len(c))

    def terms(nu):
        edges = sorted({0.0, math.pi, *_ma_crossings(trimmed, nu).tolist()})
        filled = (c[0] + _cos_mid(np.array(edges), k) @ c[1:] < nu).tolist()
        brackets = [(edges[j], edges[j + 2], edges[j + 1], filled[j])
                    for j in range(len(filled) - 1)
                    if filled[j] != filled[j + 1]]
        return _band_terms(series, nu, brackets, filled[0])[:4]

    return terms


def _sampled_level(s, power):
    """The level of the discrete water-filling mean((nu - s_i)^+) = P over
    the samples s: with the m smallest samples filled the level is
    (n P + their sum) / m, and the first such level that does not exceed
    the next sample fills exactly those m."""
    s = np.sort(s)
    levels = (len(s) * power + np.cumsum(s)) / np.arange(1, len(s) + 1)
    fits = np.flatnonzero(levels[:-1] <= s[1:])
    return float(levels[fits[0] if len(fits) else -1])


def _cos_mid(edges, k):
    """cos(k mid) at the midpoint of each piece between edges."""
    return np.cos(0.5 * (edges[:-1] + edges[1:])[:, None] * k)


def _waves(edges, k, cos_mid):
    """(half, waves): the half-width of each piece between edges, and
    cos(k mid) sin(k half) on it for each k, from cos_mid = _cos_mid(edges,
    k).  The integral of cos(k theta) over a piece is 2 waves / k, which
    keeps the digits of a narrow piece that sin(kb) - sin(ka) would cancel."""
    half = 0.5 * (edges[1:] - edges[:-1])
    return half, cos_mid * np.sin(half[:, None] * k)


def _ma_areas(c, nu, half, waves):
    """The area of nu - S on each piece, from the antiderivative
    (nu - c0) theta - sum_k c_k sin(k theta) / k, with half and waves from
    _waves for k = 1..len(c) - 1."""
    k = np.arange(1, len(c))
    return 2.0 * (nu - c[0]) * half - waves @ (2.0 * c[1:] / k)


def _samples_terms(values):
    """terms(nu) -> (F(nu), F'(nu), edges, filled) for a samples spectrum:
    the nodes and the linear crossings between them are the edges, the sign
    of nu - S on each piece its flag, and F and F' the filled areas and the
    filled measure, each over pi.  The nodes stay edges, since the filled
    log integral reads S as linear between consecutive edges."""
    values = np.asarray(values)
    nodes = np.linspace(0.0, math.pi, len(values))
    a, b = values[:-1], values[1:]
    lo, hi, step = np.minimum(a, b), np.maximum(a, b), np.diff(nodes)

    def terms(nu):
        straddle = (lo < nu) & (nu < hi)
        frac = (nu - a[straddle]) / (b[straddle] - a[straddle])
        cross = nodes[:-1][straddle] + frac * step[straddle]
        edges = np.unique(np.concatenate((nodes, cross)))
        s = np.interp(edges, nodes, values)
        # S is linear on each piece: its midpoint value is the mean of the
        # ends, and the trapezoid rule is exact
        gap = nu - 0.5 * (s[:-1] + s[1:])
        filled = gap > 0.0
        widths = np.diff(edges)
        return (float((widths * gap)[filled].sum()) / math.pi,
                float(widths[filled].sum()) / math.pi, edges, filled)

    return terms


def _ma_mean_and_bound(spec: PsdSpec):
    """mean(S) = sigma2 sum b_k^2, and a bound on max S that also bounds
    the terms summed into F(nu): sigma2 (sum |b_k|)^2 >= c0 + sum |c_k|."""
    b = np.asarray(spec.coeffs)
    return (spec.sigma2 * float(b @ b),
            spec.sigma2 * float(np.abs(b).sum()) ** 2)


def _samples_mean_and_bound(spec: PsdSpec):
    """mean(S) by the trapezoid rule over the nodes, exact for linear
    pieces, and max S, the largest sample."""
    v = np.asarray(spec.values)
    return float((v.sum() - 0.5 * (v[0] + v[-1])) / (len(v) - 1)), float(v.max())


def _samples_vanish(spec: PsdSpec):
    """Two adjacent zero samples: S is zero on the cell between them."""
    v = spec.values
    return any(a == 0.0 and b == 0.0 for a, b in zip(v, v[1:]))


def _newton(terms, nu, nu0, power, bound):
    """Newton on the convex F from terms: from a start nu below the root,
    one step up, which convexity puts at or above it (capped at nu0); then
    down, monotonically, until the excess F(nu) - P is no longer positive
    or the step falls to 4 eps (nu + bound).  The terms summed into F are
    bounded by nu + bound (bound is max S for samples, and for MA
    sigma2 (sum |b_k|)^2 >= c0 + sum |c_k|), so F's rounding error is a few
    ulps of nu + bound times F', and its root is determined to no better.
    Returns (nu, F(nu), F'(nu), edges, filled); raises ConvergenceError
    after _NEWTON_MAX_ITER steps."""
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
    return nu, filled_power, slope, edges, filled


def _ma_level(spec: PsdSpec, power, nu0, bound):
    """(nu, edges, filled) on a partial MA(q >= 2) band.  Newton starts from
    the discrete water level of the FFT samples of S over the circle
    (capped at nu0) and runs on _tracked_terms.  At the converged level the
    samples certify the tracked crossings where they can, with no
    eigensolve; where they cannot, the first evaluation of _colleague_terms
    checks them: its crossings must match them one to one, within
    _CHECK_WINDOW in cos(theta), so the flips agree in number and place and
    no band was missed.  Then F from the tracked edges is exact, and the
    level must pass the stop test on both sides,
    |F(nu) - P| <= 4 eps (nu + bound) F'.  A lost crossing reruns Newton
    from the sampled start, and any other miss from the tracked level (at
    or above the root where a band was missed, since F then falls short),
    on _colleague_terms, one eigensolve per level.  Both terms solve
    their crossings and sum their areas in _band_terms.

    A sample s_n = sigma2 |B_n|^2 is within sigma2 r (2 sum |b_k| + r) of
    S(theta_n), r the FFT's rounding, plus a few eps of bound for its own
    products and for the rounding of the cosine series c, whose terms sum
    to at most bound = sigma2 (sum |b_k|)^2."""
    c = _cosine_series(spec)
    values, rounding, _ = _ma_samples(spec)
    s = spec.sigma2 * np.abs(values) ** 2
    total = sum(map(abs, spec.coeffs))
    error = (spec.sigma2 * rounding * (2.0 * total + rounding)
             + (2 * len(c) + 5) * _EPS * bound)
    # the samples of the whole circle: the inner ones of the half twice
    nu = min(_sampled_level(np.concatenate((s, s[1:-1])), power), nu0)
    terms, certified = _tracked_terms(c, s, error)
    try:
        level, filled_power, slope, edges, filled = _newton(
            terms, nu, nu0, power, bound)
    except ConvergenceError:
        pass
    else:
        if abs(filled_power - power) <= 4.0 * _EPS * (level + bound) * slope:
            if certified(level):
                return level, np.array(edges), np.array(filled)
            check = _colleague_terms(c)(level)[2]
            if (len(check) == len(edges)
                    and np.all(np.abs(np.cos(check) - np.cos(edges))
                               <= _CHECK_WINDOW)):
                return level, np.array(edges), np.array(filled)
        nu = level
    nu, _, _, edges, filled = _newton(_colleague_terms(c), nu, nu0, power,
                                      bound)
    return nu, np.array(edges), np.array(filled)


def _samples_level(spec: PsdSpec, power, nu0, bound):
    """(nu, edges, filled) on a partial samples band: Newton on the convex
    F from nu0, over the nodes and the linear crossings between them."""
    nu, _, _, edges, filled = _newton(_samples_terms(spec.values), nu0, nu0,
                                      power, bound)
    return nu, edges, filled


def _fft_size(q):
    """The first power of two from _FFT_SIZE above 4q."""
    size = _FFT_SIZE
    while size <= 4 * q:
        size *= 2
    return size


def _winding(values, q, rounding):
    """(winding, low, high) of a polynomial B of degree q from its real FFT
    values at N = 2 (len(values) - 1) points, each within rounding of
    B(x_n): its winding number about 0 on the unit circle, and
    low <= |B| <= high there; or None where the samples do not certify
    them.

    On the arc between two neighbouring samples B is within
    (h^2 / 8) max |B''| <= (pi q / N)^2 M / 2 of the chord between its
    ends, h = 2 pi / N, by Bernstein's inequality twice, where
    M = high bounds max |B| on the circle (the largest sample, plus
    rounding, over 1 - pi q / N, by Bernstein's inequality once).  The
    computed chords are within the rounding of the true ones, and a chord
    whose ends have moduli at least r and turn by Delta < pi keeps
    r cos(Delta / 2) from 0.  So where min |values| cos(max |Delta| / 2)
    exceeds (pi q / N)^2 M / 2 plus the rounding, by low, B has no zero on
    the circle, keeps at least low from 0, and winds about 0 as the
    polygon of the samples does: sum Delta / pi times, each Delta the
    principal angle of values[n + 1] / values[n], the conjugate half adding
    as much again."""
    r = np.abs(values)
    step = values[1:] * values[:-1].conj()
    turn = np.arctan2(step.imag, step.real)
    h = math.pi * q / (2 * (len(values) - 1))
    top = float(r.max()) + rounding
    margin = 0.5 * h * h * top / (1.0 - h) + rounding
    reach = (float(r.min()) * math.cos(0.5 * float(np.abs(turn).max()))
             * (1.0 - 8.0 * _EPS))
    if reach > margin:
        return (round(float(turn.sum()) / math.pi), reach - margin,
                top / (1.0 - h))
    return None


@lru_cache(maxsize=256)
def _ma_samples(spec: PsdSpec):
    """(values, rounding, winding) for an MA spectrum: values[n] = B(x_n) at
    x_n = e^{-i theta_n}, theta_n = 2 pi n / N for n = 0..N/2, the real FFT
    of the taps, with N a power of two above 4q (so sigma2 |values[n]|^2
    samples S over [0, pi]; the other half of the circle holds their
    conjugates); rounding, 8 log2(N) eps sum |b_k|, bounds the FFT's error
    at each sample, each of its log2 N stages adding at most a few eps of
    the sum of its inputs' moduli (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 24); winding is the winding number of
    B about 0 on the unit circle, or None where the samples do not certify
    it.  Cached per spectrum, like _ma_roots.

    _winding certifies it.  Winding 0 leaves no zero of B in the closed
    unit disk, and then mean ln S = ln(sigma2 b0^2) exactly.  N is tried at
    the first power of two from _FFT_SIZE above 4q, then at four times it,
    where the margin is 16 times smaller.  Where |b0| <= |b_q| the product
    of B's roots, b0 / b_q up to sign (Vieta), puts one in the closed unit
    disk, so winding 0 is impossible: the samples are taken at the first
    size and the winding is not computed."""
    taps = np.asarray(spec.coeffs)
    q = len(taps) - 1
    total = sum(map(abs, spec.coeffs))
    size = _fft_size(q)
    for size in (size, 4 * size):
        values = np.fft.rfft(taps, size)
        rounding = 8.0 * math.log2(size) * _EPS * total
        if abs(taps[0]) <= abs(taps[-1]):
            break
        certified = _winding(values, q, rounding)
        if certified is not None:
            return values, rounding, certified[0]
    return values, rounding, None


@lru_cache(maxsize=256)
def _ma_roots(spec: PsdSpec):
    """(b, z): the taps b of B(z) = sum_k b_k z^k, without trailing taps up
    to eps sum |b_k|, and B's roots z, the eigenvalues of its companion
    matrix (a linear B has the one root -b0 / b1).  Cached per spectrum,
    since bound curves and power sweeps solve one spectrum at many powers;
    Jensen's formula and the dilogarithm both read these roots.

    As the leading coefficient, a dropped tap's reciprocal would scale the
    companion matrix and spoil the roots on the unit circle.  The error
    bounds still run over every tap, so the dropped tail, below B's
    rounding, is counted as rounding there.
    """
    taps = np.asarray(spec.coeffs)
    # the vanishing check has left a nonzero tap, and so one that is kept
    kept = np.flatnonzero(np.abs(taps) > _EPS * np.abs(taps).sum())
    b = taps[:kept[-1] + 1]
    if len(b) <= 2:
        return b, -b[:-1] / b[-1]
    n = len(b) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n::n + 1] = 1.0  # the subdiagonal
    companion[0] = -b[-2::-1] / b[-1]
    return b, np.linalg.eigvals(companion)


def _jensen_mean_log(spec: PsdSpec, tol: float):
    """mean ln S over [-pi, pi] by Jensen's formula,
    ln sigma2 + 2 ln|b_lead| + 2 sum_k ln max(1, |z_k|) over the roots z_k
    of B, from _ma_roots.

    A computed root z is within dz = (|B(z)| + rounding of B(z)) / |B'(z)|
    of a true one, to first order.  Only a root within dz of the unit
    circle may lie on the other side of it and so move the sum, by at most
    dz; the sum of those dz, in bits, must not exceed tol.  One Vandermonde
    matrix of the roots gives B(z), B'(z) and sum_j |b_j| |z|^j, the scale
    of the rounding of B(z), all at once.
    """
    taps = np.asarray(spec.coeffs)
    b, z = _ma_roots(spec)
    powers = np.vander(z, len(taps), increasing=True)
    value = powers[:, :len(b)] @ b
    slope = powers[:, :len(b) - 1] @ (np.arange(1, len(b)) * b[1:])
    scale = np.abs(powers) @ np.abs(taps)
    r = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = (np.abs(value) + 2 * len(taps) * _EPS * scale) / np.abs(slope)
    bound = float(dz[np.abs(r - 1.0) <= dz].sum()) / _LN2
    if not bound <= tol:
        raise ConvergenceError(
            f"capacity error bound {bound:.2e} from spectral zeros on or "
            f"near the unit circle exceeds tolerance {tol:g}")
    return (math.log(spec.sigma2) + 2.0 * math.log(abs(b[-1]))
            + 2.0 * float(np.log(np.maximum(r, 1.0)).sum()))


def _im_li2(r, phi):
    """Im Li2(r e^{i phi}) for 0 <= r <= 1, elementwise: waterfill._li2
    over arrays, with v = 1 - w formed as (1 - r) + 2r sin^2(phi/2)
    - i r sin phi, which keeps its digits next to w = 1.  Where Re w <= 1/2
    it is the series u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in
    u = -ln v, where |u| <= 1.3; elsewhere the reflection
    pi^2/6 - ln w ln v - Li2(v), with Li2(v) from the same series in
    u = -ln w, where |u| <= 1.3 too.  The terms fall by
    (|u| / 2 pi)^2 <= 0.05, so the tail past k = 12 is below 1e-17."""
    sin = np.sin(phi)
    w = r * np.cos(phi) + 1j * (r * sin)
    v = (1.0 - r) + 2.0 * r * np.sin(0.5 * phi) ** 2 - 1j * (r * sin)
    reflected = w.real > 0.5
    # ln w only where reflected, and ln v = 0 at v = 0 (w = 1), where the
    # product ln w ln v vanishes: no log of 0 is ever taken
    log_w = np.log(np.where(reflected, w, 1.0))
    log_v = np.log(np.where(v == 0.0, 1.0, v))
    u = np.where(reflected, -log_w, -log_v)
    u2, acc = u * u, np.zeros_like(u)
    for c in reversed(_LI2_BERNOULLI):
        acc = acc * u2 + c
    series = (u - 0.25 * u2 + acc * u2 * u).imag
    return np.where(reflected, -(log_w * log_v).imag - series, series)


def _root_error(spec: PsdSpec):
    """A bound on max |b_lead prod_j (x - z_j) - B(x)| over the unit
    circle, the backward error of the computed roots z_j.  The difference
    p is a polynomial of degree at most q = len(taps) - 1, sampled at the
    roots of unity x_n = e^{-2 pi i n / M}, n = 0..M/2, with M >= 4(q + 1) a
    power of two, where every (N / M)-th FFT sample of _ma_samples gives
    B(x_n).  The eigensolver returns complex roots in exact conjugate
    pairs, so p has real coefficients and |p| takes the same values on the
    other half of the circle.  Every point of the circle lies within
    pi / M of a sample, and by Bernstein's inequality max |p'| <= q max |p|,
    so max |p| <= max over the samples / (1 - pi q / M).  Each sample of p
    counts its own rounding: the FFT's, from _ma_samples, and the
    product's, 4 (q + 1) eps of its modulus for its q + 1 factors plus
    q eps sum |b_k| for the rounding of x_n, which moves B by at most
    max |B'| <= q sum |b_k| times it."""
    taps = np.asarray(spec.coeffs)
    b, z = _ma_roots(spec)
    values, rounding, _ = _ma_samples(spec)
    q = len(taps) - 1
    count = 4
    while count < 4 * (q + 1):
        count *= 2
    x = np.exp((-2j * math.pi / count) * np.arange(count // 2 + 1))
    product = b[-1] * np.prod(x - z[:, None], axis=0)
    gap = (np.abs(product - values[::(len(values) - 1) // (count // 2)])
           + 4.0 * (q + 1) * _EPS * np.abs(product))
    scale = q * _EPS * float(np.abs(taps).sum())
    return (float(gap.max()) + scale + rounding) / (1.0 - math.pi * q / count)


def _log_series(spec: PsdSpec, width, tol):
    """The weights 2 a_k / k, k = 1..K, of the cosine series
    ln S = ln(sigma2 b0^2) + sum_k a_k cos(k theta), so that
    int_U ln S = |U| ln(sigma2 b0^2) + sum_pieces waves @ weights, with
    waves from _waves over the pieces of U, to within tol / 2 in C; or None
    where the certificate below declines.  B must have winding 0, so ln B
    is analytic on the closed unit disk and the mean of ln |B| is ln |b0|.

    The cepstrum: a_k is twice the k-th output of one inverse real FFT of
    u_n = 2 ln |B_n| over the N samples of the circle.  Where B has no
    zero in |z| <= rho, 2 ln |B| - 2 ln |b0| is harmonic there and vanishes
    at 0, and its coefficient a_k rho^k on |z| = rho is at most 2 M_rho,
    where M_rho bounds it on that circle: |a_k| <= 2 M_rho rho^-k.  The
    tail past K sums to at most 2 M_rho rho^-K / (1 - 1/rho), and the
    aliases that N >= 2 (K + 1) samples fold onto a_1..a_K to at most twice
    that, so 6 M_rho rho^-K / (1 - 1/rho) bounds both; each moves
    int_U ln S by at most |U| per unit, as |int_U cos(k theta)| <= |U|.

    rho, low and high come from _zero_free_disk, and
    M_rho = 2 max(ln(high / |b0|), ln(|b0| / low)).  Each u_n
    is within 2 r / (min |B_n| - r) of its true value, r the FFT's
    rounding, plus the log's and the inverse FFT's rounding, a few
    log2(N) eps max |u_n|; the coefficients carry that error into
    int_U ln S at most |U| ((2 / pi) ln N + 2) times, a bound on the
    Lebesgue constant of trigonometric interpolation at N points.  K is
    the least that brings both bounds, as an error in C, to tol / 2; N
    doubles from the samples' size until N / 2 > K, and the certificate
    declines past _CEPSTRUM_MAX_SIZE."""
    disk = _zero_free_disk(spec.coeffs)
    if disk is None:
        return None
    rho, low, high = disk
    b0 = abs(spec.coeffs[0])
    # 6 M_rho / (1 - 1/rho), in bits of C per unit of rho^-K
    alias = (12.0 * max(math.log(high / b0), math.log(b0 / low), _EPS)
             / (1.0 - 1.0 / rho) * width / (2.0 * math.pi * _LN2))
    total = sum(map(abs, spec.coeffs))

    def count(size, lowest, highest):
        """K at size samples of moduli lowest to highest, or inf where the
        rounding alone passes tol / 2."""
        rounding = 8.0 * math.log2(size) * _EPS * total
        if lowest <= rounding:
            return math.inf
        top = 2.0 * max(abs(math.log(lowest)), abs(math.log(highest)))
        noise = ((2.0 / math.pi * math.log(size) + 2.0)
                 * (2.0 * rounding / (lowest - rounding)
                    + 8.0 * math.log2(size) * _EPS * top)
                 * width / (2.0 * math.pi * _LN2))
        if not noise < 0.5 * tol:
            return math.inf
        return max(1, math.ceil(math.log(alias / (0.5 * tol - noise))
                                / math.log(rho)))

    modulus = np.abs(_ma_samples(spec)[0])
    size = sampled = 2 * (len(modulus) - 1)
    terms = count(size, float(modulus.min()), float(modulus.max()))
    while terms >= size // 2:
        size *= 2
        if size > _CEPSTRUM_MAX_SIZE:
            return None
        terms = count(size, float(modulus.min()), float(modulus.max()))
    if size > sampled:
        modulus = np.abs(np.fft.rfft(spec.coeffs, size))
        terms = count(size, float(modulus.min()), float(modulus.max()))
        if terms >= size // 2:
            return None
    x = np.fft.irfft(2.0 * np.log(modulus), size)
    return 4.0 * x[1:terms + 1] / np.arange(1, terms + 1)


def _zero_free_disk(coeffs):
    """(rho, low, high): the first rung rho of _LADDER where the scaled taps
    b_k rho^k have _winding 0, so that B has no zero in |z| <= rho, and
    low <= |B| <= high on |z| = rho; or None.  A rung is skipped with no
    FFT where |b0| <= |b_q| rho^q, which puts a zero of B in |z| <= rho
    (Vieta).  Each rung is tried at the samples' first size, then all again
    at four times it.  The scaled taps carry two roundings each, counted
    with the FFT's."""
    q = len(coeffs) - 1
    first = _fft_size(q)
    for size in (first, 4 * first):
        for rho in _LADDER:
            scaled = [b * rho ** k for k, b in enumerate(coeffs)]
            if abs(coeffs[0]) <= abs(scaled[-1]):
                continue
            certified = _winding(np.fft.rfft(scaled, size), q,
                                 (8.0 * math.log2(size) + 2.0) * _EPS
                                 * sum(map(abs, scaled)))
            if certified is not None and certified[0] == 0:
                return (rho, *certified[1:])
    return None


def _unfilled_log(spec: PsdSpec, mean_log, nu, edges, filled, tol):
    """int_U ln S / pi over the unfilled set U of a partial MA band, by the
    dilogarithm on the roots z_j of B.  With rho_j = 1 / z_j outside the
    unit circle and conj(z_j) inside it,
    ln S = mean_log + sum_j ln |1 - rho_j e^{i theta}|^2, and
    int_a^b ln |1 - rho e^{i theta}|^2
    = -2 Im[Li2(rho e^{ib}) - Li2(rho e^{ia})],
    so int_U ln S = |U| mean_log - 2 sum_j sum_pieces Im[...].  S >= nu > 0
    on U, so no edge of U sits on a zero of S.

    The computed roots are exact for B + dB, and on U, where
    |B| >= sqrt(nu / sigma2), ln S moves by at most
    2 max |dB| / sqrt(nu / sigma2) to first order, so the capacity by at
    most 2 |U| max |dB| / sqrt(nu / sigma2) / (2 pi ln 2), with max |dB|
    from _root_error.  That bound must not exceed tol.
    """
    lo, hi = edges[:-1][~filled], edges[1:][~filled]
    width = float((hi - lo).sum())
    bound = (width * _root_error(spec)
             / (math.pi * _LN2 * math.sqrt(nu / spec.sigma2)))
    if not bound <= tol:
        raise ConvergenceError(
            f"capacity error bound {bound:.2e} from the backward error of "
            f"the spectral zeros on the unfilled band exceeds tolerance "
            f"{tol:g}")
    z = _ma_roots(spec)[1]
    r = np.abs(z)
    rho = np.minimum(r, 1.0 / np.maximum(r, 1.0))[:, None]
    theta = np.concatenate((hi, lo))
    im = _im_li2(rho, theta - np.angle(z)[:, None])
    sign = np.repeat((1.0, -1.0), len(hi))
    return (width * mean_log - 2.0 * float((im @ sign).sum())) / math.pi


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


def _bits(nu, edges, filled, filled_log):
    """C = (|F| ln nu - int_F ln S) / (2 pi ln 2) over the filled set F,
    given filled_log = int_F ln S / pi."""
    width = float((edges[1:] - edges[:-1])[filled].sum()) / math.pi
    return 0.5 * (width * math.log(nu) - filled_log) / _LN2


def _ma_capacity(spec: PsdSpec, nu, edges, filled, tol):
    """(C, F(nu)) of an MA(q != 1) spectrum: mean ln S is ln(sigma2 b0^2)
    where _ma_samples certifies minimum phase and Jensen's formula
    otherwise.  A full band has C = (ln nu - mean ln S) / (2 ln 2), in plain
    Python; a partial band takes off int_U ln S, from the cepstrum where
    _log_series certifies it and from the dilogarithm otherwise.  F(nu)
    is, on a full band, nu - sigma2 mean |B(x_n)|^2 over the N roots of
    unity x_n from the half circle's FFT samples (the inner ones count
    twice), exact for N > q, as |B|^2 on the circle is a trigonometric
    polynomial of degree q; on a partial band, the closed-form areas of
    nu - S between the returned crossings.  One matrix of
    cos(k mid) sin(k half) over the pieces serves both the areas and the
    cepstrum's integral."""
    values, _, winding = _ma_samples(spec)
    if winding == 0:
        mean_log = (math.log(spec.sigma2)
                    + 2.0 * math.log(abs(spec.coeffs[0])))
    else:
        mean_log = _jensen_mean_log(spec, tol)
    if all(filled):
        ends = abs(values[0]) ** 2 + abs(values[-1]) ** 2
        return 0.5 * (math.log(nu) - mean_log) / _LN2, nu - spec.sigma2 * (
            2.0 * float(np.vdot(values, values).real) - ends) / (
            2 * (len(values) - 1))
    edges, filled = np.asarray(edges), np.asarray(filled)
    c = _cosine_series(spec)
    width = float((edges[1:] - edges[:-1])[~filled].sum())
    weights = _log_series(spec, width, tol) if winding == 0 else None
    q = len(c) - 1
    k = np.arange(1, q + 1 if weights is None else max(q, len(weights)) + 1)
    half, waves = _waves(edges, k, _cos_mid(edges, k))
    areas = _ma_areas(c, nu, half, waves[:, :q])
    if weights is None:
        unfilled_log = _unfilled_log(spec, mean_log, nu, edges, filled, tol)
    else:
        unfilled_log = (width * mean_log + float(
            waves[~filled, :len(weights)].sum(axis=0) @ weights)) / math.pi
    return (_bits(nu, edges, filled, mean_log - unfilled_log),
            float(areas[filled].sum()) / math.pi)


def _samples_capacity(spec: PsdSpec, nu, edges, filled, tol):
    """(C, F(nu)) of a samples spectrum, from the log integral of its
    linear pieces: a full band's are its m cells, not [0, pi] in one.
    F(nu) is psd_eval's midpoint rule, exact for linear S: nu - mean S over
    the cells on a full band, and on each filled piece of a partial one."""
    m = len(spec.values) - 1
    if all(filled):
        edges, filled = np.linspace(0.0, math.pi, m + 1), np.ones(m, bool)
        s = psd_eval(spec, tuple((j + 0.5) * (math.pi / m) for j in range(m)))
        filled_power = nu - math.fsum(s) / m
    else:
        mid = 0.5 * (edges[:-1] + edges[1:])[filled]
        filled_power = float(np.diff(edges)[filled]
                             @ (nu - psd_eval(spec, mid))) / math.pi
    filled_log = _filled_log_samples(spec, edges, filled) / math.pi
    return _bits(nu, edges, filled, filled_log), filled_power


_MA = _Form(_ma_vanishes, _ma_mean_and_bound, _ma_level, _ma_capacity)
_SAMPLES = _Form(_samples_vanish, _samples_mean_and_bound, _samples_level,
                 _samples_capacity)
