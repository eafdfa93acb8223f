"""Water-filling over a noise spectrum: water level, optimal input spectrum,
and nonfeedback capacity in bits per channel use.

The water level nu solves F(nu) = P for the filled power
F(nu) = mean((nu - S)^+), and nu0 = mean(S) + P is at or above it, since
F(nu0) >= mean(nu0 - S) = P.  White noise, an MA spectrum whose nu0 is at
least sigma2 (sum |b_k|)^2 >= max S, and a samples spectrum whose nu0 is at
least its largest sample fill the whole band: there
F(nu) = nu - mean(S), so nu0 is the level exactly, decided before any
root finding.  Only a partial band is solved by Newton's method.  F is
convex and nondecreasing, with slope
F'(nu) = |{theta in [0, pi] : S(theta) < nu}| / pi, and both come in
closed form from the exact crossings of S = nu: for MA spectra the real
roots of a Chebyshev series in cos(theta), for samples the linear
crossings between nodes.  From any start at or above the root Newton falls
monotonically onto it.  A partial samples band starts at nu0.  An MA(q >= 2)
band starts closer: at the discrete water level of S sampled by one FFT of
the taps at N points, a power of two above 4q, capped at nu0, or, where F
is below P there, one Newton step from below it, which convexity puts at
or above the root.  Its Newton iterates take their crossings from the same
samples: each sign change of S_n - nu brackets one, solved by
_bracketed_newton in theta itself in plain Python and tracked from level
to level.  At the converged level the samples check them with no
eigensolve: with K = sum k^2 |c_k| >= max |S''|, a tracked crossing whose
slope exceeds K times the distance to a sample keeps S monotone up to it,
so its interval between samples holds that one crossing and its
neighbours in reach hold none; any other interval holds none where both
its samples lie farther than (h^2 / 8) K, the chord's greatest gap from
S, from the level, h the sample spacing.  Each sample counts its
rounding.  Where an interval passes neither test, one eigensolve of the
colleague matrix (numpy's chebroots) checks the level: the crossings
solved from its roots must match the tracked ones one to one, so no band
between two samples was missed.  The level must pass
the stop test on both sides.  Any miss reruns Newton from there with one
colleague eigensolve per level: its roots cut [0, pi] into pieces flagged
by the sign of nu - S at their midpoints, and each root where the flag
flips starts the same Newton in theta, bracketed by its neighbours.

The capacity mean(0.5 log2(max(S, nu) / S)) is
(|F| ln nu - int_F ln S) / (2 pi ln 2) over the filled set F of [0, pi],
and no capacity is a quadrature:

- white: C = 0.5 log2(nu / N);
- samples: S is linear between the nodes and crossings, and ln S has an
  antiderivative on each filled piece;
- ma(q >= 2), with MA(1) below: int_F ln S = pi mean ln S - int_U ln S
  over the unfilled set U.  Where B is minimum phase (certified below),
  mean ln S = ln(sigma2 b0^2), and int_U ln S comes from the cepstrum of
  the FFT samples: one inverse real FFT of 2 ln |B_n| gives the cosine
  coefficients a_k of ln S, and int_U ln S = |U| mean ln S
  + sum_k a_k sum_pieces 2 cos(k mid) sin(k half) / k.
  The certificate needs a disk |z| <= rho free of zeros of B, from the
  winding of the scaled taps b_k rho^k, the first of a short ladder of
  rho; there |a_k| <= 2 M rho^-k, M a bound on |2 ln |B| - 2 ln |b0||
  on |z| = rho, which bounds the truncated tail and the aliases, and the
  samples' rounding reaches the sum through the Lebesgue constant of
  trigonometric interpolation.  The sum runs to the least K whose bound
  is within tol / 2, at N > 2K samples, doubling N to at most 4096.
  Elsewhere the roots z_j of B(z) = sum_k b_k z^k, the eigenvalues of its
  companion matrix, are computed at most once per spectrum.  Jensen's
  formula gives mean ln S from them, unless minimum phase is certified,
  and with rho_j = 1 / z_j outside the unit circle and conj(z_j) inside
  it, ln S = mean ln S + sum_j ln |1 - rho_j e^{i theta}|^2, so
  int_U ln S = |U| mean ln S - 2 sum_j sum_pieces
  Im[Li2(rho_j e^{ib}) - Li2(rho_j e^{ia})] by the dilogarithm Li2.
  S >= nu > 0 on U, so no edge of U sits on a zero of S.

The FFT samples B_n certify the winding number, with no roots: between
two samples B stays within (pi q / N)^2 max |B| / 2 of the chord, by
Bernstein's inequality, so where every chord keeps farther than that, plus
the FFT's rounding, from 0, B winds about 0 as the polygon of its samples
does.  Winding 0 leaves no zero of B in the closed disk, and then
mean ln S = ln(sigma2 b0^2) exactly, so a full band needs no eigensolve at
all.  Where |b0| <= |b_q|, Vieta puts a zero of B in the closed disk, and
the certificate is not run.  Otherwise Jensen's formula is certified by
the distance within which each root is known, where a root near the unit
circle could lie on its other side; the dilogarithm by the backward error
of the roots, max |b_q prod_j (x - z_j) - B(x)| over the circle, from the
FFT samples at 4(q + 1) or more roots of unity, with their rounding
counted, and bounded between them by Bernstein's inequality, which moves
ln S on U by at most twice that over sqrt(nu / sigma2).  A minimum-phase
partial band thus makes no eigensolve unless a level check or the
cepstrum's certificate declines.
The power check is F(nu) against P: on a full MA band
nu - sigma2 mean |B_n|^2 over the FFT samples, exact for N > q, and on a
full samples band nu - mean S from psd_eval at the midpoints of its m
cells, on each of which S is linear, neither sharing code with the level's
mean S; on a partial MA band the closed-form areas of nu - S between the
returned crossings; on a partial samples band the midpoint rule from
psd_eval on each filled piece, exact for linear S.  A spectrum that
vanishes on a band has infinite capacity and is rejected.

An MA(1) spectrum, taps (b0, b1), the paper's channel among them, is
solved in scalar closed forms, with no eigensolve and no quadrature.  With
a = 2 sigma2 |b0 b1| and m = sigma2 (|b0| - |b1|)^2, S = m + 2a sin^2(u/2)
in the distance u from its minimum, at pi where b0 b1 > 0, else at 0.
P >= a fills the band; below it the filled arc u < phi has
F = (a / pi)(sin phi - phi cos phi), so phi is one solve of
_bracketed_newton, in phi itself where P <= a / pi and in pi - phi above,
nu = m + 2a sin^2(phi / 2), and the one crossing is at pi - phi or phi.
With r = min / max of |b0|, |b1|, S = sigma2 b_max^2 |1 - r e^{iu}|^2
gives mean ln S = ln(sigma2 b_max^2) and
C = (phi ln(nu / (sigma2 b_max^2)) + 2 Im Li2(r e^{i phi})) / (2 pi ln 2),
by the dilogarithm Li2; at r = 1, Im Li2(e^{i phi}) is Clausen's function.
The power check stays apart from the solve: the 16-point Gauss-Legendre
rule on nu - S over the filled arc, exact to rounding for a cosine series
of degree 1, or the 2-midpoint rule on a full band.

Each spectral form is one row of the table _Form, and _form(spec), the
one place that reads the form, picks it.  nonfeedback_capacity runs every
row the same way: its vanishing test, one _solve_level (nu0 where it
fills the band, else the row's partial level), its capacity and filled
power, then one check of both roundoff floors, and the power residual.  A
full band is the one piece (0, pi), with no crossings, and the white and
MA rows take its C in plain Python, without an array of pieces.  The
white and MA(1) rows are here, in plain Python with tuples for the
breakpoints and flags, and this module does not import numpy.  The
MA(q != 1) and samples rows are in the array half, _waterfill_arrays,
imported on first use.  _bracketed_newton, here, is the package's one
scalar root loop: the MA(1) band width, every MA(q >= 2) crossing and
feedback.sk_root solve through it.
"""

from __future__ import annotations

import cmath
import math
import sys

from .spectrum import ConvergenceError, PsdSpec, _Record, psd_eval

_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)
# 16-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(16)
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499)
_GL_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176)
_QUARTERS = (0.25 * math.pi, 0.75 * math.pi)  # the full MA(1) band's rule
# Cap on the steps of one bracketed Newton solve.  Bisection alone narrows a
# bracket of width w to 4 eps of a root at x in about 50 + log2(w / x) steps;
# Newton converges far sooner
_ROOT_MAX_ITER = 60
# Taylor coefficients (-1)^(n+1) 2n / (2n+1)! of (sin x - x cos x) / x^3 in x^2
_G_SERIES = (0.3333333333333333, -0.03333333333333333, 0.0011904761904761906,
             -2.2045855379188714e-05, 2.505210838544172e-07,
             -1.9270852604185937e-09, 1.0706029224547743e-11)
# 1 / k^2 for k = 43, 42, ..., 1: the power series of Li2, Horner order
_LI2_POWER = tuple(1.0 / (k * k) for k in range(43, 0, -1))
# B_2k / (2k+1)! for k = 1..12: Li2's series in u = -ln(1 - w)
_LI2_BERNOULLI = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
    -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
    8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
    -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21)


class WaterfillSolution(_Record):
    __slots__ = ("power", "water_level", "capacity_bits", "power_residual",
                 "input_psd", "band_crossings")
    _uncompared = ("input_psd",)  # callable theta -> (nu - S_Z)^+

    # written out, not _Record's: one is built on every capacity solve
    def __init__(self, power, water_level, capacity_bits, power_residual,
                 input_psd, band_crossings=()):
        init = object.__setattr__
        init(self, "power", power)
        init(self, "water_level", water_level)
        init(self, "capacity_bits", capacity_bits)
        init(self, "power_residual", power_residual)
        init(self, "input_psd", input_psd)
        init(self, "band_crossings", band_crossings)


def _sin_minus_x_cos(x):
    """g(x) = sin x - x cos x, summed as its Taylor series below x = 1/2,
    where the difference cancels; the first omitted term is below 1e-17 g."""
    if x >= 0.5:
        return math.sin(x) - x * math.cos(x)
    x2, acc = x * x, 0.0
    for c in reversed(_G_SERIES):
        acc = acc * x2 + c
    return acc * x2 * x


def _bracketed_newton(f, x, lo, hi, rising, floor=0.0):
    """(x, f'(x)) at the one root of f in [lo, hi], where f rises through 0
    if rising and falls otherwise, by Newton from x, with
    f(x) -> (f(x), f'(x)).  A step that leaves the bracket the signs of f
    leave bisects it instead.  The solve stops once |f| <= floor, or a step
    is within 4 eps x, or the bracket within 4 eps of its top, and raises
    ConvergenceError after _ROOT_MAX_ITER steps."""
    for _ in range(_ROOT_MAX_ITER):
        gap, slope = f(x)
        if (gap < 0.0) == rising:
            lo = x
        else:
            hi = x
        # a zero slope gives nan, which fails every test below: bisect
        step = gap / slope if slope else math.nan
        if abs(gap) <= floor or abs(step) <= 4.0 * _EPS * x:
            return (x - step if lo <= x - step <= hi else x), slope
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 4.0 * _EPS * hi:
            return x, slope
    raise ConvergenceError(
        f"bracketed Newton solve did not converge in {_ROOT_MAX_ITER} "
        f"iterations (last point {x!r})")


def _ma1_width(t, tau):
    """phi in (0, pi) with g(phi) = sin phi - phi cos phi = t, given
    tau = pi - t apart so that it keeps its digits as phi -> pi.

    g rises from 0 to pi with slope phi sin phi, which vanishes at both
    ends, so the unknown is x = phi where t <= g(pi / 2) = 1, and otherwise
    x = pi - phi, the root of pi - g(pi - x) = 2 pi sin^2(x/2) - g(x) = tau
    with slope (pi - x) sin x: either way x lies in (0, pi/2], and g's
    series keeps the digits of a small x.  _bracketed_newton solves it from
    the leading term of each end, x = (3 t)^(1/3) or (2 tau / pi)^(1/2)."""
    if t <= 1.0:
        def gap(x):
            return _sin_minus_x_cos(x) - t, x * math.sin(x)
        start = (3.0 * t) ** (1.0 / 3.0)
    else:
        def gap(x):
            return (2.0 * math.pi * math.sin(0.5 * x) ** 2
                    - _sin_minus_x_cos(x) - tau,
                    (math.pi - x) * math.sin(x))
        start = math.sqrt(2.0 * tau / math.pi)
    x = _bracketed_newton(gap, min(start, 0.5 * math.pi), 0.0, 0.5 * math.pi,
                          True)[0]
    return x if t <= 1.0 else math.pi - x


def _ma1_level(spec: PsdSpec, power: float, nu0: float, bound: float):
    """(nu, edges, filled) for MA(1) taps (b0, b1) in closed form.  In the
    distance u from its minimum (at pi where b0 b1 > 0, else at 0),
    S = m + 2a sin^2(u/2) with m = sigma2 (|b0| - |b1|)^2 and
    a = 2 sigma2 |b0 b1|.  P >= a fills the band, at nu0; below it the
    filled arc u < phi has F = (a / pi) g(phi), g(phi) = sin phi - phi cos phi,
    so phi solves g(phi) = pi P / a, and nu = m + 2a sin^2(phi/2)."""
    b0, b1 = spec.coeffs
    a = 2.0 * spec.sigma2 * abs(b0 * b1)
    if power >= a:
        return nu0, (0.0, math.pi), (True,)
    phi = _ma1_width(math.pi * power / a, math.pi * ((a - power) / a))
    nu = (spec.sigma2 * (abs(b0) - abs(b1)) ** 2
          + 2.0 * a * math.sin(0.5 * phi) ** 2)
    if b0 * b1 > 0.0:
        return nu, (0.0, math.pi - phi, math.pi), (False, True)
    return nu, (0.0, phi, math.pi), (True, False)


def _li2(w, v):
    """The dilogarithm Li2(w) = sum_k w^k / k^2 for |w| <= 1, given
    v = 1 - w apart so that it keeps its digits next to w = 1:

    - |w| <= 1/2: the power series to k = 43, whose tail is below
      2 * 2^-44 / 44^2 < 1e-16;
    - Re w <= 1/2: u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in
      u = -ln v, where |u| <= 1.5 and the terms fall by
      (|u| / 2 pi)^2 <= 0.06, so the tail past k = 12 is below 1e-17;
    - Re w > 1/2: the reflection pi^2/6 - ln w ln v - Li2(v), where
      |v| < 1 and Re v < 1/2, and Li2(1) = pi^2/6.
    """
    if abs(w) <= 0.5:
        acc = 0j
        for c in _LI2_POWER:
            acc = acc * w + c
        return acc * w
    if w.real <= 0.5:
        u = -cmath.log(v)
        u2, acc = u * u, 0j
        for c in reversed(_LI2_BERNOULLI):
            acc = acc * u2 + c
        return u - 0.25 * u2 + acc * u2 * u
    if v == 0.0:
        return complex(math.pi ** 2 / 6.0)
    return math.pi ** 2 / 6.0 - cmath.log(w) * cmath.log(v) - _li2(v, w)


def _ma1_capacity(psd: PsdSpec, nu, edges, filled, tol):
    """(C, filled power) of an MA(1) spectrum in closed form.  With
    r = b_min / b_max <= 1 over |b0|, |b1|, S = sigma2 b_max^2 |1 - r e^{iu}|^2
    in the distance u from its minimum, so mean ln S = ln(sigma2 b_max^2),
    and over a filled arc u < phi,
    int ln |1 - r e^{iu}|^2 du = -2 Im Li2(r e^{i phi}), whence
    C = (phi ln(nu / (sigma2 b_max^2)) + 2 Im Li2(r e^{i phi})) / (2 pi ln 2).
    The power check is one psd_eval: on a full band nu - mean S from the
    midpoints pi/4 and 3 pi/4, a rule exact for a cosine series of degree
    1, and over a filled arc the 16-point Gauss-Legendre rule on nu - S,
    exact to rounding there (error below 1e-38 |c1|)."""
    b0, b1 = abs(psd.coeffs[0]), abs(psd.coeffs[1])
    small, large = (b1, b0) if b1 <= b0 else (b0, b1)
    log_scale = math.log(psd.sigma2) + 2.0 * math.log(large)
    if all(filled):
        s = psd_eval(psd, _QUARTERS)
        return (0.5 * (math.log(nu) - log_scale) / _LN2,
                nu - 0.5 * (s[0] + s[1]))
    i = 0 if filled[0] else 1
    half = 0.5 * (edges[i + 1] - edges[i])
    phi, r = 2.0 * half, small / large
    w = complex(r * math.cos(phi), r * math.sin(phi))
    v = complex((1.0 - r) + 2.0 * r * math.sin(half) ** 2, -r * math.sin(phi))
    capacity = ((phi * (math.log(nu) - log_scale) + 2.0 * _li2(w, v).imag)
                / (2.0 * math.pi * _LN2))
    mid = edges[i] + half
    s = psd_eval(psd, tuple(mid + half * x for x in _GL_NODES))
    return capacity, half * math.fsum(
        w * (nu - si) for w, si in zip(_GL_WEIGHTS, s)) / math.pi


def _ma_vanishes(spec: PsdSpec):
    return not any(spec.coeffs)


def _ma1_mean_and_bound(spec: PsdSpec):
    """mean(S) of MA(1) taps (b0, b1), and sigma2 (|b0| + |b1|)^2 = max S."""
    b0, b1 = spec.coeffs
    return (spec.sigma2 * (b0 * b0 + b1 * b1),
            spec.sigma2 * (abs(b0) + abs(b1)) ** 2)


class _Form(_Record):
    """One spectral form's row of the water-filling table: vanishes(spec),
    whether S is zero on a band; mean_and_bound(spec) -> (mean S, bound),
    with bound >= max S, so that nu0 = mean S + P >= bound fills the band;
    partial_level(spec, power, nu0, bound) -> (nu, edges, filled) below it,
    the breakpoints over [0, pi] and filled flags of the pieces; and
    capacity(spec, nu, edges, filled, tol) -> (C, F(nu)), the capacity in
    bits and the filled power recomputed at nu for the power check."""

    __slots__ = ("vanishes", "mean_and_bound", "partial_level", "capacity")


_WHITE = _Form(
    vanishes=lambda spec: spec.level == 0.0,
    mean_and_bound=lambda spec: (spec.level, spec.level),
    # nu0 = N + P >= N = max S: white noise fills the band at every power
    partial_level=None,
    capacity=lambda spec, nu, edges, filled, tol: (
        0.5 * math.log2(nu / spec.level), nu - spec.level),
)
_MA1 = _Form(_ma_vanishes, _ma1_mean_and_bound, _ma1_level, _ma1_capacity)
_arrays = None  # the array half, which _form imports on first use


def _form(spec: PsdSpec) -> _Form:
    """The row of spec's form: white noise and MA(1) from this module,
    MA(q != 1) and samples from the array half, imported on first use."""
    global _arrays
    if spec.form == "white":
        return _WHITE
    if spec.form == "ma" and len(spec.coeffs) == 2:
        return _MA1
    if _arrays is None:
        from . import _waterfill_arrays as _arrays
    return _arrays._MA if spec.form == "ma" else _arrays._SAMPLES


def _solve_level(spec: PsdSpec, power: float, row: _Form):
    """The water level nu, with the breakpoints and filled flags of its
    pieces: nu0 = mean S + P where it reaches the row's bound on max S, so
    that the band fills, else the row's partial level, as the module
    docstring sets out.  An unconverged nu is never returned."""
    if not 0 < power < math.inf:
        raise ValueError("power budget must be positive and finite")
    mean, bound = row.mean_and_bound(spec)
    nu0 = mean + power
    if nu0 >= bound:
        return nu0, (0.0, math.pi), (True,)
    return row.partial_level(spec, power, nu0, bound)


def water_level(psd: PsdSpec, power: float) -> float:
    """Water level nu with mean((nu - S_Z)^+) = power; raises
    ConvergenceError if the Newton solve does not converge."""
    return _solve_level(psd, power, _form(psd))[0]


def _check_floors(tol, capacity, power, filled_power):
    """Raise ConvergenceError when tol is below the roundoff floor of the
    capacity, or tol max(1, P) below that of the filled power, each
    4 eps max(|value|, 1): a tolerance below roundoff cannot be certified."""
    for t, value in ((tol, capacity), (tol * max(1.0, power), filled_power)):
        floor = 4.0 * _EPS * max(abs(value), 1.0)
        if t < floor:
            raise ConvergenceError(f"tolerance {t:g} is below the achievable "
                                   f"roundoff floor {floor:.2e}")


def nonfeedback_capacity(psd: PsdSpec, power: float,
                         tol: float = 1e-10) -> WaterfillSolution:
    """Water-filling solution and capacity mean(0.5*log2(max(S, nu)/S)).

    tol is absolute on the capacity in bits and, scaled by max(1, P), on
    the power check: the filled power, recomputed at the returned level,
    against the budget P.  Raises ValueError for a tol or power that is
    not positive and finite and for a spectrum that vanishes on a band
    (white level 0, all-zero taps, two adjacent zero samples), whose
    capacity is infinite; ConvergenceError when tol cannot be met, e.g. for
    an MA spectrum with multiple zeros on the unit circle.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    power = float(power)
    row = _form(psd)
    if row.vanishes(psd):
        raise ValueError("the noise spectrum vanishes on a band, so the "
                         "capacity is infinite")
    nu, edges, filled = _solve_level(psd, power, row)
    capacity, filled_power = row.capacity(psd, nu, edges, filled, tol)
    _check_floors(tol, capacity, power, filled_power)

    def input_psd(th):
        import numpy as np

        return np.maximum(nu - psd_eval(psd, th), 0.0)

    crossings = () if len(filled) == 1 else tuple(
        float(edges[i + 1]) for i in range(len(filled) - 1)
        if filled[i] != filled[i + 1])
    return WaterfillSolution(power, nu, capacity, abs(filled_power - power),
                             input_psd, crossings)
