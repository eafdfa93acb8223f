import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import spence

from gfcap import _waterfill_arrays as arrays
from gfcap import waterfill
from gfcap.feedback import conjecture_check
from gfcap.spectrum import (
    PAPER_CHANNEL,
    ConvergenceError,
    PsdSpec,
    psd_eval,
)
from gfcap.waterfill import nonfeedback_capacity, water_level

PI = math.pi


def band_edge_for_unit_power():
    """Independent scalar bisection for the P=1 band edge of the MA(1)
    channel: the active band is (t, pi] with level 2+2cos(t), and the filled
    power equals (2cos(t)(pi-t) + 2sin(t))/pi."""
    f = lambda t: 2 * math.cos(t) * (PI - t) + 2 * math.sin(t) - PI
    lo, hi = 1e-9, PI - 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestWaterLevel:
    def test_paper_channel_p2_fills_to_four(self):
        assert water_level(PAPER_CHANNEL, 2.0) == pytest.approx(4.0, abs=1e-6)

    def test_white_fills_uniformly(self):
        for level, p in ((1.0, 3.0), (0.3, 0.07), (5.0, 1.0)):
            nu = water_level(PsdSpec.white(level), p)
            assert nu == pytest.approx(level + p, abs=1e-9)

    def test_paper_channel_p1_against_band_edge_oracle(self):
        t = band_edge_for_unit_power()
        expected = 2.0 + 2.0 * math.cos(t)
        got = water_level(PAPER_CHANNEL, 1.0)
        # frozen after confirming against the oracle: nu = 2.6573483258
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(2.6573483258, abs=2e-3)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            water_level(PAPER_CHANNEL, 0.0)
        with pytest.raises(ValueError):
            nonfeedback_capacity(PAPER_CHANNEL, -1.0)


class TestCapacity:
    def test_paper_channel_one_bit_at_p2(self):
        sol = nonfeedback_capacity(PAPER_CHANNEL, 2.0)
        assert abs(sol.capacity_bits - 1.0) <= 1e-14
        assert sol.power_residual <= 1e-10

    def test_awgn_closed_form(self):
        assert nonfeedback_capacity(PsdSpec.white(1.0), 3.0).capacity_bits \
            == pytest.approx(1.0, abs=1e-9)

    def test_awgn_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n0 = float(rng.uniform(0.1, 5.0))
            p = float(rng.uniform(0.1, 10.0))
            sol = nonfeedback_capacity(PsdSpec.white(n0), p)
            assert sol.capacity_bits == pytest.approx(
                0.5 * math.log2(1.0 + p / n0), abs=1e-9)

    def test_paper_channel_p1_against_quad_oracle(self):
        t = band_edge_for_unit_power()
        nu = 2.0 + 2.0 * math.cos(t)
        ref, _ = quad(lambda th: 0.5 * math.log2(nu / (2 * (1 + math.cos(th)))),
                      t, PI, limit=300, points=[PI])
        ref /= PI
        sol = nonfeedback_capacity(PAPER_CHANNEL, 1.0)
        # frozen after confirming against the oracle: C(1) = 0.7834378815
        assert sol.capacity_bits == pytest.approx(ref, abs=1e-8)
        assert sol.capacity_bits == pytest.approx(0.7834378815, abs=1e-6)

    @pytest.mark.parametrize("spec", [
        PsdSpec.white(0.0),
        PsdSpec.ma((0.0,)),
        PsdSpec.ma((0.0, 0.0, 0.0), 2.0),
        PsdSpec.from_samples([1.0, 0.0, 0.0, 1.0]),
    ], ids=["white_zero", "ma_zero", "ma_zero_taps", "samples_zero_band"])
    def test_vanishing_spectrum_is_rejected(self, spec):
        # the capacity is infinite; a clamp must not turn it into a number
        with pytest.raises(ValueError, match="infinite"):
            nonfeedback_capacity(spec, 1.0)


class TestWaterConsistency:
    def test_input_spectrum_and_flat_water(self):
        sol = nonfeedback_capacity(PAPER_CHANNEL, 2.0)
        th = np.linspace(0.0, PI, 100)
        sx = sol.input_psd(th)
        sz = psd_eval(PAPER_CHANNEL, th)
        assert np.all(sx >= 0.0)
        # output spectrum equals max(S_Z, nu) pointwise
        assert np.allclose(sx + sz, np.maximum(sz, sol.water_level), atol=1e-9)
        # flat water on the active band
        active = sx > 1e-9
        assert np.allclose((sx + sz)[active], sol.water_level, atol=1e-9)

    def test_power_reconstruction(self):
        for p in (0.25, 1.0, 2.0, 7.5):
            sol = nonfeedback_capacity(PAPER_CHANNEL, p)
            assert sol.power_residual <= 1e-9

    def test_degenerate_full_band(self):
        # power large enough that the whole band is active
        sol = nonfeedback_capacity(PAPER_CHANNEL, 50.0)
        assert sol.water_level == pytest.approx(52.0, abs=1e-6)
        assert sol.power_residual <= 1e-8


class TestShapeProperties:
    def test_monotone_and_concave_in_power(self):
        powers = np.linspace(0.25, 5.0, 20)
        caps = [nonfeedback_capacity(PAPER_CHANNEL, float(p)).capacity_bits
                for p in powers]
        diffs = np.diff(caps)
        assert np.all(diffs >= -1e-12)
        second = np.diff(diffs)
        assert np.all(second <= 1e-6)

    def test_capacity_nonnegative(self):
        for p in (1e-3, 0.1, 1.0, 10.0):
            assert nonfeedback_capacity(PAPER_CHANNEL, p).capacity_bits >= 0.0


# ---- exact-breakpoint Newton solve against independent oracles ----------

EPS = np.finfo(float).eps
POWERS = np.logspace(-2, 4, 7)


def min_phase_taps(rng, q):
    """Monic minimum-phase MA(q) taps from random roots inside the disk.
    The root moduli stay below (1 - d) / (1 + d) with d^(2q) = 1e-4, so the
    spectrum keeps min / max >= 1e-4 and the capacity quadrature, which is
    not under test here, converges."""
    d = 1e-4 ** (0.5 / q)
    rmax = (1.0 - d) / (1.0 + d)
    roots = []
    while len(roots) < q:
        r = rng.uniform(0.0, rmax)
        if len(roots) <= q - 2 and rng.uniform() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.1, PI - 0.1))
            roots += [z, np.conj(z)]
        else:
            roots.append(r * rng.choice((-1.0, 1.0)))
    return np.real(np.poly(roots))


def random_spectra():
    rng = np.random.default_rng(2024)
    cases = [PsdSpec.white(float(10 ** rng.uniform(-1, 1))) for _ in range(3)]
    cases += [PsdSpec.ma((1.0, float(0.95 * (1.0 - rng.uniform()))),
                         float(10 ** rng.uniform(-0.3, 0.3)))
              for _ in range(4)]
    cases += [PsdSpec.ma(min_phase_taps(rng, int(q)))
              for q in rng.integers(2, 17, size=5)]
    return cases


def direct_psd(spec):
    """S(theta) from the spec's definition, sharing no code with gfcap."""
    if spec.form == "white":
        return lambda th: spec.level
    b = np.asarray(spec.coeffs)
    return lambda th: spec.sigma2 * abs(np.polyval(b[::-1], np.exp(1j * th))) ** 2


def graded(a, b, centres):
    """quad break points in (a, b) at each centre in [0, pi] and
    geometrically closer to it, so that a log peak narrower than quad's
    first subdivision, at a near-zero of S, is resolved."""
    steps = (b - a) * 0.5 ** np.arange(1, 51)
    pts = [c + d for c in centres for d in (0.0, *steps, *-steps)]
    return sorted(p for p in set(pts) if a < p < b) or None


class Oracle:
    """scipy brentq and quad on one spectrum.  S is monotone between
    neighbouring nodes of a grid that includes its polished local extrema,
    so each crossing of S = nu is bracketed by two nodes and located by
    brentq; each filled band is then integrated by quad, broken at the
    local minima inside it, or where quad warns, with break points graded
    toward every local minimum and the ends 0 and pi.

    A run of grid nodes with equal values is one candidate turn, polished
    over the run and its two neighbours if both lie strictly on the same
    side of it and one of them by more than the rounding of S, 64 eps
    max S.  So where S is flat in floating point, or jitters within its
    rounding, it adds no interior turns."""

    def __init__(self, spec):
        s = self.s = direct_psd(spec)
        grid = np.linspace(0.0, PI, 32 * (len(spec.coeffs or ()) + 1) + 1)
        vals = np.array([s(t) for t in grid])
        runs = [list(run) for _, run in
                itertools.groupby(range(len(grid)), key=vals.__getitem__)]
        rounding = 64 * EPS * float(np.max(np.abs(vals)))
        turns, minima = [], []
        for before, run, after in zip(runs, runs[1:], runs[2:]):
            lo, hi = before[-1], after[0]
            for sign in (1.0, -1.0):
                rise = (sign * (vals[lo] - vals[run[0]]),
                        sign * (vals[hi] - vals[run[0]]))
                if min(rise) > 0.0 and max(rise) > rounding:
                    turns.append(minimize_scalar(
                        lambda t: sign * s(t), bounds=(grid[lo], grid[hi]),
                        method="bounded", options={"xatol": 1e-14}).x)
                    if sign > 0:
                        minima.append(turns[-1])
        nodes = np.concatenate([grid, turns])
        order = np.argsort(nodes)
        self.nodes = nodes[order]
        self.vals = np.concatenate([vals, [s(t) for t in turns]])[order]
        self.minima = minima + [0.0, PI]

    def bands(self, nu):
        s, nodes = self.s, self.nodes
        edges, inside = [], self.vals < nu
        for i in np.flatnonzero(inside[1:] != inside[:-1]):
            edges.append(brentq(lambda t: s(t) - nu, nodes[i], nodes[i + 1],
                                xtol=1e-15, rtol=1e-15))
        edges = [0.0] + edges + [PI]
        return [(a, b) for a, b in zip(edges[:-1], edges[1:])
                if s(0.5 * (a + b)) < nu]

    def level(self, power):
        s = self.s

        def excess(nu):
            return sum(quad(lambda t: nu - s(t), a, b, epsabs=0.0,
                            epsrel=1e-13, limit=200)[0]
                       for a, b in self.bands(nu)) / PI - power

        return brentq(excess, float(self.vals.min()),
                      float(self.vals.max()) + 2 * power,
                      xtol=1e-300, rtol=1e-15, maxiter=200)

    def capacity(self, nu):
        s, total = self.s, 0.0
        for a, b in self.bands(nu):
            def gain(t):
                return math.log(nu / s(t))

            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                try:
                    total += quad(gain, a, b, points=[
                        m for m in self.minima if a < m < b] or None,
                        epsabs=1e-15, epsrel=1e-13, limit=1000)[0]
                    continue
                except IntegrationWarning:
                    pass
            total += quad(gain, a, b, points=graded(a, b, self.minima),
                          epsabs=1e-15, epsrel=1e-13, limit=1000)[0]
        return 0.5 * total / (PI * math.log(2.0))


@pytest.mark.parametrize("spec", random_spectra(), ids=lambda s: (
    f"ma{len(s.coeffs) - 1}" if s.coeffs else "white"))
def test_newton_level_against_oracles(spec):
    s, oracle = direct_psd(spec), Oracle(spec)
    smax = max(s(t) for t in np.linspace(0.0, PI, 1025))
    for power in POWERS:
        sol = nonfeedback_capacity(spec, float(power))
        nu = sol.water_level
        assert nu == pytest.approx(oracle.level(power), rel=1e-12, abs=0)
        assert sol.power_residual <= 1e-10 * max(1.0, power)
        for theta in sol.band_crossings:
            assert 0.0 < theta < PI
            assert abs(s(theta) - nu) <= 1e-12 * max(nu, smax)


def test_ma80_power_residual():
    spec = PsdSpec.ma(np.random.default_rng(80).standard_normal(81))
    sol = nonfeedback_capacity(spec, 1.0)
    assert sol.power_residual <= 1e-10


def test_paper_channel_level_is_exact():
    assert water_level(PAPER_CHANNEL, 2.0) == 4.0
    assert water_level(PAPER_CHANNEL, 50.0) == 52.0


@pytest.mark.parametrize("tail", [1e-14, 1e-26, 1.5e-89])
def test_negligible_trailing_tap_keeps_the_crossings(tail):
    """S = |1 + z^2 + tail z^3|^2 is 2 + 2 cos(2 theta) to within rounding,
    with the paper channel's values at twice the speed, so the same level.
    As the leading coefficient of the crossings' Chebyshev series, a tap
    this small would scale their companion matrix by its reciprocal and
    lose them (from a ratio of about 1e-26 on, a level 2.6% high)."""
    spec = PsdSpec.ma((1.0, 0.0, 1.0, tail))
    for power in (0.1, 1.0, 1.9):
        assert water_level(spec, power) == pytest.approx(
            water_level(PAPER_CHANNEL, power), rel=4 * EPS)


def test_samples_level_is_exact():
    # a tent with peak 2 at pi/2: F(nu) = nu^2 / 4 for nu <= 2
    spec = PsdSpec.from_samples([0.0, 2.0, 0.0])
    for power in (0.04, 0.25, 0.81):
        assert water_level(spec, power) == pytest.approx(
            2.0 * math.sqrt(power), rel=1e-14)
    sol = nonfeedback_capacity(spec, 0.25)
    assert sol.band_crossings == pytest.approx((PI / 4, 3 * PI / 4), rel=1e-15)


# ---- capacity near spectral zeros, against scipy --------------------------
# A quadrature of the log-singular gain can miss these by 1e-7 to 1e-4
# without raising; the references are written free of cancellation.

def monotone_reference(s, power):
    """Water level and capacity of a spectrum written as S(u), increasing
    on [0, pi] in the distance u from its minimum: scipy brentq and quad
    over the filled band [0, u_c]."""
    def edge(nu):
        if s(PI) <= nu:
            return PI
        return brentq(lambda u: s(u) - nu, 0.0, PI, xtol=1e-300, rtol=1e-15)

    def excess(nu):
        return quad(lambda u: nu - s(u), 0.0, edge(nu), epsabs=0.0,
                    epsrel=1e-13, limit=200)[0] / PI - power

    nu = brentq(excess, s(0.0), s(PI) + 2 * power, xtol=1e-300, rtol=1e-15,
                maxiter=200)
    total = quad(lambda u: math.log(nu / s(u)), 0.0, edge(nu),
                 points=graded(0.0, edge(nu), [0.0]), epsabs=1e-15,
                 epsrel=1e-13, limit=400)[0]
    return nu, 0.5 * total / (PI * math.log(2.0))


def samples_reference(values, power):
    """Water level and capacity of a samples spectrum: scipy brentq and
    quad over the part of each segment below nu, with S written from the
    nearer node so that it keeps its digits next to a zero."""
    nodes = np.linspace(0.0, PI, len(values))

    def pieces(nu):
        out = []
        for x0, x1, a, b in zip(nodes[:-1], nodes[1:], values[:-1],
                                values[1:]):
            def s(t, x0=x0, x1=x1, a=a, b=b):
                if t - x0 <= x1 - t:
                    return a + (b - a) * (t - x0) / (x1 - x0)
                return b + (a - b) * (x1 - t) / (x1 - x0)
            if max(a, b) <= nu:
                out.append((x0, x1, s))
            elif min(a, b) < nu:
                t = x0 + (nu - a) / (b - a) * (x1 - x0)
                out.append((x0, t, s) if a < nu else (t, x1, s))
        return out

    def excess(nu):
        return sum(quad(lambda t: nu - s(t), lo, hi, epsabs=0.0,
                        epsrel=1e-13)[0]
                   for lo, hi, s in pieces(nu)) / PI - power

    nu = brentq(excess, 0.0, max(values) + 2 * power, xtol=1e-300,
                rtol=1e-15, maxiter=200)
    total = sum(quad(lambda t: math.log(nu / s(t)), lo, hi, epsabs=1e-14,
                     epsrel=1e-13, limit=400)[0]
                for lo, hi, s in pieces(nu))
    return nu, 0.5 * total / (PI * math.log(2.0))


def test_samples_capacity_against_scipy():
    values = [0.0, 1.0, 2.0, 3.0, 0.5, 0.0, 4.0]
    _, cap = samples_reference(values, 1e-3)
    sol = nonfeedback_capacity(PsdSpec.from_samples(values), 1e-3)
    assert sol.capacity_bits == pytest.approx(cap, abs=1e-10)


def test_near_zero_ma1_capacity_against_scipy():
    # |1 + beta e^{i theta}|^2 = (1 - beta)^2 + 4 beta sin^2(u / 2),
    # u = pi - theta
    beta = 1.0 - 1e-5
    _, cap = monotone_reference(
        lambda u: (1.0 - beta) ** 2 + 4.0 * beta * math.sin(0.5 * u) ** 2,
        1e-4)
    sol = nonfeedback_capacity(PsdSpec.ma((1.0, beta)), 1e-4)
    assert sol.capacity_bits == pytest.approx(cap, abs=1e-10)


@pytest.mark.parametrize("seed, q, power", [(11, 15, 0.03), (80, 80, 1.0)],
                         ids=["ma15_near_zeros", "ma80"])
def test_random_ma_capacity_against_scipy(seed, q, power):
    spec = PsdSpec.ma(np.random.default_rng(seed).standard_normal(q + 1))
    oracle = Oracle(spec)
    sol = nonfeedback_capacity(spec, power)
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(oracle.level(power)), abs=1e-10)


def counted_psd_eval(monkeypatch):
    """Patch the psd_eval of waterfill (white, MA(1)) and of its array half
    (every other spectrum) to record the size of each call."""
    sizes = []

    def counted(spec, theta):
        sizes.append(np.size(theta))
        return psd_eval(spec, theta)

    for owner in (waterfill, arrays):
        monkeypatch.setattr(owner, "psd_eval", counted)
    return sizes


def counted_calls(monkeypatch, owner, name):
    """Patch owner.name to record the arguments of each call."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def counted_level_eigensolves(monkeypatch, *specs):
    """Record the eigensolves of waterfill's array half once the roots of B
    that Jensen's formula and the dilogarithm read are cached for specs: on
    a partial MA(q >= 2) band, the colleague matrix's check of the tracked
    crossings, and one per level evaluation where the solve falls back."""
    for spec in specs:
        arrays._ma_roots(spec)
    return counted_calls(monkeypatch, np.linalg, "eigvals")


def test_gauss_legendre_literals_equal_leggauss():
    """waterfill writes its 16-point rule as float literals, so that the
    MA(1) power check needs no numpy; they are numpy's rule exactly."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert waterfill._GL_NODES == tuple(nodes.tolist())
    assert waterfill._GL_WEIGHTS == tuple(weights.tolist())


def test_paper_channel_work_budget(monkeypatch):
    """One capacity solve on the paper channel, which crosses the level at
    P = 1, evaluates the spectrum once, at the 16 Gauss-Legendre nodes of
    the power check on the filled arc."""
    sizes = counted_psd_eval(monkeypatch)
    sol = nonfeedback_capacity(PAPER_CHANNEL, 1.0)
    assert len(sol.band_crossings) == 1
    assert sizes == [16]


@pytest.mark.parametrize("taps, sigma2, power", [
    ((1.0, -0.9433), 1.0, 0.00116),
    ((0.5, 1.0), 2.0, 0.3),
    ((1.0, -2.0), 0.5, 1e-6),
    ((1.0, 0.3), 1.5, 5.0),
], ids=["ma1_neg", "ma1_nonmin", "ma1_neg_nonmin", "ma1_full"])
def test_ma1_work_budget(monkeypatch, taps, sigma2, power):
    """An MA(1) solve is scalar closed forms: no eigensolve, no sampled
    start, no roots of B, no dilogarithm over an unfilled band, and one
    psd_eval for the power check, over the 16 Gauss-Legendre nodes of the
    filled arc or the 2 midpoints of a full band."""
    spec = PsdSpec.ma(taps, sigma2)
    arrays._ma_roots.cache_clear()
    counts = [counted_calls(monkeypatch, *target) for target in (
        (np.linalg, "eigvals"), (arrays, "_sampled_level"),
        (arrays, "_unfilled_log"), (arrays, "_ma_roots"),
        (arrays, "_jensen_mean_log"))]
    sizes = counted_psd_eval(monkeypatch)
    sol = nonfeedback_capacity(spec, power)
    assert counts == [[]] * len(counts)
    assert sizes == ([16] if sol.band_crossings else [2])


@pytest.mark.parametrize("spec, power, eigensolves", [
    (PAPER_CHANNEL, 7.0, 0),
    (PsdSpec.ma(min_phase_taps(np.random.default_rng(8), 8)), 1e3, 0),
    (PsdSpec.ma(min_phase_taps(np.random.default_rng(8), 8)[::-1]), 1e3, 1),
    (PsdSpec.from_samples([1, 2, 3, 2, 1]), 1e6, 0),
    (PsdSpec.white(1.0), 3.0, 0),
    (PsdSpec.white(0.3), 0.3e-20, 0),
    (PsdSpec.white(2.0), 1e-17, 0),
], ids=["paper_p7", "ma8_p1e3", "ma8_nonmin_p1e3", "samples_p1e6", "white_p3",
        "white_p1e-20n", "white_below_half_ulp"])
def test_full_band_work_budget(monkeypatch, spec, power, eigensolves):
    """At nu0 = mean S + P >= sigma2 (sum |b_k|)^2 >= max S the whole band
    fills and nu0 is the level exactly, so no crossing is searched for.  A
    full band never reaches the dilogarithm over an unfilled band.  An
    MA(q >= 2) band takes its power check from the FFT samples of B, with
    no psd_eval, and where those samples certify minimum phase its mean
    ln S is ln(sigma2 b0^2), with no eigensolve at all; reversed, the same
    taps put every zero of B inside the disk, and Jensen's formula keeps
    its one companion eigensolve.  MA(1) takes one psd_eval at its 2
    midpoints, a samples spectrum one at its cells' m midpoints.  White
    noise fills at every power, with no psd_eval at all, also where P is
    below half an ulp of N and nu0 rounds to N."""
    if spec.form == "white":
        mean = bound = spec.level
        points = None
    elif spec.form == "ma":
        b = np.asarray(spec.coeffs)
        mean = spec.sigma2 * float(b @ b)
        bound = spec.sigma2 * float(np.abs(b).sum()) ** 2
        points = 2 if len(b) == 2 else None
    else:
        v = np.asarray(spec.values, dtype=float)
        mean, bound = float(np.mean(0.5 * (v[:-1] + v[1:]))), float(v.max())
        points = len(v) - 1
    assert mean + power >= bound

    def no_unfilled_band(*args):
        raise AssertionError("a full band reached the unfilled-band integral")

    monkeypatch.setattr(arrays, "_unfilled_log", no_unfilled_band)
    arrays._ma_roots.cache_clear()
    arrays._ma_samples.cache_clear()
    eigvals = counted_calls(monkeypatch, np.linalg, "eigvals")
    sizes = counted_psd_eval(monkeypatch)
    sol = nonfeedback_capacity(spec, power)
    assert len(eigvals) == eigensolves
    assert sizes == ([] if points is None else [points])
    assert sol.water_level == mean + power
    assert sol.band_crossings == ()


@pytest.mark.parametrize("spec, power", [
    (PAPER_CHANNEL, 7.0),
    (PsdSpec.ma(min_phase_taps(np.random.default_rng(8), 8)), 1e3),
    (PsdSpec.white(1.0), 3.0),
], ids=["paper_p7", "ma8_p1e3", "white_p3"])
def test_full_band_power_check_is_independent_of_the_solve(monkeypatch, spec,
                                                           power):
    """The full-band level is nu0 = mean S + P from the row's
    mean_and_bound, and the power check evaluates S on its own: a mean off
    by delta puts the level off by delta, and the power residual reads
    delta."""
    delta, form = 1e-6, waterfill._form

    def shifted_form(psd):
        row = form(psd)

        def shifted(psd):
            mean, bound = row.mean_and_bound(psd)
            return mean + delta, bound

        return waterfill._Form(row.vanishes, shifted, row.partial_level,
                               row.capacity)

    monkeypatch.setattr(waterfill, "_form", shifted_form)
    sol = nonfeedback_capacity(spec, power)
    assert sol.band_crossings == ()
    assert sol.power_residual == pytest.approx(delta, rel=1e-6)


def full_band_cases():
    """Random MA(1..16) spectra (Gaussian taps) and samples spectra (2 to
    12 nodes), each with a power that fills the band: for MA once nu0
    reaches sigma2 (sum |b_k|)^2, and also between max S and that bound,
    where Newton finds the level; for samples from max S on."""
    rng = np.random.default_rng(1212)
    cases = []
    for q in (1, 2, 3, 5, 8, 12, 16):
        spec = PsdSpec.ma(rng.standard_normal(q + 1),
                          float(10 ** rng.uniform(-1, 1)))
        b = np.asarray(spec.coeffs)
        mean = spec.sigma2 * float(b @ b)
        bound = spec.sigma2 * float(np.abs(b).sum()) ** 2
        cases.append((spec, float(bound - mean) * (1.0 + rng.uniform())))
        smax = float(Oracle(spec).vals.max())
        cases.append((spec, 1.01 * (smax - mean) + 1e-6 * bound))
    for n in (2, 3, 5, 8, 12):
        values = rng.uniform(0.05, 10.0, size=n)
        mean = float(np.mean(0.5 * (values[:-1] + values[1:])))
        cases.append((PsdSpec.from_samples(values.tolist()),
                      float(values.max() - mean + 10 ** rng.uniform(-2, 3))))
    return cases


@pytest.mark.parametrize("spec, power", full_band_cases(), ids=lambda x: (
    (f"ma{len(x.coeffs) - 1}" if x.form == "ma" else f"samples{len(x.values)}")
    if isinstance(x, PsdSpec) else f"p{x:.3g}"))
def test_full_band_capacity_against_scipy(spec, power):
    """On a full band the capacity is (ln nu - mean ln S) / (2 ln 2), with
    no quadrature in gfcap; scipy's quad over [0, pi] is the judge."""
    sol = nonfeedback_capacity(spec, power)
    assert sol.band_crossings == ()
    if spec.form == "ma":
        oracle = Oracle(spec)
        assert sol.water_level == pytest.approx(oracle.level(power),
                                                rel=1e-12, abs=0)
        cap = oracle.capacity(sol.water_level)
    else:
        nu, cap = samples_reference(list(spec.values), power)
        assert sol.water_level == pytest.approx(nu, rel=1e-12, abs=0)
    assert sol.capacity_bits == pytest.approx(cap, abs=1e-10)
    assert sol.power_residual <= 1e-10 * max(1.0, power)


@pytest.mark.parametrize("power", [0.1, 0.5, 1.0, 1.5])
def test_partial_band_level_budget(monkeypatch, power):
    """The Newton solve of a partial MA(q >= 2) band starts from the sampled
    discrete water level, close to the root, on crossings tracked from the
    FFT samples, and the samples certify them at the converged level with
    no eigensolve.  Here on S = |1 + z^2|^2, the paper channel at twice the
    speed, with the same level.  Where tracking is lost, the solve falls
    back to an eigensolve at each level from the same start: at most 4,
    and the same level to a few ulps.  The paper channel itself, MA(1),
    takes none."""
    spec = PsdSpec.ma((1.0, 0.0, 1.0))
    roots = counted_level_eigensolves(monkeypatch, spec)
    sol = nonfeedback_capacity(spec, power)
    assert len(sol.band_crossings) == 2
    assert roots == []

    def lost(c, s, rounding):
        def terms(nu):
            raise ConvergenceError("forced")
        return terms, None

    with monkeypatch.context() as patch:
        patch.setattr(arrays, "_tracked_terms", lost)
        fallback = nonfeedback_capacity(spec, power)
    assert 1 <= len(roots) <= 4
    assert fallback.water_level == pytest.approx(sol.water_level, rel=8 * EPS)
    assert fallback.band_crossings == pytest.approx(sol.band_crossings,
                                                    abs=1e-14)
    roots.clear()
    sol = nonfeedback_capacity(PAPER_CHANNEL, power)
    assert len(sol.band_crossings) == 1
    assert roots == []


def test_conjecture_check_level_budget(monkeypatch):
    """The 81 capacity solves of the counterexample are all on the paper
    channel, MA(1), so none of them takes an eigensolve."""
    arrays._ma_roots.cache_clear()
    eigvals = counted_calls(monkeypatch, np.linalg, "eigvals")
    conjecture_check(1.0)
    assert eigvals == []


def test_sampled_start_on_both_sides_of_the_root(monkeypatch):
    """The sampled start lies above the root on some partial MA(q >= 2)
    bands and below it on others, where one Newton step from below must land
    at or above the root; either way the level meets the oracle.  MA(1)
    bands take no sampled start."""
    sampled_level, starts = arrays._sampled_level, []

    def recorded(s, power):
        starts.append(sampled_level(s, power))
        return starts[-1]

    monkeypatch.setattr(arrays, "_sampled_level", recorded)
    rng = np.random.default_rng(1010)
    sides = set()
    for q in range(1, 17):
        spec = PsdSpec.ma(min_phase_taps(rng, q),
                          float(10 ** rng.uniform(-1, 1)))
        s, oracle = direct_psd(spec), Oracle(spec)
        mean = waterfill._form(spec).mean_and_bound(spec)[0]
        smax = max(s(t) for t in np.linspace(0.0, PI, 1025))
        for u in (0.02, 0.2, 0.7):
            # below smax - mean S the band does not fill
            power = float(u * (smax - mean))
            starts.clear()
            sol = nonfeedback_capacity(spec, power)
            nu = sol.water_level
            if q == 1:
                assert starts == []
            else:
                # the start is the sampled level, capped at nu0 = mean S + P
                assert len(starts) == 1
                nu_hat = min(starts[0], mean + power)
                sides.add(nu_hat > nu)
            assert nu == pytest.approx(oracle.level(power), rel=1e-12, abs=0)
            assert sol.power_residual <= 1e-10 * max(1.0, power)
            assert sol.band_crossings
            for theta in sol.band_crossings:
                assert abs(s(theta) - nu) <= 1e-12 * max(nu, smax)
    assert sides == {True, False}


# ---- the level as a property, over drawn spectra and powers --------------

@st.composite
def spectra(draw):
    """A white, MA(0..8) or samples (2 to 12 nodes) spectrum."""
    form = draw(st.sampled_from(("white", "ma", "samples")))
    scale = st.floats(0.1, 10.0)
    if form == "white":
        return PsdSpec.white(draw(scale))
    if form == "ma":
        taps = draw(st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=8))
        return PsdSpec.ma((1.0, *taps), draw(scale))
    return PsdSpec.from_samples(
        draw(st.lists(st.floats(0.05, 10.0), min_size=2, max_size=12)))


@settings(derandomize=True, database=None, deadline=None)
@given(spec=spectra(), log_power=st.floats(-2.0, 4.0))
def test_level_property(spec, log_power):
    """The level meets an independent oracle to 1e-12 relative, and where
    nu0 = mean S + P reaches the bound on max S (white, MA) it is nu0
    exactly."""
    power = 10.0 ** log_power
    nu = water_level(spec, power)
    if spec.form == "samples":
        expected = samples_reference(list(spec.values), power)[0]
    else:
        expected = Oracle(spec).level(power)
    assert nu == pytest.approx(expected, rel=1e-12, abs=0)
    if spec.form == "white":
        assert nu == spec.level + power
    elif spec.form == "ma":
        b = np.asarray(spec.coeffs)
        nu0 = spec.sigma2 * float(b @ b) + power
        if nu0 >= spec.sigma2 * float(np.abs(b).sum()) ** 2:
            assert nu == nu0


def ma1_level_reference(taps, sigma2, power):
    """The level of MA(1) taps (b0, b1) at a power that fills an arc of
    half-width u about the minimum of S = m + 2a sin^2(u/2), with
    m = sigma2 (|b0| - |b1|)^2 and a = 2 sigma2 |b0 b1|:
    F = (a / pi)(sin u - u cos u), by brentq in u, where
    sin u - u cos u = sum_n (-1)^(n+1) 2n u^(2n+1) / (2n+1)! is summed as
    a series below u = 1 to keep its digits; nu = m + 2a sin^2(u/2)."""
    b0, b1 = map(abs, taps)
    a = 2.0 * sigma2 * b0 * b1

    def filled(u):
        if u >= 1.0:
            return a / PI * (math.sin(u) - u * math.cos(u))
        return a / PI * sum((-1) ** (n + 1) * 2 * n * u ** (2 * n + 1)
                            / math.factorial(2 * n + 1)
                            for n in range(1, 12))

    u = brentq(lambda u: filled(u) - power, 0.0, PI, xtol=1e-300,
               rtol=4 * EPS, maxiter=200)
    return sigma2 * (b0 - b1) ** 2 + 2.0 * a * math.sin(0.5 * u) ** 2


@pytest.mark.parametrize("power", [1e-12, 1e-8, 1e-4])
def test_paper_channel_level_at_tiny_power(power):
    """A narrow band about the zero at pi, whose width the scalar solve
    keeps to a few ulps: the level is held to 8 eps nu."""
    nu = water_level(PAPER_CHANNEL, power)
    assert abs(nu - ma1_level_reference((1.0, 1.0), 1.0, power)) \
        <= 8 * EPS * nu


def test_ma1_width_budget(monkeypatch):
    """The band width of the paper channel at 400 powers from 1e-6 up to
    P = a = 2, where the band fills, takes at most 6 evaluations of
    g = sin phi - phi cos phi, and 4 at the median: the scalar Newton
    solve starts from the leading term at either end of [0, pi] and is
    solved in pi - phi above g = 1, where g' = phi sin phi -> 0."""
    calls = counted_calls(monkeypatch, waterfill, "_sin_minus_x_cos")
    counts = []
    for power in np.logspace(-6, math.log10(2.0), 401)[:-1]:
        calls.clear()
        sol = nonfeedback_capacity(PAPER_CHANNEL, float(power))
        assert len(sol.band_crossings) == 1
        counts.append(len(calls))
    assert max(counts) <= 6
    assert np.median(counts) <= 4


@pytest.mark.parametrize("taps, sigma2, power", [
    ((1.0, -0.9433), 1.0, 0.00116),
    ((1.0, 0.5), 2.0, 1e-6),
    ((1.0, 0.5), 2.0, 0.3),
    ((0.5, 1.0), 1.0, 1e-4),
    ((0.5, 1.0), 1.0, 0.3),
    ((1.0, -2.0), 0.5, 1e-5),
    ((1.0, -2.0), 1.0, 0.5),
    ((1.0, 1.0), 1.0, 2.0 * (1.0 - 1e-9)),
    ((1.0, 0.5), 2.0, 2.0 * (1.0 - 1e-9)),
    ((0.5, 1.0), 1.0, 1.0 - 1e-9),
    ((1.0, -2.0), 1.0, 4.0 * (1.0 - 1e-9)),
])
def test_ma1_level_against_reference(taps, sigma2, power):
    """MA(1) levels at beta != 1, on non-minimum-phase taps, and next to
    P = a, where the band all but fills and g' = phi sin phi -> 0, meet
    the reference to 8 eps nu."""
    nu = water_level(PsdSpec.ma(taps, sigma2), power)
    assert abs(nu - ma1_level_reference(taps, sigma2, power)) <= 8 * EPS * nu


def test_paper_channel_at_high_power_is_exact():
    """At P = 1e6 the whole band fills: nu = mean S + P = 1e6 + 2 and, since
    mean ln S = 0 on the paper channel, C = 0.5 log2(1e6 + 2).  The power
    check is held to tol * P here, above its roundoff floor 4 eps P."""
    sol = nonfeedback_capacity(PAPER_CHANNEL, 1e6)
    assert sol.water_level == 1e6 + 2.0
    assert sol.capacity_bits == pytest.approx(0.5 * math.log2(1e6 + 2.0),
                                              abs=1e-12)
    assert sol.power_residual <= 1e-10 * 1e6


def test_samples_at_high_power_is_exact():
    """Samples [1, 2, 3, 2, 1] fill completely at P = 1e6: nu = 2 + P, and
    the mean of ln S over the four linear pieces is (3 ln 3 - 2) / 2."""
    sol = nonfeedback_capacity(PsdSpec.from_samples([1, 2, 3, 2, 1]), 1e6)
    mean_log = (3.0 * math.log(3.0) - 2.0) / 2.0
    assert sol.water_level == 1e6 + 2.0
    assert sol.capacity_bits == pytest.approx(
        0.5 * (math.log(1e6 + 2.0) - mean_log) / math.log(2.0), abs=1e-12)
    assert sol.power_residual <= 1e-10 * 1e6


# S in the distance u from the zero: u = pi - theta, or theta for (1 - z)^2
@pytest.mark.parametrize("taps, s", [
    ((1.0, 2.0, 1.0), lambda u: 16.0 * math.sin(0.5 * u) ** 4),
    ((1.0, -2.0, 1.0), lambda u: 16.0 * math.sin(0.5 * u) ** 4),
    ((1.0, 3.0, 3.0, 1.0), lambda u: 64.0 * math.sin(0.5 * u) ** 6),
], ids=["(1+z)^2", "(1-z)^2", "(1+z)^3"])
def test_multiple_unit_circle_zeros_raise_or_are_exact(taps, s):
    """A multiple zero on the unit circle is ill-conditioned for np.roots:
    the capacity must either raise or meet its tolerance."""
    _, cap = monotone_reference(s, 1.0)
    try:
        got = nonfeedback_capacity(PsdSpec.ma(taps), 1.0).capacity_bits
    except ConvergenceError:
        return
    assert got == pytest.approx(cap, abs=1e-10)


# ---- reference loop for the vectorised spectrum code ---------------------

def psd_eval_loop(spec, th):
    acc = np.zeros(th.shape, dtype=complex)
    for k, bk in enumerate(spec.coeffs):
        acc += bk * np.exp(1j * k * th)
    return spec.sigma2 * np.abs(acc) ** 2


def test_horner_psd_eval_matches_per_tap_sum():
    """The array Horner pass meets the per-tap sum, and the plain-Python
    pass over a float or a tuple meets the array pass, both to 8 eps
    sigma2 (sum |b_k|)^2, the scale of S's rounding: numpy fuses the
    complex multiply and rounds |acc| apart from libm's hypot, so the two
    passes differ by a few ulps of that scale, not of S next to a zero.
    A tuple gives the float path's values bit for bit, and an empty tuple
    an empty tuple.  White noise is its level at every point, and a
    samples spectrum the array path's values, on every path."""
    rng = np.random.default_rng(11)
    th = np.linspace(-PI, PI, 2001)
    specs = []
    for q in [*range(17), *rng.integers(0, 9, size=24)]:
        b = rng.standard_normal(q + 1) * 10 ** rng.uniform(-2, 2)
        spec = PsdSpec.ma(b, float(10 ** rng.uniform(-1, 1)))
        specs.append(spec)
        bound = 8 * EPS * spec.sigma2 * np.sum(np.abs(b)) ** 2
        array = psd_eval(spec, th)
        assert np.max(np.abs(array - psd_eval_loop(spec, th))) <= bound
        assert psd_eval(spec, 0.3) == pytest.approx(
            float(psd_eval_loop(spec, np.asarray(0.3))), abs=bound)
        points = psd_eval(spec, tuple(th.tolist()))
        assert type(points) is tuple
        assert all(type(v) is float for v in points)
        assert np.max(np.abs(np.array(points) - array)) <= bound
        assert type(psd_eval(spec, 0.3)) is float
        assert psd_eval(spec, 0.3) == pytest.approx(
            float(psd_eval(spec, np.asarray(0.3))), abs=bound)
    white = PsdSpec.white(0.7)
    assert psd_eval(white, (0.3, -3.0)) == (0.7, 0.7)
    assert psd_eval(white, 0.3) == 0.7
    assert np.array_equal(psd_eval(white, th), np.full(th.shape, 0.7))
    exact = [white, *(PsdSpec.from_samples(rng.uniform(0.0, 3.0, m))
                      for m in (2, 3, 9, 40))]
    grid = th[::8].tolist()
    for spec in [*specs, *exact]:
        points = psd_eval(spec, tuple(grid))
        assert points == tuple(psd_eval(spec, t) for t in grid)
        if spec in exact:
            assert points == tuple(psd_eval(spec, np.array(grid)).tolist())
        assert psd_eval(spec, ()) == ()


# ---- reference forms of the crossing polish and of Jensen's formula -------

def ma_crossings_chebval(c, nu):
    """The crossings of S = nu polished by Newton in x = cos(theta) with
    chebval, as before the polish moved to theta."""
    dc = chebyshev.chebder(c)
    p = c.copy()
    p[0] -= nu
    x = chebyshev.chebroots(p)
    window = arrays._ROOT_WINDOW
    x = np.clip(x.real[(np.abs(x.imag) <= window)
                       & (np.abs(x.real) <= 1.0 + window)], -1.0, 1.0)
    for _ in range(2):
        px = chebyshev.chebval(x, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(x - px / chebyshev.chebval(x, dc), -1.0, 1.0)
        better = np.abs(chebyshev.chebval(step, p)) < np.abs(px)
        x = np.where(better, step, x)
    return np.arccos(x)


def jensen_polyval(spec):
    """(mean ln S, its error bound in bits, the sum of the magnitudes of
    its terms) by Jensen's formula from np.roots, with B, B' and the
    rounding scale of B from np.polyval."""
    b = np.trim_zeros(np.asarray(spec.coeffs), "b")
    poly = b[::-1]
    z = np.roots(poly)
    r = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = ((np.abs(np.polyval(poly, z))
               + 2 * len(b) * EPS * np.polyval(np.abs(poly), r))
              / np.abs(np.polyval(np.polyder(poly), z)))
    bound = float(np.sum(dz[np.abs(r - 1.0) <= dz])) / math.log(2.0)
    terms = [math.log(spec.sigma2), 2.0 * math.log(abs(b[-1])),
             2.0 * float(np.sum(np.log(np.maximum(r, 1.0))))]
    return sum(terms), bound, sum(map(abs, terms))


def random_ma_spectra(seed, count):
    """MA(1..16) spectra: Gaussian taps, and taps whose roots include a real
    one on or within 1e-9 of the unit circle, where the error bound of the
    roots need not be 0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        q = int(rng.integers(1, 17))
        sigma2 = float(10 ** rng.uniform(-1, 1))
        if i % 2 == 0:
            yield PsdSpec.ma(rng.standard_normal(q + 1), sigma2)
            continue
        roots = [rng.choice((-1.0, 1.0)) * (1.0 + rng.choice((0.0, 1e-9,
                                                               -1e-9)))]
        while len(roots) < q:
            r = rng.uniform(0.2, 3.0)
            if len(roots) <= q - 2 and rng.uniform() < 0.5:
                z = r * np.exp(1j * rng.uniform(0.1, PI - 0.1))
                roots += [z, np.conj(z)]
            else:
                roots.append(r * rng.choice((-1.0, 1.0)))
        # np.poly lists z^q first; tap b_k multiplies z^k
        yield PsdSpec.ma(np.real(np.poly(roots))[::-1], sigma2)


def test_theta_polish_matches_chebval_polish():
    """The colleague terms' crossings, Newton in theta from the arccos value
    of each root where the filled flag flips, meet the roots polished in
    x = cos(theta) with chebval to 1e-13.

    Spectra whose last tap is 1e-20 to 1e-30 of the first take their
    reference from the same taps without it, and must meet it one to one:
    the colleague terms drop the series' trailing terms up to
    eps sum |c_k|, whose reciprocal would otherwise scale the colleague
    matrix and lose or move crossings."""
    rng = np.random.default_rng(61)
    count = 0
    for spec in random_ma_spectra(60, 600):
        c = arrays._cosine_series(spec)
        s = psd_eval(spec, np.linspace(0.0, PI, 513))
        nu = float(rng.uniform(s.min(), s.max()))
        ref = ma_crossings_chebval(c, nu)
        got = arrays._colleague_terms(c)(nu)[2][1:-1]
        for theta in got:
            assert np.min(np.abs(ref - theta)) <= 1e-13
        count += len(got)
    assert count >= 1000
    count = 0
    for spec in random_ma_spectra(65, 400):
        tail = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, -20.0)
        longer = PsdSpec.ma(spec.coeffs + (tail * spec.coeffs[0],),
                            spec.sigma2)
        s = psd_eval(spec, np.linspace(0.0, PI, 513))
        nu = float(rng.uniform(s.min(), s.max()))
        ref = ma_crossings_chebval(arrays._cosine_series(spec), nu)
        got = arrays._colleague_terms(arrays._cosine_series(longer))(nu)[2]
        assert len(got) - 2 == len(ref)
        assert np.all(np.abs(np.sort(ref) - got[1:-1]) <= 1e-13)
        count += len(ref)
    assert count >= 500


def test_jensen_eigensolve_matches_np_roots():
    nonzero_bounds = 0
    for spec in random_ma_spectra(62, 600):
        mean_log, bound, scale = jensen_polyval(spec)
        arrays._ma_roots.cache_clear()
        got = arrays._jensen_mean_log(spec, 1.0)
        assert got == pytest.approx(mean_log, abs=4 * EPS * max(scale, 1.0))
        # the two error bounds agree within a factor of 2: tol = 2 bound
        # passes and tol = bound / 2 raises (bound 0: no tol raises)
        arrays._jensen_mean_log(spec, 2.0 * bound or 1e-300)
        if bound > 0.0:
            nonzero_bounds += 1
            with pytest.raises(ConvergenceError):
                arrays._jensen_mean_log(spec, 0.5 * bound)
    assert nonzero_bounds >= 50


@pytest.mark.parametrize("taps", [(1.0, 2.0, 1.0), (1.0, -2.0, 1.0),
                                  (1.0, 3.0, 3.0, 1.0)])
def test_multiple_unit_circle_zeros_exceed_both_bounds(taps):
    spec = PsdSpec.ma(taps)
    assert jensen_polyval(spec)[1] > 1e-10
    arrays._ma_roots.cache_clear()
    with pytest.raises(ConvergenceError):
        arrays._jensen_mean_log(spec, 1e-10)


@pytest.mark.parametrize("tail", [0.0, 1e-30, 1.5e-89])
def test_jensen_drops_negligible_trailing_taps(tail):
    """A trailing tap up to eps sum |b_k| is dropped before the eigensolve,
    so taps (1, 0, 1, tail) give the capacity of (1, 0, 1); as the leading
    coefficient it would put a root near 1 / tail into the companion
    matrix and spoil the two on the unit circle (bound inf at 1.5e-89)."""
    sol = nonfeedback_capacity(PsdSpec.ma((1.0, 0.0, 1.0, tail)), 1.0)
    assert sol.capacity_bits == pytest.approx(0.7834378815308305, abs=4 * EPS)


def test_jensen_keeps_a_trailing_tap_above_rounding():
    """A tap of 1e-14, above eps sum |b_k|, stays in B, and the bound on
    its roots (6.87e-10) honestly exceeds the default tolerance."""
    with pytest.raises(ConvergenceError, match="capacity error bound"):
        nonfeedback_capacity(PsdSpec.ma((1.0, 0.0, 1.0, 1e-14)), 1.0)


# ---- MA(1) in closed form: the dilogarithm, and the capacity as a property

def li2_points():
    """(w, 1 - w) pairs over the closed unit disk: uniform in area, on the
    unit circle, at r e^{i phi} with r -> 1 and tiny phi, where 1 - w is
    formed as (1 - r) + 2r sin^2(phi/2) - i r sin phi to keep its digits,
    and at 0, +-1/2, +-1, +-i."""
    rng = np.random.default_rng(1313)
    r = np.sqrt(rng.uniform(0.0, 1.0, 10000))
    w = r * np.exp(1j * rng.uniform(-PI, PI, 10000))
    w = np.concatenate((w, np.exp(1j * np.linspace(-PI, PI, 4001)),
                        [0.0, 0.5, -0.5, 1.0, -1.0, 1j, -1j]))
    pairs = [(complex(z), 1.0 - complex(z)) for z in w]
    phis = np.concatenate((np.logspace(-12, 0.49, 500),
                           -np.logspace(-12, 0.49, 100)))
    for r in (1.0, 1.0 - 1e-16, 1.0 - 1e-12, 1.0 - 1e-8, 1.0 - 1e-4, 0.99,
              0.9, 0.6, 0.5, 0.3):
        pairs += [(complex(r * math.cos(p), r * math.sin(p)),
                   complex((1.0 - r) + 2.0 * r * math.sin(0.5 * p) ** 2,
                           -r * math.sin(p))) for p in phis]
    return pairs


def test_li2_against_scipy_spence():
    """Li2(w) = spence(1 - w), scipy's dilogarithm, to 1e-14 over the
    closed unit disk, and the exact values Li2(1) = pi^2/6,
    Li2(-1) = -pi^2/12, Li2(1/2) = pi^2/12 - ln^2(2)/2 and
    Im Li2(i) = Catalan's constant to a few ulps."""
    pairs = li2_points()
    assert len(pairs) >= 20000
    got = np.array([waterfill._li2(w, v) for w, v in pairs])
    ref = spence(np.array([v for _, v in pairs]))
    assert np.max(np.abs(got - ref)) <= 1e-14
    li2 = waterfill._li2
    assert li2(1 + 0j, 0j) == pytest.approx(PI ** 2 / 6, rel=2 * EPS)
    assert li2(-1 + 0j, 2 + 0j) == pytest.approx(-PI ** 2 / 12, rel=2 * EPS)
    assert li2(0.5 + 0j, 0.5 + 0j) == pytest.approx(
        PI ** 2 / 12 - math.log(2.0) ** 2 / 2, rel=4 * EPS)
    assert li2(1j, 1 - 1j).imag == pytest.approx(0.915965594177219015,
                                                 rel=2 * EPS)


@settings(derandomize=True, database=None, deadline=None)
@given(taps=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       sigma2=st.floats(0.1, 10.0), log_power=st.floats(-3.0, 3.0))
def test_ma1_capacity_property(taps, sigma2, log_power):
    """The closed-form MA(1) capacity meets scipy's quad on the oracle's
    own level to 1e-10, the power check holds to 1e-10 max(1, P), and each
    crossing has |S(theta) - nu| <= 1e-12 max(nu, max S).  A zero tap
    leaves S = sigma2 b^2 flat, with C = 0.5 log2(1 + P / S).  Taps of any
    ratio are drawn, S flat in floating point among them; only taps below
    1e-100 in size are left out, where S underflows next to its zeros and
    the oracle's log integrand is no longer finite."""
    small, large = sorted(map(abs, taps))
    assume(large >= 1e-100)
    spec, power = PsdSpec.ma(taps, sigma2), 10.0 ** log_power
    sol = nonfeedback_capacity(spec, power)
    if small == 0.0:
        flat = sigma2 * large ** 2
        assert sol.capacity_bits == pytest.approx(
            0.5 * math.log2(1.0 + power / flat), abs=1e-10)
        assert sol.power_residual <= 1e-10 * max(1.0, power)
        return
    oracle = Oracle(spec)
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(oracle.level(power)), abs=1e-10)
    assert sol.power_residual <= 1e-10 * max(1.0, power)
    s, smax = direct_psd(spec), float(oracle.vals.max())
    for theta in sol.band_crossings:
        assert abs(s(theta) - sol.water_level) <= 1e-12 * max(
            sol.water_level, smax)


# ---- MA(q >= 2) partial bands: the dilogarithm on the roots of B ---------

def test_ma_crossings_of_degree_0_and_1():
    """A cosine series of degree 0 has no crossing, and one of degree 1 the
    one root x = (nu - c0) / c1, at theta = arccos x where |x| <= 1."""
    for nu in (0.7, 2.0, 3.1):
        assert len(arrays._ma_crossings(np.array([2.0]), nu)) == 0
        x = (nu - 2.0) / 1.5
        got = arrays._ma_crossings(np.array([2.0, 1.5]), nu)
        assert np.array_equal(got, np.arccos([x] if abs(x) <= 1.0 else []))


def im_li2_points():
    """(r, phi) over the closed unit disk, uniform in area with phi in
    (-2 pi, 2 pi), the range of arg(rho) + theta; on the unit circle; and
    at r -> 1 with tiny phi, where w -> 1, and phi = 0 itself."""
    rng = np.random.default_rng(1414)
    r = [np.sqrt(rng.uniform(0.0, 1.0, 10000)), np.ones(4001)]
    phi = [rng.uniform(-2 * PI, 2 * PI, 10000), np.linspace(-PI, PI, 4001)]
    tiny = np.concatenate((np.logspace(-12, 0.49, 500),
                           -np.logspace(-12, 0.49, 100), [0.0]))
    for radius in (1.0, 1.0 - 1e-16, 1.0 - 1e-12, 1.0 - 1e-8, 1.0 - 1e-4,
                   0.99, 0.9, 0.6, 0.5, 0.3, 0.0):
        r.append(np.full(len(tiny), radius))
        phi.append(tiny)
    return np.concatenate(r), np.concatenate(phi)


def test_im_li2_against_spence_and_scalar_li2():
    """The vectorised Im Li2(r e^{i phi}) meets scipy's spence,
    Li2(w) = spence(1 - w) with 1 - w in its half-angle form, to 1e-14,
    and waterfill's scalar _li2 to 1e-15, over the closed disk, the unit
    circle and w -> 1, with Im Li2(1) = 0 and no log of 0 taken."""
    r, phi = im_li2_points()
    got = arrays._im_li2(r, phi)
    v = ((1.0 - r) + 2.0 * r * np.sin(0.5 * phi) ** 2
         - 1j * (r * np.sin(phi)))
    assert np.max(np.abs(got - spence(v).imag)) <= 1e-14
    w = r * np.cos(phi) + 1j * (r * np.sin(phi))
    scalar = np.array([waterfill._li2(complex(a), complex(b)).imag
                       for a, b in zip(w, v)])
    assert np.max(np.abs(got - scalar)) <= 1e-15
    assert arrays._im_li2(np.array([1.0]), np.array([0.0]))[0] == 0.0


@st.composite
def partial_ma_bands(draw):
    """An MA(2..16) spectrum from roots of B of modulus 0.2 to 0.9, real
    or in conjugate pairs, the first of them (or its pair) reflected
    outside the unit circle when drawn so, and the fraction of
    max S - mean S to spend as power, which leaves the band partial."""
    q = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = []
    while len(roots) < q:
        r = rng.uniform(0.2, 0.9)
        if len(roots) <= q - 2 and rng.uniform() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.1, PI - 0.1))
            roots += [z, np.conj(z)]
        else:
            roots.append(r * rng.choice((-1.0, 1.0)))
    if draw(st.booleans()):
        roots[0] = 1.0 / np.conj(roots[0])
        if np.iscomplex(roots[0]):
            roots[1] = np.conj(roots[0])
    # np.poly lists z^q first; tap b_k multiplies z^k
    taps = np.real(np.poly(roots))[::-1]
    return (PsdSpec.ma(taps, draw(st.floats(0.1, 10.0))),
            draw(st.floats(0.01, 0.9)))


@settings(derandomize=True, database=None, deadline=None)
@given(case=partial_ma_bands())
def test_partial_ma_capacity_property(case):
    """On a partial MA(q >= 2) band the dilogarithm's capacity meets
    scipy's quad of ln(nu / S) over the filled set to 1e-10, and the power
    check holds to 1e-10 max(1, P)."""
    spec, share = case
    oracle = Oracle(spec)
    mean = spec.sigma2 * float(np.sum(np.square(spec.coeffs)))
    power = share * (float(oracle.vals.max()) - mean)
    sol = nonfeedback_capacity(spec, power)
    assert sol.band_crossings
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(sol.water_level), abs=1e-10)
    assert sol.power_residual <= 1e-10 * max(1.0, power)


def test_perturbed_roots_raise(monkeypatch):
    """The dilogarithm integrates ln S of the computed roots, so roots off
    by 1e-6 must not pass: their sampled backward error bounds the
    capacity's error far above the tolerance, and the solve raises instead
    of returning a number.  Jensen's bound alone passes them, since the
    moved root lies far from the unit circle.  The spectrum is minimum
    phase, so the cepstrum would serve it with no roots at all; its
    certificate is made to decline, which leaves the dilogarithm."""
    spec = PsdSpec.ma(min_phase_taps(np.random.default_rng(8), 8))
    oracle = Oracle(spec)
    mean = spec.sigma2 * float(np.sum(np.square(spec.coeffs)))
    power = 0.2 * (float(oracle.vals.max()) - mean)
    sol = nonfeedback_capacity(spec, power)
    assert sol.band_crossings
    b, z = arrays._ma_roots(spec)
    moved = z.copy()
    far = int(np.argmax(np.abs(np.abs(z) - 1.0)))
    moved[far] += 1e-6
    monkeypatch.setattr(arrays, "_log_series", lambda *args: None)
    assert nonfeedback_capacity(spec, power).capacity_bits == pytest.approx(
        sol.capacity_bits, abs=1e-13)
    monkeypatch.setattr(arrays, "_ma_roots", lambda psd: (b, moved))
    arrays._jensen_mean_log(spec, 1e-10)
    with pytest.raises(ConvergenceError, match="backward error"):
        nonfeedback_capacity(spec, power)


# ---- MA(q >= 2) from the FFT samples of B: the winding certificate and the
# tracked level ------------------------------------------------------------

def test_fft_samples_rounding_and_winding():
    """The FFT samples of B meet a long-double Horner evaluation within
    their stated rounding, and every certified winding number is minus the
    number of zeros of B inside the unit disk (from np.roots), so winding 0
    certifies minimum phase."""
    pi = 4 * np.arctan(np.longdouble(1))
    certified = 0
    for spec in random_ma_spectra(65, 300):
        taps = np.asarray(spec.coeffs)
        values, rounding, winding = arrays._ma_samples(spec)
        angle = (-2 * pi / (2 * (len(values) - 1))) * np.arange(
            len(values), dtype=np.longdouble)
        cos, sin = np.cos(angle), np.sin(angle)
        re, im = np.zeros_like(cos), np.zeros_like(cos)
        for bk in taps[::-1].astype(np.longdouble):
            re, im = re * cos - im * sin + bk, re * sin + im * cos
        error = np.hypot((values.real - re).astype(float),
                         (values.imag - im).astype(float))
        assert np.max(error) <= rounding
        if abs(taps[0]) <= abs(taps[-1]):
            # a zero of B in the closed disk rules winding 0 out, so the
            # samples skip the certificate; it still holds when run
            assert winding is None
            winding = (arrays._winding(values, len(taps) - 1, rounding)
                       or (None,))[0]
        if winding is not None:
            inside = np.count_nonzero(np.abs(np.roots(taps[::-1])) < 1.0)
            assert winding == -inside
            certified += 1
    assert certified >= 100


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_zero_next_to_the_circle_fails_the_certificate(monkeypatch, offset):
    """A zero of B at modulus 1 +- 1e-9 lies between the FFT samples'
    reach: the winding certificate fails at both sizes, and the capacity
    keeps Jensen's formula on the roots, here the closed form of a full
    band with Jensen's mean ln S from np.roots."""
    z = (1.0 + offset) * np.exp(1j * 1.0)
    spec = PsdSpec.ma(np.real(np.poly([z, np.conj(z), 2.0, -1.5])))
    arrays._ma_samples.cache_clear()
    assert arrays._ma_samples(spec)[2] is None
    jensen = counted_calls(monkeypatch, arrays, "_jensen_mean_log")
    sol = nonfeedback_capacity(spec, 1e3)
    assert len(jensen) == 1
    assert sol.band_crossings == ()
    mean_log, _, scale = jensen_polyval(spec)
    assert sol.capacity_bits == pytest.approx(
        0.5 * (math.log(sol.water_level) - mean_log) / math.log(2.0),
        abs=4 * EPS * max(scale, 1.0))


@pytest.mark.parametrize("taps", [(1.0, 2.0, 1.0), (1.0, 3.0, 3.0, 1.0)],
                         ids=["(1+z)^2", "(1+z)^3"])
@pytest.mark.parametrize("power", [1.0, 1e3], ids=["partial", "full"])
def test_multiple_unit_circle_zeros_still_raise(taps, power):
    """A multiple zero on the unit circle fails the winding certificate,
    and Jensen's bound on its roots exceeds the tolerance, on a partial
    band and on a full one."""
    arrays._ma_roots.cache_clear()
    arrays._ma_samples.cache_clear()
    with pytest.raises(ConvergenceError):
        nonfeedback_capacity(PsdSpec.ma(taps), power)


def test_missed_band_falls_back_and_meets_the_oracle(monkeypatch):
    """Zeros of B at modulus 1.02 on a sample angle and 1.005 midway
    between two samples, at small P: at the root only the narrow dip at the
    second is filled, and every FFT sample of S lies above the level, so
    the tracked crossings miss that band and converge above the root.  The
    colleague matrix's check finds its two crossings, and the solve falls
    back to an eigensolve at each level from there, which meets the
    oracle."""
    step = 2 * PI / 256
    z1, z2 = 1.02 * np.exp(42j * step), 1.005 * np.exp(85.5j * step)
    taps = np.real(np.poly([z1, np.conj(z1), z2, np.conj(z2)]))[::-1]
    spec = PsdSpec.ma(taps / taps[0])
    assert len(arrays._ma_samples(spec)[0]) == 129
    levels, newton = [], arrays._newton

    def recorded(*args):
        result = newton(*args)
        levels.append(result[0])
        return result

    monkeypatch.setattr(arrays, "_newton", recorded)
    oracle = Oracle(spec)
    bound = float(np.abs(taps / taps[0]).sum()) ** 2
    for power in (1e-7, 1e-6):
        levels.clear()
        sol = nonfeedback_capacity(spec, power)
        nu = sol.water_level
        samples = spec.sigma2 * np.abs(arrays._ma_samples(spec)[0]) ** 2
        assert samples.min() > nu
        assert len(levels) == 2 and levels[0] > levels[1] == nu
        assert len(sol.band_crossings) == 2
        assert all(abs(theta - 85.5 * step) < 0.5 * step
                   for theta in sol.band_crossings)
        # the stop test holds nu to a few ulps of nu + bound, not of nu,
        # which here is 2e4 times smaller
        assert nu == pytest.approx(oracle.level(power),
                                   abs=8 * EPS * (nu + bound))
        assert sol.capacity_bits == pytest.approx(oracle.capacity(nu),
                                                  abs=1e-10)
        assert sol.power_residual <= 1e-10


@st.composite
def ma_bands(draw):
    """An MA(2..16) spectrum whose B has every zero outside the unit disk
    (minimum phase) or every one inside, from roots of modulus 0.2 to 0.9,
    real or in conjugate pairs, taken as B's zeros or reflected as 1 / z;
    and a power that leaves the band partial (a share of max S - mean S)
    or fills it (past sigma2 (sum |b_k|)^2 - mean S)."""
    q = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = []
    while len(roots) < q:
        r = rng.uniform(0.2, 0.9)
        if len(roots) <= q - 2 and rng.uniform() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.1, PI - 0.1))
            roots += [z, np.conj(z)]
        else:
            roots.append(r * rng.choice((-1.0, 1.0)))
    minimum = draw(st.booleans())
    # np.poly lists z^q first; read as b_0 first, its zeros are 1 / z
    taps = np.real(np.poly(roots))
    spec = PsdSpec.ma(taps if minimum else taps[::-1],
                      draw(st.floats(0.1, 10.0)))
    return spec, minimum, draw(st.booleans()), draw(st.floats(0.01, 0.9))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=ma_bands())
def test_minimum_phase_capacity_property(case):
    """Where the FFT samples certify a winding number, it is 0 exactly when
    B has no zero in the disk; close zeros can leave it uncertified, and
    Jensen's formula then serves.  The capacity meets scipy's quad on the
    oracle's level to 1e-10 on full and partial bands, and the roots/Jensen
    path (the certificate turned off) on the same level to a few ulps of
    the terms of Jensen's sum."""
    spec, minimum, full, share = case
    oracle = Oracle(spec)
    b = np.asarray(spec.coeffs)
    mean = spec.sigma2 * float(b @ b)
    if full:
        bound = spec.sigma2 * float(np.abs(b).sum()) ** 2
        power = (bound - mean) * (1.0 + share)
    else:
        power = share * (float(oracle.vals.max()) - mean)
    winding = arrays._ma_samples(spec)[2]
    assert winding is None or (winding == 0) == minimum
    sol = nonfeedback_capacity(spec, power)
    assert bool(sol.band_crossings) != full
    nu = sol.water_level
    assert nu == pytest.approx(oracle.level(power), rel=1e-12, abs=0)
    assert sol.capacity_bits == pytest.approx(oracle.capacity(nu), abs=1e-10)
    assert sol.power_residual <= 1e-10 * max(1.0, power)
    samples = arrays._ma_samples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrays, "_ma_samples",
                      lambda psd: (*samples(psd)[:2], None))
        roots = nonfeedback_capacity(spec, power)
    assert roots.water_level == nu
    assert roots.capacity_bits == pytest.approx(
        sol.capacity_bits, abs=4 * EPS * max(jensen_polyval(spec)[2], 1.0))


# ---- MA(q >= 2) partial bands without an eigensolve: the level checked on
# its samples, and int_U ln S from their cepstrum --------------------------

def minimum_phase_partial_bands(seed, count, lo, hi):
    """MA(2..20) spectra whose zeros of B lie at lo < |z| < hi, real or in
    conjugate pairs, each with a power that leaves the band partial: a
    share of max S - mean S, max S from 4096 FFT samples."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = int(rng.integers(2, 21))
        zeros = []
        while len(zeros) < q:
            r = rng.uniform(lo, hi)
            if len(zeros) <= q - 2 and rng.uniform() < 0.5:
                z = r * np.exp(1j * rng.uniform(0.0, PI))
                zeros += [z, np.conj(z)]
            else:
                zeros.append(r * rng.choice((-1.0, 1.0)))
        # np.poly lists x^q first; read as b_0 first, the zeros of 1 / z
        # are z
        taps = np.real(np.poly(1.0 / np.array(zeros)))
        spec = PsdSpec.ma(taps, float(10 ** rng.uniform(-1, 1)))
        s = spec.sigma2 * np.abs(np.fft.rfft(taps, 4096)) ** 2
        mean = spec.sigma2 * float(taps @ taps)
        yield spec, float(rng.uniform(0.01, 0.9) * (s.max() - mean))


def recorded_log_series(monkeypatch):
    """Patch the cepstrum to record, per call, whether it certified."""
    series, served = arrays._log_series, []

    def recorded(*args):
        weights = series(*args)
        served.append(weights is not None)
        return weights

    monkeypatch.setattr(arrays, "_log_series", recorded)
    return served


def test_cepstrum_meets_the_roots_path(monkeypatch):
    """On minimum-phase partial bands, zeros of B at 1.05 < |z| < 4, the
    cepstrum's int_U ln S gives the capacity of the roots path (the
    dilogarithm on the companion matrix's roots, where the cepstrum's
    certificate is made to decline) to 1e-13, on the same level; the
    certificate serves at least 200 of the 260 bands."""
    served = recorded_log_series(monkeypatch)
    compared = 0
    for spec, power in minimum_phase_partial_bands(2201, 260, 1.05, 4.0):
        count = len(served)
        sol = nonfeedback_capacity(spec, power)
        assert sol.band_crossings
        if served[count:] != [True]:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(arrays, "_log_series", lambda *args: None)
            roots = nonfeedback_capacity(spec, power)
        assert roots.water_level == sol.water_level
        assert roots.capacity_bits == pytest.approx(sol.capacity_bits,
                                                    abs=1e-13)
        compared += 1
    assert compared >= 200


def mpmath_capacity(spec, nu, crossings):
    """C from mpmath's quad of ln(nu / S) at 30 digits over the filled
    pieces between the given crossings, S from its taps by Horner in z."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        taps = [mpmath.mpf(b) for b in spec.coeffs]
        level, sigma2 = mpmath.mpf(nu), mpmath.mpf(spec.sigma2)

        def s(t):
            z, acc = mpmath.expj(t), mpmath.mpc(0)
            for b in reversed(taps):
                acc = acc * z + b
            return sigma2 * abs(acc) ** 2

        edges = [mpmath.mpf(0), *map(mpmath.mpf, crossings), mpmath.pi]
        total = sum(mpmath.quad(lambda t: mpmath.log(level / s(t)), [a, b])
                    for a, b in zip(edges, edges[1:])
                    if s((a + b) / 2) < level)
        return float(total / (2 * mpmath.pi * mpmath.log(2)))


def test_cepstrum_against_mpmath(monkeypatch):
    """Five minimum-phase partial bands served by the cepstrum meet
    mpmath's 30-digit quad of ln S over their filled pieces to 2e-14."""
    served = recorded_log_series(monkeypatch)
    for spec, power in itertools.islice(
            minimum_phase_partial_bands(2202, 5, 1.1, 3.0), 5):
        sol = nonfeedback_capacity(spec, power)
        assert served[-1]
        assert sol.capacity_bits == pytest.approx(
            mpmath_capacity(spec, sol.water_level, sol.band_crossings),
            abs=2e-14)
    assert len(served) == 5


@pytest.mark.parametrize("modulus", [1.01, 1.002])
@pytest.mark.parametrize("share", [0.05, 0.4])
def test_zeros_near_the_circle_decline_the_cepstrum(monkeypatch, modulus,
                                                    share):
    """A conjugate pair of zeros of B at modulus 1.01 or 1.002, inside
    every rung of the ladder: the cepstrum's certificate declines, and the
    capacity either meets scipy's quad or raises, never a wrong number."""
    z = modulus * np.exp(1.3j)
    zeros = [z, np.conj(z), 1.7, -2.5]
    taps = np.real(np.poly(1.0 / np.array(zeros)))
    spec = PsdSpec.ma(taps)
    oracle = Oracle(spec)
    power = share * (float(oracle.vals.max()) - float(taps @ taps))
    served = recorded_log_series(monkeypatch)
    try:
        sol = nonfeedback_capacity(spec, power)
    except ConvergenceError:
        assert not any(served)
        return
    assert not any(served)
    assert sol.band_crossings
    assert sol.water_level == pytest.approx(oracle.level(power), rel=1e-12)
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(sol.water_level), abs=1e-10)


def test_sampled_check_never_passes_a_missed_crossing():
    """On random MA(2..40) spectra, at random levels and just above each
    local minimum of S, where a band narrower than the sample spacing
    hides between two samples: wherever the samples certify the tracked
    crossings, the colleague matrix's roots match them one to one, within
    its check window, and the samples certify most random levels."""
    rng = np.random.default_rng(2203)
    theta = np.linspace(0.0, PI, 20001)
    certified_random = tried_random = hidden = 0
    for _ in range(100):
        taps = rng.standard_normal(int(rng.integers(3, 41)))
        spec = PsdSpec.ma(taps)
        c = arrays._cosine_series(spec)
        values, rounding, _ = arrays._ma_samples(spec)
        s = np.abs(values) ** 2
        total = float(np.abs(taps).sum())
        error = (rounding * (2.0 * total + rounding)
                 + (2 * len(c) + 5) * EPS * total ** 2)
        dense = psd_eval(spec, theta)
        minima = np.flatnonzero((dense[1:-1] < dense[:-2])
                                & (dense[1:-1] < dense[2:])) + 1
        span = float(dense.max() - dense.min())
        levels = [(float(nu), True)
                  for nu in rng.uniform(dense.min(), dense.max(), 4)]
        levels += [(float(dense[j]) + share * span, False)
                   for j in minima for share in (1e-8, 1e-6, 1e-4)]
        for nu, drawn in levels:
            terms, certified = arrays._tracked_terms(c, s, error)
            try:
                edges = terms(nu)[2]
            except ConvergenceError:
                continue
            check = np.sort(arrays._ma_crossings(c, nu))
            agree = (len(check) == len(edges) - 2
                     and np.all(np.abs(np.cos(check) - np.cos(edges[1:-1]))
                                <= arrays._CHECK_WINDOW))
            hidden += not agree
            if certified(nu):
                assert agree
                certified_random += drawn
            tried_random += drawn
    assert hidden >= 500
    assert certified_random >= 0.5 * tried_random


def two_dips(offset):
    """(spec, oracle, power) for S with a deeper dip (zeros of B at
    1.25 e^{+-0.8i}) and a shallower one (zeros at 1.6 e^{+-2.2i}), at the
    power, from scipy's brentq and quad, whose level is 1 + offset times
    the shallower dip's minimum."""
    zeros = [1.25 * np.exp(0.8j), 1.25 * np.exp(-0.8j),
             1.6 * np.exp(2.2j), 1.6 * np.exp(-2.2j)]
    taps = np.real(np.poly(1.0 / np.array(zeros)))
    spec = PsdSpec.ma(taps)
    oracle = Oracle(spec)
    dip = minimize_scalar(oracle.s, bounds=(1.8, 2.6), method="bounded",
                          options={"xatol": 1e-12})
    nu = dip.fun * (1.0 + offset)
    power = sum(quad(lambda t: nu - oracle.s(t), a, b, epsabs=0.0,
                     epsrel=1e-13)[0] for a, b in oracle.bands(nu)) / PI
    arrays._ma_samples.cache_clear()
    return spec, oracle, power


def test_near_tangent_level_falls_back_to_the_colleague_check(monkeypatch):
    """The shallower of two dips of S sits 1e-10 of its depth above the
    level, which fills only the deeper one: the samples by that dip lie
    within the chord's reach of the level, so the sampled check declines,
    and one colleague eigensolve checks the crossings instead.  The level
    and the capacity meet scipy's brentq and quad."""
    spec, oracle, power = two_dips(-1e-10)
    eigvals = counted_calls(monkeypatch, np.linalg, "eigvals")
    sol = nonfeedback_capacity(spec, power)
    assert len(eigvals) == 1
    assert len(sol.band_crossings) == 2
    assert all(theta < 1.8 for theta in sol.band_crossings)
    assert sol.water_level == pytest.approx(oracle.level(power), rel=1e-12)
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(sol.water_level), abs=1e-10)


def gaussian_partial_bands(seed, count):
    """MA(2..20) spectra with Gaussian taps, each with a power that leaves
    the band partial: a share of max S - mean S, max S from 4096 FFT
    samples."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        taps = rng.standard_normal(int(rng.integers(3, 22)))
        spec = PsdSpec.ma(taps, float(10 ** rng.uniform(-1, 1)))
        s = spec.sigma2 * np.abs(np.fft.rfft(taps, 4096)) ** 2
        mean = spec.sigma2 * float(taps @ taps)
        yield spec, float(rng.uniform(0.01, 0.9) * (s.max() - mean))


def test_colleague_newton_meets_the_certified_tracked_solve(monkeypatch):
    """The fallback, Newton on the colleague terms from the sampled start,
    on random MA(2..20) partial bands with Gaussian taps and with zeros of
    B at 1.01 < |z| < 1.5, wherever the samples certify the tracked solve:
    the two levels agree within the stop test, 8 eps (nu + bound), the
    crossings to 1e-12, and the fallback's capacity meets scipy's quad."""
    built = counted_calls(monkeypatch, arrays, "_colleague_terms")
    count = 0
    for spec, power in itertools.chain(
            gaussian_partial_bands(2401, 110),
            minimum_phase_partial_bands(2402, 110, 1.01, 1.5)):
        built.clear()
        try:
            sol = nonfeedback_capacity(spec, power)
        except ConvergenceError:
            continue
        if built:
            continue
        mean, bound = arrays._ma_mean_and_bound(spec)
        nu0 = mean + power
        s = spec.sigma2 * np.abs(arrays._ma_samples(spec)[0]) ** 2
        start = min(arrays._sampled_level(np.concatenate((s, s[1:-1])),
                                          power), nu0)
        terms = arrays._colleague_terms(arrays._cosine_series(spec))
        nu, _, _, edges, filled = arrays._newton(terms, start, nu0, power,
                                                 bound)
        assert nu == pytest.approx(sol.water_level, rel=0,
                                   abs=8 * EPS * (nu + bound))
        assert edges[1:-1] == pytest.approx(sol.band_crossings, rel=0,
                                            abs=1e-12)
        capacity = arrays._ma_capacity(spec, nu, edges, filled, 1e-10)[0]
        with warnings.catch_warnings():
            # where roundoff keeps quad from its tolerance even with graded
            # break points, the oracle's value stands, its warning ignored
            warnings.simplefilter("ignore", IntegrationWarning)
            expected = Oracle(spec).capacity(nu)
        assert capacity == pytest.approx(expected, abs=1e-10)
        count += 1
    assert count >= 200


def test_colleague_check_catches_a_band_between_samples(monkeypatch):
    """The level lies 1e-6 of the shallower dip's minimum above it, between
    two samples that both lie above the level: the tracked crossings miss
    that narrow band, and Newton on them passes the stop test a little
    above the root.  The colleague check finds the band's two crossings,
    and the fallback Newton from there returns all four, meeting scipy's
    brentq and quad.  quad warns that roundoff keeps the narrow band's
    area, about 3e-10, from its relative tolerance of 1e-13; what roundoff
    leaves moves the oracle's level far less than 1e-12."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        spec, oracle, power = two_dips(1e-6)
        level = oracle.level(power)
    built = counted_calls(monkeypatch, arrays, "_colleague_terms")
    sol = nonfeedback_capacity(spec, power)
    # one for the check at the tracked level, one for the fallback Newton
    assert len(built) == 2
    assert len(sol.band_crossings) == 4
    assert sol.water_level == pytest.approx(level, rel=1e-12)
    assert sol.capacity_bits == pytest.approx(
        oracle.capacity(sol.water_level), abs=1e-10)


def test_minimum_phase_partial_band_takes_no_eigensolve(monkeypatch):
    """The MA(3) partial band of the table below, minimum phase: the
    samples certify its level and the cepstrum its capacity, so the solve
    makes no np.linalg.eigvals call at all."""
    spec = PsdSpec.ma((1.0, 0.4, -0.3, 0.2))
    arrays._ma_samples.cache_clear()
    arrays._ma_roots.cache_clear()
    arrays._cosine_series.cache_clear()
    eigvals = counted_calls(monkeypatch, np.linalg, "eigvals")
    sol = nonfeedback_capacity(spec, 0.3)
    assert len(sol.band_crossings) == 3
    assert eigvals == []


ROWS = {
    "white": PsdSpec.white(0.7),
    "ma1": PAPER_CHANNEL,
    "ma3": PsdSpec.ma((1.0, 0.4, -0.3, 0.2)),
    "samples": PsdSpec.from_samples((1.0, 2.0, 0.5, 3.0, 1.5)),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10],
                         ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("row", ROWS)
def test_tol_is_checked_before_any_solve(monkeypatch, row, tol):
    """A tolerance that is not positive and finite is rejected before the
    level is solved, on every row of the table of forms."""
    def no_solve(*args):
        raise AssertionError("the level was solved")

    monkeypatch.setattr(waterfill, "_solve_level", no_solve)
    with pytest.raises(ValueError, match="tolerance"):
        nonfeedback_capacity(ROWS[row], 0.3, tol)


@pytest.mark.parametrize("power, capacity, filled_power, held", [
    (1e6, 1e6, 1e6, 1e-10),
    (1.0, 0.5, 1e6, 1e-10),
    (2.0, 0.5, 1e7, 2e-10),
], ids=["capacity_floor", "power_floor", "power_floor_scaled_by_p"])
def test_each_roundoff_floor_raises_on_its_own(monkeypatch, power, capacity,
                                               filled_power, held):
    """tol = 1e-10 on a white row whose capacity returns (C, F): the
    capacity's floor, 4 eps max(|C|, 1), raises at C = 1e6 with F = P,
    and the filled power's, 4 eps max(|F|, 1) against tol max(1, P), at
    F = 1e6 or 1e7 with C = 1/2, each while the other floor holds."""
    row = waterfill._form(PsdSpec.white(1.0))

    def with_capacity(result):
        fixed = waterfill._Form(row.vanishes, row.mean_and_bound,
                                row.partial_level, lambda *args: result)
        monkeypatch.setattr(waterfill, "_form", lambda psd: fixed)

    with_capacity((capacity, filled_power))
    with pytest.raises(ConvergenceError, match=f"tolerance {held:g} .*floor"):
        nonfeedback_capacity(PsdSpec.white(1.0), power, 1e-10)
    with_capacity((0.5, power))
    assert nonfeedback_capacity(PsdSpec.white(1.0), power,
                                1e-10).capacity_bits == 0.5


def test_conjecture_check_rejects_a_bad_tol():
    with pytest.raises(ValueError, match="tolerance"):
        conjecture_check(1.0, tol=math.nan)


# (water_level, capacity_bits, power_residual, band_crossings) at full
# precision, recorded before the table of forms replaced the branches on
# the form: one case per row and band type
TABLE_OUTPUTS = [
    (PsdSpec.white(0.7), 1.3, (2.0, 0.7572865864148791, 0.0, ())),
    (PsdSpec.ma((1.0, 0.6), 1.5), 5.0, (7.04, 1.1153064640707082, 0.0, ())),
    (PsdSpec.ma((1.0, -0.6), 1.5), 0.4,
     (1.6697567604792645, 0.30929913108793444, 5.551115123125783e-17,
      (1.363626891533352,))),
    (PsdSpec.ma((1.0, 0.4, -0.3, 0.2)), 30.0,
     (31.29, 2.4838148767330988, 0.0, ())),
    (PsdSpec.ma((1.0, 0.4, -0.3, 0.2)), 0.3,
     (1.5159487375509992, 0.33293460417199794, 1.6653345369377348e-16,
      (0.4266702090470296, 1.3249211792264672, 2.2189982968911375))),
    (PsdSpec.ma((0.2, -0.3, 0.4, 1.0)), 0.3,
     (1.515948737550999, 0.3329346041719979, 1.6653345369377348e-16,
      (0.4266702090470296, 1.3249211792264672, 2.2189982968911375))),
    (PsdSpec.from_samples((1.0, 2.0, 0.5, 3.0, 1.5)), 10.0,
     (11.6875, 1.4505967293566484, 0.0, ())),
    (PsdSpec.from_samples((1.0, 2.0, 0.5, 3.0, 1.5)), 0.4,
     (1.9355656451175713, 0.20197496817055527, 1.6653345369377348e-16,
      (0.7347915394130894, 0.8191359127203542, 2.0217925752396217,
       2.9135310151135494))),
]


@pytest.mark.parametrize("spec, power, expected", TABLE_OUTPUTS, ids=[
    "white", "ma1_full", "ma1_partial", "ma3_minphase_full",
    "ma3_minphase_partial", "ma3_nonmin_partial", "samples_full",
    "samples_partial"])
def test_table_outputs_are_bit_for_bit(spec, power, expected):
    """Every row's outputs, full and partial bands, to the last bit."""
    sol = nonfeedback_capacity(spec, power)
    assert (sol.water_level, sol.capacity_bits, sol.power_residual,
            sol.band_crossings) == expected
