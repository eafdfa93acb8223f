import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

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
    brentq; each filled band is then integrated by quad, with break points
    graded toward the local minima and the ends 0 and pi."""

    def __init__(self, spec):
        s = self.s = direct_psd(spec)
        grid = np.linspace(0.0, PI, 32 * (len(spec.coeffs or ()) + 1) + 1)
        vals = np.array([s(t) for t in grid])
        turns, minima = [], []
        for i in range(1, len(grid) - 1):
            for sign in (1.0, -1.0):
                if sign * vals[i] <= min(sign * vals[i - 1],
                                         sign * vals[i + 1]):
                    turns.append(minimize_scalar(
                        lambda t: sign * s(t),
                        bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                        options={"xatol": 1e-14}).x)
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
            total += quad(lambda t: math.log(nu / s(t)), a, b,
                          points=graded(a, b, self.minima), epsabs=1e-15,
                          epsrel=1e-13, limit=1000)[0]
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
    """Patch waterfill's psd_eval to record the size of each call."""
    sizes = []

    def counted(spec, theta):
        sizes.append(np.size(theta))
        return psd_eval(spec, theta)

    monkeypatch.setattr(waterfill, "psd_eval", counted)
    return sizes


def counted_chebroots(monkeypatch):
    """Patch waterfill's chebroots, one eigensolve per level evaluation of
    a partial MA band, to record each call's series."""
    chebroots, roots = waterfill.chebyshev.chebroots, []

    def counted(p):
        roots.append(p)
        return chebroots(p)

    monkeypatch.setattr(waterfill.chebyshev, "chebroots", counted)
    return roots


def test_paper_channel_work_budget(monkeypatch):
    """One capacity solve on the paper channel, which crosses the level at
    P = 1, evaluates the spectrum in one call over at most 4,000 points:
    the first two quadrature levels share it, and they agree."""
    sizes = counted_psd_eval(monkeypatch)
    sol = nonfeedback_capacity(PAPER_CHANNEL, 1.0)
    assert len(sol.band_crossings) == 1
    assert len(sizes) == 1
    assert sum(sizes) <= 4000


@pytest.mark.parametrize("spec, power", [
    (PAPER_CHANNEL, 7.0),
    (PsdSpec.ma(min_phase_taps(np.random.default_rng(8), 8)), 1e3),
    (PsdSpec.from_samples([1, 2, 3, 2, 1]), 1e6),
    (PsdSpec.white(1.0), 3.0),
    (PsdSpec.white(0.3), 0.3e-20),
    (PsdSpec.white(2.0), 1e-17),
], ids=["paper_p7", "ma8_p1e3", "samples_p1e6", "white_p3", "white_p1e-20n",
        "white_below_half_ulp"])
def test_full_band_work_budget(monkeypatch, spec, power):
    """At nu0 = mean S + P >= sigma2 (sum |b_k|)^2 >= max S the whole band
    fills and nu0 is the level exactly, so no crossing is searched for
    (no chebroots call).  A full band never reaches the quadrature: one
    psd_eval at m midpoints, m = len(b) for MA and the number of cells for
    samples, serves the power check.  White noise fills at every power,
    with no psd_eval at all, also where P is below half an ulp of N and
    nu0 rounds to N."""
    if spec.form == "white":
        mean = bound = spec.level
        points = None
    elif spec.form == "ma":
        b = np.asarray(spec.coeffs)
        mean = spec.sigma2 * float(b @ b)
        bound = spec.sigma2 * float(np.abs(b).sum()) ** 2
        points = len(b)
    else:
        v = np.asarray(spec.values, dtype=float)
        mean, bound = float(np.mean(0.5 * (v[:-1] + v[1:]))), float(v.max())
        points = len(v) - 1
    assert mean + power >= bound

    def no_quadrature(*args):
        raise AssertionError("a full band reached the quadrature")

    monkeypatch.setattr(waterfill, "_band_integrals", no_quadrature)
    roots = counted_chebroots(monkeypatch)
    sizes = counted_psd_eval(monkeypatch)
    sol = nonfeedback_capacity(spec, power)
    assert roots == []
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
    """The full-band level is nu0 = mean S + P from _mean_and_bound, and
    the power check evaluates S on its own: a mean off by delta puts the
    level off by delta, and the power residual reads delta."""
    delta, mean_and_bound = 1e-6, waterfill._mean_and_bound

    def shifted(psd):
        mean, bound = mean_and_bound(psd)
        return mean + delta, bound

    monkeypatch.setattr(waterfill, "_mean_and_bound", shifted)
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
    """The Newton solve of a partial band starts from the sampled discrete
    water level, close to the root, and polishes only the returned
    crossings: at most 4 level evaluations, each one eigensolve."""
    roots = counted_chebroots(monkeypatch)
    sol = nonfeedback_capacity(PAPER_CHANNEL, power)
    assert len(sol.band_crossings) == 1
    assert 1 <= len(roots) <= 4


def test_conjecture_check_level_budget(monkeypatch):
    """The 81 capacity solves of the counterexample, most of them partial
    bands, take at most 270 level evaluations between them."""
    roots = counted_chebroots(monkeypatch)
    conjecture_check(1.0)
    assert len(roots) <= 270


def test_sampled_start_on_both_sides_of_the_root(monkeypatch):
    """The sampled start lies above the root on some partial bands and
    below it on others, where one Newton step from below must land at or
    above the root; either way the level meets the oracle."""
    sampled_level, starts = waterfill._sampled_level, []

    def recorded(s, power):
        starts.append(sampled_level(s, power))
        return starts[-1]

    monkeypatch.setattr(waterfill, "_sampled_level", recorded)
    rng = np.random.default_rng(1010)
    sides = set()
    for q in range(1, 17):
        spec = PsdSpec.ma(min_phase_taps(rng, q),
                          float(10 ** rng.uniform(-1, 1)))
        s, oracle = direct_psd(spec), Oracle(spec)
        mean = waterfill._mean_and_bound(spec)[0]
        smax = max(s(t) for t in np.linspace(0.0, PI, 1025))
        for u in (0.02, 0.2, 0.7):
            # below smax - mean S the band does not fill
            power = float(u * (smax - mean))
            starts.clear()
            sol = nonfeedback_capacity(spec, power)
            nu = sol.water_level
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


def paper_level_reference(power):
    """The paper channel's level at a power that fills a band of
    half-width u about pi: F = (2 / pi)(sin u - u cos u), by brentq in u,
    where sin u - u cos u = sum_n (-1)^(n+1) 2n u^(2n+1) / (2n+1)! is
    summed as a series below u = 1 to keep its digits; nu = 4 sin^2(u/2)."""
    def filled(u):
        if u >= 1.0:
            return 2.0 / PI * (math.sin(u) - u * math.cos(u))
        return 2.0 / PI * sum((-1) ** (n + 1) * 2 * n * u ** (2 * n + 1)
                              / math.factorial(2 * n + 1)
                              for n in range(1, 12))

    u = brentq(lambda u: filled(u) - power, 0.0, PI, xtol=1e-300,
               rtol=4 * EPS, maxiter=200)
    return 4.0 * math.sin(0.5 * u) ** 2


@pytest.mark.parametrize("power", [1e-12, 1e-8, 1e-4])
def test_paper_channel_level_at_tiny_power(power):
    """A narrow band about the zero at pi: the level is determined only to
    a few ulps of nu + max S, so it is held to 4 eps (nu + 4)."""
    nu = water_level(PAPER_CHANNEL, power)
    assert abs(nu - paper_level_reference(power)) <= 4 * EPS * (nu + 4.0)


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
    rng = np.random.default_rng(11)
    th = np.linspace(-PI, PI, 2001)
    for q in range(17):
        b = rng.standard_normal(q + 1) * 10 ** rng.uniform(-2, 2)
        spec = PsdSpec.ma(b, float(10 ** rng.uniform(-1, 1)))
        bound = 8 * EPS * spec.sigma2 * np.sum(np.abs(b)) ** 2
        assert np.max(np.abs(psd_eval(spec, th) - psd_eval_loop(spec, th))) \
            <= bound
        assert psd_eval(spec, 0.3) == pytest.approx(
            float(psd_eval_loop(spec, np.asarray(0.3))), abs=bound)


# ---- reference forms of the crossing polish and of Jensen's formula -------

def ma_crossings_chebval(c, nu):
    """The crossings of S = nu polished by Newton in x = cos(theta) with
    chebval, as before the polish moved to theta."""
    dc = chebyshev.chebder(c)
    p = c.copy()
    p[0] -= nu
    x = chebyshev.chebroots(p)
    window = waterfill._ROOT_WINDOW
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
    rng = np.random.default_rng(61)
    count = 0
    for spec in random_ma_spectra(60, 600):
        c = waterfill._cosine_series(spec)
        s = psd_eval(spec, np.linspace(0.0, PI, 513))
        nu = float(rng.uniform(s.min(), s.max()))
        ref = ma_crossings_chebval(c, nu)
        got = waterfill._polish_crossings(c, nu,
                                          waterfill._ma_crossings(c, nu))
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13)
        count += len(got)
    assert count >= 1000


def test_jensen_eigensolve_matches_np_roots():
    nonzero_bounds = 0
    for spec in random_ma_spectra(62, 600):
        mean_log, bound, scale = jensen_polyval(spec)
        waterfill._jensen_mean_log.cache_clear()
        got = waterfill._jensen_mean_log(spec, 1.0)
        assert got == pytest.approx(mean_log, abs=4 * EPS * max(scale, 1.0))
        # the two error bounds agree within a factor of 2: tol = 2 bound
        # passes and tol = bound / 2 raises (bound 0: no tol raises)
        waterfill._jensen_mean_log(spec, 2.0 * bound or 1e-300)
        if bound > 0.0:
            nonzero_bounds += 1
            with pytest.raises(ConvergenceError):
                waterfill._jensen_mean_log(spec, 0.5 * bound)
    assert nonzero_bounds >= 50


@pytest.mark.parametrize("taps", [(1.0, 2.0, 1.0), (1.0, -2.0, 1.0),
                                  (1.0, 3.0, 3.0, 1.0)])
def test_multiple_unit_circle_zeros_exceed_both_bounds(taps):
    spec = PsdSpec.ma(taps)
    assert jensen_polyval(spec)[1] > 1e-10
    waterfill._jensen_mean_log.cache_clear()
    with pytest.raises(ConvergenceError):
        waterfill._jensen_mean_log(spec, 1e-10)


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
