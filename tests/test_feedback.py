import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gfcap import feedback
from gfcap.feedback import (
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
from gfcap.spectrum import PAPER_CHANNEL, PsdSpec
from gfcap.waterfill import nonfeedback_capacity


class TestSkPoly:
    def test_anchor_values(self):
        assert sk_poly(1.0, 0.0) == -1.0
        assert sk_poly(1.0, 0.5) == pytest.approx(1.0 / 16.0, abs=1e-15)
        for p in (0.3, 1.0, 7.0):
            assert sk_poly(p, 1.0) == p

    def test_bracket_signs(self):
        for p in np.logspace(-3, 3, 25):
            assert sk_poly(float(p), 0.0) == -1.0
            assert sk_poly(float(p), 1.0) > 0.0


class TestSkRoot:
    def test_unit_power_digits(self):
        sol = sk_root(1.0)
        assert sol.x0 == pytest.approx(0.46898994354, abs=1e-9)
        assert sol.x0 < 0.5
        assert sol.rate_bits == pytest.approx(1.09237110724, abs=1e-9)
        assert sol.rate_bits > 1.0
        assert sol.residual <= 1e-12

    def test_newton_cross_check(self):
        # polish from 0.5 with plain Newton as an independent path
        x = 0.5
        for _ in range(60):
            f = sk_poly(1.0, x)
            df = 2.0 * x + (1.0 - x) ** 2 * (2.0 + 4.0 * x)
            x -= f / df
        assert sk_root(1.0).x0 == pytest.approx(x, abs=1e-12)

    def test_vanishing_power_limit(self):
        sol = sk_root(1e-8)
        assert sol.x0 > 0.99
        assert sol.rate_bits < 1e-2

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            sk_root(0.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_rejects_non_finite_power(self, power):
        with pytest.raises(ValueError):
            sk_root(power)

    def test_root_residual_and_monotonicity(self):
        powers = np.logspace(-3, 3, 100)
        roots = [sk_root(float(p)) for p in powers]
        for sol in roots:
            assert 0.0 < sol.x0 < 1.0
            assert sol.residual <= 1e-12
        x = np.array([s.x0 for s in roots])
        r = np.array([s.rate_bits for s in roots])
        assert np.all(np.diff(x) < 0)
        assert np.all(np.diff(r) > 0)

    @pytest.mark.parametrize("power", [1e40, 1e50, 1e100, 1e300])
    def test_huge_power_against_scaled_oracle(self, power):
        """With x = y / sqrt(P) the root equation reads
        y^2 = (1 + y/sqrt(P))(1 - y/sqrt(P))^3, whose root y lies in
        (0, 1] at every P >= 1; brentq solves it without scale trouble."""
        r = math.sqrt(power)
        y = brentq(lambda y: y * y - (1.0 + y / r) * (1.0 - y / r) ** 3,
                   0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        sol = sk_root(power)
        assert sol.x0 == pytest.approx(y / r, rel=1e-14)
        assert sol.rate_bits == pytest.approx(math.log2(r) - math.log2(y),
                                              abs=1e-12)

    @pytest.mark.parametrize("power", [1e-60, 1e-300])
    def test_tiny_power_stays_next_to_one(self, power):
        # the root 1 - (P/2)^(1/3) rounds to 1, and x0 < 1 is the double
        # just below it: a free Newton step from there used to leave [0, 1]
        sol = sk_root(power)
        assert 1.0 - np.finfo(float).eps <= sol.x0 < 1.0
        assert 0.0 < sol.rate_bits <= 2 * np.finfo(float).eps


class TestRateThreshold:
    def test_threshold_is_three_quarters(self):
        assert sk_rate_threshold() == 0.75
        # substituting x = 1/2: (3/4)(1/4) = (3/2)(1/8), so the root is exact
        assert sk_poly(0.75, 0.5) == pytest.approx(0.0, abs=1e-15)
        sol = sk_root(0.75)
        assert sol.x0 == pytest.approx(0.5, abs=1e-10)
        assert sol.rate_bits == pytest.approx(1.0, abs=1e-9)

    def test_rate_crosses_one_bit(self):
        assert sk_root(1.0).rate_bits > 1.0
        assert sk_root(0.5).rate_bits < 1.0
        assert sk_root(0.5).x0 > 0.5


class TestCoverPombra:
    def test_arithmetic(self):
        assert cover_pombra_bounds(1.0) == (2.0, 1.5)
        assert cover_pombra_bounds(0.0) == (0.0, 0.5)

    def test_from_actual_capacity(self):
        c1 = nonfeedback_capacity(PAPER_CHANNEL, 1.0).capacity_bits
        two_c, c_half = cover_pombra_bounds(c1)
        assert two_c == pytest.approx(2 * 0.7834378815, abs=1e-5)
        assert c_half == pytest.approx(0.7834378815 + 0.5, abs=1e-5)


class TestChenYanagi:
    def test_alpha_two_on_paper_channel(self):
        b1, b2 = chen_yanagi_bound(PAPER_CHANNEL, 1.0, 2.0)
        assert b1 == pytest.approx(1.5, abs=1e-6)
        assert b2 == pytest.approx(1.0 + 0.5 * math.log2(1.5), abs=1e-6)
        assert b2 == pytest.approx(1.2924812504, abs=1e-6)

    def test_alpha_one_reduces_to_cover_pombra(self):
        for psd, p in ((PAPER_CHANNEL, 1.0), (PsdSpec.white(1.0), 1.0),
                       (PsdSpec.white(2.0), 0.5)):
            c = nonfeedback_capacity(psd, p).capacity_bits
            assert chen_yanagi_bound(psd, p, 1.0) == pytest.approx(
                cover_pombra_bounds(c), abs=1e-12)

    def test_white_unit_case(self):
        b1, b2 = chen_yanagi_bound(PsdSpec.white(1.0), 1.0, 1.0)
        assert b1 == pytest.approx(1.0, abs=1e-9)
        assert b2 == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                chen_yanagi_bound(PAPER_CHANNEL, 1.0, alpha)


class TestAlphaGrid:
    def test_default_grid(self):
        grid = default_alpha_grid()
        assert len(grid) == 50
        assert grid[0] == 0.1 and grid[-1] == 10.0
        assert np.array_equal(grid, np.logspace(-1, 1, 50))

    @pytest.mark.parametrize("args", [
        (0,), (-3,), (5, 0.0, 1.0), (5, -1.0, 1.0), (5, math.nan, 1.0),
        (5, 0.1, math.inf),
    ])
    def test_rejects_bad_grid(self, args):
        with pytest.raises(ValueError, match="alpha"):
            default_alpha_grid(*args)


class TestMinimizeCy:
    """The minimum over alpha that chen_yanagi_curve returns with the
    curve."""

    def test_singleton_grid(self):
        a, v = chen_yanagi_curve(PAPER_CHANNEL, 1.0, [2.0])[1:]
        assert a == 2.0
        assert v == pytest.approx(min(chen_yanagi_bound(PAPER_CHANNEL, 1.0, 2.0)),
                                  abs=1e-12)

    def test_white_includes_alpha_one(self):
        _, v = chen_yanagi_curve(PsdSpec.white(1.0), 1.0,
                                 [0.5, 1.0, 2.0, 4.0])[1:]
        assert v <= 1.0 + 1e-9

    def test_paper_channel_regression(self):
        grid = np.logspace(-1, 1, 50)
        a, v = chen_yanagi_curve(PAPER_CHANNEL, 1.0, grid)[1:]
        assert v >= sk_root(1.0).rate_bits
        # frozen regression values from this implementation, cross-checked
        # against a dense independent grid scan
        assert a == pytest.approx(1.3588, abs=2e-2)
        assert v == pytest.approx(1.2696426, abs=1e-5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            chen_yanagi_curve(PAPER_CHANNEL, 1.0, [])

    @pytest.mark.parametrize("noise, power", [(1.0, 2.0), (3.0, 7.0),
                                              (1.0, 50.0)])
    def test_white_minimum_is_exact(self, noise, power):
        # for white noise N the second bound,
        # (1/2)log2((1 + a P/N)(1 + 1/a)), is smallest at a = sqrt(N/P),
        # where it equals log2(1 + sqrt(P/N))
        a, v = chen_yanagi_curve(PsdSpec.white(noise), power,
                                 default_alpha_grid())[1:]
        assert a == pytest.approx(math.sqrt(noise / power), abs=1e-6)
        assert v == pytest.approx(math.log2(1.0 + math.sqrt(power / noise)),
                                  abs=1e-12)


def counted_solves(monkeypatch):
    """Patch feedback's capacity solve to record every (psd, power) key."""
    keys = []
    solve = feedback.nonfeedback_capacity

    def counting(psd, power, config=None):
        keys.append((psd, float(power)))
        return solve(psd, power, config)

    monkeypatch.setattr(feedback, "nonfeedback_capacity", counting)
    return keys


class TestWorkBudget:
    """Each capacity the bound layer needs is solved once: the curve is
    the grid scan of the minimum over alpha, so no alpha is solved twice."""

    def test_conjecture_check_solves_each_capacity_once(self, monkeypatch):
        keys = counted_solves(monkeypatch)
        conjecture_check(1.0)
        assert len(keys) == 81
        assert len(set(keys)) == 81

    def test_curve_solves_each_capacity_once(self, monkeypatch):
        keys = counted_solves(monkeypatch)
        chen_yanagi_curve(PAPER_CHANNEL, 1.0, default_alpha_grid())
        assert len(keys) == 79
        assert len(set(keys)) == 79


class TestConjectureCheck:
    def test_unit_power_violation(self):
        rep = conjecture_check(1.0)
        assert rep.c_2p == pytest.approx(1.0, abs=1e-6)
        assert rep.sk_rate == pytest.approx(1.0923711072, abs=1e-8)
        assert rep.violated is True
        assert rep.margin == pytest.approx(0.0923711072, abs=1e-6)
        assert not sandwich_failures(rep)

    def test_cy_curve_endpoints_reduce_to_cover_pombra(self):
        rep = conjecture_check(1.0, alpha_grid=[1.0, 2.0])
        a, b1, b2 = rep.cy_curve[0]
        assert a == 1.0
        assert b1 == pytest.approx(rep.cp_double, abs=1e-12)
        assert b2 == pytest.approx(rep.cp_plus_half, abs=1e-12)

    def test_low_power_case(self):
        # the achievable rate stays above C(2P) even at P = 0.1
        # (confirmed numerically: 0.5257 vs 0.4527)
        rep = conjecture_check(0.1)
        assert rep.sk_rate == pytest.approx(0.5256648, abs=1e-5)
        assert rep.conjecture_bound == pytest.approx(0.4527372, abs=1e-5)
        assert rep.violated is True

    @pytest.mark.parametrize("power", [0.1, 1.0, 4.0])
    def test_margin_helper_matches_report(self, power):
        rep = conjecture_check(power)
        assert conjecture_margin(power) == (rep.sk, rep.conjecture_bound,
                                            rep.margin, rep.violated)

    def test_high_power_no_violation(self):
        rep = conjecture_check(4.0)
        assert rep.violated is False

    def test_sandwich_at_unit_power(self):
        rep = conjecture_check(1.0)
        assert rep.c_p <= rep.sk_rate
        assert rep.sk_rate <= min(rep.cp_double, rep.cp_plus_half,
                                  rep.cy_min_value)
        for _, b1, b2 in rep.cy_curve:
            assert rep.sk_rate <= min(b1, b2) + 1e-9
        assert rep.conjecture_bound < rep.sk_rate
