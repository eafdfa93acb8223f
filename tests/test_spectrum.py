import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gfcap.spectrum import (
    PAPER_CHANNEL,
    ConvergenceError,
    PsdSpec,
    QuadratureConfig,
    UnsupportedFormError,
    _integrate_panels,
    _panel_edges,
    load_psd,
    mean_integral,
    psd_eval,
    psd_zeros,
    sample_noise_path,
)

PI = math.pi


class TestPsdEval:
    def test_paper_channel_endpoints(self):
        assert psd_eval(PAPER_CHANNEL, 0.0) == pytest.approx(4.0, abs=1e-14)
        assert psd_eval(PAPER_CHANNEL, PI) == pytest.approx(0.0, abs=1e-14)

    def test_paper_channel_matches_cosine_form(self):
        th = np.linspace(-PI, PI, 257)
        expected = 2.0 * (1.0 + np.cos(th))
        assert np.allclose(psd_eval(PAPER_CHANNEL, th), expected, atol=1e-12)

    def test_white_is_constant(self):
        spec = PsdSpec.white(3.0)
        assert psd_eval(spec, 0.3) == 3.0
        assert psd_eval(spec, -2.9) == 3.0

    def test_sampled_form_interpolates(self):
        spec = PsdSpec.from_samples([4.0, 2.0, 0.0])
        assert psd_eval(spec, 0.0) == pytest.approx(4.0)
        assert psd_eval(spec, PI / 4) == pytest.approx(3.0)
        assert psd_eval(spec, -PI / 4) == pytest.approx(3.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            psd_eval(PAPER_CHANNEL, 3.5)

    def test_symmetry_exact_for_ma_and_white(self):
        rng = np.random.default_rng(11)
        th = rng.uniform(0.0, PI, 1000)
        for spec in (PAPER_CHANNEL, PsdSpec.ma([1.0, -0.4, 0.2], 2.0),
                     PsdSpec.white(1.7)):
            assert np.array_equal(psd_eval(spec, th), psd_eval(spec, -th))

    def test_nonnegative(self):
        th = np.linspace(-PI, PI, 2001)
        for spec in (PAPER_CHANNEL, PsdSpec.ma([1.0, -1.0]),
                     PsdSpec.from_samples([1.0, 0.0, 2.0])):
            assert np.all(psd_eval(spec, th) >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PsdSpec.ma([], 1.0)
        with pytest.raises(ValueError):
            PsdSpec.ma([1.0], 0.0)
        with pytest.raises(ValueError):
            PsdSpec.white(-1.0)
        with pytest.raises(ValueError):
            PsdSpec.from_samples([1.0, -0.1])

    @pytest.mark.parametrize("make", [
        lambda: PsdSpec.ma([1.0, math.nan]),
        lambda: PsdSpec.ma([1.0, math.inf]),
        lambda: PsdSpec.ma([1.0], math.nan),
        lambda: PsdSpec.ma([1.0], math.inf),
        lambda: PsdSpec.white(math.nan),
        lambda: PsdSpec.white(math.inf),
        lambda: PsdSpec.from_samples([1.0, math.nan]),
        lambda: PsdSpec.from_samples([1.0, math.inf]),
        lambda: QuadratureConfig(abs_tolerance=math.nan),
    ])
    def test_non_finite_fields_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestMeanIntegral:
    def test_constant(self):
        assert mean_integral(lambda th: np.full_like(th, 2.5)) == pytest.approx(2.5, abs=1e-12)

    def test_cosine_averages_to_zero(self):
        assert mean_integral(np.cos) == pytest.approx(0.0, abs=1e-12)

    def test_log_of_vanishing_spectrum_averages_to_zero(self):
        # mean of log2(2(1+cos)) over the circle is zero; cross-check the
        # singular quadrature against adaptive quadrature.
        def f(th):
            return np.log2(np.maximum(psd_eval(PAPER_CHANNEL, th), 1e-300))

        ours = mean_integral(f, singular_points=[PI])
        ref, _ = quad(lambda t: f(np.asarray(t)), 0, PI, points=[PI], limit=400)
        ref /= PI
        assert ours == pytest.approx(0.0, abs=1e-8)
        assert ours == pytest.approx(ref, abs=1e-8)

    def test_parseval(self):
        for coeffs, sigma2 in ([(1.0, 1.0), 1.0], [(1.0, -0.5, 0.25), 1.7]):
            spec = PsdSpec.ma(coeffs, sigma2)
            expected = sigma2 * sum(c * c for c in coeffs)
            got = mean_integral(lambda th: psd_eval(spec, th))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_panel_halving_reduces_error(self):
        # oscillatory but smooth: mean of exp(cos(20 theta)) is I0(1)
        from scipy.special import i0
        truth = float(i0(1.0))
        errs = []
        for m in (8, 16, 32):
            edges = _panel_edges(-PI, PI, m, [], 0)
            errs.append(abs(_integrate_panels(np.vectorize(
                lambda t: math.exp(math.cos(20 * t))), edges) / (2 * PI) - truth))
        for coarse, fine in zip(errs, errs[1:]):
            if coarse > 1e-13:
                assert fine <= coarse / 4.0

    def test_nonconvergence_raises(self):
        cfg = QuadratureConfig(abs_tolerance=1e-300)

        def f(th):
            return np.log2(np.maximum(psd_eval(PAPER_CHANNEL, th), 1e-300))

        with pytest.raises(ConvergenceError):
            mean_integral(f, cfg, singular_points=[PI])


class TestPsdZeros:
    def test_paper_channel_zero_at_pi(self):
        assert psd_zeros(PAPER_CHANNEL) == (PI,)

    def test_white_has_no_zeros(self):
        assert psd_zeros(PsdSpec.white(1.0)) == ()

    def test_sign_flipped_ma_zero_at_origin(self):
        spec = PsdSpec.ma([1.0, -1.0], 1.0)
        zeros = psd_zeros(spec)
        assert len(zeros) == 1
        assert zeros[0] == 0.0
        assert psd_eval(spec, zeros[0]) <= 1e-11 * 4.0

    def test_interior_zero_from_samples(self):
        th = np.linspace(0.0, PI, 513)
        k = 170
        vals = np.abs(np.cos(th) - np.cos(th[k]))
        vals[k] = 0.0
        zeros = psd_zeros(PsdSpec.from_samples(vals))
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(th[k], abs=1e-3)


class TestNoiseSampler:
    def test_white_variance(self):
        z = sample_noise_path(PsdSpec.ma([1.0], 1.0), 10 ** 5, seed=1)
        se = math.sqrt(2.0 / len(z))
        assert abs(np.var(z) - 1.0) < 3 * se

    def test_ma1_autocovariance(self):
        n = 10 ** 5
        z = sample_noise_path(PAPER_CHANNEL, n, seed=2)
        z = z - z.mean()
        acov = [float(z[:n - k] @ z[k:]) / n for k in range(3)]
        # 3-standard-error windows from the closed-form autocovariances 2, 1, 0
        assert abs(acov[0] - 2.0) < 3 * math.sqrt(12.0 / n)
        assert abs(acov[1] - 1.0) < 3 * math.sqrt(9.0 / n)
        assert abs(acov[2] - 0.0) < 3 * math.sqrt(5.0 / n)

    def test_deterministic_under_seed(self):
        a = sample_noise_path(PAPER_CHANNEL, 4096, seed=42)
        b = sample_noise_path(PAPER_CHANNEL, 4096, seed=42)
        assert np.array_equal(a, b)

    def test_rejects_non_ma_forms(self):
        with pytest.raises(UnsupportedFormError):
            sample_noise_path(PsdSpec.white(1.0), 10, seed=0)
        with pytest.raises(ValueError):
            sample_noise_path(PAPER_CHANNEL, 0, seed=0)


class TestLoadPsd:
    def test_builtin_paper(self):
        assert load_psd("paper") == PAPER_CHANNEL

    def test_builtin_white(self):
        assert load_psd("white:2.5") == PsdSpec.white(2.5)

    def test_file_round_trip(self, tmp_path):
        for doc in ({"type": "ma", "coeffs": [1.0, 1.0], "sigma2": 1.0},
                    {"type": "samples", "values": [1.0, 2.0, 3.0]},
                    {"type": "white", "level": 0.5}):
            path = tmp_path / "psd.json"
            path.write_text(json.dumps(doc))
            spec = load_psd(str(path))
            assert spec.form == doc["type"] or (doc["type"] == "samples"
                                                and spec.form == "samples")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all{")
        with pytest.raises(ValueError):
            load_psd(str(path))
        with pytest.raises(ValueError):
            load_psd(str(tmp_path / "missing.json"))
