import json
import math

import numpy as np
import pytest

from gfcap.spectrum import (
    PAPER_CHANNEL,
    PsdSpec,
    load_psd,
    psd_eval,
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

    @pytest.mark.parametrize("spec", [
        PAPER_CHANNEL, PsdSpec.ma([1.0, -0.4, 0.2], 2.0), PsdSpec.ma([1.5]),
        PsdSpec.white(1.7), PsdSpec.from_samples([4.0, 2.0, 0.0]),
    ], ids=["ma1", "ma2", "ma0", "white", "samples"])
    @pytest.mark.parametrize("theta", [
        math.nan, (math.nan,), (0.3, math.nan), (0.3, -1.0, math.nan, 2.0),
        (math.inf, -math.inf), (0.3, 3.5), np.array(math.nan),
        np.array([0.3, math.nan]),
    ], ids=["float", "tuple", "tuple_second", "tuple_inner", "tuple_infs",
            "tuple_out", "array0d", "array"])
    def test_nan_and_out_of_range_rejected_on_every_path(self, spec, theta):
        """A nan angle raises the ValueError of one outside [-pi, pi], on
        every form and on the float, tuple and array paths, wherever it
        sits among the angles."""
        with pytest.raises(ValueError, match="theta outside"):
            psd_eval(spec, theta)

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

    def test_parseval(self):
        # 64 equispaced points integrate a trigonometric polynomial of
        # degree below 64 exactly, so the mean of S is sigma2 * sum b^2
        th = np.linspace(-PI, PI, 64, endpoint=False)
        for coeffs, sigma2 in ([(1.0, 1.0), 1.0], [(1.0, -0.5, 0.25), 1.7]):
            spec = PsdSpec.ma(coeffs, sigma2)
            expected = sigma2 * sum(c * c for c in coeffs)
            got = float(np.mean(psd_eval(spec, th)))
            assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: PsdSpec.ma([1.0, math.nan]),
        lambda: PsdSpec.ma([1.0, math.inf]),
        lambda: PsdSpec.ma([1.0], math.nan),
        lambda: PsdSpec.ma([1.0], math.inf),
        lambda: PsdSpec.white(math.nan),
        lambda: PsdSpec.white(math.inf),
        lambda: PsdSpec.from_samples([1.0, math.nan]),
        lambda: PsdSpec.from_samples([1.0, math.inf]),
    ])
    def test_non_finite_fields_rejected(self, make):
        with pytest.raises(ValueError):
            make()


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
