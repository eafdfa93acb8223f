import math

import numpy as np
import pytest

from gfcap.feedback import sk_root
from gfcap import simulator
from gfcap.simulator import (
    MC_BLOCK,
    MESSAGE_PRIOR_VARIANCE,
    SchemeConfig,
    brute_force_conditioning,
    simulate_transmission,
    trace_to_csv,
    variance_recursion,
)
from gfcap.spectrum import (
    PAPER_CHANNEL,
    ConditioningError,
    PsdSpec,
    UnsupportedFormError,
)

WHITE = PsdSpec.white(1.0)
SK_RATE_P1 = sk_root(1.0).rate_bits


def config(power, horizon, rate=1.0, seed=0):
    return SchemeConfig(power=power, horizon=horizon, rate_bits=rate,
                        seed=seed)


class TestVarianceRecursion:
    def test_white_noise_closed_form(self):
        trace = variance_recursion(config(3.0, 200), WHITE)
        assert trace.contraction_estimate == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(trace.contraction, 0.5, atol=1e-12)

    def test_ma1_contraction_matches_root_p1(self):
        trace = variance_recursion(config(1.0, 400), PAPER_CHANNEL)
        x0 = sk_root(1.0).x0
        assert abs(trace.contraction_estimate - x0) / x0 < 0.01

    def test_ma1_contraction_matches_root_p3(self):
        trace = variance_recursion(config(3.0, 400), PAPER_CHANNEL)
        x0 = sk_root(3.0).x0
        assert abs(trace.contraction_estimate - x0) / x0 < 0.01

    def test_rate_law_exceeds_one_bit(self):
        trace = variance_recursion(config(1.0, 400), PAPER_CHANNEL)
        rate = -math.log2(trace.contraction_estimate)
        assert rate > 1.0
        assert abs(rate - sk_root(1.0).rate_bits) / rate < 0.01

    def test_power_is_exact_and_variance_decreasing(self):
        trace = variance_recursion(config(1.0, 60), PAPER_CHANNEL)
        assert np.all(trace.transmit_power == 1.0)
        assert np.all(np.diff(trace.log2_error_variance) < 0)
        burn = 15
        assert np.all(trace.contraction[burn:] > 0)
        assert np.all(trace.contraction[burn:] < 1)

    def test_sign_alternation_on_positively_correlated_noise(self):
        trace = variance_recursion(config(1.0, 40), PAPER_CHANNEL)
        assert np.array_equal(trace.signs[:6], [1, -1, 1, -1, 1, -1])
        white_trace = variance_recursion(config(1.0, 40), WHITE)
        assert np.all(white_trace.signs == 1.0)

    def test_unsupported_noise_form(self):
        with pytest.raises(UnsupportedFormError):
            variance_recursion(config(1.0, 40), PsdSpec.from_samples([1.0, 2.0]))


class TestBruteForceOracle:
    @pytest.mark.parametrize("noise", [WHITE, PAPER_CHANNEL])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_agrees_with_recursion(self, noise, n):
        rng = np.random.default_rng(9)
        for power in rng.uniform(0.2, 5.0, 5):
            cfg = config(float(power), n)
            fast = variance_recursion(cfg, noise)
            slow = brute_force_conditioning(cfg, noise, n)
            rel = np.max(np.abs(fast.error_variance - slow.error_variance)
                         / slow.error_variance)
            assert rel < 1e-9
            assert np.array_equal(fast.signs, slow.signs)

    def test_white_noise_variance_pattern(self):
        trace = brute_force_conditioning(config(3.0, 8), WHITE, 8)
        expected = MESSAGE_PRIOR_VARIANCE * 4.0 ** -np.arange(9)
        assert np.allclose(trace.error_variance, expected, rtol=1e-12)

    def test_two_step_hand_computation(self):
        # explicit 2-step conditioning for the MA(1) channel, done with the
        # raw scalar formulas rather than either implementation's algebra
        p = 1.0
        v0 = MESSAGE_PRIOR_VARIANCE
        v1 = v0 / (1.0 + p)                      # Var(Y1) = P + 1
        c1 = -math.sqrt(p * v0) / (p + 1.0)      # Cov(msg, W1 | Y1)
        w1 = p / (p + 1.0)                       # Var(W1 | Y1)
        g2 = math.sqrt(p / v1)
        candidates = {}
        for s2 in (1.0, -1.0):
            innov_var = p + 2.0 * s2 * g2 * c1 + w1 + 1.0
            cov = s2 * g2 * v1 + c1
            candidates[s2] = v1 - cov * cov / innov_var
        v2 = min(candidates.values())
        assert candidates[-1.0] < candidates[1.0]  # greedy must flip the sign

        trace = brute_force_conditioning(config(p, 2), PAPER_CHANNEL, 2)
        assert trace.error_variance[1] == pytest.approx(v1, rel=1e-12)
        assert trace.error_variance[2] == pytest.approx(v2, rel=1e-12)
        fast = variance_recursion(config(p, 2), PAPER_CHANNEL)
        assert fast.error_variance[2] == pytest.approx(v2, rel=1e-12)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_conditioning(config(1.0, 100), WHITE, 100)

    def test_lost_positivity_is_a_conditioning_error(self):
        """A non-minimum-phase MA(7), inside roots down to 0.383: at n = 40
        the noise map's smallest singular value is about 1.6e-17, and the
        conditioned error variance leaves (0, inf) in double precision.
        That raises ConditioningError, not the ValueError of a square root
        of a negative number."""
        taps = (1.0, 2.529678545307723, 1.0584768447303243,
                -7.079177146359655, 5.784585176666089, -2.257321529331526,
                0.46528301508413394, -0.03986235778923882)
        with pytest.raises(ConditioningError):
            brute_force_conditioning(config(1.0, 40), PsdSpec.ma(taps), 40)


class TestMonteCarlo:
    def test_below_rate_decodes_cleanly(self):
        rate = 0.9 * sk_root(1.0).rate_bits
        report = simulate_transmission(config(1.0, 40, rate, seed=7),
                                       PAPER_CHANNEL, 1000)
        assert report.decode_errors == 0
        assert abs(report.empirical_avg_power - 1.0) < 0.02

    def test_above_rate_fails_often(self):
        rate = 1.2 * sk_root(1.0).rate_bits
        report = simulate_transmission(config(1.0, 40, rate, seed=7),
                                       PAPER_CHANNEL, 1000)
        assert report.error_rate > 0.1

    def test_error_variance_matches_deterministic_trace(self):
        cfg = config(1.0, 12, rate=1.0, seed=3)
        report = simulate_transmission(cfg, PAPER_CHANNEL, 10000)
        det = variance_recursion(cfg, PAPER_CHANNEL)
        v = det.error_variance[-1]
        se = v * math.sqrt(2.0 / report.trials)
        assert abs(report.empirical_error_variance - v) < 3 * se

    def test_average_power_at_scale(self):
        # 2500 trials x 40 uses = 1e5 transmissions
        cfg = config(1.0, 40, rate=0.9 * sk_root(1.0).rate_bits, seed=11)
        report = simulate_transmission(cfg, PAPER_CHANNEL, 2500)
        assert abs(report.empirical_avg_power - 1.0) / 1.0 < 0.02

    def test_deterministic_under_seed(self):
        cfg = config(1.0, 30, rate=0.8, seed=21)
        a = simulate_transmission(cfg, PAPER_CHANNEL, 200)
        b = simulate_transmission(cfg, PAPER_CHANNEL, 200)
        assert a == b

    def test_white_noise_accepted(self):
        report = simulate_transmission(config(3.0, 30, rate=0.9, seed=1),
                                       WHITE, 200)
        assert report.decode_errors == 0

    def test_degenerate_single_message(self, monkeypatch):
        monkeypatch.setattr(SchemeConfig, "pam_levels",
                            property(lambda self: 1))
        report = simulate_transmission(config(1.0, 10, rate=0.5, seed=0),
                                       PAPER_CHANNEL, 50)
        assert report.degenerate is True
        assert report.error_rate == 0.0

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            simulate_transmission(config(1.0, 10), PAPER_CHANNEL, 0)


class TestMonteCarloBlocks:
    def test_report_independent_of_block_order(self):
        cfg = config(1.0, 20, rate=0.9, seed=5)
        trials = 3 * MC_BLOCK + 77
        report = simulate_transmission(cfg, PAPER_CHANNEL, trials)
        taps, sigma2 = simulator._ma_taps(PAPER_CHANNEL)
        transmit, error = simulator._scheme_maps(cfg, taps, sigma2)
        sizes = [MC_BLOCK] * 3 + [77]
        order = np.random.default_rng(1).permutation(len(sizes))
        sums = [simulator._block_sums(cfg, transmit, error, int(b), sizes[b])
                for b in order]
        power, errors, sq_err = zip(*sums)
        assert report.empirical_avg_power == math.fsum(power) / (trials * 20)
        assert report.decode_errors == sum(errors)
        assert report.empirical_error_variance == math.fsum(sq_err) / trials

    @pytest.mark.parametrize("taps, sigma2", [
        ((1.0, 1.0), 1.0),
        (tuple(np.random.default_rng(8).standard_normal(9)), 0.37),
        ((1.0,), 2.5),
    ], ids=["ma1", "ma8", "white"])
    def test_block_noise_is_the_ma_convolution(self, taps, sigma2):
        n = 40
        _, u = simulator._block_draws(3, 2, MC_BLOCK, 1000, n)
        b = np.asarray(taps)
        noise = simulator._noise_map(b, sigma2, n)
        assert noise.shape == (n + 1, n)
        # the message error carries no noise, pre-history innovations are 0
        assert np.all(noise[0] == 0.0)
        bound = 8 * np.finfo(float).eps * math.sqrt(sigma2) \
            * np.abs(b).sum() * np.abs(u).max()
        for u_row in u:
            ref = math.sqrt(sigma2) * np.convolve(u_row, b)[:n]
            assert np.max(np.abs(u_row @ noise[1:] - ref)) <= bound

    @pytest.mark.parametrize("noise", [
        PAPER_CHANNEL, WHITE, PsdSpec.ma([1.0, 0.6, -0.3, 0.2], 0.5),
    ], ids=["ma1", "white", "ma3"])
    def test_block_loop_matches_per_trial_reference(self, noise,
                                                    monkeypatch):
        # the whole-array loop this module used before blocks, fed the
        # block's own draws
        cfg = config(1.0, 16, rate=0.9, seed=4)
        size, n, levels = 300, cfg.horizon, cfg.pam_levels
        idx, u = simulator._block_draws(4, 0, size, levels, n)
        monkeypatch.setattr(simulator, "_block_draws",
                            lambda *args: (idx, u))
        taps, sigma2 = simulator._ma_taps(noise)
        transmit, error = simulator._scheme_maps(cfg, taps, sigma2)
        got = simulator._block_sums(cfg, transmit, error, 0, size)

        steps, log2ev = simulator._propagate(1.0, taps, sigma2, n)
        z = np.array([math.sqrt(sigma2) * np.convolve(r, taps)[:n]
                      for r in u])
        q = len(taps) - 1
        theta = idx / (levels - 1)
        e = (theta - 0.5) / math.sqrt(MESSAGE_PRIOR_VARIANCE)
        mW = np.zeros((size, q))
        power_sum = 0.0
        for i, st in enumerate(steps):
            x = st.sign * math.sqrt(cfg.power) * e
            power_sum += float(x @ x)
            innov = x + z[:, i] - (mW @ taps[1:] if q else 0.0)
            coef = st.gain_vec / st.innov_var
            if q:
                mW = np.concatenate([np.zeros((size, 1)), mW], axis=1)
                mW += innov[:, None] * coef[1:][None, :]
                mW = mW[:, :q]
            e = (e - coef[0] * innov) / st.ratio
        err = e * 2.0 ** (0.5 * log2ev[-1])
        decoded = np.clip(np.ceil((theta - err) * (levels - 1) - 0.5),
                          0, levels - 1).astype(np.int64)
        assert got[0] == pytest.approx(power_sum, rel=1e-12)
        assert got[1] == int(np.sum(decoded != idx))
        assert got[2] == pytest.approx(float(err @ err), rel=1e-9)

    @pytest.mark.parametrize("noise, horizon, rate, seed, trials, golden", [
        (PAPER_CHANNEL, 40, 0.9 * SK_RATE_P1, 7, 1000,
         (688831356205, 0, 0.9874914160377257, 1.1007408300170871e-27)),
        (PAPER_CHANNEL, 40, 1.2 * SK_RATE_P1, 8, 1000,
         (6083458426328711, 998, 1.0095195032078361, 1.0935072201971659e-27)),
        (PsdSpec.ma([1.0, 0.6, -0.3, 0.2], 0.5), 16, 0.9, 4, 3 * MC_BLOCK + 77,
         (21619, 0, 0.9933245772984508, 3.2397102216134835e-13)),
    ], ids=["paper-below", "paper-above", "ma3-blocks"])
    def test_golden_reports_pin_the_random_stream(self, noise, horizon, rate,
                                                  seed, trials, golden):
        # pinned reports: a change to the (seed, block) keying, MC_BLOCK
        # or the draw order moves them by far more than rounding
        report = simulate_transmission(
            SchemeConfig(1.0, horizon, rate, seed), noise, trials)
        levels, errors, power, variance = golden
        assert report.pam_levels == levels
        assert report.decode_errors == errors
        assert report.empirical_avg_power == pytest.approx(power, rel=1e-12)
        assert report.empirical_error_variance == pytest.approx(variance,
                                                                rel=1e-12)

    @pytest.mark.parametrize("trials", [1, MC_BLOCK - 1, MC_BLOCK,
                                        MC_BLOCK + 1])
    def test_block_boundaries(self, trials, monkeypatch):
        sizes = []
        draws = simulator._block_draws

        def recording(seed, block, size, levels, n):
            assert block == len(sizes)
            sizes.append(size)
            return draws(seed, block, size, levels, n)

        monkeypatch.setattr(simulator, "_block_draws", recording)
        report = simulate_transmission(config(1.0, 12, rate=1.0, seed=2),
                                       PAPER_CHANNEL, trials)
        assert report.trials == trials
        assert sum(sizes) == trials
        assert max(sizes) <= MC_BLOCK
        assert 0 <= report.decode_errors <= trials
        assert report.error_rate == report.decode_errors / trials


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            SchemeConfig(power=0.0, horizon=10, rate_bits=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(power=1.0, horizon=1, rate_bits=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(power=1.0, horizon=10, rate_bits=0.0)

    @pytest.mark.parametrize("power, rate", [(math.nan, 1.0),
                                             (math.inf, 1.0),
                                             (1.0, math.nan),
                                             (1.0, math.inf)])
    def test_non_finite_fields(self, power, rate):
        with pytest.raises(ValueError):
            SchemeConfig(power=power, horizon=10, rate_bits=rate)

    def test_burn_in_default(self):
        # the estimate is the geometric mean of the last 3/4 of the
        # contractions; a short horizon, where they still move, tells a
        # burn-in of 5 from 4 or 6
        trace = variance_recursion(config(1.0, 20), PAPER_CHANNEL)
        means = [math.exp(np.mean(np.log(trace.contraction[b:])))
                 for b in (4, 5, 6)]
        assert trace.contraction_estimate == pytest.approx(means[1],
                                                           rel=1e-15)
        for other in (means[0], means[2]):
            assert abs(other / trace.contraction_estimate - 1) > 1e-7

    def test_message_grid_saturates_for_long_horizons(self):
        cfg = SchemeConfig(power=1.0, horizon=100, rate_bits=1.0)
        assert cfg.message_grid_saturated is True
        assert cfg.pam_levels == 2 ** 40
        short = SchemeConfig(power=1.0, horizon=10, rate_bits=1.0)
        assert short.message_grid_saturated is False
        assert short.pam_levels == 1024


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path):
        trace = variance_recursion(config(1.0, 20), PAPER_CHANNEL)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,power,error_variance,contraction"
        assert len(lines) == 22  # header + prior row + 20 steps
        step, power, ev, contraction = lines[2].split(",")
        assert float(power) == 1.0
        assert float(ev) == pytest.approx(trace.error_variance[1], rel=1e-15)
        assert float(contraction) == pytest.approx(trace.contraction[0], rel=1e-15)
