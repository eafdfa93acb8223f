"""End-to-end acceptance gate.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line (visible with pytest -s or in captured output on
failure).  Timed criteria clear the internal caches first so the budget is
honest.
"""

import json
import math
import time

import numpy as np
import pytest

from gfcap._waterfill_arrays import _ma_roots
from gfcap.cli import main
from gfcap.feedback import conjecture_check, sk_poly, sk_root
from gfcap.simulator import (
    SchemeConfig,
    brute_force_conditioning,
    simulate_transmission,
    variance_recursion,
)
from gfcap.spectrum import PAPER_CHANNEL, PsdSpec
from gfcap.waterfill import nonfeedback_capacity

PI = math.pi


def clear_caches():
    _ma_roots.cache_clear()


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_counterexample_reproduction(capsys):
    clear_caches()
    start = time.perf_counter()
    report = conjecture_check(1.0)
    elapsed = time.perf_counter() - start
    assert report.conjecture_bound == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < report.sk.x0 < 0.5
    assert abs(sk_poly(1.0, report.sk.x0)) <= 1e-12
    assert report.sk_rate > 1.0
    assert report.violated is True
    assert elapsed < 1.0
    with capsys.disabled():
        ok(1, f"C(2)={report.conjecture_bound:.9f}, x0={report.sk.x0:.9f}, "
              f"rate={report.sk_rate:.9f}, violated, {elapsed:.2f}s")


def test_criterion_2_water_level(capsys):
    clear_caches()
    start = time.perf_counter()
    sol = nonfeedback_capacity(PAPER_CHANNEL, 2.0)
    elapsed = time.perf_counter() - start
    assert sol.water_level == pytest.approx(4.0, abs=1e-6)
    th = np.linspace(0.0, PI, 100)
    assert np.allclose(sol.input_psd(th), 2.0 * (1.0 - np.cos(th)), atol=1e-6)
    assert elapsed < 1.0
    with capsys.disabled():
        ok(2, f"nu={sol.water_level:.9f}, input spectrum matches "
              f"2(1-cos), {elapsed:.2f}s")


def test_criterion_3_polynomial_anchors(capsys):
    assert sk_poly(1.0, 0.0) == -1.0
    assert sk_poly(1.0, 0.5) == 1.0 / 16.0
    with capsys.disabled():
        ok(3, "f(0) = -1 and f(1/2) = 1/16 exactly")


def test_criterion_4_bound_consistency(capsys):
    report = conjecture_check(1.0)
    assert report.sk_rate <= report.cp_double
    assert report.sk_rate <= report.cp_plus_half
    for _, b1, b2 in report.cy_curve:
        assert report.sk_rate <= min(b1, b2) + 1e-9
    assert report.sk_rate <= report.cy_min_value + 1e-9
    assert report.sk_rate > report.conjecture_bound
    one = conjecture_check(1.0, alpha_grid=[1.0, 2.0])
    _, b1, b2 = one.cy_curve[0]
    assert b1 == pytest.approx(one.cp_double, abs=1e-12)
    assert b2 == pytest.approx(one.cp_plus_half, abs=1e-12)
    _, _, bound2_at_2 = one.cy_curve[1]
    assert bound2_at_2 == pytest.approx(1.0 + 0.5 * math.log2(1.5), abs=1e-6)
    assert bound2_at_2 == pytest.approx(1.2924812504, abs=1e-6)
    with capsys.disabled():
        ok(4, f"rate {report.sk_rate:.6f} under every bound; "
              f"bound at alpha=2 is {bound2_at_2:.9f}")


def test_criterion_5_awgn_oracles(capsys):
    rng = np.random.default_rng(17)
    for _ in range(10):
        n0 = float(rng.uniform(0.1, 5.0))
        p = float(rng.uniform(0.1, 10.0))
        cap = nonfeedback_capacity(PsdSpec.white(n0), p).capacity_bits
        assert cap == pytest.approx(0.5 * math.log2(1.0 + p / n0), abs=1e-9)
    cfg = SchemeConfig(power=3.0, horizon=200, rate_bits=1.0)
    trace = variance_recursion(cfg, PsdSpec.white(1.0))
    assert trace.contraction_estimate == pytest.approx(0.5, abs=1e-6)
    with capsys.disabled():
        ok(5, "white-noise capacity and contraction match closed forms")


def test_criterion_6_simulator_theory_agreement(capsys):
    start = time.perf_counter()
    for power in (1.0, 3.0):
        cfg = SchemeConfig(power=power, horizon=400, rate_bits=1.0)
        trace = variance_recursion(cfg, PAPER_CHANNEL)
        x0 = sk_root(power).x0
        assert abs(trace.contraction_estimate - x0) / x0 < 0.01
    for n in (8, 16, 32):
        for power in (0.5, 1.0, 3.0):
            cfg = SchemeConfig(power=power, horizon=n, rate_bits=1.0)
            fast = variance_recursion(cfg, PAPER_CHANNEL)
            slow = brute_force_conditioning(cfg, PAPER_CHANNEL, n)
            rel = np.max(np.abs(fast.error_variance - slow.error_variance)
                         / slow.error_variance)
            assert rel < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        ok(6, f"contraction matches x0 at P=1 and P=3; fast and brute-force "
              f"traces agree to 1e-9, {elapsed:.2f}s")


def test_criterion_7_monte_carlo(capsys):
    start = time.perf_counter()
    rate = 0.9 * sk_root(1.0).rate_bits
    cfg = SchemeConfig(power=1.0, horizon=40, rate_bits=rate, seed=7)
    report = simulate_transmission(cfg, PAPER_CHANNEL, 1000)
    elapsed = time.perf_counter() - start
    assert report.decode_errors == 0
    assert abs(report.empirical_avg_power - 1.0) < 0.02
    assert elapsed < 30.0
    with capsys.disabled():
        ok(7, f"0/1000 decode errors, avg power "
              f"{report.empirical_avg_power:.4f}, {elapsed:.2f}s")


def test_criterion_8_property_suites(capsys):
    powers = np.linspace(0.25, 5.0, 20)
    caps = [nonfeedback_capacity(PAPER_CHANNEL, float(p)).capacity_bits
            for p in powers]
    assert np.all(np.diff(caps) >= -1e-12)
    assert np.all(np.diff(caps, 2) <= 1e-6)

    roots = [sk_root(float(p)) for p in np.logspace(-3, 3, 100)]
    assert np.all(np.diff([s.x0 for s in roots]) < 0)
    assert np.all(np.diff([s.rate_bits for s in roots]) > 0)

    cfg = SchemeConfig(power=1.0, horizon=25, rate_bits=0.9, seed=13)
    r1 = simulate_transmission(cfg, PAPER_CHANNEL, 300)
    r2 = simulate_transmission(cfg, PAPER_CHANNEL, 300)
    assert r1 == r2
    args = ["counterexample", "--format", "json"]
    import contextlib
    import io
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(args) == 0
        doc = json.loads(buf.getvalue())
        doc.pop("wall_time_s")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
    with capsys.disabled():
        ok(8, "capacity shape, root monotonicity, and seeded "
              "bit-reproducibility all hold")
