"""Trace the linear feedback scheme and verify it against theory.

The transmitter repeatedly sends a power-normalized copy of the
receiver's current estimation error; the receiver conditions on each
output.  On correlated noise the transmit sign matters: the scheme
greedily picks the sign that shrinks the error most, which on the
2(1 + cos theta) channel produces alternating signs and drives the
per-step error contraction to the root x0 of P x^2 = (1+x)(1-x)^3.

This script:
  1. prints the first steps of the deterministic variance trace,
  2. compares the long-run contraction to x0 for a few powers,
  3. runs a seeded Monte Carlo transmission below the scheme rate and
     reports the decoding outcome.

Run with:  python demos/feedback_scheme_trace.py
"""

import math

from gfcap import (
    PAPER_CHANNEL,
    SchemeConfig,
    simulate_transmission,
    sk_root,
    variance_recursion,
)


def main():
    print("Channel: S_Z(theta) = 2(1 + cos theta), power P = 1")
    print()

    cfg = SchemeConfig(power=1.0, horizon=400, rate_bits=1.0)
    trace = variance_recursion(cfg, PAPER_CHANNEL)

    print("First steps of the deterministic trace:")
    print(f"{'step':>4}  {'sign':>4}  {'error variance':>16}  {'contraction':>12}")
    print(f"{0:4d}  {'':>4}  {trace.error_variance[0]:16.10f}")
    for i in range(8):
        print(f"{i + 1:4d}  {trace.signs[i]:+4.0f}  "
              f"{trace.error_variance[i + 1]:16.10f}  "
              f"{trace.contraction[i]:12.8f}")
    print("  ... signs alternate; the contraction settles onto x0.")
    print()

    print("Long-run contraction vs. the polynomial root:")
    print(f"{'P':>6}  {'measured':>12}  {'root x0':>12}  {'rate (bits)':>12}")
    for p in (0.5, 1.0, 2.0, 3.0):
        c = SchemeConfig(power=p, horizon=400, rate_bits=1.0)
        t = variance_recursion(c, PAPER_CHANNEL)
        root = sk_root(p)
        print(f"{p:6.2f}  {t.contraction_estimate:12.9f}  "
              f"{root.x0:12.9f}  {-math.log2(t.contraction_estimate):12.8f}")
    print()

    rate = 0.9 * sk_root(1.0).rate_bits
    mc_cfg = SchemeConfig(power=1.0, horizon=40, rate_bits=rate, seed=7)
    report = simulate_transmission(mc_cfg, PAPER_CHANNEL, 1000)
    print(f"Monte Carlo at rate {rate:.4f} bits/use "
          f"({report.pam_levels} message points, 1000 trials, seed 7):")
    print(f"  decode errors       = {report.decode_errors}")
    print(f"  empirical avg power = {report.empirical_avg_power:.6f}")
    print(f"  empirical contraction = {report.contraction_empirical:.6f} "
          f"(theory {sk_root(1.0).x0:.6f})")


if __name__ == "__main__":
    main()
