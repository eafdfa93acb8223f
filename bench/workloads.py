"""Seeded input generation for the three workloads.

Everything here is plain data (JSON-ready dicts), so the process that runs
the timed operations receives only generated inputs, and the process that
checks them can hash and re-derive them.  Nothing here imports gfcap.

Ops come in blocks with fixed counts per input class, so the share of each
class does not depend on the seed or on how many ops fit in the timed
window.  Within a block the parameters that drive an op's cost (power,
order, horizon) are stratified: each op of a class draws from its own
equal slice of the range, in random order.  That keeps the distribution of
every parameter as stated while cutting the run-to-run spread of the total
work.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("cli-cold", "capacity-mix", "scheme-mc")

# The timed mixes hold only inputs on which the code the benchmark was
# added to meets every check, so that no timed op fails and two runs of the
# same code agree on `failed`.  Inputs on which that code fails run as the
# known-defect probe (probe_cases below), outside the timed pass.
#
# The shares are an assumption; nothing states a user's traffic.  Each form
# the workload names gets an equal share.
CAPACITY_BLOCK = (("white", 10), ("ma1", 10), ("ma_q", 10))
CAPACITY_POWERS = (1e-2, 1e4)  # P = 1e6 hits the roundoff floor (probe)
MA1_BETA_MAX = 0.95            # beta -> 1 puts a near-zero at pi (probe)
# MA(q) spectra keep min / max >= MA_MIN_RATIO (40 dB): their taps come from
# roots of modulus at most r, with ((1 - r) / (1 + r)) ** (2 q) equal to it.
# Random normal taps make near-zeros, on which that code misses its
# tolerance (probe); with min / max >= 1e-4 it missed in none of 12,000.
MA_MIN_RATIO = 1e-4
SCHEME_BLOCK = (("paper", 2), ("ma1", 2), ("white", 2), ("ma_q", 2))
# Innovation variance of the noise (white level, or sigma2 of a monic
# minimum-phase MA), so that P / N >= 1/2 at P >= 1/4.  At P / N near 1/8
# and horizon 20 that code's Monte Carlo power runs 15 sigmas above P
# (probe).
SCHEME_NOISE_LEVEL = (0.25, 0.5)
MC_TRIALS = 3000
# Most ops one run may time, a whole number of blocks.  The oracle phase
# checks every op after the timed pass, at a cost per op that does not
# fall when gfcap gets faster; the cap keeps that phase inside the run's
# time limit.  Each is 2 to 13 times what the code the benchmark was added
# to fits in 45 s (about 6 rounds, 7,000 ops and 190 ops).
MAX_OPS = {"cli-cold": 4 * 80, "capacity-mix": 30 * 500, "scheme-mc": 8 * 120}
# A warm-up pass uses inputs from this offset of the workload seed, so it
# shares no input with the timed pass.
WARMUP_SEED_OFFSET = 1_000_003


def _strata(rng, count, lo, hi):
    """count draws from [lo, hi), one from each equal slice, shuffled."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return (lo + (hi - lo) * u)[rng.permutation(count)]


def _log_strata(rng, count, lo, hi):
    return 10.0 ** _strata(rng, count, np.log10(lo), np.log10(hi))


def _int_strata(rng, count, lo, hi):
    """count integers from lo..hi inclusive, stratified."""
    return np.floor(_strata(rng, count, lo, hi + 1)).astype(int)


def _log_uniform(rng, lo, hi):
    return float(_log_strata(rng, 1, lo, hi)[0])


def _powers(rng, count, lo, hi):
    return [float(p) for p in _log_strata(rng, count, lo, hi)]


def min_phase_taps(rng, q, moduli, outside=False):
    """Monic MA(q) taps from random roots with moduli drawn from `moduli`;
    with outside=True the first root (or conjugate pair) is reflected
    outside the unit circle, so the filter is non-minimum-phase."""
    roots = []
    while len(roots) < q:
        r = rng.uniform(*moduli)
        if len(roots) <= q - 2 and rng.uniform() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots += [z, np.conj(z)]
        else:
            roots.append(r * rng.choice((-1.0, 1.0)))
    if outside:
        roots[0] = 1.0 / np.conj(roots[0])
        if np.iscomplex(roots[0]):
            roots[1] = np.conj(roots[0])
    # np.poly gives z^q + c1 z^(q-1) + ...; tap b_k multiplies U_{i-k}
    return np.real(np.poly(roots)).tolist()


def _capacity_block(rng):
    counts = dict(CAPACITY_BLOCK)
    ops = []
    for p in _powers(rng, counts["white"], *CAPACITY_POWERS):
        ops.append(("white", {"type": "white",
                              "level": _log_uniform(rng, 0.1, 10.0)}, p))
    for p in _powers(rng, counts["ma1"], *CAPACITY_POWERS):
        beta = float(MA1_BETA_MAX * (1.0 - rng.uniform()))
        ops.append(("ma1", {"type": "ma", "coeffs": [1.0, beta],
                            "sigma2": _log_uniform(rng, 0.5, 2.0)}, p))
    orders = _int_strata(rng, counts["ma_q"], 2, 16)
    for q, p in zip(orders, _powers(rng, counts["ma_q"], *CAPACITY_POWERS)):
        d = MA_MIN_RATIO ** (0.5 / q)
        taps = min_phase_taps(rng, int(q), (0.0, (1.0 - d) / (1.0 + d)))
        ops.append(("ma_q", {"type": "ma", "sigma2": 1.0, "coeffs": taps}, p))
    return [{"kind": k, "psd": psd, "power": p}
            for k, psd, p in (ops[i] for i in rng.permutation(len(ops)))]


def _scheme_noise(rng, kind):
    if kind == "paper":
        return {"type": "ma", "coeffs": [1.0, 1.0], "sigma2": 1.0}
    level = _log_uniform(rng, *SCHEME_NOISE_LEVEL)
    if kind == "ma1":
        return {"type": "ma", "coeffs": [1.0, float(1.0 - rng.uniform())],
                "sigma2": level}
    if kind == "white":
        return {"type": "white", "level": level}
    q = int(rng.integers(2, 9))
    return {"type": "ma", "sigma2": level,
            "coeffs": min_phase_taps(rng, q, (0.2, 0.9))}


def _scheme_block(rng):
    kinds = [k for k, count in SCHEME_BLOCK for _ in range(count)]
    powers = [p for k, count in SCHEME_BLOCK
              for p in _powers(rng, count, 0.25, 4.0)]
    horizons = _int_strata(rng, len(kinds), 1000, 4000)
    mc_horizons = _int_strata(rng, len(kinds), 20, 60)
    ops = [{"kind": k, "noise": _scheme_noise(rng, k), "power": p,
            "horizon": int(h), "mc_horizon": int(m), "trials": MC_TRIALS,
            "mc_seed": int(rng.integers(0, 2**31))}
           for k, p, h, m in zip(kinds, powers, horizons, mc_horizons)]
    return [ops[i] for i in rng.permutation(len(ops))]


def _cli_block(rng):
    """One round of the four ROADMAP commands, in a fixed order.  The
    arguments jitter around the ROADMAP's `0.5..2:10` sweep and P = 1,
    narrowly, because a sweep's cost falls with its powers."""
    lo = _log_uniform(rng, 0.45, 0.55)
    hi = _log_uniform(rng, 1.8, 2.2)
    return [
        {"kind": "counterexample", "argv": ["counterexample"]},
        {"kind": "power_sweep",
         "argv": ["counterexample", "--power-sweep", f"{lo!r}..{hi!r}:10"]},
        {"kind": "bounds",
         "argv": ["bounds", "--power", repr(_log_uniform(rng, 0.8, 1.25))]},
        {"kind": "simulate",
         "argv": ["simulate", "--power", repr(_log_uniform(rng, 0.5, 2.0)),
                  "--trials", "10000",
                  "--seed", str(int(rng.integers(0, 2**31)))]},
    ]


def probe_cases():
    """The known-defect probe: fixed inputs, the same every run, on which
    the code the benchmark was added to fails.  Each case is (name, the
    workload whose op runner and oracle it uses, op, the failure class it
    gave on that code).  The in-process workloads run all of them once per
    run, untimed and outside `attempted`, so every known defect stays in
    view while no timed op fails."""
    rng = np.random.default_rng

    def capacity(name, psd, power, seed_class):
        return (name, "capacity-mix", {"kind": "probe", "psd": psd,
                                       "power": power}, seed_class)

    def scheme(name, noise, power, mc_horizon, seed_class):
        return (name, "scheme-mc",
                {"kind": "probe", "noise": noise, "power": power,
                 "horizon": 1000, "mc_horizon": mc_horizon,
                 "trials": MC_TRIALS, "mc_seed": 1}, seed_class)

    def ma(coeffs, sigma2=1.0):
        return {"type": "ma", "coeffs": [float(c) for c in coeffs],
                "sigma2": sigma2}

    def nonmin(k):
        return ma(min_phase_taps(rng(k), 7, (0.2, 0.9), outside=True))

    return [
        # an interior zero at 5 pi / 6, off the 4097-point scan grid
        capacity("samples_off_grid_zero",
                 {"type": "samples", "values": [0, 1, 2, 3, 0.5, 0, 4]}, 1.0,
                 "ConvergenceError"),
        capacity("samples_91",
                 {"type": "samples",
                  "values": rng(91).uniform(0.0, 3.0, 91).tolist()}, 0.05,
                 "ConvergenceError"),
        # absolute tolerance below the roundoff floor
        capacity("white_p1e6", {"type": "white", "level": 1.0}, 1e6,
                 "ConvergenceError"),
        capacity("ma1_near_zero", ma([1.0, 1.0 - 1e-5]), 43.0,
                 "ConvergenceError"),
        capacity("ma80_random", ma(rng(80).standard_normal(81)), 1.0,
                 "power_residual"),
        capacity("ma15_null_residual", ma(rng(3).standard_normal(16)), 0.03,
                 "power_residual"),
        capacity("ma15_null_capacity", ma(rng(11).standard_normal(16)), 0.03,
                 "oracle_capacity"),
        scheme("nonmin_ma7_raises", nonmin(2), 1.0, 40, "ConditioningError"),
        # returns, but misses brute-force conditioning
        scheme("nonmin_ma7_wrong", nonmin(0), 1.0, 40, "brute_force"),
        # P / N = 1/14: the message grid has 2 points
        scheme("white_low_snr", {"type": "white", "level": 3.7}, 0.268, 43,
               "mc_power"),
    ]


BLOCKS = {"cli-cold": _cli_block, "capacity-mix": _capacity_block,
          "scheme-mc": _scheme_block}


def op_stream(workload, seed):
    """Endless seeded stream of op inputs, one block at a time."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield from BLOCKS[workload](rng)


def block_size(workload):
    """Ops in one block; timed runs stop only at a block's end."""
    block = {"capacity-mix": CAPACITY_BLOCK, "scheme-mc": SCHEME_BLOCK}.get(
        workload, (("command", 4),))
    return sum(count for _, count in block)


def take(stream, n):
    return [next(stream) for _ in range(n)]


def inputs_hash(ops):
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
