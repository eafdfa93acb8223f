"""Executable realization of the linear feedback coding scheme.

The transmitter sends a gain-normalized copy of the receiver's current
estimation error; the receiver updates its estimate by exact linear
conditioning on each channel output.  For white noise the per-step error
contraction is (1+P/N0)^(-1/2); on the MA(1) channel it converges to the
root x0 of P*x^2 = (1+x)(1-x)^3, which is the fact the deterministic trace
is checked against.

Because the noise here is correlated across time, the sign of the transmit
gain matters: each step greedily picks the sign that shrinks the error
variance most.  On 2(1+cos theta) noise (positive lag-1 correlation) this
produces the alternating-sign transmission the scheme needs; on white noise
the choice is irrelevant and the positive sign is kept.

All covariance propagation is done with the message-error variance
normalized to one, so traces remain exact even when the raw error variance
underflows a double (long horizons at high power).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .spectrum import (ConditioningError, PsdSpec, UnsupportedFormError,
                       _Record)

MESSAGE_PRIOR_VARIANCE = 1.0 / 12.0  # uniform message point on [0, 1]
MC_BLOCK = 1024  # Monte Carlo trials per keyed random stream


class SchemeConfig(_Record):
    __slots__ = ("power", "horizon", "rate_bits", "seed")
    _defaults = {"seed": 0}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0 < self.power < math.inf:
            raise ValueError("power must be positive and finite")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if not 0 < self.rate_bits < math.inf:
            raise ValueError("rate must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def message_grid_saturated(self) -> bool:
        return self.horizon * self.rate_bits > 62

    @property
    def pam_levels(self) -> int:
        # beyond ~2^62 the grid is not representable in doubles anyway;
        # saturate so long trace-centric runs still work end to end
        if self.message_grid_saturated:
            return 2 ** 40
        return max(int(math.ceil(2.0 ** (self.horizon * self.rate_bits))), 1)


class VarianceTrace(_Record):
    """Per step: transmit_power, exactly P by gain normalization;
    error_variance and its log2, index 0 the prior; contraction
    sqrt(V_i / V_{i-1}); signs."""

    __slots__ = ("transmit_power", "error_variance", "log2_error_variance",
                 "contraction", "signs", "contraction_estimate")


class MonteCarloReport(_Record):
    __slots__ = ("trials", "horizon", "pam_levels", "empirical_avg_power",
                 "decode_errors", "error_rate", "contraction_empirical",
                 "empirical_error_variance", "degenerate",
                 "message_grid_saturated", "seed")


class _Step(_Record):
    # gain_vec: covariance between augmented state and output
    __slots__ = ("sign", "gain_vec", "innov_var", "ratio")


def _ma_taps(noise: PsdSpec):
    if noise.form == "ma":
        return np.asarray(noise.coeffs, dtype=float), float(noise.sigma2)
    if noise.form == "white":
        return np.asarray([1.0]), float(noise.level)
    raise UnsupportedFormError("simulator needs an ma or white noise spectrum")


def _augment(S, sigma2, q):
    """Covariance of (message error, fresh innovation, pending innovations)
    given the outputs so far; the fresh innovation is independent."""
    d = 1 + q
    T = np.zeros((d + 1, d + 1))
    T[0, 0] = S[0, 0]
    T[1, 1] = sigma2
    if q:
        T[0, 2:] = S[0, 1:]
        T[2:, 0] = S[1:, 0]
        T[2:, 2:] = S[1:, 1:]
    return T


def _propagate(power, taps, sigma2, n, var_theta=MESSAGE_PRIOR_VARIANCE):
    """Normalized covariance recursion; returns per-step data and log variances."""
    q = len(taps) - 1
    d = 1 + q
    S = np.zeros((d, d))
    S[0, 0] = 1.0
    logv = math.log(var_theta)
    log2ev = [logv / math.log(2.0)]
    steps = []
    sqrtP = math.sqrt(power)
    for _ in range(n):
        best = None
        for sign in (1.0, -1.0):
            a = np.concatenate(([sign * sqrtP], taps))
            T = _augment(S, sigma2, q)
            Ta = T @ a
            s = float(a @ Ta)
            if not np.isfinite(s) or s <= 0:
                raise ConditioningError("innovation variance not positive")
            Tc = T - np.outer(Ta, Ta) / s
            v = float(Tc[0, 0])
            if not np.isfinite(v) or v <= 0:
                raise ConditioningError("error variance lost positivity")
            if best is None or v < best[0] - 1e-15:
                best = (v, sign, Ta, s, Tc)
        v, sign, Ta, s, Tc = best
        ratio = math.sqrt(v)
        steps.append(_Step(sign=sign, gain_vec=Ta, innov_var=s, ratio=ratio))
        S = Tc[:d, :d].copy()
        S[0, :] /= ratio
        S[:, 0] /= ratio
        logv += math.log(v)
        log2ev.append(logv / math.log(2.0))
    return steps, np.asarray(log2ev)


def _trace_from(config, ratios, signs, log2ev):
    """The trace of a run from its per-step contractions and signs; the
    estimate is their geometric mean after a burn-in of horizon // 4."""
    ratios = np.asarray(ratios)
    estimate = float(np.exp(np.mean(np.log(ratios[config.horizon // 4:]))))
    return VarianceTrace(
        transmit_power=np.full(len(ratios), config.power),
        error_variance=np.exp2(log2ev),
        log2_error_variance=log2ev,
        contraction=ratios,
        signs=np.asarray(signs),
        contraction_estimate=estimate,
    )


def variance_recursion(config: SchemeConfig, noise: PsdSpec) -> VarianceTrace:
    """Deterministic error-variance evolution of the scheme.

    Propagates the exact joint-Gaussian law of (message, pending noise
    innovations) conditioned on the outputs, with the transmit gain
    renormalized every step so E[X_i^2] = P exactly.  No sampling involved.
    """
    taps, sigma2 = _ma_taps(noise)
    steps, log2ev = _propagate(config.power, taps, sigma2, config.horizon)
    return _trace_from(config, [st.ratio for st in steps],
                       [st.sign for st in steps], log2ev)


def brute_force_conditioning(config: SchemeConfig, noise: PsdSpec,
                             n_max: int) -> VarianceTrace:
    """Validation oracle: same trace via the full covariance of
    (message, all n innovations), conditioned output by output with rank-one
    Schur complements.  Cubic cost, no state truncation; used only to check
    variance_recursion."""
    if n_max > 64:
        raise ValueError("brute-force path is limited to n_max <= 64")
    taps, sigma2 = _ma_taps(noise)
    n = n_max
    dim = 1 + n
    Sig = np.zeros((dim, dim))
    Sig[0, 0] = MESSAGE_PRIOR_VARIANCE
    Sig[1:, 1:] = sigma2 * np.eye(n)
    log2ev = [math.log2(Sig[0, 0])]
    ratios = []
    signs = []
    sqrtP = math.sqrt(config.power)
    for i in range(1, n + 1):
        z_row = np.zeros(dim)
        for k, bk in enumerate(taps):
            j = i - k
            if j >= 1:
                z_row[j] = bk
        v_prev = Sig[0, 0]
        best = None
        for sign in (1.0, -1.0):
            row = z_row.copy()
            row[0] += sign * sqrtP / math.sqrt(v_prev)
            u = Sig @ row
            s = float(row @ u)
            if not np.isfinite(s) or s <= 0:
                raise ConditioningError("singular conditioning block")
            v_new = v_prev - u[0] ** 2 / s
            if best is None or v_new < best[0] - 1e-15 * v_prev:
                best = (v_new, sign, u, s)
        v_new, sign, u, s = best
        if not 0.0 < v_new < math.inf:
            raise ConditioningError("error variance lost positivity")
        Sig = Sig - np.outer(u, u) / s
        signs.append(sign)
        ratios.append(math.sqrt(v_new / v_prev))
        log2ev.append(math.log2(v_new))
    return _trace_from(config, ratios, signs, np.asarray(log2ev))


def _block_draws(seed, block, size, levels, n):
    """Message indices and an (size, n) matrix of standard normal
    innovations for one block of trials, from a Philox stream keyed by
    (seed, block)."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, block))))
    return rng.integers(0, levels, size=size), rng.standard_normal((size, n))


def _noise_map(taps, sigma2, n):
    """(n+1) x n map from (message error, u_1..u_n) to the MA noise
    z_1..z_n: column i holds sqrt(sigma2) * taps[k] at row i+1-k.  Row 0
    is zero, since the message error carries no noise and pre-history
    innovations are zero."""
    noise = sum(bk * np.eye(n + 1, n, k - 1) for k, bk in enumerate(taps))
    noise[0] = 0.0
    return math.sqrt(sigma2) * noise


def _scheme_maps(config, taps, sigma2):
    """The scheme as two linear maps of (normalized message error,
    u_1..u_n): an (n+1) x n transmit map and an (n+1) final-error map.
    The gains are fixed before any trial runs, so the per-step recursion
    is run once, on the unit basis of the inputs."""
    steps, log2ev = _propagate(config.power, taps, sigma2, config.horizon)
    n, q = config.horizon, len(taps) - 1
    noise = _noise_map(taps, sigma2, n)
    sqrtP = math.sqrt(config.power)
    e = np.zeros(n + 1)
    e[0] = 1.0
    pending = np.zeros((q, n + 1))   # means of the pending innovations
    transmit = np.empty((n + 1, n))
    for i, st in enumerate(steps):
        coef = st.gain_vec / st.innov_var
        transmit[:, i] = st.sign * sqrtP * e
        innov = transmit[:, i] + noise[:, i] - taps[1:] @ pending
        pending = np.concatenate((np.zeros((1, n + 1)), pending))[:q]
        pending += coef[1:q + 1, None] * innov
        e = (e - coef[0] * innov) / st.ratio
    return transmit, e * 2.0 ** (0.5 * log2ev[-1])


def _block_sums(config, transmit, error, block, size):
    """Run one block of trials; returns (transmit power sum, decode
    errors, sum of squared final errors)."""
    levels = config.pam_levels
    idx, u = _block_draws(config.seed, block, size, levels, config.horizon)
    theta = idx / (levels - 1) if levels > 1 else np.full(size, 0.5)
    inputs = np.column_stack(
        ((theta - 0.5) / math.sqrt(MESSAGE_PRIOR_VARIANCE), u))
    x = inputs @ transmit
    err = inputs @ error
    if levels > 1:
        decoded = np.clip(np.ceil((theta - err) * (levels - 1) - 0.5),
                          0, levels - 1).astype(np.int64)
        decode_errors = int(np.sum(decoded != idx))
    else:
        decode_errors = 0
    return float(np.vdot(x, x)), decode_errors, float(err @ err)


def simulate_transmission(config: SchemeConfig, noise: PsdSpec,
                          trials: int) -> MonteCarloReport:
    """Message-level Monte Carlo run of the scheme.

    Each trial draws a message uniformly from an equispaced grid on [0, 1],
    runs the scheme against a sampled noise path, and decodes by nearest
    grid point (ties rounded toward the lower index).  The gains do not
    depend on the draws, so the transmit sequence and the final error are
    linear in (message error, noise innovations): the scheme is built once
    as two maps, and a block of trials is its draws and two matrix
    products.  Trials run in blocks of MC_BLOCK; block b draws its
    messages and noise innovations from a counter-based Philox stream
    keyed by (seed, b), and the block sums are added with math.fsum, so
    the report is reproducible and does not depend on the order in which
    blocks run.  Memory is bounded by one block and the two maps.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    taps, sigma2 = _ma_taps(noise)
    n = config.horizon
    transmit, error = _scheme_maps(config, taps, sigma2)
    sums = [_block_sums(config, transmit, error, b,
                        min(MC_BLOCK, trials - start))
            for b, start in enumerate(range(0, trials, MC_BLOCK))]
    power_sums, errors, sq_errs = zip(*sums)
    decode_errors = sum(errors)
    emp_var = math.fsum(sq_errs) / trials
    contraction = (emp_var / MESSAGE_PRIOR_VARIANCE) ** (0.5 / n) if emp_var > 0 else 0.0
    return MonteCarloReport(
        trials=trials,
        horizon=n,
        pam_levels=config.pam_levels,
        empirical_avg_power=math.fsum(power_sums) / (trials * n),
        decode_errors=decode_errors,
        error_rate=decode_errors / trials,
        contraction_empirical=contraction,
        empirical_error_variance=emp_var,
        degenerate=config.pam_levels < 2,
        message_grid_saturated=config.message_grid_saturated,
        seed=config.seed,
    )


def trace_to_csv(trace: VarianceTrace, path):
    """Write a trace as CSV with columns step, power, error_variance,
    contraction (step 0 is the prior row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "power", "error_variance", "contraction"])
        writer.writerow([0, "", repr(float(trace.error_variance[0])), ""])
        for i in range(len(trace.contraction)):
            writer.writerow([
                i + 1,
                repr(float(trace.transmit_power[i])),
                repr(float(trace.error_variance[i + 1])),
                repr(float(trace.contraction[i])),
            ])
