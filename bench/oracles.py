"""Independent oracles for every op the benchmark times.

These run in the benchmark's own process, never in the process that runs
the timed ops, and outside every timed region; gfcap must be importable.  They use scipy (brentq,
quad), closed forms, and gfcap's brute-force conditioning path, which
shares no code with the covariance recursion it checks.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from gfcap import (PAPER_CHANNEL, ConditioningError, PsdSpec, SchemeConfig,
                   brute_force_conditioning)

# A correct solver reaches these; each is far above the oracles' own error.
POWER_RTOL = 1e-10      # residual <= POWER_RTOL * max(1, P): the CLI default
NU_RTOL = 1e-8          #   1e-10, scaled by the power above P = 1
CAPACITY_TOL = 1e-8     # absolute below 1 bit, relative above
RATE_TOL = 1e-11
BRUTE_FORCE_TOL = 1e-9  # log2 error variance, first 64 steps
MC_SIGMAS = 6.0


class Spectrum:
    """A PSD given as a spec-file dict, evaluated independently of gfcap.

    Besides scalar evaluation it keeps a sorted set of angles on [0, pi]
    that contains every local minimum, so that a level crossing is always
    bracketed by two neighbouring angles: for MA forms a grid of 256(q+1)
    points plus its local minima polished by scipy's bounded minimizer, for
    samples the sample nodes themselves.
    """

    def __init__(self, doc):
        self.kind = doc["type"]
        if self.kind == "white":
            self.level = float(doc["level"])
            return
        if self.kind == "ma":
            b = np.asarray(doc["coeffs"], dtype=float)
            s2 = float(doc.get("sigma2", 1.0))
            r = s2 * np.correlate(b, b, mode="full")[len(b) - 1:]
            self.r0, self.rk = float(r[0]), [2.0 * float(v) for v in r[1:]]
            grid = np.linspace(0.0, math.pi, 256 * len(b) + 1)
            k = np.arange(1, len(b))
            s = self.r0 + np.cos(np.outer(grid, k)) @ np.asarray(self.rk)
            mins = [grid[i] for i in range(1, len(grid) - 1)
                    if s[i] <= s[i - 1] and s[i] <= s[i + 1]]
            polished = [minimize_scalar(self, bounds=(m - grid[1], m + grid[1]),
                                        method="bounded",
                                        options={"xatol": 1e-14}).x
                        for m in mins]
            extra = [float(p) for p in polished if 0.0 < p < math.pi]
            nodes = np.concatenate([grid, extra])
            vals = np.concatenate([np.maximum(s, 0.0), [self(p) for p in extra]])
            order = np.argsort(nodes, kind="stable")
            self.nodes, self.at_nodes = nodes[order].tolist(), vals[order]
            self.singular = ()
        else:
            self.values = [float(v) for v in doc["values"]]
            n = len(self.values)
            self.nodes = [math.pi * i / (n - 1) for i in range(n)]
            self.at_nodes = np.asarray(self.values)
            self.singular = tuple(self.nodes[1:-1])

    def __call__(self, th):
        if self.kind == "white":
            return self.level
        if self.kind == "ma":
            c1 = math.cos(th)
            prev, cur, acc = 1.0, c1, self.r0
            for rk in self.rk:  # Chebyshev recurrence for cos(k th)
                acc += rk * cur
                prev, cur = cur, 2.0 * c1 * cur - prev
            return max(acc, 0.0)
        i = min(max(bisect.bisect_right(self.nodes, th) - 1, 0),
                len(self.nodes) - 2)
        t = (th - self.nodes[i]) / (self.nodes[i + 1] - self.nodes[i])
        return (1.0 - t) * self.values[i] + t * self.values[i + 1]

    def filled(self, nu):
        """Intervals of [0, pi] where S < nu, with exact (brentq) ends."""
        below = self.at_nodes < nu
        out = []
        start = 0.0 if below[0] else None
        for i in (np.flatnonzero(below[1:] != below[:-1]) + 1).tolist():
            a, b = self.nodes[i - 1], self.nodes[i]
            fa, fb = self(a) - nu, self(b) - nu
            if fa * fb < 0.0:
                x = brentq(lambda t: self(t) - nu, a, b, xtol=1e-15, rtol=1e-15)
            else:  # a node within roundoff of nu is itself the crossing
                x = a if abs(fa) <= abs(fb) else b
            if below[i]:
                start = x
            else:
                out.append((start, x))
        if start is not None and below[-1]:
            out.append((start, math.pi))
        return out

    def mean_over(self, f, intervals):
        """(1/pi) * sum of scipy quad integrals of f over the intervals."""
        total = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            for a, b in intervals:
                inner = [p for p in self.singular if a < p < b]
                total += quad(f, a, b, points=inner or None,
                              limit=max(200, 4 * len(inner)),
                              epsabs=1e-15, epsrel=1e-13)[0]
        return total / math.pi


def waterfill(spec: Spectrum, power, nu_hint=None):
    """Water level and capacity: scipy brentq on the quad-integrated filled
    power over the exactly located band, then quad for the capacity."""
    if spec.kind == "white":
        return spec.level + power, 0.5 * math.log2(1.0 + power / spec.level)

    def excess(nu):
        return spec.mean_over(lambda th: nu - spec(th), spec.filled(nu)) - power

    lo, hi = 0.0, float(spec.at_nodes.max()) + 2.0 * power
    if nu_hint is not None and math.isfinite(nu_hint) and nu_hint > 0:
        # a tight bracket around the answer under test only saves time:
        # it is used only when the oracle's own function changes sign on it
        a, b = nu_hint * (1.0 - 1e-7), nu_hint * (1.0 + 1e-7)
        if excess(a) < 0.0 < excess(b):
            lo, hi = a, b
    nu = brentq(excess, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=200)
    return nu, spec.mean_over(
        lambda th: 0.5 * math.log2(nu / max(spec(th), 1e-300)),
        spec.filled(nu))


@functools.lru_cache(maxsize=None)
def paper_waterfill(power):
    """The paper channel 2(1+cos th): filled power has the closed form
    ((nu-2)(pi-tc) + 2 sin tc) / pi below nu = 4, with cos tc = (nu-2)/2."""
    def filled(nu):
        if nu >= 4.0:
            return nu - 2.0
        tc = math.acos((nu - 2.0) / 2.0)
        return ((nu - 2.0) * (math.pi - tc) + 2.0 * math.sin(tc)) / math.pi

    nu = brentq(lambda v: filled(v) - power, 0.0, 2.0 * power + 2.0,
                xtol=1e-15, rtol=1e-15, maxiter=200)
    spec = Spectrum({"type": "ma", "coeffs": [1.0, 1.0], "sigma2": 1.0})
    tc = math.acos((nu - 2.0) / 2.0) if nu < 4.0 else 0.0

    def gain(th):
        return 0.5 * math.log2(nu / max(spec(th), 1e-300)) if th > tc else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        c, _ = quad(gain, tc, math.pi, limit=400, epsabs=1e-14, epsrel=1e-13)
    return nu, c / math.pi


def sk_x0(power):
    """Root in (0, 1) of P x^2 = (1+x)(1-x)^3, by scipy brentq."""
    return brentq(lambda x: power * x * x - (1 + x) * (1 - x) ** 3, 0.0, 1.0,
                  xtol=1e-16, rtol=1e-15, maxiter=200)


def close(a, b, tol):
    return (a is not None and math.isfinite(a)
            and abs(a - b) <= tol * max(1.0, abs(b)))


def mc_power_ok(avg_power, power, trials):
    """The normalized error e_i has unit variance and kurtosis at most 3,
    so var(mean of x_i^2) over trials is at most 2 P^2 / trials for every
    step, and the average over correlated steps cannot exceed that."""
    return abs(avg_power - power) <= MC_SIGMAS * power * math.sqrt(2.0 / trials)


# ---- per-workload checks: each returns None or a failure class ----------

def check_capacity(op, res):
    if "error" in res:
        return res["error"]
    out, power = res["out"], op["power"]
    if not out["residual"] <= POWER_RTOL * max(1.0, power):
        return "power_residual"
    nu, cap = waterfill(Spectrum(op["psd"]), power, out["nu"])
    if not close(out["nu"], nu, NU_RTOL):
        return "oracle_nu"
    if not close(out["capacity"], cap, CAPACITY_TOL):
        return "oracle_capacity"
    return None


def check_scheme(op, res):
    if "error" in res:
        return res["error"]
    out, power, doc = res["out"], op["power"], op["noise"]
    noise = (PsdSpec.white(doc["level"]) if doc["type"] == "white"
             else PsdSpec.ma(doc["coeffs"], doc["sigma2"]))
    steps = len(out["log2ev"]) - 1
    try:
        brute = brute_force_conditioning(
            SchemeConfig(power=power, horizon=steps, rate_bits=1.0), noise,
            steps).log2_error_variance
    except (ConditioningError, ValueError):
        # the exact conditioning path finds the problem singular, so the
        # recursion's numbers for it cannot be confirmed
        return "brute_force_singular"
    if not all(close(a, b, BRUTE_FORCE_TOL)
               for a, b in zip(out["log2ev"], brute)):
        return "brute_force"
    if op["kind"] == "white":
        want = (1.0 + power / doc["level"]) ** -0.5
    elif op["kind"] == "paper":
        want = sk_x0(power)
    else:
        want = None
    if want is not None and not close(out["contraction"], want, 1e-9):
        return "contraction_closed_form"
    if out["trials"] != op["trials"] or out["horizon"] != op["mc_horizon"]:
        return "mc_shape"
    if not mc_power_ok(out["avg_power"], power, op["trials"]):
        return "mc_power"
    return None


def _cli_fields(kind, inputs, o):
    """(field, reported, oracle, tolerance) for one CLI JSON envelope."""
    def sk_rate(p):
        return -math.log2(sk_x0(p))

    def cap(p):
        return paper_waterfill(p)[1]

    def cy(p, a):
        c = cap(a * p)
        return min((1 + 1 / a) * c, c + 0.5 * math.log2(1 + 1 / a))

    if kind in ("counterexample", "power_sweep"):
        c1 = cap(1.0)
        yield "c_2", o["c_2"], 1.0, CAPACITY_TOL
        yield "x0", o["x0"], sk_x0(1.0), RATE_TOL
        yield "sk_rate", o["sk_rate"], sk_rate(1.0), RATE_TOL
        yield "cp_double", o["cp_double"], 2 * c1, CAPACITY_TOL
        yield "cp_plus_half", o["cp_plus_half"], c1 + 0.5, CAPACITY_TOL
        yield "cy_min_value", o["cy_min_value"], cy(1.0, o["cy_min_alpha"]), \
            CAPACITY_TOL
        yield "margin", o["margin"], sk_rate(1.0) - 1.0, CAPACITY_TOL
        for p, rate, c2p, violated in o.get("power_sweep", ()):
            yield "sweep_sk_rate", rate, sk_rate(p), RATE_TOL
            yield "sweep_c_2p", c2p, cap(2 * p), CAPACITY_TOL
            yield "sweep_violated", float(violated), \
                float(sk_rate(p) > cap(2 * p)), 0.0
    elif kind == "bounds":
        p = inputs["power"]
        c = cap(p)
        yield "c_p", o["c_p"], c, CAPACITY_TOL
        yield "cp_double", o["cp_double"], 2 * c, CAPACITY_TOL
        yield "cp_plus_half", o["cp_plus_half"], c + 0.5, CAPACITY_TOL
        for a, b1, b2 in o["cy_curve"]:
            ca = cap(a * p)
            yield "cy_curve", b1, (1 + 1 / a) * ca, CAPACITY_TOL
            yield "cy_curve", b2, ca + 0.5 * math.log2(1 + 1 / a), CAPACITY_TOL
        yield "cy_min_value", o["cy_min_value"], cy(p, o["cy_min_alpha"]), \
            CAPACITY_TOL
    else:
        p, trials = inputs["power"], inputs["trials"]
        brute = brute_force_conditioning(
            SchemeConfig(power=p, horizon=inputs["horizon"], rate_bits=1.0),
            PAPER_CHANNEL, inputs["horizon"]).contraction_estimate
        yield "contraction_deterministic", o["contraction_deterministic"], \
            brute, BRUTE_FORCE_TOL
        yield "scheme_rate_bits", o["scheme_rate_bits"], -math.log2(brute), \
            BRUTE_FORCE_TOL
        within = mc_power_ok(o["empirical_avg_power"], p, trials)
        yield "empirical_avg_power", float(within), 1.0, 0.0


def check_cli(op, res):
    if res["returncode"] != 0:
        return f"exit_{res['returncode']}"
    doc = res["out"]
    try:
        if op["kind"] in ("counterexample", "power_sweep") and \
                doc["verdicts"]["violated"] is not True:
            return "oracle_violated"
        for field, got, want, tol in _cli_fields(op["kind"], doc["inputs"],
                                                 doc["outputs"]):
            if not close(got, want, tol):
                return f"oracle_{field}"
    except (KeyError, TypeError, ValueError):
        return "envelope_malformed"
    return None


CHECKS = {"cli-cold": check_cli, "capacity-mix": check_capacity,
          "scheme-mc": check_scheme}


def check_anchors(workload, anchors):
    """Closed forms: C(2) = 1 and nu = 4 on the paper channel, the AWGN
    capacity, x0 = 1/2 at P = 3/4, and the white-noise contraction."""
    if workload == "capacity-mix":
        want = {"paper_nu": 4.0, "paper_c2": 1.0, "awgn_c": 0.5 * math.log2(4)}
    elif workload == "scheme-mc":
        want = {"sk_x0_3_4": 0.5, "white_contraction": 0.5}
    else:
        return []
    return [k for k, v in want.items() if not close(anchors[k], v, 1e-9)]


def returned_wrong(cls):
    """A failure class whose op returned a number instead of raising."""
    return (cls in ("power_residual", "brute_force", "mc_power", "mc_shape",
                    "contraction_closed_form") or cls.startswith("oracle_"))
