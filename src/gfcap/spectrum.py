"""Power spectral densities on [-pi, pi]: evaluation, spectral integrals,
zero location, and sampling of stationary Gaussian noise paths.

A PSD can be given as a moving-average filter (coefficients plus innovation
variance), as uniform samples on [0, pi] extended by even symmetry, or as a
flat white level.  Integrals of spectral functionals are computed with
composite Gauss-Legendre panels, with geometric panel refinement toward
declared singular points so that integrable logarithmic singularities (e.g.
log of a spectrum that vanishes at some frequency) do not wreck accuracy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """Raised when quadrature refinement exhausts its budget."""


class UnsupportedFormError(ValueError):
    """Raised when an operation needs a PSD form other than the one given."""


@dataclass(frozen=True)
class PsdSpec:
    """A power spectral density in one of three forms.

    form == "ma":      S(theta) = sigma2 * |sum_k coeffs[k] e^{ik theta}|^2
    form == "samples": piecewise-linear through uniform samples on [0, pi],
                       extended to [-pi, 0) by even symmetry
    form == "white":   S(theta) = level
    """

    form: str
    coeffs: tuple | None = None
    sigma2: float | None = None
    values: tuple | None = None
    level: float | None = None

    def __post_init__(self):
        if self.form == "ma":
            if not self.coeffs:
                raise ValueError("ma form needs at least one coefficient")
            if not all(map(math.isfinite, self.coeffs)):
                raise ValueError("ma coefficients must be finite")
            if self.sigma2 is None or not 0 < self.sigma2 < math.inf:
                raise ValueError("innovation variance must be positive "
                                 "and finite")
        elif self.form == "samples":
            if self.values is None or len(self.values) < 2:
                raise ValueError("samples form needs at least two values")
            if not all(0 <= v < math.inf for v in self.values):
                raise ValueError("sampled PSD values must be nonnegative "
                                 "and finite")
        elif self.form == "white":
            if self.level is None or not 0 <= self.level < math.inf:
                raise ValueError("white level must be nonnegative and finite")
        else:
            raise ValueError(f"unknown PSD form {self.form!r}")

    @classmethod
    def ma(cls, coeffs, sigma2=1.0):
        return cls(form="ma", coeffs=tuple(float(c) for c in coeffs),
                   sigma2=float(sigma2))

    @classmethod
    def from_samples(cls, values):
        return cls(form="samples", values=tuple(float(v) for v in values))

    @classmethod
    def white(cls, level):
        return cls(form="white", level=float(level))


#: The MA(1) channel used throughout: S_Z(theta) = |1+e^{i theta}|^2 = 2(1+cos theta).
PAPER_CHANNEL = PsdSpec.ma((1.0, 1.0), 1.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings: panels on [-pi, pi] at the first
    level, and the absolute tolerance two successive levels must meet.
    singularity_refinement_depth is used by mean_integral only; the
    water-filling capacity integrates no singularity."""

    panel_count: int = 64
    singularity_refinement_depth: int = 48
    abs_tolerance: float = 1e-10

    def __post_init__(self):
        if self.panel_count < 8:
            raise ValueError("panel_count must be at least 8")
        if self.singularity_refinement_depth < 0:
            raise ValueError("singularity_refinement_depth must be nonnegative")
        if not 0 < self.abs_tolerance < math.inf:
            raise ValueError("abs_tolerance must be positive and finite")


DEFAULT_QUADRATURE = QuadratureConfig()


def psd_eval(spec: PsdSpec, theta):
    """Evaluate the PSD at theta (scalar or array), theta in [-pi, pi]."""
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > math.pi + 1e-12):
        raise ValueError("theta outside [-pi, pi]")
    if spec.form == "ma":
        # Horner in z = e^{i theta}: one complex exp per point, none per tap
        z = np.exp(1j * th)
        acc = np.full(th.shape, spec.coeffs[-1], dtype=complex)
        for bk in reversed(spec.coeffs[:-1]):
            acc = acc * z + bk
        out = spec.sigma2 * np.abs(acc) ** 2
    elif spec.form == "white":
        out = np.full(th.shape, spec.level, dtype=float)
    else:
        grid = np.linspace(0.0, math.pi, len(spec.values))
        out = np.interp(np.abs(th), grid, np.asarray(spec.values))
    if np.ndim(theta) == 0:
        return float(out)
    return out


# 16-point Gauss-Legendre rule on [-1, 1], shared by all panel integrations.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_edges(lo, hi, n_panels, singular_points, depth):
    """Uniform edges plus geometric refinement toward each singular point:
    every s and s -+ h / 2^k (k = 0..depth) that lies inside (lo, hi)."""
    s = np.asarray(singular_points, dtype=float)
    w = (hi - lo) / n_panels * 0.5 ** np.arange(depth + 1)
    extra = np.concatenate((s, (s[:, None] - w).ravel(),
                            (s[:, None] + w).ravel()))
    return np.unique(np.concatenate((np.linspace(lo, hi, n_panels + 1),
                                     extra[(lo < extra) & (extra < hi)])))


def _integrate_panels(f, edges):
    """Gauss-Legendre integral of f over the panels defined by edges."""
    lo, hi = edges[:-1], edges[1:]
    keep = (hi - lo) > 1e-15
    c = 0.5 * (lo + hi)[keep]
    h = 0.5 * (hi - lo)[keep]
    pts = (c[:, None] + h[:, None] * _GL_NODES[None, :]).ravel()
    wts = (h[:, None] * _GL_WEIGHTS[None, :]).ravel()
    y = np.asarray(f(pts), dtype=float)
    if y.shape != pts.shape:
        y = np.asarray([f(p) for p in pts], dtype=float)
    return float(wts @ y)


def _check_floor(tol, *values):
    """Raise ConvergenceError when tol is below the roundoff floor of the
    values: a tolerance below roundoff can never be certified honestly."""
    floor = 4.0 * np.finfo(float).eps * max(max(abs(v) for v in values), 1.0)
    if tol < floor:
        raise ConvergenceError(
            f"abs_tolerance {tol:g} is below the achievable roundoff floor "
            f"{floor:.2e}")


def mean_integral(f, config: QuadratureConfig | None = None, singular_points=()):
    """Compute (1/2pi) * integral of f over [-pi, pi].

    f must accept an ndarray of angles.  Points listed in singular_points
    (and their mirror images) become panel edges with geometric refinement,
    which keeps composite Gauss-Legendre accurate through integrable
    logarithmic singularities.  Panel count is doubled until two successive
    refinements agree within abs_tolerance; failure to converge raises
    ConvergenceError.
    """
    cfg = config or DEFAULT_QUADRATURE
    sing = set()
    for s in singular_points:
        for v in (float(s), -float(s)):
            if -math.pi <= v <= math.pi:
                sing.add(v)
    m = cfg.panel_count
    prev = None
    for _ in range(8):
        edges = _panel_edges(-math.pi, math.pi, m, sorted(sing),
                             cfg.singularity_refinement_depth)
        val = _integrate_panels(f, edges) / TWO_PI
        _check_floor(cfg.abs_tolerance, val)
        if prev is not None and abs(val - prev) <= cfg.abs_tolerance:
            return val
        prev = val
        m *= 2
    raise ConvergenceError(
        f"mean_integral did not reach tolerance {cfg.abs_tolerance:g} "
        f"after refinement up to {m // 2} panels")


def _bisect_scalar(fun, a, b, iters=80):
    fa = fun(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if fun(mid) * fa > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _golden_min(fun, a, b, tol=1e-13):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


@lru_cache(maxsize=256)
def psd_zeros(spec: PsdSpec):
    """Locate the zeros of the PSD on [0, pi].

    Returns all theta where S(theta) drops below 1e-12 times its maximum,
    found by a dense threshold scan with bisection-refined cluster
    boundaries.  Zeros at the interval endpoints are returned exactly as
    0.0 or pi.
    """
    grid = np.linspace(0.0, math.pi, 4097)
    s = psd_eval(spec, grid)
    tau = max(float(s.max()), 1e-300) * 1e-12
    below = s <= tau
    if not below.any():
        return ()
    zeros = []
    i = 0
    n = len(grid)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        if i == 0:
            zeros.append(0.0)
        elif j == n - 1:
            zeros.append(math.pi)
        else:
            thr = lambda th: psd_eval(spec, th) - tau
            a = _bisect_scalar(thr, grid[i - 1], grid[i])
            b = _bisect_scalar(thr, grid[j + 1], grid[j])
            zeros.append(_golden_min(lambda th: psd_eval(spec, th),
                                     min(a, b), max(a, b)))
        i = j + 1
    return tuple(sorted(zeros))


def sample_noise_path(spec: PsdSpec, n: int, seed: int):
    """Draw n samples of the stationary noise via its MA innovations form.

    Z_i = sqrt(sigma2) * sum_k coeffs[k] * U_{i-k} with U i.i.d. standard
    normal; pre-history innovations are zero-padded.  Same seed, same path.
    """
    if spec.form != "ma":
        raise UnsupportedFormError("noise sampling requires the ma form")
    if n < 1:
        raise ValueError("path length must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    return math.sqrt(spec.sigma2) * np.convolve(u, spec.coeffs)[:n]


def load_psd(source: str) -> PsdSpec:
    """Resolve a PSD from a builtin name or a JSON spec file.

    Builtins: "paper" (the MA(1) channel 2(1+cos theta)) and "white:LEVEL".
    Files hold one JSON object, e.g. {"type": "ma", "coeffs": [1.0, 1.0],
    "sigma2": 1.0}, {"type": "samples", "values": [...]}, or
    {"type": "white", "level": 1.0}.
    """
    if source == "paper":
        return PAPER_CHANNEL
    if source.startswith("white:"):
        return PsdSpec.white(float(source.split(":", 1)[1]))
    try:
        with open(source) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read PSD spec {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed PSD spec {source!r}: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"PSD spec {source!r} must be an object with a 'type'")
    kind = doc["type"]
    try:
        if kind == "ma":
            return PsdSpec.ma(doc["coeffs"], doc.get("sigma2", 1.0))
        if kind == "samples":
            return PsdSpec.from_samples(doc["values"])
        if kind == "white":
            return PsdSpec.white(doc["level"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"incomplete PSD spec {source!r}: {exc}") from exc
    raise ValueError(f"unknown PSD type {kind!r} in {source!r}")


def psd_describe(spec: PsdSpec) -> dict:
    """JSON-ready description of a PSD, matching the spec-file schema."""
    if spec.form == "ma":
        return {"type": "ma", "coeffs": list(spec.coeffs), "sigma2": spec.sigma2}
    if spec.form == "samples":
        return {"type": "samples", "values": list(spec.values)}
    return {"type": "white", "level": spec.level}
