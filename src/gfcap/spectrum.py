"""Power spectral densities on [-pi, pi]: the PSD type, its evaluation,
and spec-file I/O; and _Record, the frozen slotted base of gfcap's records.

A PSD can be given as a moving-average filter (coefficients plus innovation
variance), as uniform samples on [0, pi] extended by even symmetry, or as a
flat white level.  Nothing here imports numpy until an array is evaluated.
"""

from __future__ import annotations

import json
import math


class ConvergenceError(RuntimeError):
    """Raised when a result cannot be certified to its stated tolerance:
    the water-level Newton solve does not converge, an error bound of the
    MA capacity (Jensen's, from spectral zeros near the unit circle, or the
    dilogarithm's, from the backward error of the zeros) exceeds it, or the
    tolerance lies below the roundoff floor of the numbers it is held to."""


class ConditioningError(RuntimeError):
    """Raised when a conditioning step of the feedback scheme loses
    positive definiteness."""


class UnsupportedFormError(ValueError):
    """Raised when an operation needs a PSD form other than the one given."""


class _Record:
    """Base of gfcap's frozen records.  The fields are the class's
    __slots__, set once by __init__, by position or keyword in slot order,
    with _defaults for those left out; equality and hashing go over every
    field but those in _uncompared, and repr shows them all."""

    __slots__ = ()
    _defaults = {}
    _uncompared = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or len(values) < len(fields)
                or not kwargs.keys() <= set(fields[len(args):])):
            raise TypeError(f"{name}() takes {', '.join(fields)} by position "
                            f"or keyword, each once")
        for key in fields:
            object.__setattr__(self, key, values[key])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__))

    def _compared(self):
        return tuple(getattr(self, f) for f in self.__slots__
                     if f not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class PsdSpec(_Record):
    """A power spectral density in one of three forms.

    form == "ma":      S(theta) = sigma2 * |sum_k coeffs[k] e^{ik theta}|^2
    form == "samples": piecewise-linear through uniform samples on [0, pi],
                       extended to [-pi, 0) by even symmetry
    form == "white":   S(theta) = level
    """

    __slots__ = ("form", "coeffs", "sigma2", "values", "level")

    # written out, not _Record's: one is built on every capacity solve
    def __init__(self, form, coeffs=None, sigma2=None, values=None,
                 level=None):
        init = object.__setattr__
        init(self, "form", form)
        init(self, "coeffs", coeffs)
        init(self, "sigma2", sigma2)
        init(self, "values", values)
        init(self, "level", level)
        if form == "ma":
            if not coeffs:
                raise ValueError("ma form needs at least one coefficient")
            if not all(map(math.isfinite, coeffs)):
                raise ValueError("ma coefficients must be finite")
            if sigma2 is None or not 0 < sigma2 < math.inf:
                raise ValueError("innovation variance must be positive "
                                 "and finite")
        elif form == "samples":
            if values is None or len(values) < 2:
                raise ValueError("samples form needs at least two values")
            if not all(0 <= v < math.inf for v in values):
                raise ValueError("sampled PSD values must be nonnegative "
                                 "and finite")
        elif form == "white":
            if level is None or not 0 <= level < math.inf:
                raise ValueError("white level must be nonnegative and finite")
        else:
            raise ValueError(f"unknown PSD form {form!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.form, self.coeffs, self.sigma2, self.values, self.level)
                == (other.form, other.coeffs, other.sigma2, other.values,
                    other.level))

    def __hash__(self):
        return hash((self.form, self.coeffs, self.sigma2, self.values,
                     self.level))

    @classmethod
    def ma(cls, coeffs, sigma2=1.0):
        return cls("ma", tuple(map(float, coeffs)), float(sigma2))

    @classmethod
    def from_samples(cls, values):
        return cls(form="samples", values=tuple(float(v) for v in values))

    @classmethod
    def white(cls, level):
        return cls("white", None, None, None, float(level))


#: The MA(1) channel used throughout: S_Z(theta) = |1+e^{i theta}|^2 = 2(1+cos theta).
PAPER_CHANNEL = PsdSpec.ma((1.0, 1.0), 1.0)
_THETA_MAX = math.pi + 1e-12  # the largest |theta|, with room for rounding


def psd_eval(spec: PsdSpec, theta):
    """Evaluate the PSD at theta in [-pi, pi].  A float gives a float and a
    tuple a tuple of floats; anything else is taken as an array and gives
    an array.  An angle outside [-pi, pi], or nan, raises ValueError.
    Floats and tuples of white and MA spectra are evaluated in plain
    Python, by the same Horner pass in z as arrays; numpy is imported only
    for arrays and samples spectra."""
    if isinstance(theta, (int, float)):
        return _eval_points(spec, (theta,))[0]
    if isinstance(theta, tuple):
        return _eval_points(spec, theta)
    return _eval_array(spec, theta)


def _eval_points(spec: PsdSpec, points):
    """psd_eval over a tuple of angles, as a tuple of floats."""
    # max passes over a nan unless it comes first; the sum does not
    if points and not (max(map(abs, points)) <= _THETA_MAX
                       and math.isfinite(sum(points))):
        raise ValueError("theta outside [-pi, pi]")
    if spec.form == "white":
        return (spec.level,) * len(points)
    if spec.form == "samples":
        return tuple(_eval_array(spec, points).tolist())
    cos, sin, sigma2 = math.cos, math.sin, spec.sigma2
    last, rest = complex(spec.coeffs[-1]), spec.coeffs[-2::-1]
    out = []
    for t in points:
        z = complex(cos(t), sin(t))
        acc = last
        for bk in rest:
            acc = acc * z + bk
        r = abs(acc)
        out.append(sigma2 * (r * r))
    return tuple(out)


def _eval_array(spec: PsdSpec, theta):
    import numpy as np

    th = np.asarray(theta, dtype=float)
    if not np.all(np.abs(th) <= _THETA_MAX):
        raise ValueError("theta outside [-pi, pi]")
    if spec.form == "ma":
        # Horner in z = e^{i theta}: one cos and one sin per point, written
        # into z's real and imaginary parts, none per tap
        z = np.empty(th.shape, dtype=complex)
        np.cos(th, out=z.real)
        np.sin(th, out=z.imag)
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


def load_psd(source: str) -> PsdSpec:
    """Resolve a PSD from a builtin name or a JSON spec file.

    Builtins: "paper" (the MA(1) channel 2(1+cos theta)) and "white:LEVEL".
    Files hold one JSON object, e.g. {"type": "ma", "coeffs": [1.0, 1.0],
    "sigma2": 1.0}, {"type": "samples", "values": [...]}, or
    {"type": "white", "level": 1.0}.  coeffs and values must be arrays of
    numbers, and sigma2 and level numbers; true and false are not numbers.
    Anything else raises ValueError.
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

    def number(key, value):
        # JSON true and false are not numbers here, though bool is an int
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"PSD spec {source!r}: {key!r} must be a number")
        return float(value)

    def numbers(key):
        if not isinstance(doc[key], list):
            raise ValueError(f"PSD spec {source!r}: {key!r} must be an array")
        return [number(key, v) for v in doc[key]]

    try:
        if kind == "ma":
            return PsdSpec.ma(numbers("coeffs"),
                              number("sigma2", doc.get("sigma2", 1.0)))
        if kind == "samples":
            return PsdSpec.from_samples(numbers("values"))
        if kind == "white":
            return PsdSpec.white(number("level", doc["level"]))
    except KeyError as exc:
        raise ValueError(f"incomplete PSD spec {source!r}: {exc}") from exc
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"PSD spec {source!r}: numbers must be within the "
                         f"float range") from exc
    raise ValueError(f"unknown PSD type {kind!r} in {source!r}")


def psd_describe(spec: PsdSpec) -> dict:
    """JSON-ready description of a PSD, matching the spec-file schema."""
    if spec.form == "ma":
        return {"type": "ma", "coeffs": list(spec.coeffs), "sigma2": spec.sigma2}
    if spec.form == "samples":
        return {"type": "samples", "values": list(spec.values)}
    return {"type": "white", "level": spec.level}
