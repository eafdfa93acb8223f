"""Command-line front end.

Subcommands: capacity, sk-rate, bounds, counterexample, simulate.  Every
command prints a report either as aligned "key = value" text (6 decimal
places) or as a JSON envelope with full double precision.  Exit codes:
0 success, 2 invalid input, 3 non-convergence, 4 failed internal
consistency check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .feedback import (
    chen_yanagi_curve,
    conjecture_check,
    conjecture_margin,
    cover_pombra_bounds,
    default_alpha_grid,
    sandwich_failures,
    sk_root,
)
from .simulator import (
    ConditioningError,
    SchemeConfig,
    simulate_transmission,
    trace_to_csv,
    variance_recursion,
)
from .spectrum import (
    ConvergenceError,
    QuadratureConfig,
    load_psd,
    psd_describe,
)
from .waterfill import nonfeedback_capacity

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4


class CheckFailure(RuntimeError):
    pass


def _fmt(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _plain(value):
    """Recursively convert numpy scalars and sequences to JSON-safe types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _emit(report, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    for section in ("inputs", "outputs", "verdicts"):
        for key, value in report.get(section, {}).items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                out.write(f"{key}:\n")
                for row in value:
                    out.write("  " + "  ".join(_fmt(v) for v in row) + "\n")
            elif isinstance(value, list):
                out.write(f"{key} = [" + ", ".join(_fmt(v) for v in value) + "]\n")
            elif isinstance(value, dict):
                out.write(f"{key} = {json.dumps(value)}\n")
            else:
                out.write(f"{key} = {_fmt(value)}\n")


def _envelope(command, inputs, outputs, verdicts, started):
    return {
        "command": command,
        "inputs": _plain(inputs),
        "outputs": _plain(outputs),
        "verdicts": _plain(verdicts),
        "wall_time_s": time.perf_counter() - started,
    }


def _quad_config(args):
    return QuadratureConfig(abs_tolerance=args.tol)


def cmd_capacity(args):
    started = time.perf_counter()
    psd = load_psd(args.psd)
    sol = nonfeedback_capacity(psd, args.power, _quad_config(args))
    report = _envelope(
        "capacity",
        {"psd": psd_describe(psd), "power": args.power, "tol": args.tol},
        {
            "water_level": sol.water_level,
            "capacity_bits": sol.capacity_bits,
            "power_residual": sol.power_residual,
            "band_crossings": list(sol.band_crossings),
        },
        {},
        started,
    )
    _emit(report, args.format)
    return EXIT_OK


def cmd_sk_rate(args):
    started = time.perf_counter()
    sol = sk_root(args.power)
    report = _envelope(
        "sk-rate",
        {"power": args.power},
        {"x0": sol.x0, "rate_bits": sol.rate_bits, "residual": sol.residual},
        {},
        started,
    )
    _emit(report, args.format)
    return EXIT_OK


def cmd_bounds(args):
    started = time.perf_counter()
    psd = load_psd(args.psd)
    cfg = _quad_config(args)
    alphas = default_alpha_grid(args.alpha_points, args.alpha_min,
                                args.alpha_max)
    c_p = nonfeedback_capacity(psd, args.power, cfg).capacity_bits
    cp_double, cp_plus_half = cover_pombra_bounds(c_p)
    curve, cy_alpha, cy_value = chen_yanagi_curve(psd, args.power, alphas,
                                                  cfg)
    report = _envelope(
        "bounds",
        {"psd": psd_describe(psd), "power": args.power, "tol": args.tol,
         "alpha_min": args.alpha_min, "alpha_max": args.alpha_max,
         "alpha_points": args.alpha_points},
        {
            "c_p": c_p,
            "cp_double": cp_double,
            "cp_plus_half": cp_plus_half,
            "cy_curve": [list(row) for row in curve],
            "cy_min_alpha": cy_alpha,
            "cy_min_value": cy_value,
        },
        {},
        started,
    )
    _emit(report, args.format)
    return EXIT_OK


def _parse_sweep(text):
    steps = 20
    if ":" in text:
        text, step_text = text.rsplit(":", 1)
        steps = int(step_text)
    lo_text, hi_text = text.split("..")
    lo, hi = float(lo_text), float(hi_text)
    if not 0 < lo < hi < math.inf or steps < 2:
        raise ValueError(f"bad power sweep {text!r}")
    return np.linspace(lo, hi, steps)


def cmd_counterexample(args):
    started = time.perf_counter()
    cfg = _quad_config(args)
    sweep = _parse_sweep(args.power_sweep) if args.power_sweep else None
    report = conjecture_check(1.0, cfg)
    failures = sandwich_failures(report)
    if failures:
        raise CheckFailure("; ".join(failures))
    outputs = {
        "c_2": report.conjecture_bound,
        "x0": report.sk.x0,
        "poly_residual": report.sk.residual,
        "sk_rate": report.sk_rate,
        "cp_double": report.cp_double,
        "cp_plus_half": report.cp_plus_half,
        "cy_min_alpha": report.cy_min_alpha,
        "cy_min_value": report.cy_min_value,
        "margin": report.margin,
    }
    verdicts = {
        "violated": report.violated,
        "verdict": (f"CONJECTURE VIOLATED: C_FB(1) >= {report.sk_rate:.6f} "
                    f"> 1 = C(2)") if report.violated else
                   "conjecture not violated at P=1",
    }
    if sweep is not None:
        rows = []
        for p in sweep:
            sk, c_2p, _, violated = conjecture_margin(float(p), cfg)
            rows.append([float(p), sk.rate_bits, c_2p, violated])
        outputs["power_sweep"] = rows
    _emit(_envelope("counterexample", {"power": 1.0}, outputs, verdicts,
                    started), args.format)
    return EXIT_OK


def cmd_simulate(args):
    started = time.perf_counter()
    psd = load_psd(args.psd)
    probe = SchemeConfig(power=args.power, horizon=args.horizon,
                         rate_bits=1.0, seed=args.seed)
    trace = variance_recursion(probe, psd)
    scheme_rate = -np.log2(trace.contraction_estimate)
    rate = args.rate if args.rate is not None else 0.9 * scheme_rate
    config = SchemeConfig(power=args.power, horizon=args.horizon,
                          rate_bits=rate, seed=args.seed)
    try:
        trace_to_csv(trace, args.trace_out)
    except OSError as exc:
        raise ValueError(
            f"cannot write trace {args.trace_out!r}: {exc}") from exc
    mc = simulate_transmission(config, psd, args.trials)
    report = _envelope(
        "simulate",
        {"psd": psd_describe(psd), "power": args.power, "rate": rate,
         "horizon": args.horizon, "trials": args.trials, "seed": args.seed},
        {
            "trace_csv": args.trace_out,
            "contraction_deterministic": trace.contraction_estimate,
            "scheme_rate_bits": scheme_rate,
            "pam_levels": mc.pam_levels,
            "empirical_avg_power": mc.empirical_avg_power,
            "decode_errors": mc.decode_errors,
            "error_rate": mc.error_rate,
            "contraction_empirical": mc.contraction_empirical,
        },
        {"degenerate": mc.degenerate,
         "message_grid_saturated": mc.message_grid_saturated},
        started,
    )
    _emit(report, args.format)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfcap",
        description="Capacity, feedback rates, and feedback-capacity bounds "
                    "for stationary Gaussian noise channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, psd=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="tolerance: absolute on the capacity in bits, "
                            "scaled by max(1, P) on the power check")
        if psd:
            p.add_argument("--psd", default="paper",
                           help="PSD spec file, 'paper', or 'white:LEVEL'")

    p = sub.add_parser("capacity", help="nonfeedback water-filling capacity")
    common(p)
    p.add_argument("--power", type=float, required=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sk-rate", help="achievable feedback rate -log2(x0)")
    common(p, psd=False)
    p.add_argument("--power", type=float, required=True)
    p.set_defaults(func=cmd_sk_rate)

    p = sub.add_parser("bounds", help="feedback-capacity upper bound families")
    common(p)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--alpha-min", type=float, default=0.1)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--alpha-points", type=int, default=50)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("counterexample",
                       help="one-shot violation report for the MA(1) channel at P=1")
    common(p, psd=False)
    p.add_argument("--power-sweep", default=None, metavar="A..B[:steps]")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("simulate", help="run the feedback coding scheme")
    common(p)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--rate", type=float, default=None,
                   help="message rate in bits/use (default 0.9x scheme rate)")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default="variance_trace.csv")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except CheckFailure as exc:
        print(f"error: internal consistency check failed: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
