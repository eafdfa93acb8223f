"""Runs one workload's ops in a fresh process; reads a job as JSON on stdin
and writes results as JSON on stdout.

The process imports gfcap, runs one discarded warm-up pass on inputs from a
different seed, then times each op in a closed loop (one client, the next op
starts when the previous one returns).  Input generation and result
formatting happen outside the timed calls.  With "trace" set, spans and
counters are recorded around gfcap's public functions for the timed pass.

    python3 bench/worker.py < job.json    (gfcap importable, e.g. PYTHONPATH=src)
    python3 bench/worker.py --setup WORKLOAD
    python3 bench/worker.py --probe    (the known-defect probe)
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback

_t0 = time.perf_counter()
import gfcap  # noqa: E402  (import time is measured)
IMPORT_S = time.perf_counter() - _t0

import workloads  # noqa: E402

# gfcap's functions are called through the package namespace, where the
# tracer rebinds them.
PsdSpec, SchemeConfig = gfcap.PsdSpec, gfcap.SchemeConfig

BRUTE_FORCE_STEPS = 64


def make_psd(doc):
    if doc["type"] == "ma":
        return PsdSpec.ma(doc["coeffs"], doc.get("sigma2", 1.0))
    if doc["type"] == "samples":
        return PsdSpec.from_samples(doc["values"])
    return PsdSpec.white(doc["level"])


def capacity_op(op):
    t0 = time.perf_counter()
    sol = gfcap.nonfeedback_capacity(make_psd(op["psd"]), op["power"])
    latency = time.perf_counter() - t0
    return latency, {"nu": sol.water_level, "capacity": sol.capacity_bits,
                     "residual": sol.power_residual}


def scheme_op(op):
    t0 = time.perf_counter()
    noise = make_psd(op["noise"])
    trace = gfcap.variance_recursion(
        SchemeConfig(power=op["power"], horizon=op["horizon"], rate_bits=1.0),
        noise)
    rate = -0.9 * math.log2(trace.contraction_estimate)
    mc = gfcap.simulate_transmission(
        SchemeConfig(power=op["power"], horizon=op["mc_horizon"],
                     rate_bits=rate, seed=op["mc_seed"]),
        noise, op["trials"])
    latency = time.perf_counter() - t0
    return latency, {
        "log2ev": trace.log2_error_variance[:BRUTE_FORCE_STEPS + 1].tolist(),
        "contraction": trace.contraction_estimate,
        "avg_power": mc.empirical_avg_power, "trials": mc.trials,
        "horizon": mc.horizon}


RUNNERS = {"capacity-mix": capacity_op, "scheme-mc": scheme_op}


def run_op(runner, op):
    t0 = time.perf_counter()
    try:
        latency, out = runner(op)
    except Exception as exc:  # an op's failure is data, not a crash
        return {"latency": time.perf_counter() - t0,
                "error": type(exc).__name__, "message": str(exc)[:200]}
    return {"latency": latency, "out": out}


def anchors(workload):
    """Closed-form anchors, run after the timed pass."""
    if workload == "capacity-mix":
        paper = gfcap.nonfeedback_capacity(gfcap.PAPER_CHANNEL, 2.0)
        awgn = gfcap.nonfeedback_capacity(PsdSpec.white(1.0), 3.0)
        return {"paper_nu": paper.water_level, "paper_c2": paper.capacity_bits,
                "awgn_c": awgn.capacity_bits}
    white = gfcap.variance_recursion(SchemeConfig(power=3.0, horizon=200,
                                            rate_bits=1.0), PsdSpec.white(1.0))
    return {"sk_x0_3_4": gfcap.sk_root(0.75).x0,
            "white_contraction": white.contraction_estimate}


def run(job):
    workload = job["workload"]
    runner = RUNNERS[workload]
    size = workloads.block_size(workload)
    for op in workloads.take(workloads.op_stream(workload, job["warmup_seed"]),
                             size):
        run_op(runner, op)

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    stream = workloads.op_stream(workload, job["seed"])
    results = []
    started = time.perf_counter()
    try:
        while True:
            if job["fixed_ops"] is not None:
                if len(results) >= job["fixed_ops"]:
                    break
            elif ((time.perf_counter() - started >= job["seconds"]
                   and len(results) >= job["min_ops"])
                  or len(results) >= job["max_ops"]):
                break
            for op in workloads.take(stream, size):
                if tracer is not None:
                    tracer.op_id = len(results)
                results.append(run_op(runner, op))
    finally:
        if tracer is not None:
            tracer.restore()
    elapsed = time.perf_counter() - started
    report = {"import_s": IMPORT_S, "elapsed_s": elapsed, "ops": results,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "anchors": anchors(workload)}
    if tracer is not None:
        tracer.save(job["spans_path"])
        report["trace"] = tracer.summary()
    return report


def setup_probe(workload):
    """What a fresh process pays before its first op: import plus one tiny
    first call into the workload's entry point."""
    if workload == "scheme-mc":
        gfcap.variance_recursion(
            SchemeConfig(power=1.0, horizon=2, rate_bits=1.0),
            gfcap.PAPER_CHANNEL)
    else:
        gfcap.nonfeedback_capacity(PsdSpec.white(1.0), 1.0)


def main():
    if sys.argv[1:2] == ["--setup"]:
        setup_probe(sys.argv[2])
        return 0
    if sys.argv[1:2] == ["--probe"]:
        json.dump([run_op(RUNNERS[w], op)
                   for _, w, op, _ in workloads.probe_cases()], sys.stdout)
        return 0
    job = json.load(sys.stdin)
    try:
        report = run(job)
    except Exception:
        traceback.print_exc()
        return 1
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
