#!/usr/bin/env python3
"""gfcap benchmark: one command, three closed-loop single-client workloads.

    python3 bench/run.py --workload {cli-cold,capacity-mix,scheme-mc} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; gfcap is imported from src/ through
PYTHONPATH (it need not be installed).  Every op runs in a fresh process
(the CLI itself, or bench/worker.py), never in this one.  Oracles run here,
after all timing.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced pass over a fixed, seed-determined set of ops.  Earlier
lines give the reproducibility record, failure classes and the outcome of
each known-defect case.  See
bench/README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One client runs one thread.  With a second BLAS thread, OpenBLAS spins on
# the other CPU between calls; on a 2-vCPU host that made ops 25-40% slower
# and their timings drift.  Set before numpy loads here or in any child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")
CLI_TRACED = os.path.join(BENCH, "cli_traced.py")

SETUP_PROBES = 6        # before and again after the timed pass
MIN_OPS = 100            # p90 then has at least 10 samples beyond it
TRACE_BLOCKS = {"capacity-mix": 4, "scheme-mc": 3}  # cli-cold: one round
# The time limit covers only the processes that run timed ops.  The oracle
# phase after them is bounded by the op cap (workloads.MAX_OPS) instead, so
# a faster gfcap, which fits more ops in the window, cannot run it over.
CHILD_LIMIT_S = 120.0
# counts that two traced passes over the same inputs must reproduce exactly
COUNT_SUFFIXES = (".calls", ".points", ".levels", ".trials", ".steps",
                  ".distinct")


def metric_units(kind):
    """(name, unit) of each "end_to_end" or "per_layer" metric, as listed
    in BENCHMARK.json, the benchmark's contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("benchmark exceeded its time limit")
    return left


def run_child(argv, deadline, stdin=None):
    """Run a child to completion; returns (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT,
                          timeout=remaining(deadline))
    return time.perf_counter() - t0, proc


def setup_probes(workload, deadline, count):
    """Wall times of fresh processes that import gfcap and make one tiny
    first call (for the CLI: build its parser and print help)."""
    if workload == "cli-cold":
        argv = [sys.executable, "-m", "gfcap.cli", "--help"]
    else:
        argv = [sys.executable, WORKER, "--setup", workload]
    walls = []
    for _ in range(count):
        wall, proc = run_child(argv, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        walls.append(wall)
    return walls


# ---- cli-cold --------------------------------------------------------------

def cli_argv(op):
    argv = list(op["argv"]) + ["--format", "json"]
    if op["kind"] == "simulate":
        argv += ["--trace-out", os.path.join(WORK, "variance_trace.csv")]
    return argv


def run_cli(op, deadline, traced=None):
    prefix = [sys.executable, "-m", "gfcap.cli"]
    if traced is not None:
        prefix = [sys.executable, CLI_TRACED, *traced]
    wall, proc = run_child(prefix + cli_argv(op), deadline)
    res = {"latency": wall, "returncode": proc.returncode}
    if proc.returncode == 0:
        res["out"] = json.loads(proc.stdout)
    else:
        res["message"] = proc.stderr.strip()[-200:]
    return res


def cli_timed(seed, seconds, deadline):
    for op in workloads.take(workloads.op_stream(
            "cli-cold", seed + workloads.WARMUP_SEED_OFFSET), 4):
        if op["kind"] != "power_sweep":  # loads nothing the others do not
            run_cli(op, deadline)
    stream = workloads.op_stream("cli-cold", seed)
    ops, results = [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           and len(ops) < workloads.MAX_OPS["cli-cold"]):
        for op in workloads.take(stream, 4):
            ops.append(op)
            results.append(run_cli(op, deadline))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return ops, results, peak_kb


def cli_trace(seed, deadline):
    """Each command of one round runs untraced, traced, traced, untraced,
    so a drift in machine speed cancels from the overhead estimate."""
    ops = workloads.take(workloads.op_stream("cli-cold", seed), 4)
    results, summaries = [], [[], []]
    traced_s = untraced_s = 0.0
    for i, op in enumerate(ops):
        untraced_s += run_cli(op, deadline)["latency"]
        for p in range(2):
            summary_path = os.path.join(WORK, f"cli-summary-{p}-{i}.json")
            spans = os.path.join(WORK, f"spans-cli-cold-{seed}-{p}-{i}.npz")
            res = run_cli(op, deadline, traced=[summary_path, spans, str(i)])
            traced_s += res["latency"]
            if p == 0:
                results.append(res)
            with open(summary_path) as fh:
                summaries[p].append(json.load(fh))
        untraced_s += run_cli(op, deadline)["latency"]
    merged = []
    for per_op in summaries:
        total = collections.Counter()
        for s in per_op:
            total.update({k: v for k, v in s.items() if k != "cli.import_s"})
        total = dict(total)
        total["cli.import_s"] = statistics.median(
            s["cli.import_s"] for s in per_op)
        merged.append(total)
    per_command = {op["kind"]: counts_of(s) for op, s in zip(ops, summaries[0])}
    return ops, results, merged, traced_s / untraced_s - 1.0, per_command


# ---- in-process workloads --------------------------------------------------

def worker_run(workload, seed, seconds, deadline, fixed_ops=None,
               trace=False, tag=""):
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "warmup_seed": seed + workloads.WARMUP_SEED_OFFSET,
           "min_ops": MIN_OPS, "max_ops": workloads.MAX_OPS[workload],
           "fixed_ops": fixed_ops, "trace": trace,
           "spans_path": os.path.join(WORK, f"spans-{workload}-{seed}{tag}.npz")}
    _, proc = run_child([sys.executable, WORKER], deadline, json.dumps(job))
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def known_defect_probe(workload, deadline):
    """Outcomes of the fixed known-defect inputs, run untimed in a fresh
    process (see workloads.probe_cases)."""
    if workload == "cli-cold":
        return []
    _, proc = run_child([sys.executable, WORKER, "--probe"], deadline)
    if proc.returncode != 0:
        raise BenchError(f"known-defect probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# ---- metrics ---------------------------------------------------------------

def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summary, overhead):
    s = collections.defaultdict(float, summary)
    per_layer = metric_units("per_layer")
    out = {name: s[name] for name, _ in per_layer if name in s}
    calls = s["waterfill.nonfeedback_capacity.calls"]
    out["waterfill.distinct_share"] = (
        s["waterfill.nonfeedback_capacity.distinct"] / calls if calls else 0.0)
    calls = s["spectrum.mean_integral.calls"]
    out["spectrum.mean_integral.levels_per_call"] = (
        s["spectrum.mean_integral.levels"] / calls if calls else 0.0)
    busy = s["simulator.simulate_transmission.time_s"]
    out["simulator.trials_per_s"] = (
        s["simulator.simulate_transmission.trials"] / busy if busy else 0.0)
    out["trace.overhead_share"] = overhead
    return {name: {"value": float(out.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer}


def counts_of(summary):
    return {k: v for k, v in summary.items() if k.endswith(COUNT_SUFFIXES)}


def record(args, ops):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256_16": workloads.inputs_hash(ops), "ops": len(ops),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "gfcap_import": "from src/ via PYTHONPATH (not pip-installed)",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "gfcap", "__init__.py")):
        print("error: src/gfcap not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    w = args.workload

    # Everything that spawns a timed child runs before this process imports
    # scipy or gfcap: a child's peak RSS counts its parent's at spawn time.
    # The first probe may compile bytecode and is dropped.  The rest run
    # before and after the timed pass, so they sample a wider stretch of the
    # machine's speed.
    setup_walls = setup_probes(w, deadline, SETUP_PROBES + 1)[1:]
    extra = {}
    if args.trace:
        if w == "cli-cold":
            ops, results, summaries, overhead, per_command = cli_trace(
                args.seed, deadline)
            extra["per_command_counts"] = per_command
        else:
            # passes run untraced, traced, traced, untraced, so a drift in
            # machine speed cancels from the overhead estimate
            n = TRACE_BLOCKS[w] * workloads.block_size(w)
            untraced = [worker_run(w, args.seed, 0, deadline, n)]
            reports = [worker_run(w, args.seed, 0, deadline, n, True, f"-{p}")
                       for p in range(2)]
            untraced.append(worker_run(w, args.seed, 0, deadline, n))
            overhead = (sum(o["latency"] for r in reports for o in r["ops"])
                        / sum(o["latency"] for r in untraced for o in r["ops"])
                        - 1.0)
            results = reports[0]["ops"]
            ops = workloads.take(workloads.op_stream(w, args.seed), len(results))
            summaries = [dict(r["trace"], **{"cli.import_s": r["import_s"]})
                         for r in reports]
            anchors = reports[0]["anchors"]
    elif w == "cli-cold":
        ops, results, peak_kb = cli_timed(args.seed, args.seconds, deadline)
    else:
        report = worker_run(w, args.seed, args.seconds, deadline)
        results, peak_kb = report["ops"], report["maxrss_kb"]
        ops = workloads.take(workloads.op_stream(w, args.seed), len(results))
        anchors = report["anchors"]

    setup_walls += setup_probes(w, deadline, SETUP_PROBES)
    setup_s = statistics.median(setup_walls)
    probe_results = known_defect_probe(w, deadline)

    oracle_t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import oracles
    problems = []
    if w != "cli-cold":
        problems += [f"anchor {k} off its closed form"
                     for k in oracles.check_anchors(w, anchors)]
    failures = []
    for i, (op, res) in enumerate(zip(ops, results)):
        cls = oracles.CHECKS[w](op, res)
        if cls is not None:
            failures.append({"op": i, "kind": op["kind"], "class": cls,
                             "message": res.get("message", "")})
            if oracles.returned_wrong(cls):
                problems.append(f"op {i} ({op['kind']}) returned a wrong "
                                f"number: {cls}")
    # Each known defect is reported with what it gives now.  A fixed one
    # reads "ok"; one that raised on the seed code and now returns a wrong
    # number makes the run incorrect.
    known_defects = {}
    for (name, kind, op, seed_cls), res in zip(workloads.probe_cases(),
                                               probe_results):
        cls = oracles.CHECKS[kind](op, res) or "ok"
        known_defects[name] = {"now": cls, "seed": seed_cls}
        if oracles.returned_wrong(cls) and not oracles.returned_wrong(seed_cls):
            problems.append(f"known defect {name} raised {seed_cls} on the "
                            f"seed code and now returns a wrong number: {cls}")
    # An op is one gfcap call in-process; for cli-cold it is one round of the
    # four cold commands, what a user pays to reproduce all four results.
    size = 4 if w == "cli-cold" else 1
    failed_at = {f["op"] for f in failures}
    latencies = [sum(r["latency"] for r in results[i:i + size])
                 for i in range(0, len(results), size)]
    failed = sum(any(j in failed_at for j in range(i, i + size))
                 for i in range(0, len(results), size))
    attempted = len(latencies)
    by_class = collections.Counter(f["class"] for f in failures)
    oracle_s = time.perf_counter() - oracle_t0
    by_kind = collections.Counter(f"{f['kind']}:{f['class']}" for f in failures)

    if args.trace:
        a, b = counts_of(summaries[0]), counts_of(summaries[1])
        if a != b:
            problems.append(f"traced counts differ between passes: "
                            f"{sorted(k for k in a if a[k] != b.get(k))}")
        metrics = layer_metrics(summaries[0], overhead)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": (attempted - failed) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 90),
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end")}
        if w == "cli-cold":
            extra["median_cold_s"] = {
                kind: statistics.median(r["latency"] for o, r in
                                        zip(ops, results) if o["kind"] == kind)
                for kind in ("counterexample", "power_sweep", "bounds",
                             "simulate")}

    rec = record(args, ops)
    rec.update(attempted=attempted, failed=failed, oracle_s=oracle_s,
               failures_by_class=dict(by_class),
               failures_by_kind_and_class=dict(by_kind),
               known_defects=known_defects, problems=problems,
               **extra)
    with open(os.path.join(WORK, f"result-{w}-{args.seed}-trace{args.trace}"
                                 ".json"), "w") as fh:
        json.dump({"record": rec, "metrics": metrics, "failures": failures},
                  fh, indent=1)
    print("record: " + json.dumps(rec))
    for f in failures[:20]:
        print(f"failure: op {f['op']} {f['kind']} {f['class']} {f['message']}")
    for name, d in known_defects.items():
        print(f"known defect: {name} {d['now']} (seed code: {d['seed']})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
