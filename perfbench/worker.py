"""One workload run in a fresh process: set up, time, check, report.

``run.py`` starts this file; it prints one JSON object as its last line.
Only calls into the package's public API are timed, one call (or, for
``screen-random``, one profile through the rule set) per operation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from tracing import (
    BUILD, CHECK, COMPOSE, CONTRACT, ENUMERATE, GRADES, IMPROVE, KERNEL, ROOT, SUPPORT, Tracer,
)

WORKLOADS = {
    "verify-small": "verify_small",
    "screen-random": "screen_random",
    "pairwise-large": "pairwise_large",
}

MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "profiles_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "top_m_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

# Per traced pass (one job list, one batch of profiles, or one round).
PER_LAYER = {
    "profiles.support.calls": "count/pass",
    "profiles.support.self_s": "s/pass",
    "profiles.support.bytes_computed": "B_result_arrays",
    "profiles.contract.calls": "count/pass",
    "profiles.contract.self_s": "s/pass",
    "profiles.build.calls": "count/pass",
    "profiles.build.self_s": "s/pass",
    "profiles.grades.calls": "count/pass",
    "profiles.grades.self_s": "s/pass",
    "procedures.kernel.calls": "count/pass",
    "procedures.kernel.self_s": "s/pass",
    "catalog.compose.calls": "count/pass",
    "catalog.compose.self_s": "s/pass",
    "catalog.compose.empty_shortlist_share": "share",
    "axioms.enumerate.profiles": "count/pass",
    "axioms.enumerate.self_s": "s/pass",
    "axioms.check.calls": "count/pass",
    "axioms.check.self_s": "s/pass",
    "axioms.improve.calls": "count/pass",
    "axioms.improve.self_s": "s/pass",
    "axioms.rule_calls_per_profile": "calls/profile",
    "axioms.evaluated_per_covered": "share",
    "bench.op.self_s": "s/pass",
    "trace_overhead_share": "share",
}


class Op:
    """One timed call: wall seconds, and seconds scaled to reference speed."""

    __slots__ = ("seconds", "scaled", "covered", "top", "ok")

    def __init__(self, seconds, covered, top, ok):
        self.seconds, self.covered, self.top, self.ok = seconds, covered, top, ok
        self.scaled = seconds


def run_pass(workload, ops: list, calibration, tracer=None) -> list[Op]:
    """Time every operation of one pass and return the pass's operations."""
    root = tracer.root_id() if tracer else None
    counters = tracer.counters if tracer else None
    start = len(ops)
    for key, call, top in workload.ops(counters):
        span = tracer.open(root) if tracer else None
        t0 = perf_counter()
        try:
            result = call()
            seconds = perf_counter() - t0
        except Exception:
            seconds = perf_counter() - t0
            traceback.print_exc(limit=5, file=sys.stderr)
            op = Op(seconds, 0, top, False)
        else:
            covered, ok = workload.observe(key, result)
            op = Op(seconds, covered, top, ok)
        finally:
            if tracer:
                tracer.close(span)
        ops.append(op)
        calibration.add(op)
    calibration.flush()
    return ops[start:]


def timings(ops: list[Op], attr: str) -> dict[str, float]:
    ms = [getattr(op, attr) * 1e3 for op in ops]
    top = [getattr(op, attr) * 1e3 for op in ops if op.top]
    return {
        "profiles_per_s": sum(op.covered for op in ops) / sum(getattr(op, attr) for op in ops),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        "top_m_ms_p50": statistics.median(top),
    }


def per_layer(tracer, passes: int, covered: float, overhead: float) -> dict[str, float]:
    totals = tracer.layer_totals()
    counters = tracer.counters
    out = {}
    for prefix, layer in (
        ("profiles.support", SUPPORT),
        ("profiles.contract", CONTRACT),
        ("profiles.build", BUILD),
        ("profiles.grades", GRADES),
        ("procedures.kernel", KERNEL),
        ("catalog.compose", COMPOSE),
        ("axioms.check", CHECK),
        ("axioms.improve", IMPROVE),
    ):
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{prefix}.calls"] = calls / passes
        out[f"{prefix}.self_s"] = self_s / passes
    out["profiles.support.bytes_computed"] = counters["support_bytes"] / passes
    compose_calls = totals.get(COMPOSE, (0, 0.0))[0]
    out["catalog.compose.empty_shortlist_share"] = (
        counters["compose_empty"] / compose_calls if compose_calls else 0.0
    )
    out["axioms.enumerate.profiles"] = counters["enumerated"] / passes
    out["axioms.enumerate.self_s"] = totals.get(ENUMERATE, (0, 0.0))[1] / passes
    # ``covered`` is the total over all traced passes, like the counts here.
    out["axioms.rule_calls_per_profile"] = counters["rule_calls"] / covered
    out["axioms.evaluated_per_covered"] = totals.get(CHECK, (0, 0.0))[0] / covered
    out["bench.op.self_s"] = totals.get(ROOT, (0, 0.0))[1] / passes
    out["trace_overhead_share"] = overhead
    return out


def environment(workload) -> list[str]:
    import numpy
    import scipy

    l2 = l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(size[-1:], 1)
        size = int(size.rstrip("KM")) * scale
        if level == "2":
            l2 = size
        elif level == "3":
            l3 = size
    mib = lambda b: "unknown" if b is None else f"{b / 2**20:g} MiB"
    lines = [
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, scipy {scipy.__version__}",
        f"nproc {len(os.sched_getaffinity(0))}, L2 {mib(l2)} per core, L3 {mib(l3)}",
    ]
    return lines + workload.environment(l3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="wall-clock time the process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed, args.smoke, args.inject_fault)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    min_ops = 1 if args.smoke else MIN_OPS
    ops: list[Op] = []
    report = {"setup_s": setup_s, "environment": environment(workload)}
    calibration = Calibration(workload.calibration)
    started = perf_counter()
    if args.trace:
        tracer = Tracer()
        untraced = traced = 0.0
        passes = covered = 0
        # Untraced and traced passes over the same inputs alternate, so the
        # overhead compares equal work and drift affects both sides alike.
        while True:
            untraced += sum(op.scaled for op in run_pass(workload, ops, calibration))
            tracer.install()
            try:
                done = run_pass(workload, ops, calibration, tracer)
            finally:
                tracer.uninstall()
            traced += sum(op.scaled for op in done)
            covered += sum(op.covered for op in done)
            passes += 1
            if perf_counter() - started >= args.seconds:
                break
        report["timed_s"] = perf_counter() - started
        out_dir = Path(__file__).resolve().parent.parent / ".perfbench-trace"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"{args.workload}.npz"
        tracer.save(trace_file)
        report["trace_file"] = str(trace_file.relative_to(out_dir.parent))
        report["passes"] = passes
        metrics = per_layer(tracer, passes, covered, traced / untraced - 1.0)
    else:
        while True:
            run_pass(workload, ops, calibration)
            if perf_counter() - started >= args.seconds and len(ops) >= min_ops:
                break
            workload.advance()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["timed_s"] = perf_counter() - started
        metrics = {**timings(ops, "scaled"), "peak_rss_mb": peak_rss_mb}
        report["wall"] = timings(ops, "seconds")
    report["calibration"] = {
        "kernel": workload.calibration,
        "runs": len(calibration.samples),
        "median_s": statistics.median(calibration.samples),
        "reference_s": calibration.reference_s,
    }

    failed_checks, notes = workload.check()
    attempted = len(ops)
    failed = min(attempted, sum(not op.ok for op in ops) + failed_checks)
    report.update(attempted=attempted, failed=failed, notes=notes, metrics=metrics)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
