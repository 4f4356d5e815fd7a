"""Benchmark of the ``twostage`` package: one workload, one seed, one report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

Every workload runs in a fresh worker process with one thread per numeric
library; the package is imported from ``src/`` of the checkout.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead.  Lines before it are a readable report.  The exit code
is 0 when a result was printed, whether or not the outputs were correct
(``correct`` says that), and 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from worker import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # the worker's own set-up plus eight set-up-only processes
WORKER_TIMEOUT = 150.0
PROBE_TIMEOUT = 20.0

# Which end-to-end figure each layer should move, and on which workload.
EXPECTATIONS = {
    "profiles.support": "op_ms_*, top_m_ms_p50, peak_rss_mb on pairwise-large; profiles_per_s on screen-random",
    "profiles.contract": "profiles_per_s on verify-small and screen-random",
    "profiles.build": "profiles_per_s on verify-small; setup_s on pairwise-large",
    "profiles.grades": "profiles_per_s on verify-small",
    "procedures.kernel": "op_ms_* on pairwise-large; profiles_per_s on screen-random",
    "catalog.compose": "none expected (overhead only)",
    "axioms": "profiles_per_s on verify-small only",
}

UNMEASURED = (
    "not measured: the fixture corpus and the command line (not on a timed path); "
    "memo hits inside the search layer (internal, no public counter)"
)


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its last line."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument(
        "--inject-fault", action="store_true",
        help="compare against one deliberately wrong expected value",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twostage" / "__init__.py").is_file():
        print(f"no twostage package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    extra = [flag for flag, on in (("--smoke", args.smoke), ("--inject-fault", args.inject_fault)) if on]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, extra + ["--setup-only"], PROBE_TIMEOUT))
        report = spawn(args, extra, WORKER_TIMEOUT)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    metrics = report["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        setups.append(report)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    attempted, failed = report["attempted"], report["failed"]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in report["environment"]:
        print(f"  env: {line}")
    print(
        f"  operations: {attempted} attempted, {failed} failed, fail_share {failed / attempted:.4f}, "
        f"timed phase {report['timed_s']:.1f} s"
    )
    for note in report["notes"]:
        print(f"  check failed: {note}")
    if args.trace:
        print(f"  per traced pass, over {report['passes']} pass(es); spans in {report['trace_file']}")
        print(f"  support bytes_computed counts the sizes of the returned arrays, not memory traffic")
    else:
        samples = ", ".join(f"{s['setup_s']:.3f}" for s in setups)
        print(f"  setup_s samples (wall clock, not scaled): {samples}")
        wall = ", ".join(f"{k} {v:.6g}" for k, v in report["wall"].items())
        print(f"  wall clock, unscaled: {wall}")
    cal = report["calibration"]
    print(
        f"  times are scaled to reference speed: {cal['kernel']} kernel, {cal['runs']} runs, "
        f"median {cal['median_s'] * 1e3:.3f} ms against {cal['reference_s'] * 1e3:g} ms"
    )
    for name in units:
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
    if args.trace:
        for layer, moves in EXPECTATIONS.items():
            print(f"  expect {layer}: {moves}")
    print(f"  {UNMEASURED}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
