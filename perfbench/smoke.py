"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it checks that an untraced and a
traced run print every named metric with its unit and fail nothing, that a
deliberately wrong expected value makes ``failed`` (and so fail_share)
non-zero, and that the benchmark refuses to run without the package's
sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmokeFailure(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SmokeFailure(what)


def run(cwd: Path, workload: str, trace: int, *extra: str) -> tuple[int, str]:
    # the command's program is python3; run it with this interpreter
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int) -> None:
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    code, out = run(ROOT, workload, trace, "--smoke")
    check(code == 0, f"{workload} trace {trace}: exit status {code}")
    res = result_of(out)
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(res)}")
    check(res["correct"] and res["failed"] == 0, f"{workload} trace {trace}: {res['failed']} operations failed")
    check(res["attempted"] >= 1, f"{workload}: nothing attempted")
    check(set(res["metrics"]) == {m["name"] for m in wanted}, f"{workload} trace {trace}: metric names differ")
    report = out.strip().splitlines()[:-1]
    for m in wanted:
        got = res["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']!r}, want {m['unit']!r}")
        check(isinstance(got["value"], (int, float)), f"{workload}: {m['name']} is not a number")
        check(
            any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in report),
            f"{workload}: {m['name']} not printed with its unit",
        )
        if not trace:
            check(got["value"] > 0, f"{workload}: {m['name']} is not positive")


def check_fault_is_caught(workload: str) -> None:
    code, out = run(ROOT, workload, 0, "--smoke", "--inject-fault")
    check(code == 0, f"{workload} with a wrong expected value: exit status {code}")
    res = result_of(out)
    check(res["failed"] > 0 and not res["correct"], f"{workload}: a wrong expected value went unnoticed")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench-smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(bare, SPEC["workloads"][0]["name"], 0)
        check(code != 0, "the benchmark ran without the package's sources")
        check(not out.strip(), "the benchmark printed a result without the package's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                check_metrics(w["name"], trace)
            check_fault_is_caught(w["name"])
            print(f"ok {w['name']}")
        check_refuses_without_sources()
        print("ok refuses to run without sources")
    except SmokeFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
