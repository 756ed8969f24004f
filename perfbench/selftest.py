"""Self-test of the benchmark: tiny runs of every workload, then two checks that must fail.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, with ``--tiny`` inputs for two
   seconds: the last stdout line must be the result object, with exactly
   the metrics ``BENCHMARK.json`` names and each with its unit, no failed
   operation, and exit status 0.
2. ``--poison`` corrupts one expected body: the run must count a failed
   operation, report ``correct: false`` and exit non-zero.
3. A directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   ``src``): the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def run(root: Path, workload: str, trace: int, *extra: str) -> Tuple[int, Optional[Dict], str]:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "2", "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_result(result: Optional[Dict], expected: Dict[str, str]) -> List[str]:
    if not isinstance(result, dict):
        return ["last stdout line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if result["failed"] != 0:
        problems.append("failed is %r" % result["failed"])
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, entry.get("unit"), unit))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("%s has value %r" % (name, entry.get("value")))
    return problems


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(CHECKOUT, workload, trace)
            problems = check_result(result, units[trace])
            if code != 0:
                problems.append("exit status %d: %s" % (code, stderr.strip()[-300:]))
            print("%-18s trace %d: %s" % (workload, trace, "; ".join(problems) or "ok"))
            failures += problems

    code, result, _ = run(CHECKOUT, "warm-regions", 0, "--poison")
    poisoned_ok = code != 0 and isinstance(result, dict) and result.get("correct") is False \
        and result.get("failed", 0) >= 1
    print("poisoned expected body: %s" % (
        "counted as failed, exit %d" % code if poisoned_ok else "NOT DETECTED (%r)" % result))
    if not poisoned_ok:
        failures.append("a wrong body was not counted as a failed operation")

    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, result, _ = run(bare, "warm-regions", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = code != 0 and result is None
    print("without src: %s" % ("exit %d, no result" % code if bare_ok else "UNEXPECTED (exit %d)" % code))
    if not bare_ok:
        failures.append("the benchmark did not fail without the program's source")

    print("self-test %s" % ("passed" if not failures else "FAILED (%d problems)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
