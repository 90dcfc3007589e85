"""Quick self-test of the benchmark: one short end-to-end run and one short
traced run per workload.

    python3 perfbench/selftest.py

Checks that each workload's reason in workloads.py is its ``why`` in
BENCHMARK.json, that every metric of BENCHMARK.json is printed by name with
its unit, that no invocation failed its output check, and that the layer self times
(each ``self_share`` times ``trace.wall_s``) plus ``trace.uncovered_s`` add up
to ``trace.wall_s``.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1
SECONDS = 1.0       # run.py makes at least two invocations whatever this is


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems_in(result: dict, trace: int) -> list[str]:
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [] if printed == expected else [f"metrics {printed} != {expected}"]
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace and metrics.get("pass_frac") != 1.0:
        problems.append(f"pass_frac {metrics.get('pass_frac')} != 1")
    if trace:
        wall = metrics["trace.wall_s"]
        covered = sum(metrics[f"{layer.name}.self_share"] for layer in LAYERS) * wall
        if not math.isclose(covered + metrics["trace.uncovered_s"], wall, rel_tol=1e-9):
            problems.append(f"self times {covered} + uncovered {metrics['trace.uncovered_s']} != {wall}")
    return problems


def main() -> int:
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    reasons = {name: reason for name, (_, reason) in WORKLOADS.items()}
    failed = whys != reasons
    if failed:
        print(f"BENCHMARK.json workloads {whys} != workloads.py {reasons}", flush=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            try:
                problems = problems_in(run(workload, trace), trace)
            except AssertionError as err:
                problems = [str(err)]
            failed |= bool(problems)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
