"""Self-check of the dnls benchmark, in well under a minute:

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` matches the metrics and workloads the harness
defines, runs every workload untraced and traced at a tiny lattice, and
asserts that every metric is emitted with its unit, that every output check
passes, that the counts repeat between two traced runs of one seed and that
every seam is present.  Finally it runs the benchmark in a directory without
the dnls sources, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from layers import PER_LAYER, REPEATED_COUNTS
from workloads import WORKLOADS, tiny

#: seams each workload's traced run must hit, by the count that shows it
HIT = {
    "solve-32x32": ("solver.newton_iters", "solver.linsolve_calls", "operators.apply_inv_calls",
                    "potentials.evaluate_calls", "potentials.derivative_calls"),
    "certify-24x24": ("operators.apply_inv_cols",),
    "degree-4x8": ("degree.svd_calls", "degree.zeros", "potentials.derivative_calls"),
}
#: seams every traced run must hit, by the time that shows it
HIT_ALL = ("operators.build_s", "certificate.constants_s", "certificate.sample_s",
           "certificate.boundary_s", "cli.unattributed_s")


def _fail(message: str) -> None:
    raise SystemExit(f"selfcheck: {message}")


def check_benchmark_json(bench: dict) -> None:
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(run.END_TO_END):
        _fail("end_to_end metrics differ from run.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != [entry[:3] for entry in PER_LAYER]:
        _fail("per_layer metrics differ from layers.PER_LAYER")
    if {w["name"]: w["why"] for w in bench["workloads"]} != {
            w.name: w.why for w in WORKLOADS.values()}:
        _fail("workloads or their reasons differ from workloads.WORKLOADS")


def check_result(name: str, result: dict, expected: dict) -> None:
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        _fail(f"{name}: emitted {emitted}, expected {expected}")
    if not result["correct"] or result["failed"]:
        _fail(f"{name}: {result['failed']} of {result['attempted']} invocations failed")


def check_without_sources(root: Path) -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "degree-4x8", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    root = run.ROOT
    run.prepare(root)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS.values():
        small = tiny(workload)
        result, _ = run.measure(small, seed=0, seconds=0, trace=False)
        check_result(workload.name, result, end_to_end)
        traced = []
        for _ in range(2):
            result, details = run.measure(small, seed=0, seconds=0, trace=True)
            check_result(workload.name, result, per_layer)
            traced.append(result["metrics"])
        values = traced[0]
        if values["trace.counts_repeat"]["value"] != 1 or values["trace.seams_absent"]["value"]:
            _fail(f"{workload.name}: {details['counts_not_repeated']} did not repeat, "
                  f"{details['seams_absent']} absent")
        for name in REPEATED_COUNTS:
            if traced[0][name] != traced[1][name]:
                _fail(f"{workload.name}: {name} differs between two traced runs")
        for name in HIT[workload.name] + HIT_ALL:
            if not values[name]["value"] > 0:
                _fail(f"{workload.name}: seam behind {name} was not hit")
        print(f"{workload.name}: ok")
    check_without_sources(root)
    print("without sources: fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
