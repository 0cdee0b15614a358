"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Checks that BENCHMARK.json names the workloads and metrics that
bench/metrics.py defines, runs every workload at a tiny size, untraced and
traced, and checks that each prints a result line with every metric and its
unit. Last, it copies BENCHMARK.json and bench/ into an otherwise empty
directory under bench/out/ and checks that the benchmark fails there without
printing a result. Exits 1 on the first failure. Takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def check_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        fail(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    if e2e != END_TO_END:
        fail(f"BENCHMARK.json end_to_end {e2e} differs from metrics.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    if layers != PER_LAYER:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    print("ok   BENCHMARK.json matches bench/metrics.py")


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_workload(workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{workload} trace={trace}: {proc.stdout[-3000:]}")
    if not any(line.startswith("env: ") for line in lines):
        fail(f"{workload} trace={trace}: no environment record")
    expected = PER_LAYER if trace else END_TO_END
    for name, spec in expected.items():
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != spec[0]:
            fail(f"{workload} trace={trace}: metric {name} missing or not in {spec[0]}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload} trace={trace}: {name} is not a number")
    if set(result["metrics"]) != set(expected):
        fail(f"{workload} trace={trace}: unexpected metrics")
    print(f"ok   {workload} trace={trace}: {len(expected)} metrics, "
          f"{result['attempted']} operations")


def check_without_program():
    empty = BENCH / "out" / "selftest-without-program"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(BENCH, empty / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty / "BENCHMARK.json")
    try:
        proc = run(empty, "reproduce", 0)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print("ok   without the program the benchmark exits "
          f"{proc.returncode} and prints no result")


def main():
    check_manifest()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_without_program()
    print("PASS")


if __name__ == "__main__":
    main()
