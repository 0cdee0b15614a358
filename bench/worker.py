"""One fresh interpreter of the benchmark.

Usage (from bench/run.py): python3 bench/worker.py '<json config>'

Imports entnet first and times the import, so that nothing the benchmark
imports (numpy included) is loaded before it. Then, unless it only measures
set-up, runs one pass of the workload, a closed loop with one operation at a
time, and prints one JSON object as its last line of standard output.
"""

import json
import os
import resource
import sys
import time


def main():
    config = json.loads(sys.argv[1])
    start = time.perf_counter()
    import entnet

    setup_s = time.perf_counter() - start
    expected = os.path.join(config["root"], "src", "entnet", "__init__.py")
    if os.path.realpath(entnet.__file__) != os.path.realpath(expected):
        print(f"worker: imported entnet from {entnet.__file__}, not {expected}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if "pass" in config:
        result["pass"] = run_one_pass(entnet, config)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def run_one_pass(entnet, config):
    import random

    import metrics
    import workloads
    from tracer import Tracer

    workload, seed, nproc = config["workload"], config["seed"], config["nproc"]
    index = config["pass"]
    ops = workloads.build(workload, seed, nproc, config["tiny"])
    random.Random(f"{workload}:{seed}:order:{index}").shuffle(ops)
    if not config["traced"]:
        records, wall_s = run_pass(ops, None, index)
        return {"traced": False, "wall_s": wall_s, "ops": records}
    tracer = Tracer(entnet)
    tracer.install()
    try:
        records, wall_s = run_pass(ops, tracer, index)
    finally:
        tracer.uninstall()
    defects = sum(1 for r in records if r[2] == "defect")
    if config.get("spans_out"):
        write_spans(tracer, config["spans_out"])
    return {"traced": True, "wall_s": wall_s, "ops": records,
            "layers": metrics.layer_metrics(tracer, wall_s, nproc, defects)}


def run_pass(order, tracer, pass_index):
    """Run each operation once; returns per-op records and the timed wall time."""
    records = []
    wall_s = 0.0
    for op_index, op in enumerate(order):
        if tracer is not None:
            tracer.op_id = f"{pass_index}:{op_index}"
            tracer.phase = "op"
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an exception inside the documented domain is a failure
            result = None
            error = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        wall_s += latency
        if tracer is not None:
            tracer.phase = "check"
        if error is None:
            try:
                error = op.check(result, tracer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if op.defect:
            status = "defect" if error else "fixed"
        else:
            status = "fail" if error else "ok"
        records.append([op.kind, latency, status, error and f"{op.label}: {error}", op.defect])
    return records, wall_s


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dropped": tracer.dropped,
                             "fields": ["id", "parent", "name", "start", "end", "op", "phase"]}))
        fh.write("\n")
        for span in tracer.spans:
            fh.write(json.dumps(span))
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
