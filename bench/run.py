"""entnet benchmark: time workloads end to end, or trace them per layer.

Usage, from the repository root:

    python3 bench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads: reproduce, scale-sweep, montecarlo, oracle (see bench/README.md).
With --trace 0 the workload runs untraced and the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 untraced
and traced passes alternate and the object holds the per-layer metrics. The
lines before it report the environment, failures and known defects. The full
result, and the spans of a traced run, are written under bench/out/.

Every pass runs in its own worker interpreter, started fresh from the
checkout's src/ (bench/worker.py), so no cache carries over between passes;
the program is not installed or built. Exits 2 when
the checkout has no src/entnet, and 1 when a worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("reproduce", "scale-sweep", "montecarlo", "oracle")

# Seconds one pass takes on a 2-core AMD EPYC box (checks and, for reproduce,
# the interpreter start included). The pass count follows from --seconds and
# these constants only, never from a clock, so every run of a workload makes
# the same number of samples and its percentiles have the same rank.
NOMINAL_PASS_S = {"reproduce": 0.65, "scale-sweep": 4.5, "montecarlo": 3.0, "oracle": 3.0}
MIN_PASSES = 3

# Fresh interpreters that only import entnet, besides the workload's own.
SETUP_PROBES = 15

RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size and run one pass of each kind (self-test)")
    return parser.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def pass_plan(workload, seconds, trace, tiny):
    """Which passes are traced. A traced run alternates untraced and traced
    passes, so drift on the machine hits both alike."""
    if tiny:
        return [False, True] if trace else [False]
    count = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if not trace:
        return [False] * count
    pairs = max(2, count // 2)
    return [False, True] * pairs


# BLAS runs on one thread. Monte Carlo already uses nproc pool threads, and
# the dense oracle's matrices (d <= 1024) are small enough that two BLAS
# threads made its operation latencies jump between two levels from run to run.
BLAS_THREADS = 1


def worker_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"
    env["ENTNET_THREADS"] = str(threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(config, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(config)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, threads):
    import numpy

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "nproc": threads,
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "mc_threads": threads if args.workload == "montecarlo" else 0,
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    percentile = 100.0 * (index + 1) / len(ordered)
    return ordered[index], percentile


def end_to_end_metrics(setups, rss, passes):
    untraced = [p for p in passes if not p["traced"]]
    latencies = [r[1] for p in untraced for r in p["ops"]]
    tail, percentile = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    return metrics, {"op_tail_percentile": percentile, "op_samples": len(latencies),
                     "setup_samples": setups, "rss_samples": rss}


def per_layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def op_kinds(passes):
    """Per kind of operation: count and median latency of the untraced passes."""
    latencies = {}
    for p in passes:
        if not p["traced"]:
            for kind, latency, *_ in p["ops"]:
                latencies.setdefault(kind, []).append(latency)
    return {kind: {"count": len(v), "median_ms": 1000.0 * statistics.median(v)}
            for kind, v in sorted(latencies.items())}


def summarise_records(passes):
    """Distinct failures and known defects, with how many times each was seen."""
    seen = {}
    for p in passes:
        for _kind, _latency, status, message, defect in p["ops"]:
            if status != "ok":
                key = (status, message or defect)
                seen[key] = seen.get(key, 0) + 1
    return [{"status": s, "detail": d, "times": n} for (s, d), n in sorted(seen.items())]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "entnet" / "__init__.py").is_file():
        print(f"bench: no entnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    threads = nproc()
    env = worker_env(threads)
    plan = pass_plan(args.workload, args.seconds, args.trace, args.tiny)
    out_dir = BENCH / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed, "nproc": threads,
            "tiny": args.tiny}
    spans_out = out_dir / f"{stem}.spans.jsonl"
    try:
        run_worker(base, env, deadline)  # writes bytecode caches; not timed
        setups = [run_worker(base, env, deadline)["setup_s"]
                  for _ in range(2 if args.tiny else SETUP_PROBES)]
        passes, rss = [], []
        for index, traced in enumerate(plan):  # each pass in its own fresh interpreter
            config = {**base, "pass": index, "traced": traced}
            if traced and not any(p["traced"] for p in passes):  # spans of one pass suffice
                config["spans_out"] = str(spans_out)
            result = run_worker(config, env, deadline)
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
            passes.append(result["pass"])
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r[2] == "fail")
    known = sum(1 for p in passes for r in p["ops"] if r[2] == "defect")
    if args.trace:
        metrics, extra = per_layer_metrics(passes), {}
    else:
        metrics, extra = end_to_end_metrics(setups, rss, passes)
    env_record = environment(args, threads)
    report = {
        "env": env_record,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "fail_frac": failed / attempted,
        "known_defect_frac": known / attempted,
        **extra,
        "op_kinds": op_kinds(passes),
        "issues": summarise_records(passes),
    }
    out_dir.mkdir(exist_ok=True)
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps({**report, **final}, indent=1) + "\n",
                                          encoding="utf-8")
    print("env: " + json.dumps(env_record))
    print(f"passes: {len(passes)}  attempted: {attempted}  failed: {failed}  "
          f"fail_frac: {report['fail_frac']:.4g}  known defects: {known}  "
          f"known_defect_frac: {report['known_defect_frac']:.4g}")
    if extra:
        print(f"op_tail_ms is the p{extra['op_tail_percentile']:.2f} latency "
              f"of {extra['op_samples']} operations")
    for issue in report["issues"]:
        print(f"{issue['status']} x{issue['times']}: {issue['detail']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
