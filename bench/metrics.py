"""Names and units of every metric the benchmark reports.

`END_TO_END` is what a user of entnet sees, reported by untraced runs.
`PER_LAYER` comes from traced runs, one value per traced pass (the median
over passes is reported). `BENCHMARK.json` at the repository root lists the
same names; the self-test checks that they agree.
"""

from __future__ import annotations

# name -> (unit, better, bound as a share of the parent's median)
# On a shared 2-core box the machine's speed drifts by 5 to 15% over minutes,
# which ten seeds run in a row see as spread, and Monte Carlo's peak memory
# moves by up to 10% between runs with how its two threads' chunks overlap.
# Within one run the pass times spread by about 2%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

LAYERS = (
    "core", "partitions", "protocols", "mc", "distillation", "oracle",
    "measurements", "thresholds", "latency", "cli", "bench",
)

MC_KINDS = ("block", "waiting", "distilled")

# Function metrics read straight from the tracer's op-phase aggregates.
_FUNCTION_METRICS = (
    ("partitions.optimal_partition.calls", "count", "higher"),
    ("partitions.optimal_partition.busy_s", "s", "lower"),
    ("partitions.optimal_partition.candidates", "count", "lower"),
    ("partitions.optimal_partition_mixed.calls", "count", "higher"),
    ("partitions.optimal_partition_mixed.busy_s", "s", "lower"),
    ("partitions.optimal_partition_mixed.candidates", "count", "lower"),
    ("core.snapshot_qfi.calls", "count", "lower"),
    ("core.snapshot_qfi.busy_s", "s", "lower"),
    ("protocols.ftmbl_avg_qfi.calls", "count", "higher"),
    ("protocols.ftmbl_avg_qfi.busy_s", "s", "lower"),
    ("protocols.vtmbl_avg_qfi.calls", "count", "higher"),
    ("protocols.vtmbl_avg_qfi.series.busy_s", "s", "lower"),
    ("protocols.vtmbl_avg_qfi.closed.busy_s", "s", "lower"),
    ("protocols.vtmbl_joint_prob.calls", "count", "lower"),
    ("protocols.vtmbl_mu_opt.busy_s", "s", "lower"),
    ("protocols.snapshot_distribution.calls", "count", "lower"),
    ("distillation.enum.calls", "count", "higher"),
    ("distillation.enum.busy_s", "s", "lower"),
    ("distillation.nested_distill.calls", "count", "lower"),
    ("distillation.nested_distill.busy_s", "s", "lower"),
    ("distillation.per_sensor_outcome_distribution.calls", "count", "lower"),
    ("oracle.build_probe.calls", "count", "higher"),
    ("oracle.build_probe.busy_s", "s", "lower"),
    ("oracle.qfim.calls", "count", "higher"),
    ("oracle.qfim.busy_s", "s", "lower"),
    ("oracle.measurement_cfi.calls", "count", "higher"),
    ("oracle.measurement_cfi.busy_s", "s", "lower"),
    ("oracle.apply_phases.calls", "count", "lower"),
    ("oracle.apply_phases.busy_s", "s", "lower"),
    ("oracle.povm_elements", "count", "lower"),
    ("oracle.povm_bytes", "B_computed", "lower"),
    ("measurements.sld_povm.calls", "count", "higher"),
    ("measurements.sld_povm.busy_s", "s", "lower"),
    ("measurements.local_cfi.calls", "count", "higher"),
    ("measurements.local_cfi.busy_s", "s", "lower"),
    ("thresholds.solve_threshold.calls", "count", "higher"),
    ("thresholds.solve_threshold.busy_s", "s", "lower"),
    ("cli.run_subcommand.busy_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.bytes", "count", "higher"),
)

# The tracer aggregates a labelled call under its function's name; these
# metrics rename the label to the name the benchmark reports.
_ALIASES = {
    "distillation.enum.calls": "distillation.ftmbl_distilled_avg_qfi.enum.calls",
    "distillation.enum.busy_s": "distillation.ftmbl_distilled_avg_qfi.enum.busy_s",
}

PER_LAYER = {name: (unit, better) for name, unit, better in _FUNCTION_METRICS}
for _kind in MC_KINDS:
    PER_LAYER[f"mc.{_kind}.trials_per_s"] = ("1/s", "higher")
    PER_LAYER[f"mc.{_kind}.trials_per_s_1t"] = ("1/s", "higher")
    PER_LAYER[f"mc.{_kind}.speedup"] = ("ratio", "higher")
PER_LAYER["mc.trials"] = ("count", "higher")
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_frac"] = ("ratio", "lower")
for _layer in LAYERS[:-1]:
    PER_LAYER[f"layer.{_layer}.busy_frac"] = ("ratio", "lower")
PER_LAYER["check.known_defects"] = ("count", "lower")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")


def layer_metrics(tracer, wall_s, nproc, known_defects):
    """Per-layer metrics of one traced pass whose timed operations took wall_s."""
    out = {}
    for name, _unit, _better in _FUNCTION_METRICS:
        key = ("op", _ALIASES.get(name, name))
        if name == "cli.run_subcommand.busy_s":
            # parse, format and write: the cli layer's own time, children excluded
            out[name] = tracer.agg_self[("op", "cli")]
        elif name.endswith("busy_s"):
            out[name] = tracer.agg_busy[key]
        else:
            out[name] = tracer.agg_counts[key]
    for kind in MC_KINDS:
        trials, busy = tracer.mc[("op", kind, nproc)]
        trials_1t, busy_1t = tracer.mc[("check", kind, 1)]
        rate = trials / busy if busy else 0.0
        rate_1t = trials_1t / busy_1t if busy_1t else 0.0
        out[f"mc.{kind}.trials_per_s"] = rate
        out[f"mc.{kind}.trials_per_s_1t"] = rate_1t
        out[f"mc.{kind}.speedup"] = rate / rate_1t if rate_1t else 0.0
    out["mc.trials"] = sum(tracer.mc[("op", kind, nproc)][0] for kind in MC_KINDS)
    traced_self = 0.0
    for layer in LAYERS[:-1]:
        self_s = tracer.agg_self[("op", layer)]
        traced_self += self_s
        out[f"layer.{layer}.self_frac"] = self_s / wall_s
        out[f"layer.{layer}.busy_frac"] = tracer.agg_layer_busy[("op", layer)] / wall_s
    out["layer.bench.self_frac"] = (wall_s - traced_self) / wall_s
    out["check.known_defects"] = known_defects
    return out
