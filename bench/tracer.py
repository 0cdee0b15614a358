"""Per-layer tracing by wrapping entnet's public functions.

`Tracer.install` replaces every public function of every entnet module with
a timing wrapper, at each module attribute that refers to it: the defining
module and every module that imported the name (for example
``entnet.protocols.optimal_partition`` and ``entnet.partitions.snapshot_qfi_uniform``).
Calls made through those attributes open a span; `uninstall` restores the
originals, so untraced passes run the unmodified program.

Spans carry name, start, end, parent and op id. They are kept in memory, up
to `SPAN_CAP`, and written out when the pass ends. Aggregates
(calls, busy time, module self time, counters) are kept online for every
span, so the cap never changes a metric. A layer's self time is a span's
duration minus the time its child spans cover.

Only the main thread is traced: Monte Carlo chunks run in pool threads and
call no wrapped function, and their time is inside the `run_chunked_trials`
span that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import types
from collections import defaultdict
from time import perf_counter

from metrics import MC_KINDS

SPAN_CAP = 200_000

# The entnet modules whose public functions are wrapped, by layer name.
LAYERS = {
    "core": "entnet.core",
    "partitions": "entnet.partitions",
    "protocols": "entnet.protocols",
    "mc": "entnet._mc",
    "distillation": "entnet.distillation",
    "oracle": "entnet.oracle",
    "measurements": "entnet.measurements",
    "thresholds": "entnet.thresholds",
    "latency": "entnet.latency",
    "cli": "entnet.cli",
}

# Functions that are called too often for a span each (per grouping candidate
# or per series term); they are counted, and their time stays in the caller.
COUNT_ONLY = {
    "core.coefficient_c",
    "core.coefficient_c_uniform",
    "core.ghz_coeffs_equal",
    "core.ghz_coeffs_mixed",
    "core.werner_from_fidelity",
    "core.fidelity_from_werner",
    "protocols.vtmbl_joint_prob",
    "distillation.distill_pair",
}

# Spans of these functions are reported together; a call nested inside another
# call of the same group (snapshot_qfi_uniform calls snapshot_qfi_werner) is
# not counted twice.
GROUPS = {
    "core.snapshot_qfi_uniform": "core.snapshot_qfi",
    "core.snapshot_qfi_werner": "core.snapshot_qfi",
}


def _public_functions(module, layer):
    names = getattr(module, "__all__", None)
    if names is None:  # entnet._mc has no __all__; its API is its public names
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            out[obj] = f"{layer}.{name}"
    return out


def _vtmbl_method(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    name = getattr(method, "value", "truncated_series")
    return {"closed_form": "closed", "truncated_series": "series"}.get(name, "mc")


def _mc_kind(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    if spec.distill_policy.value != "none":
        return "distilled"
    return "waiting" if spec.kind.value == "vtmbl" else "block"


def _distill_method(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else None)
    return "distilled" if getattr(method, "value", "") == "monte_carlo" else "enum"


# Spans of these functions get a sub-label from the argument that selects the
# code path; Monte Carlo labels are the MC_KINDS.
LABELLERS = {
    "protocols.vtmbl_avg_qfi": _vtmbl_method,
    "protocols.monte_carlo_avg_qfi": _mc_kind,
    "distillation.ftmbl_distilled_avg_qfi": _distill_method,
}


class Tracer:
    """Installs wrappers, records spans and aggregates them per phase."""

    def __init__(self, entnet_package):
        self._pkg = entnet_package
        self._patches = []
        self._main = threading.get_ident()
        self.spans = []
        self.dropped = 0
        self._next_id = 0
        self._stack = []
        self._group_depth = defaultdict(int)  # open spans per function or group
        self._layer_depth = defaultdict(int)  # open spans per layer
        self.op_id = None
        self.phase = "op"
        self.agg_busy = defaultdict(float)  # (phase, metric) -> seconds
        self.agg_counts = defaultdict(int)  # (phase, metric) -> count
        self.agg_self = defaultdict(float)  # (phase, layer) -> seconds
        self.agg_layer_busy = defaultdict(float)  # (phase, layer) -> seconds inside the layer
        self.mc = defaultdict(lambda: [0, 0.0])  # (phase, kind, threads) -> [trials, seconds]

    # -- installation ---------------------------------------------------------

    def install(self):
        targets = {}
        for layer, modname in LAYERS.items():
            targets.update(_public_functions(importlib.import_module(modname), layer))
        wrappers = {fn: self._wrap(fn, key) for fn, key in targets.items()}
        namespaces = [self._pkg] + [importlib.import_module(m) for m in LAYERS.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def _wrap(self, fn, key):
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.agg_counts[(self.phase, key + ".calls")] += 1
                return fn(*args, **kwargs)

            return counted

        group = GROUPS.get(key, key)
        layer = key.split(".", 1)[0]
        labeller = LABELLERS.get(key)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            label = labeller(args, kwargs) if labeller else None
            self._group_depth[group] += 1
            self._layer_depth[layer] += 1
            frame = [group, layer, label, perf_counter(), 0.0, self._new_id(), args, kwargs]
            self._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(key, frame, perf_counter(), result)

        return spanned

    # -- recording ------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _close(self, key, frame, end, result):
        stack = self._stack
        stack.pop()
        group, layer, label, start, child, span_id, args, kwargs = frame
        duration = end - start
        phase = self.phase
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += duration
        self.agg_self[(phase, layer)] += duration - child
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.agg_layer_busy[(phase, layer)] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, parent[5] if parent else None, key, start, end, self.op_id, phase)
            )
        else:
            self.dropped += 1
        self._group_depth[group] -= 1
        if self._group_depth[group]:
            return  # nested call of the same function or group: counted by the outer one
        self.agg_counts[(phase, group + ".calls")] += 1
        self.agg_busy[(phase, group + ".busy_s")] += duration
        if label is not None:
            self.agg_counts[(phase, f"{group}.{label}.calls")] += 1
            self.agg_busy[(phase, f"{group}.{label}.busy_s")] += duration
        candidates = getattr(result, "candidates_evaluated", None)
        if candidates is not None:
            self.agg_counts[(phase, group + ".candidates")] += candidates
        if key == "oracle.measurement_cfi":
            probe, povm = args[0], args[2] if len(args) > 2 else kwargs["povm"]
            elements = len(povm)
            self.agg_counts[(phase, "oracle.povm_elements")] += elements
            self.agg_counts[(phase, "oracle.povm_bytes")] += elements * probe.dim**2 * 16
        if key == "mc.run_chunked_trials":
            trials, workers = args[1], args[2]
            kind = next((f[2] for f in reversed(stack) if f[2] in MC_KINDS), None)
            if kind is not None:
                entry = self.mc[(phase, kind, workers)]
                entry[0] += trials
                entry[1] += duration

    def count(self, metric, value):
        """Add to a counter of the timed operations (phase "op")."""
        self.agg_counts[("op", metric)] += value
