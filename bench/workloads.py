"""The four workloads: seeded operations and the checks on their outputs.

An operation is one unit a user waits for: one `entnet reproduce <id>`, one
analytic query, one Monte Carlo estimate, or one dense-oracle probe check.
`build(workload, seed, nproc)` returns the same operations for the same seed;
the seed picks fidelities, probabilities, phases and Monte Carlo seeds, while
the sizes that set the cost of each operation are fixed, so the work in a
pass hardly depends on the seed. `tiny=True` shrinks every size, for the
self-test.

A check returns None when the output is right and a message otherwise. It
runs after the operation's clock stops. It is given the tracer in a traced
pass (else None), for checks that only run there.

Operations marked with `defect` sit in a region where ROADMAP item 1 records
that the seed program prints a wrong value or raises. Their checks run like
any other; a failure there is reported as a known defect instead of a failed
operation, and a pass there is reported as the defect no longer reproducing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy as np

import entnet as en
import entnet.cli

REPRODUCE_IDS = entnet.cli.REPRODUCE_IDS
TINY_REPRODUCE_IDS = ("fig5", "table1")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "reproduce.json"

# Monte Carlo trials per estimate: eight 2^16-trial chunks, so two threads
# each get whole chunks.
MC_TRIALS = 1 << 19

# Distillation enumeration is the exact reference for S <= 8 (and k <= 5).
ENUM_MAX_SENSORS = 8

# Tolerances of acceptance criterion 05 (dense oracle vs closed forms).
QFI_TOL = 1e-10
CFI_TOL = 1e-6

DEFECT_CLOSED = "vtmbl closed form loses accuracy as S grows (ROADMAP item 1)"
DEFECT_KOPT = "ftmbl_k_opt clamps silently at k_max=200 (ROADMAP item 1)"
DEFECT_PMF = "binomial pmf overflows for S >= 1030 (ROADMAP item 1)"
DEFECT_SERIES = "vtmbl series gives up after 100000 slots (ROADMAP item 1)"
DEFECT_ZERO = "optimal_partition(0, 0, f) divides by zero (ROADMAP item 1)"


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    defect: str | None = None

    @property
    def label(self):
        args = ",".join(f"{k}={_short(v)}" for k, v in self.params.items())
        return f"{self.kind}({args})"


def _short(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_short(v) for v in value) + "]"
    return str(value)


def build(workload, seed, nproc, tiny=False):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reproduce":
        return reproduce_ops(TINY_REPRODUCE_IDS if tiny else REPRODUCE_IDS)
    if workload == "scale-sweep":
        return scale_sweep_ops(rng, tiny)
    if workload == "montecarlo":
        return montecarlo_ops(rng, nproc, tiny)
    if workload == "oracle":
        return oracle_ops(rng, seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _within(value, reference, rel):
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def _range_error(avg, sensors, p, gap2=1.0):
    """The paper's post-condition 0 < avg <= gap^2 * qfi_upper_bound."""
    bound = gap2 * en.qfi_upper_bound(sensors, p)
    if not 0.0 < avg <= bound * (1.0 + 1e-12):
        return f"average {avg:.12g} outside (0, {bound:.12g}]"
    return None


# --- reproduce ----------------------------------------------------------------


def row_digest(line):
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:8]


def run_reproduce(rid):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = en.cli.run_subcommand(["reproduce", rid])
    return code, buf.getvalue()


def reproduce_ops(ids):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    def check(rid, result, tracer):
        code, text = result
        if tracer is not None:
            tracer.count("cli.rows", text.count("\n"))
            tracer.count("cli.bytes", len(text.encode("utf-8")))
        if code != 0:
            return f"{rid}: exit code {code}"
        want = golden[rid]
        if hashlib.sha256(text.encode("utf-8")).hexdigest() == want["sha256"]:
            return None
        lines = text.splitlines()
        for row, (line, digest) in enumerate(zip(lines, want["rows"]), start=1):
            if row_digest(line) != digest:
                return f"{rid}: CSV differs from the seed commit first at row {row}: {line!r}"
        return f"{rid}: {len(lines)} CSV rows, the seed commit printed {len(want['rows'])}"

    return [
        Op("reproduce", {"id": rid}, lambda rid=rid: run_reproduce(rid),
           lambda res, tr, rid=rid: check(rid, res, tr))
        for rid in ids
    ]


# --- scale-sweep ----------------------------------------------------------------


def _werner_qfi(sensors, groups):
    part = en.GhzPartition(tuple(len(g) for g in groups), sensors)
    return en.snapshot_qfi_werner(sensors, part, groups)


def _grouping_error(res, sensors, groups, all_fids):
    """Recompute the winner's QFI and compare it with the trivial groupings."""
    qfi = _werner_qfi(sensors, groups)
    if not _within(res.qfi, qfi, 1e-12):
        return f"reported QFI {res.qfi:.15g} but the grouping recomputes to {qfi:.15g}"
    local = _werner_qfi(sensors, [])
    if qfi < local * (1.0 - 1e-12):
        return f"QFI {qfi:.15g} below the all-local grouping's {local:.15g}"
    if len(all_fids) >= 2:
        maximal = _werner_qfi(sensors, [list(all_fids)])
        if qfi < maximal * (1.0 - 1e-12):
            return f"QFI {qfi:.15g} below the maximal grouping's {maximal:.15g}"
    return None


def _optimal_partition_op(m, sensors, f, defect=None):
    def check(res, _tracer):
        sizes = res.best.group_sizes
        if res.best.total_sensors != sensors or sum(sizes) > m:
            return f"grouping {sizes} does not fit m={m}, S={sensors}"
        return _grouping_error(res, sensors, [[f] * n for n in sizes], [f] * m)

    return Op("optimal_partition", {"m": m, "s": sensors, "f": f},
              lambda: en.optimal_partition(m, sensors, f), check, defect)


def _mixed_op(fids, sensors):
    def check(res, _tracer):
        members = res.group_members
        used = [i for g in members for i in g]
        if len(used) != len(set(used)) or not set(used) <= set(range(len(fids))):
            return f"group members {members} are not disjoint links"
        return _grouping_error(res, sensors, [[fids[i] for i in g] for g in members], fids)

    return Op("optimal_partition_mixed", {"links": len(fids), "s": sensors, "fids": fids},
              lambda: en.optimal_partition_mixed(fids, sensors), check)


def _ftmbl_op(sensors, p, f, k, policy, defect=None):
    cfg = en.NetworkConfig(sensors, p, f)
    return Op("ftmbl_avg_qfi", {"s": sensors, "p": p, "f": f, "k": k, "policy": policy.value},
              lambda: en.ftmbl_avg_qfi(cfg, k, policy),
              lambda est, _tracer: _range_error(est.mean, sensors, p), defect)


def _vtmbl_series_op(sensors, mu, p, defect=None):
    cfg = en.NetworkConfig(sensors, p)
    return Op("vtmbl_series", {"s": sensors, "mu": mu, "p": p},
              lambda: en.vtmbl_avg_qfi(cfg, mu, en.EstimateMethod.TRUNCATED_SERIES),
              lambda est, _tracer: _range_error(est.mean, sensors, p), defect)


def _vtmbl_closed_op(sensors, mu, p, defect=None):
    cfg = en.NetworkConfig(sensors, p)

    def check(est, _tracer):
        series = en.vtmbl_avg_qfi(cfg, mu, en.EstimateMethod.TRUNCATED_SERIES).mean
        if not _within(est.mean, series, 1e-8):
            return f"closed form {est.mean:.12g} vs series {series:.12g}"
        return _range_error(est.mean, sensors, p)

    return Op("vtmbl_closed", {"s": sensors, "mu": mu, "p": p},
              lambda: en.vtmbl_avg_qfi(cfg, mu, en.EstimateMethod.CLOSED_FORM), check, defect)


def _mu_opt_op(sensors, p):
    def check(mu, _tracer):
        return None if 2 <= mu <= sensors else f"mu_opt={mu} outside [2, {sensors}]"

    return Op("vtmbl_mu_opt", {"s": sensors, "p": p},
              lambda: en.vtmbl_mu_opt(sensors, p), check)


def _k_opt_op(p, defect=None):
    def objective(k):
        return (1.0 - (1.0 - p) ** k) ** 2 / k

    def check(k_opt, _tracer):
        best = objective(k_opt)
        for k in range(1, math.ceil(3.0 / p) + 1):
            if objective(k) > best * (1.0 + 1e-12):
                return f"k={k} beats k_opt={k_opt}: {objective(k):.12g} > {best:.12g}"
        return None

    return Op("ftmbl_k_opt", {"p": p}, lambda: en.ftmbl_k_opt(p), check, defect)


def _distill_enum_op(sensors, p, f, k, policy):
    cfg = en.NetworkConfig(sensors, p, f)
    return Op("distill_enum", {"s": sensors, "p": p, "f": f, "k": k, "policy": policy.value},
              lambda: en.ftmbl_distilled_avg_qfi(cfg, k, policy),
              lambda est, _tracer: _range_error(est.mean, sensors, p))


def _threshold_op(n):
    def check(res, _tracer):
        x = res.x_thres
        lhs = 2.0**n * n * x ** (2 * n)
        rhs = (1.0 + x) ** n + (1.0 - x) ** n
        if not (0.0 < x < 1.0 and _within(lhs, rhs, 1e-9)):
            return f"x={x!r} does not solve the threshold equation ({lhs!r} vs {rhs!r})"
        if not _within(res.f_thres, (3.0 * x + 1.0) / 4.0, 1e-15):
            return f"f_thres={res.f_thres!r} does not match x={x!r}"
        return None

    return Op("solve_threshold", {"n": n}, lambda: en.solve_threshold(n), check)


def scale_sweep_ops(rng, tiny=False):
    """Analytic queries beyond the figure grids, weighted to the grouping search."""
    u = rng.uniform

    def jitter(p):
        return p * u(0.95, 1.05)

    ops = []
    for m in (8,) if tiny else (40, 36, 36, 32, 24):
        ops.append(_optimal_partition_op(m, m + rng.randrange(21), u(0.84, 1.0)))
    ops.append(_optimal_partition_op(0, 0, u(0.84, 1.0), DEFECT_ZERO))
    # Three of the slowest query per pass: with four passes, the 11th-slowest
    # operation (op_tail_ms) falls inside this group, not at the top of the next.
    for links in (4,) if tiny else (10, 10, 10, 9, 8):
        fids = [round(u(0.8, 1.0), 6) for _ in range(links)]
        ops.append(_mixed_op(fids, links + rng.randrange(11)))
    for sensors in (8,) if tiny else (32, 28, 20):
        ops.append(_ftmbl_op(sensors, u(0.05, 0.6), u(0.85, 1.0), rng.randint(1, 4),
                             en.PartitionPolicy.OPTIMAL))
    if tiny:
        ops.append(_vtmbl_closed_op(10, 5, jitter(0.3)))
        ops.append(_k_opt_op(jitter(0.3)))
        ops.append(_distill_enum_op(4, u(0.1, 0.9), u(0.7, 1.0), 2, en.LeftoverPolicy.KEEP))
        ops.append(_threshold_op(rng.randrange(2, 41)))
        return ops
    for sensors in (1000, 200, 60):
        ops.append(_ftmbl_op(sensors, u(0.05, 0.6), u(0.9, 1.0), rng.randint(1, 4),
                             en.PartitionPolicy.MAXIMAL))
    ops.append(_ftmbl_op(1100, u(0.05, 0.6), u(0.9, 0.99), 1, en.PartitionPolicy.MAXIMAL,
                         DEFECT_PMF))
    # the closed form agrees with the series to 1e-9 up to S=16 at the seed
    for sensors, mu, p in ((16, 8, 0.1), (16, 12, 0.03), (12, 6, 0.01), (10, 5, 0.3), (5, 5, 1e-3)):
        ops.append(_vtmbl_closed_op(sensors, mu, jitter(p)))
    for sensors, mu, p in ((30, 15, 0.1), (40, 20, 0.1), (60, 30, 0.1)):
        ops.append(_vtmbl_closed_op(sensors, mu, jitter(p), DEFECT_CLOSED))
    for sensors, mu, p in ((60, 30, 0.1), (60, 30, 0.01), (40, 20, 0.1), (20, 10, 1e-3),
                           (5, 5, 1e-3), (5, 2, 1e-4)):
        ops.append(_vtmbl_series_op(sensors, mu, jitter(p)))
    ops.append(_vtmbl_series_op(5, 5, jitter(1e-4), DEFECT_SERIES))
    for sensors, p in ((24, 0.05), (16, 0.2)):
        ops.append(_mu_opt_op(sensors, jitter(p)))
    for p in (0.3, 0.05, 0.01):
        ops.append(_k_opt_op(jitter(p)))
    for p in (0.005, 0.002):
        ops.append(_k_opt_op(jitter(p), DEFECT_KOPT))
    for policy in (en.LeftoverPolicy.DISCARD, en.LeftoverPolicy.KEEP):
        ops.append(_distill_enum_op(8, u(0.1, 0.9), u(0.7, 1.0), 5, policy))
    for n in sorted(rng.sample(range(2, 41), 3)):
        ops.append(_threshold_op(n))
    return ops


# --- montecarlo -------------------------------------------------------------------


def _mc_op(kind, params, estimate, reference, sensors, p):
    """An estimate checked against its analytic reference (4 standard errors)
    and, in a traced pass, against the same estimate on one thread."""

    def check(est, tracer):
        if reference is not None:
            ref = reference()
            if abs(est.mean - ref) > 4.0 * est.std_error:
                return (f"estimate {est.mean:.12g} +- {est.std_error:.3g} is "
                        f"{abs(est.mean - ref) / est.std_error:.2f} standard errors "
                        f"from the analytic {ref:.12g}")
        elif not 0.0 < est.mean <= en.qfi_upper_bound(sensors, p) + 4.0 * est.std_error:
            return f"estimate {est.mean:.12g} outside (0, qfi_upper_bound]"
        if tracer is not None:
            single = estimate(1)
            if (single.mean, single.std_error) != (est.mean, est.std_error):
                return (f"1-thread result {single.mean!r} +- {single.std_error!r} differs from "
                        f"the {params['threads']}-thread {est.mean!r} +- {est.std_error!r}")
        return None

    return Op(kind, params, lambda: estimate(params["threads"]), check)


def montecarlo_ops(rng, nproc, tiny=False):
    u = rng.uniform
    ops = []
    trials = 1 << 16 if tiny else MC_TRIALS
    for sensors, mu in ((5, 3),) if tiny else ((5, 3), (10, 5), (50, 25)):
        p, f = u(0.2, 0.6), u(0.85, 1.0)
        cfg = en.NetworkConfig(sensors, p, f)
        base = {"s": sensors, "p": p, "f": f, "trials": trials, "threads": nproc}
        for k in (1, 3):
            seed = rng.getrandbits(63)
            spec = en.ProtocolSpec.fixed_tmbl(k)
            ops.append(_mc_op(
                "mc_block", {**base, "k": k, "seed": seed},
                lambda th, spec=spec, seed=seed, cfg=cfg: en.monte_carlo_avg_qfi(
                    cfg, spec, trials=trials, seed=seed, threads=th),
                lambda k=k, cfg=cfg: en.ftmbl_avg_qfi(cfg, k).mean, sensors, p))
        # The analytic waiting-protocol average needs perfect links. The
        # simulation's cost grows like 1/p, so p stays in a narrow band.
        p_wait = u(0.29, 0.31)
        cfg_wait = en.NetworkConfig(sensors, p_wait)
        seed = rng.getrandbits(63)
        ops.append(_mc_op(
            "mc_waiting", {**base, "p": p_wait, "f": 1.0, "mu": mu, "seed": seed},
            lambda th, seed=seed, cfg=cfg_wait, mu=mu: en.monte_carlo_avg_qfi(
                cfg, en.ProtocolSpec.variable_tmbl(mu), trials=trials, seed=seed, threads=th),
            lambda cfg=cfg_wait, mu=mu: en.vtmbl_avg_qfi(cfg, mu).mean, sensors, p_wait))
        for policy in (en.LeftoverPolicy.DISCARD, en.LeftoverPolicy.KEEP):
            seed = rng.getrandbits(63)
            reference = None
            if sensors <= ENUM_MAX_SENSORS:
                reference = lambda cfg=cfg, policy=policy: en.ftmbl_distilled_avg_qfi(
                    cfg, 3, policy).mean
            ops.append(_mc_op(
                "mc_distilled", {**base, "k": 3, "policy": policy.value, "seed": seed},
                lambda th, seed=seed, cfg=cfg, policy=policy: en.ftmbl_distilled_avg_qfi(
                    cfg, 3, policy, method=en.DistillMethod.MONTE_CARLO,
                    trials=trials, seed=seed, threads=th),
                reference, sensors, p))
    return ops


# --- oracle ------------------------------------------------------------------------

# Probe shapes: (sensors, GHZ group sizes). The sizes set the cost, so they are
# fixed; the seed draws link fidelities and phases. The local |+>/|-> POVM has
# 2^S elements of size 2^S x 2^S: at S=7 that is 128 elements and 32 MiB; S=8
# would take 256 MiB and about 2 s per CFI, too long for a pass.
QFI_PROBES = ((10, (5, 3)), (9, (4, 3, 2)), (8, (8,)), (6, (3, 2)))
POVM_PROBES = ((7, (4, 2)), (6, (6,)), (5, (3, 2)))
TINY_QFI_PROBES = ((4, (2, 2)),)
TINY_POVM_PROBES = ((3, (2,)),)
PHASE_VECTORS = 3


def plus_minus_povm(sensors):
    """Product of per-sensor |+><+| and |-><-| projectors: 2^S elements."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    elements = []
    for choice in product((plus, minus), repeat=sensors):
        elem = np.ones((1, 1), dtype=complex)
        for proj in choice:
            elem = np.kron(elem, proj)
        elements.append(elem)
    return elements


def _draw_fidelities(rng, sizes):
    return [[round(rng.uniform(0.75, 1.0), 6) for _ in range(n)] for n in sizes]


def _abs_check(what, tol):
    def check(result, _tracer):
        oracle, closed = result
        if abs(oracle - closed) > tol:
            return f"oracle {what} {oracle:.15g} vs closed form {closed:.15g}"
        return None

    return check


def oracle_ops(rng, seed, tiny=False):
    nprng = np.random.default_rng(random.Random(f"oracle-phases:{seed}").getrandbits(63))
    ops = []
    for sensors, sizes in TINY_QFI_PROBES if tiny else QFI_PROBES:
        part = en.GhzPartition(sizes, sensors)
        fids = _draw_fidelities(rng, sizes)
        phis = en.PhaseVector(tuple(nprng.uniform(-np.pi, np.pi, sensors)))

        def run(sensors=sensors, part=part, fids=fids, phis=phis):
            probe = en.build_probe(sensors, part, fids)
            return (en.qfi_theta(en.qfim(probe, phis)),
                    en.snapshot_qfi_werner(sensors, part, fids))

        ops.append(Op("qfim", {"s": sensors, "groups": sizes, "fids": fids}, run,
                      _abs_check("QFI", QFI_TOL)))
    for sensors, sizes in TINY_POVM_PROBES if tiny else POVM_PROBES:
        part = en.GhzPartition(sizes, sensors)
        fids = _draw_fidelities(rng, sizes)
        xs = tuple(tuple((4.0 * f - 1.0) / 3.0 for f in g) for g in fids)
        povm = plus_minus_povm(sensors)
        for _ in range(PHASE_VECTORS):
            phis = en.PhaseVector(tuple(nprng.uniform(-np.pi, np.pi, sensors)))

            def run_local(sensors=sensors, part=part, fids=fids, phis=phis, xs=xs, povm=povm):
                probe = en.build_probe(sensors, part, fids)
                return (en.measurement_cfi(probe, phis, povm),
                        en.local_cfi(en.LocalCfiInput(sensors, part, xs, phis)))

            ops.append(Op("local_povm_cfi", {"s": sensors, "groups": sizes, "fids": fids},
                          run_local, _abs_check("CFI", CFI_TOL)))
        phis = en.PhaseVector(tuple(nprng.uniform(-np.pi, np.pi, sensors)))

        def run_sld(sensors=sensors, part=part, fids=fids, phis=phis):
            probe = en.build_probe(sensors, part, fids)
            return (en.measurement_cfi(probe, phis, en.sld_povm(part, phis)),
                    en.snapshot_qfi_werner(sensors, part, fids))

        ops.append(Op("sld_povm_cfi", {"s": sensors, "groups": sizes, "fids": fids},
                      run_sld, _abs_check("SLD-POVM CFI", CFI_TOL)))
    return ops
