"""Command-line front end: sweeps, reference tables and figure data as CSV.

Every subcommand writes a CSV to stdout or ``--out``: one metadata comment
line (version, seed, parameters), a header row, then data rows sorted by
their grid coordinates.  Floats carry 12 significant digits.  Exit codes:
0 on success, 2 on usage errors, 3 on numeric or convergence failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .core import GhzPartition, snapshot_qfi_uniform, snapshot_qfi_werner, werner_from_fidelity
from .distillation import (
    ftmbl_distilled_avg_qfi,
    nested_distill,
    per_sensor_outcome_distribution,
)
from .errors import ConvergenceError, SizeLimitError
from .latency import SourceLocation, TimingParams, latency_model
from .measurements import LocalCfiInput, cfi_threshold, local_cfi, local_cfi_max
from .oracle import PhaseVector
from .partitions import optimal_partition, optimal_partition_mixed
from .protocols import (
    EstimateMethod,
    LeftoverPolicy,
    NetworkConfig,
    PartitionPolicy,
    ProtocolSpec,
    ftmbl_avg_qfi,
    ftmbl_k_opt,
    immediate_avg_qfi,
    monte_carlo_avg_qfi,
    qfi_upper_bound,
    vtmbl_avg_qfi,
    vtmbl_mu_opt,
)
from .thresholds import grouping_region_edges, solve_threshold

REPRODUCE_IDS = (
    "fig2",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig9",
    "table1",
    "table2",
)

_DEFAULT_SEED = 20240901


# --- formatting & parsing ----------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _fmt_partition(sizes: Sequence[int]) -> str:
    return "+".join(str(n) for n in sizes) if sizes else "-"


def _write_csv(args, params: dict, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    seed = getattr(args, "seed", None)
    meta_items = [f"entnet={__version__}", f"subcommand={args.subcommand}"]
    meta_items.append(f"seed={seed if seed is not None else '-'}")
    meta_items += [f"{k}={_fmt(v)}" for k, v in params.items()]
    lines = ["# " + " ".join(meta_items), ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_int_range(text: str) -> list[int]:
    """'2..8' -> [2, ..., 8]; '5' -> [5]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        return list(range(start, stop + 1))
    return [int(text)]


def _parse_float_range(text: str) -> list[float]:
    """'0.1:0.9:0.2' -> [0.1, 0.3, 0.5, 0.7, 0.9] (inclusive); '0.5' -> [0.5]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"float range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return [round(start + i * step, 12) for i in range(count)]
    if ".." in text:
        return [float(v) for v in _parse_int_range(text)]
    return [float(text)]


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-", "none"):
        return ()
    return tuple(int(tok) for tok in text.replace("+", ",").split(",") if tok.strip())


def _parse_fidelity_groups(text: str) -> list[list[float]]:
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            groups.append([float(tok) for tok in chunk.split(",") if tok.strip()])
    return groups


def _grid(*ranges):
    """Cartesian product in sorted row order."""
    if not ranges:
        yield ()
        return
    head, *tail = ranges
    for value in head:
        for rest in _grid(*tail):
            yield (value,) + rest


# --- config file --------------------------------------------------------------


def _load_config(path: str) -> list[str]:
    """key=value lines become CLI flags; later command-line flags override."""
    flags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() == "true":
                flags.append(flag)
            elif value.lower() == "false":
                continue
            else:
                flags += [flag, value]
    return flags


def _apply_config(argv: Sequence[str]) -> list[str]:
    argv = list(argv)
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    if not rest:
        raise ValueError("--config requires a subcommand")
    # Config flags go right after the subcommand so explicit flags win.
    return [rest[0]] + _load_config(path) + rest[1:]


# --- subcommands ---------------------------------------------------------------


def _cmd_threshold(args) -> int:
    rows = []
    for n in _parse_int_range(args.n):
        res = solve_threshold(n)
        rows.append((n, res.x_thres, res.f_thres, res.residual))
    return _write_csv(args, {"n": args.n}, ("n", "x_thres", "f_thres", "residual"), rows)


def _check_link_fidelity(fidelity: float) -> None:
    # Checked up front: an all-local partition never reads --f.
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"--f must be in [0, 1], got {fidelity}")


def _cmd_snapshot_qfi(args) -> int:
    _check_link_fidelity(args.f)
    sizes = _parse_partition(args.partition)
    part = GhzPartition(sizes, args.s)
    if args.fidelities:
        groups = _parse_fidelity_groups(args.fidelities)
        qfi = snapshot_qfi_werner(args.s, part, groups)
        label = args.fidelities.replace(";", "|").replace(",", "+")
    else:
        qfi = snapshot_qfi_uniform(args.s, part, args.f)
        label = _fmt(args.f)
    rows = [(args.s, _fmt_partition(sizes), label, qfi)]
    params = {"s": args.s, "partition": _fmt_partition(sizes)}
    return _write_csv(args, params, ("s", "partition", "f", "qfi"), rows)


def _cmd_partition(args) -> int:
    header = ("m", "s", "f", "method", "partition", "qfi", "candidates")
    sensors = args.s if args.s is not None else args.m
    if args.fidelities:
        fids = [float(tok) for tok in args.fidelities.split(",") if tok.strip()]
        res = optimal_partition_mixed(fids, sensors)
        label = args.fidelities.replace(",", "+")
        row = (len(fids), sensors, label, "mixed",
               _fmt_partition(res.best.group_sizes), res.qfi, res.candidates_evaluated)
        return _write_csv(args, {"fidelities": label}, header, [row])
    res = optimal_partition(args.m, sensors, args.f)
    row = (args.m, sensors, args.f, "uniform",
           _fmt_partition(res.best.group_sizes), res.qfi, res.candidates_evaluated)
    params = {"m": args.m, "s": sensors, "f": args.f}
    return _write_csv(args, params, header, [row])


def _protocol_estimate(args, protocol: str, cfg: NetworkConfig, param: int | None):
    policy = PartitionPolicy(args.policy)
    if args.method == "mc":
        if protocol == "immediate":
            spec = ProtocolSpec.immediate()
        elif protocol == "ftmbl":
            spec = ProtocolSpec.fixed_tmbl(param)
        else:
            spec = ProtocolSpec.variable_tmbl(param)
        return monte_carlo_avg_qfi(
            cfg, spec, policy, trials=args.trials, seed=args.seed, threads=args.threads
        )
    if protocol == "immediate":
        return immediate_avg_qfi(cfg, policy)
    if protocol == "ftmbl":
        return ftmbl_avg_qfi(cfg, param, policy)
    method = (
        EstimateMethod.CLOSED_FORM if args.method == "closed" else EstimateMethod.TRUNCATED_SERIES
    )
    return vtmbl_avg_qfi(cfg, param, method)


def _cmd_protocol_sweep(args) -> int:
    if args.method == "mc" and args.seed is None:
        raise ValueError("Monte Carlo sweeps require --seed")
    protocol = args.protocol
    s_values = _parse_int_range(args.s)
    p_values = _parse_float_range(args.p)
    f_values = _parse_float_range(args.f)
    if protocol == "ftmbl":
        params = _parse_int_range(args.k)
    elif protocol == "vtmbl":
        params = _parse_int_range(args.mu)
    else:
        params = [0]
    rows = []
    for s, p, f, par in _grid(s_values, p_values, f_values, params):
        cfg = NetworkConfig(s, p, f)
        est = _protocol_estimate(args, protocol, cfg, par)
        rows.append(
            (protocol, s, p, f, par if protocol != "immediate" else "-",
             args.method, est.mean, est.std_error, est.trials)
        )
    header = ("protocol", "s", "p", "f", "param", "method", "mean", "std_error", "trials")
    params_meta = {
        "protocol": protocol, "s": args.s, "p": args.p, "f": args.f,
        "policy": args.policy, "method": args.method, "trials": args.trials,
    }
    return _write_csv(args, params_meta, header, rows)


def _cmd_distill(args) -> int:
    policy = LeftoverPolicy(args.policy)
    if args.links is not None:
        if args.p is not None or args.k is not None:
            raise ValueError("--links cannot be combined with --p or --k")
        dist = nested_distill(args.f, args.links, policy)
        params = {"f": args.f, "links": args.links, "policy": args.policy}
    else:
        if args.p is None or args.k is None:
            raise ValueError("need either --links or both --p and --k")
        dist = per_sensor_outcome_distribution(args.f, args.p, args.k, policy)
        params = {"f": args.f, "p": args.p, "k": args.k, "policy": args.policy}
    rows = [(fid, prob) for fid, prob in dist.outcomes]
    return _write_csv(args, params, ("fidelity", "probability"), rows)


def _cmd_measure_cfi(args) -> int:
    _check_link_fidelity(args.f)
    sizes = _parse_partition(args.partition)
    part = GhzPartition(sizes, args.s)
    x = werner_from_fidelity(args.f)
    groups = tuple(tuple([x] * n) for n in part.group_sizes)
    if args.max:
        value = local_cfi_max(args.s, part, groups)
        mode = "max"
    else:
        if not args.phis:
            raise ValueError("need --phis unless --max is given")
        phis = PhaseVector(tuple(float(tok) for tok in args.phis.split(",")))
        value = local_cfi(LocalCfiInput(args.s, part, groups, phis))
        mode = "at-phis"
    rows = [(args.s, _fmt_partition(sizes), args.f, mode, value)]
    params = {"s": args.s, "partition": _fmt_partition(sizes), "f": args.f, "mode": mode}
    return _write_csv(args, params, ("s", "partition", "f", "mode", "cfi"), rows)


def _cmd_latency(args) -> int:
    params = TimingParams(args.distance, args.speed, args.period, args.k, args.s)
    cases = []
    sources = [SourceLocation.AT_SENSORS, SourceLocation.AT_HUB]
    if args.source:
        sources = [SourceLocation(args.source)]
    distills = [False, True] if args.distill is None else [args.distill == "true"]
    for source in sources:
        for distill in distills:
            rep = latency_model(params, source, distill)
            cases.append(
                (source.value, distill, rep.latency, rep.sensor_memories, rep.hub_memories)
            )
    header = ("source", "distill", "latency", "sensor_memories", "hub_memories")
    meta = {
        "distance": args.distance, "speed": args.speed, "period": args.period,
        "k": args.k, "s": args.s,
    }
    return _write_csv(args, meta, header, cases)


# --- reproduce ------------------------------------------------------------------


def _partitions_of_five() -> list[tuple[int, ...]]:
    return [(2,), (3,), (4,), (5,), (2, 2), (3, 2)]


def _repro_fig2(args):
    sensors = 5
    rows = []
    for k in (1, 2, 3, 5, 10):
        for p100 in range(0, 101, 2):
            p = p100 / 100.0
            rows.append((k, p, ftmbl_avg_qfi(NetworkConfig(sensors, p), k).mean))
    return {"s": sensors, "f": 1.0}, ("k", "p", "avg_qfi"), rows


def _repro_fig3a(args):
    rows = []
    for p10 in (1, 3, 5, 7, 9):
        p = p10 / 10.0
        for sensors in range(2, 15):
            rows.append((p, sensors, vtmbl_mu_opt(sensors, p)))
    return {"s": "2..14"}, ("p", "s", "mu_opt"), rows


def _repro_fig3bc(args, sensors: int):
    rows = []
    for p5 in range(1, 20):
        p = p5 / 20.0
        cfg = NetworkConfig(sensors, p)
        k = ftmbl_k_opt(p)
        mu = vtmbl_mu_opt(sensors, p)
        rows.append((p, "immediate", "-", immediate_avg_qfi(cfg).mean))
        rows.append((p, "ftmbl", k, ftmbl_avg_qfi(cfg, k).mean))
        rows.append((p, "vtmbl", mu, vtmbl_avg_qfi(cfg, mu).mean))
        rows.append((p, "bound", "-", qfi_upper_bound(sensors, p)))
    return {"s": sensors, "f": 1.0}, ("p", "protocol", "param", "avg_qfi"), rows


def _repro_fig4(args):
    sensors = 5
    rows = []
    for sizes in [()] + _partitions_of_five():
        part = GhzPartition(sizes, sensors)
        for f1000 in range(750, 1001, 2):
            f = f1000 / 1000.0
            rows.append((_fmt_partition(sizes), f, snapshot_qfi_uniform(sensors, part, f)))
    return {"s": sensors, "m": 5}, ("partition", "f", "qfi"), rows


def _repro_fig5(args):
    rows = []
    for n in range(2, 21):
        res = solve_threshold(n)
        rows.append((n, res.x_thres, res.f_thres))
    return {"n": "2..20"}, ("n", "x_thres", "f_thres"), rows


def _repro_fig6(args, distilled: bool):
    sensors = 5
    rows = []
    for k in (1, 2, 3):
        for p10 in range(1, 11):
            p = p10 / 10.0
            for f100 in range(80, 101):
                f = f100 / 100.0
                cfg = NetworkConfig(sensors, p, f)
                if distilled:
                    value = ftmbl_distilled_avg_qfi(cfg, k, LeftoverPolicy.DISCARD).mean
                else:
                    value = ftmbl_avg_qfi(cfg, k, PartitionPolicy.OPTIMAL).mean
                rows.append((k, p, f, value))
    label = "distill-maximal" if distilled else "optimal-partitions"
    return {"s": sensors, "mode": label}, ("k", "p", "f", "avg_qfi"), rows


def _repro_fig7a(args):
    sensors = 5
    rows = []
    for sizes in _partitions_of_five():
        part = GhzPartition(sizes, sensors)
        for f1000 in range(750, 1001, 2):
            f = f1000 / 1000.0
            x = werner_from_fidelity(f)
            groups = [[x] * n for n in sizes]
            qfi = snapshot_qfi_uniform(sensors, part, f)
            cfi = local_cfi_max(sensors, part, groups)
            rows.append((_fmt_partition(sizes), f, qfi, cfi))
    return {"s": sensors}, ("partition", "f", "qfi", "max_cfi"), rows


def _repro_fig7b(args):
    sensors = 5
    rows = []
    for n in (2, 3, 4, 5):
        part = GhzPartition((n,), sensors)
        thresh = cfi_threshold(n)
        for f1000 in range(750, 1001, 2):
            f = f1000 / 1000.0
            x = werner_from_fidelity(f)
            qfi = snapshot_qfi_uniform(sensors, part, f)
            cfi = local_cfi_max(sensors, part, [[x] * n])
            rows.append((n, f, cfi, qfi, cfi / qfi, thresh))
    header = ("n", "f", "max_cfi", "qfi", "ratio", "cfi_threshold_f")
    return {"s": sensors}, header, rows


def _repro_fig9(args):
    sensors = 5
    rows = []
    for k in (3, 4):
        for p20 in range(1, 20):
            p = p20 / 20.0
            for f50 in range(30, 51):
                f = f50 / 50.0
                cfg = NetworkConfig(sensors, p, f)
                none_v = ftmbl_avg_qfi(cfg, k).mean
                disc = ftmbl_distilled_avg_qfi(cfg, k, LeftoverPolicy.DISCARD).mean
                keep = ftmbl_distilled_avg_qfi(cfg, k, LeftoverPolicy.KEEP).mean
                rows.append((k, p, f, "none", none_v))
                rows.append((k, p, f, "discard", disc))
                rows.append((k, p, f, "keep", keep))
    return {"s": sensors}, ("k", "p", "f", "policy", "avg_qfi"), rows


def _repro_table1(args):
    bounds = grouping_region_edges()
    rows = []
    for region in range(6):
        f = 0.5 * (bounds[region] + bounds[region + 1])
        for m in (2, 3, 4, 5):
            best = optimal_partition(m, 5, f).best.group_sizes
            rows.append((region + 1, f, m, _fmt_partition(best)))
    return {"s": 5}, ("region", "f_representative", "m", "partition"), rows


# The printed table's first column reads "F ~ 0.84"; pinned just above the
# n=3 usefulness threshold (0.84055) where only 3-groups help.
_TABLE2_F = (0.842, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98, 1.0)


def _repro_table2(args):
    rows = []
    for m in (10, 15, 20):
        for f in _TABLE2_F:
            best = optimal_partition(m, m, f).best.group_sizes
            rows.append((m, f, _fmt_partition(best)))
    return {"m": "10,15,20"}, ("m", "f", "partition"), rows


def _cmd_reproduce(args) -> int:
    table = {
        "fig2": _repro_fig2,
        "fig3a": _repro_fig3a,
        "fig3b": lambda a: _repro_fig3bc(a, 5),
        "fig3c": lambda a: _repro_fig3bc(a, 10),
        "fig4": _repro_fig4,
        "fig5": _repro_fig5,
        "fig6a": lambda a: _repro_fig6(a, distilled=False),
        "fig6b": lambda a: _repro_fig6(a, distilled=True),
        "fig7a": _repro_fig7a,
        "fig7b": _repro_fig7b,
        "fig9": _repro_fig9,
        "table1": _repro_table1,
        "table2": _repro_table2,
    }
    params, header, rows = table[args.id](args)
    params = {"id": args.id, **params}
    return _write_csv(args, params, header, rows)


# --- parser ---------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_argument("--config", help="key=value file; explicit flags override it")


def _add_monte_carlo(sub, seed_default=None):
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: ENTNET_THREADS or CPU count)")
    sub.add_argument("--seed", type=int, default=seed_default, help="Monte Carlo seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnet",
        description="Average-QFI evaluation of entanglement-assisted sensing protocols",
    )
    parser.add_argument("--version", action="version", version=f"entnet {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sq = subs.add_parser("snapshot-qfi", help="QFI of one snapshot probe")
    sq.add_argument("--s", type=int, required=True, help="sensor count")
    sq.add_argument("--partition", default="", help="group sizes, e.g. 3,2 (empty = all local)")
    sq.add_argument("--f", type=float, default=1.0, help="uniform link fidelity")
    sq.add_argument("--fidelities", help="per-group fidelities, e.g. 0.9,0.8;0.7,0.7")
    _add_common(sq)
    sq.set_defaults(func=_cmd_snapshot_qfi)

    th = subs.add_parser("threshold", help="usefulness threshold fidelities")
    th.add_argument("--n", required=True, help="group size or range, e.g. 2..8")
    _add_common(th)
    th.set_defaults(func=_cmd_threshold)

    pt = subs.add_parser("partition", help="best GHZ grouping of m links")
    pt.add_argument("--m", type=int, default=0, help="successful link count")
    pt.add_argument("--f", type=float, default=1.0, help="uniform link fidelity")
    pt.add_argument("--s", type=int, default=None, help="sensor count (default m)")
    pt.add_argument("--fidelities", help="comma list for the mixed-fidelity search")
    _add_common(pt)
    pt.set_defaults(func=_cmd_partition)

    ps = subs.add_parser("protocol-sweep", help="average QFI over a parameter grid")
    ps.add_argument("--protocol", choices=("immediate", "ftmbl", "vtmbl"), required=True)
    ps.add_argument("--s", default="5", help="sensor count range, e.g. 5 or 2..10")
    ps.add_argument("--p", default="0.1:0.9:0.1", help="success probability range")
    ps.add_argument("--f", default="1.0", help="fidelity range")
    ps.add_argument("--k", default="1", help="block length range (ftmbl)")
    ps.add_argument("--mu", default="2", help="waiting threshold range (vtmbl)")
    ps.add_argument("--policy", choices=("maximal", "optimal"), default="maximal")
    ps.add_argument("--method", choices=("closed", "series", "mc"), default="series")
    ps.add_argument("--trials", type=int, default=1_000_000)
    _add_common(ps)
    _add_monte_carlo(ps)
    ps.set_defaults(func=_cmd_protocol_sweep)

    di = subs.add_parser("distill", help="final-fidelity distribution after distillation")
    di.add_argument("--f", type=float, required=True, help="raw link fidelity")
    di.add_argument("--links", type=int, default=None, help="link count to distill")
    di.add_argument("--p", type=float, default=None, help="per-slot success probability")
    di.add_argument("--k", type=int, default=None, help="attempts per block")
    di.add_argument("--policy", choices=("discard", "keep"), default="discard")
    _add_common(di)
    di.set_defaults(func=_cmd_distill)

    mc = subs.add_parser("measure-cfi", help="local-measurement Fisher information")
    mc.add_argument("--s", type=int, required=True)
    mc.add_argument("--partition", default="", help="group sizes, e.g. 3,2")
    mc.add_argument("--f", type=float, default=1.0)
    mc.add_argument("--phis", help="comma list of per-sensor phases (radians)")
    mc.add_argument("--max", action="store_true", help="report the phase-maximised CFI")
    _add_common(mc)
    mc.set_defaults(func=_cmd_measure_cfi)

    la = subs.add_parser("latency", help="latency and memory for the architecture cases")
    la.add_argument("--distance", type=float, required=True, help="sensor-hub distance (m)")
    la.add_argument("--speed", type=float, default=2e8, help="signal speed (m/s)")
    la.add_argument("--period", type=float, required=True, help="attempt period (s)")
    la.add_argument("--k", type=int, default=1, help="block length")
    la.add_argument("--s", type=int, default=2, help="sensor count")
    la.add_argument("--source", choices=("sensors", "hub"), default=None)
    la.add_argument("--distill", choices=("true", "false"), default=None)
    _add_common(la)
    la.set_defaults(func=_cmd_latency)

    rp = subs.add_parser("reproduce", help="emit a reference figure/table data grid")
    rp.add_argument("id", choices=REPRODUCE_IDS)
    _add_common(rp)
    _add_monte_carlo(rp, seed_default=_DEFAULT_SEED)
    rp.set_defaults(func=_cmd_reproduce)

    return parser


def run_subcommand(argv: Sequence[str]) -> int:
    """Parse and run; returns the process exit code (0 / 2 usage / 3 numeric)."""
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (ValueError, OSError) as exc:
        print(f"entnet: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"entnet: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"entnet: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SizeLimitError, OSError) as exc:
        print(f"entnet: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
