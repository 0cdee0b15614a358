"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default ``pytest`` run.
"""

import itertools
import math

import numpy as np

from entnet import (
    LeftoverPolicy,
    LocalCfiInput,
    NetworkConfig,
    PhaseVector,
    ProtocolSpec,
    SourceLocation,
    TimingParams,
    build_probe,
    cfi_threshold,
    ftmbl_avg_qfi,
    ftmbl_distilled_avg_qfi,
    ftmbl_k_opt,
    immediate_avg_qfi,
    latency_model,
    local_cfi,
    measurement_cfi,
    monte_carlo_avg_qfi,
    nested_distill,
    optimal_partition,
    qfi_theta,
    qfim,
    qfi_upper_bound,
    sld_povm,
    snapshot_qfi_werner,
    solve_threshold,
    vtmbl_avg_qfi,
    vtmbl_mu_opt,
)
from entnet.cli import run_subcommand
from entnet.partitions import enumerate_partitions

MC_TRIALS = 1_000_000
MC_SEED = 20240901


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def plus_povm(sensors):
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    elems = []
    for bits in itertools.product((0, 1), repeat=sensors):
        v = np.ones(1)
        for b in bits:
            v = np.kron(v, minus if b else plus)
        elems.append(np.outer(v, v).astype(complex))
    return elems


def test_criterion_01_closed_form_vs_enumeration():
    def pure_qfi(sensors, m):
        return 1 / sensors if m < 2 else (sensors - m + m * m) / sensors**2

    worst = 0.0
    for sensors in range(2, 11):
        for p10 in range(1, 10):
            p = p10 / 10
            brute = sum(
                p**sum(pat) * (1 - p) ** (sensors - sum(pat)) * pure_qfi(sensors, sum(pat))
                for pat in itertools.product((0, 1), repeat=sensors)
            )
            closed = immediate_avg_qfi(NetworkConfig(sensors, p)).mean
            worst = max(worst, abs(closed - brute) / brute)
    exact = immediate_avg_qfi(NetworkConfig(5, 0.5)).mean
    ok = worst < 1e-12 and abs(exact - 0.4) / 0.4 < 1e-12
    report(1, "immediate closed form = snapshot enumeration", ok, f"worst rel err {worst:.2e}")


def test_criterion_02_block_length_crossover():
    crossover = 2 - math.sqrt(2)
    ok = ftmbl_k_opt(crossover + 1e-9) == 1 and ftmbl_k_opt(crossover - 1e-9) > 1
    for p in np.arange(0.05, crossover - 1e-9, 0.05):
        ok &= ftmbl_k_opt(float(p)) > 1
    for p in np.arange(crossover + 1e-9, 1.0, 0.05):
        ok &= ftmbl_k_opt(float(p)) == 1
    report(2, "fixed-block length crossover at 2 - sqrt(2)", ok)


def test_criterion_03_thresholds():
    r2, r3 = solve_threshold(2), solve_threshold(3)
    ok = 0.850 <= r2.f_thres <= 0.851
    ok &= 0.840 <= r3.f_thres <= 0.841
    ok &= abs(r2.residual) < 1e-12 and abs(r3.residual) < 1e-12
    report(3, "usefulness thresholds for pairs and triples",
           ok, f"F(2)={r2.f_thres:.6f} F(3)={r3.f_thres:.6f}")


def _table1_expected():
    return {
        (1, 2): (), (1, 3): (), (1, 4): (), (1, 5): (),
        (2, 2): (), (2, 3): (3,), (2, 4): (3,), (2, 5): (3,),
        (3, 2): (2,), (3, 3): (3,), (3, 4): (3,), (3, 5): (3, 2),
        (4, 2): (2,), (4, 3): (3,), (4, 4): (4,), (4, 5): (3, 2),
        (5, 2): (2,), (5, 3): (3,), (5, 4): (4,), (5, 5): (4,),
        (6, 2): (2,), (6, 3): (3,), (6, 4): (4,), (6, 5): (5,),
    }


def test_criterion_04_table_reproduction():
    from entnet.thresholds import grouping_region_edges

    table2 = {
        (10, 0.842): (3, 3, 3), (10, 0.86): (4, 3, 3), (10, 0.88): (4, 3, 3),
        (10, 0.90): (5, 5), (10, 0.92): (5, 5), (10, 0.94): (10,),
        (10, 0.96): (10,), (10, 0.98): (10,), (10, 1.0): (10,),
        (15, 0.842): (3, 3, 3, 3, 3), (15, 0.86): (3, 3, 3, 3, 3),
        (15, 0.88): (4, 4, 4, 3), (15, 0.90): (5, 5, 5), (15, 0.92): (5, 5, 5),
        (15, 0.94): (8, 7), (15, 0.96): (15,), (15, 0.98): (15,), (15, 1.0): (15,),
        (20, 0.842): (3, 3, 3, 3, 3, 3), (20, 0.86): (3, 3, 3, 3, 3, 3, 2),
        (20, 0.88): (4, 4, 4, 4, 4), (20, 0.90): (5, 5, 5, 5), (20, 0.92): (5, 5, 5, 5),
        (20, 0.94): (7, 7, 6), (20, 0.96): (10, 10), (20, 0.98): (20,), (20, 1.0): (20,),
    }
    bad = [
        (m, f)
        for (m, f), want in table2.items()
        if optimal_partition(m, m, f).best.group_sizes != want
    ]
    bounds = grouping_region_edges()
    expected1 = _table1_expected()
    for region in range(1, 7):
        f = 0.5 * (bounds[region - 1] + bounds[region])
        for m in (2, 3, 4, 5):
            if optimal_partition(m, 5, f).best.group_sizes != expected1[(region, m)]:
                bad.append((region, m))
    report(4, "published optimal-grouping tables reproduced", not bad, f"bad cells: {bad}")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_qfi = 0.0
    worst_cfi = 0.0
    worst_sld = 0.0
    fixed_fidelities = (0.6, 0.84, 0.9, 1.0)
    for sensors in range(2, 7):
        povm_local = plus_povm(sensors)
        for part in enumerate_partitions(sensors, total_sensors=sensors):
            cases = [[[f] * n for n in part.group_sizes] for f in fixed_fidelities]
            # two mixed-fidelity draws per partition
            for _ in range(2):
                cases.append(
                    [list(np.round(rng.uniform(0.5, 1.0, n), 6)) for n in part.group_sizes]
                )
            for fids in cases:
                probe = build_probe(sensors, part, fids)
                closed = snapshot_qfi_werner(sensors, part, fids)
                groups = tuple(tuple((4 * f - 1) / 3 for f in g) for g in fids)
                phis_list = [
                    PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                    for _ in range(20)
                ]
                oracle_qfi = qfi_theta(qfim(probe, phis_list[0]))
                worst_qfi = max(worst_qfi, abs(closed - oracle_qfi))
                for phis in phis_list:
                    closed_cfi = local_cfi(LocalCfiInput(sensors, part, groups, phis))
                    oracle_cfi = measurement_cfi(probe, phis, povm_local)
                    worst_cfi = max(worst_cfi, abs(closed_cfi - oracle_cfi))
                sld_cfi = measurement_cfi(probe, phis_list[0], sld_povm(part, phis_list[0]))
                worst_sld = max(worst_sld, abs(sld_cfi - closed))
    ok = worst_qfi < 1e-10 and worst_cfi < 1e-6 and worst_sld < 1e-6
    report(
        5,
        "closed forms match the dense oracle",
        ok,
        f"qfi {worst_qfi:.1e}, local cfi {worst_cfi:.1e}, sld povm {worst_sld:.1e}",
    )


def test_criterion_06_monte_carlo_consistency():
    worst_z = 0.0
    ordering_ok = True
    for sensors in (5, 10):
        for p10 in range(1, 10):
            p = p10 / 10
            cfg = NetworkConfig(sensors, p)
            k = ftmbl_k_opt(p)
            mu = vtmbl_mu_opt(sensors, p)
            imm = immediate_avg_qfi(cfg).mean
            ftm = ftmbl_avg_qfi(cfg, k).mean
            vtm = vtmbl_avg_qfi(cfg, mu).mean
            estimates = {
                "immediate": (imm, monte_carlo_avg_qfi(
                    cfg, ProtocolSpec.immediate(), trials=MC_TRIALS, seed=MC_SEED)),
                "ftmbl": (ftm, monte_carlo_avg_qfi(
                    cfg, ProtocolSpec.fixed_tmbl(k), trials=MC_TRIALS, seed=MC_SEED)),
                "vtmbl": (vtm, monte_carlo_avg_qfi(
                    cfg, ProtocolSpec.variable_tmbl(mu), trials=MC_TRIALS, seed=MC_SEED)),
            }
            sigma = {}
            for name, (analytic, mc) in estimates.items():
                err = mc.std_error if mc.std_error > 0 else 1e-15
                worst_z = max(worst_z, abs(mc.mean - analytic) / err)
                sigma[name] = mc.std_error
            slack = 3 * max(sigma.values())
            ordering_ok &= vtm >= ftm - slack and ftm >= imm - slack
    ok = worst_z <= 3.0 and ordering_ok
    report(6, "Monte Carlo matches analytics; protocol ordering holds",
           ok, f"worst |z| = {worst_z:.2f}")


def test_criterion_07_upper_bound():
    ok = True
    for sensors in (5, 10):
        for p10 in range(1, 10):
            p = p10 / 10
            cfg = NetworkConfig(sensors, p)
            bound = qfi_upper_bound(sensors, p)
            values = [immediate_avg_qfi(cfg).mean,
                      ftmbl_avg_qfi(cfg, ftmbl_k_opt(p)).mean,
                      vtmbl_avg_qfi(cfg, vtmbl_mu_opt(sensors, p)).mean]
            mc = monte_carlo_avg_qfi(cfg, ProtocolSpec.fixed_tmbl(max(2, ftmbl_k_opt(p))),
                                     trials=200_000, seed=MC_SEED)
            ok &= all(v <= bound + 1e-12 for v in values)
            ok &= mc.mean <= bound + 3 * mc.std_error
    # distilled sweeps stay below the bound as well
    for p in (0.3, 0.6, 0.9):
        for f in (0.86, 0.92, 0.98):
            cfg = NetworkConfig(5, p, f)
            ok &= ftmbl_distilled_avg_qfi(cfg, 3).mean <= qfi_upper_bound(5, p) + 1e-12
    report(7, "every average sits under the all-or-nothing bound", ok)


def test_criterion_08_distillation():
    ok_norm = True
    for links in range(6):
        for policy in (LeftoverPolicy.DISCARD, LeftoverPolicy.KEEP):
            for f in (0.55, 0.7, 0.9, 1.0):
                total = sum(p for _, p in nested_distill(f, links, policy).outcomes)
                ok_norm &= abs(total - 1.0) < 1e-12
    fixed_point = all(
        nested_distill(0.5, links).outcomes == ((0.5, 1.0),) for links in range(1, 6)
    )

    # event-tree oracle for every branch, links <= 5
    def event_tree(f0, links, policy):
        from collections import defaultdict

        from entnet import distill_pair

        out = defaultdict(float)

        def rec(f, count, prob, leftovers):
            if count == 0:
                if policy is LeftoverPolicy.KEEP and leftovers:
                    out[max(leftovers)] += prob
                else:
                    out[0.0] += prob
                return
            if count == 1 or f <= 0.5:
                out[f] += prob
                return
            step = distill_pair(f, f)
            pairs = count // 2
            nxt = leftovers + ([f] if count % 2 else [])
            for branch in itertools.product((0, 1), repeat=pairs):
                s = sum(branch)
                w = prob * step.success_prob**s * (1 - step.success_prob) ** (pairs - s)
                rec(step.out_fidelity, s, w, nxt)

        rec(f0, links, 1.0, [])
        return dict(out)

    tree_ok = True
    for links in range(6):
        for policy in (LeftoverPolicy.DISCARD, LeftoverPolicy.KEEP):
            for f in (0.55, 0.77, 0.95):
                expected = event_tree(f, links, policy)
                got = nested_distill(f, links, policy)
                for fid in set(expected) | set(got.fidelities()):
                    tree_ok &= abs(got.probability_of(fid) - expected.get(fid, 0.0)) < 1e-12

    # distilled >= undistilled at matched block length and maximal grouping
    gain_ok = True
    worst_gain = math.inf
    for k in (2, 3):
        for p10 in range(1, 10):
            for f in (0.86, 0.90, 0.94, 0.98):
                cfg = NetworkConfig(5, p10 / 10, f)
                gain = ftmbl_distilled_avg_qfi(cfg, k).mean - ftmbl_avg_qfi(cfg, k).mean
                worst_gain = min(worst_gain, gain)
                gain_ok &= gain >= -1e-12

    # the beneficial region reaches below the F=0.8406 triple threshold
    below = NetworkConfig(5, 0.7, 0.83)
    extends = ftmbl_distilled_avg_qfi(below, 3).mean > 1 / 5

    ok = ok_norm and fixed_point and tree_ok and gain_ok and extends
    report(8, "distillation distributions exact; distilled protocol wins for F < 1",
           ok, f"min gain {worst_gain:.2e}")


def test_criterion_09_measurement_thresholds():
    ok = all(cfi_threshold(n) > solve_threshold(n).f_thres for n in range(2, 9))
    report(9, "local-measurement thresholds sit above the probe thresholds", ok)


def test_criterion_10_latency_orderings():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        params = TimingParams(
            distance=float(rng.uniform(1, 1e6)),
            signal_speed=float(rng.uniform(1e6, 3e8)),
            attempt_period=float(rng.uniform(1e-9, 1.0)),
            block_length=int(rng.integers(1, 60)),
            sensors=int(rng.integers(1, 40)),
        )
        ok &= (
            latency_model(params, SourceLocation.AT_SENSORS, False).latency
            < latency_model(params, SourceLocation.AT_HUB, False).latency
        )
        ok &= (
            latency_model(params, SourceLocation.AT_HUB, True).latency
            < latency_model(params, SourceLocation.AT_SENSORS, True).latency
        )
    report(10, "latency orderings hold for 1000 random parameter draws", ok)


def test_criterion_11_reproduce_determinism(tmp_path):
    # 200 000 trials are four chunks, so every thread count splits the work
    argv = ["protocol-sweep", "--protocol", "ftmbl", "--s", "5", "--p", "0.3:0.7:0.2",
            "--f", "0.9", "--k", "2", "--method", "mc", "--trials", "200000",
            "--seed", str(MC_SEED)]
    outputs = []
    for threads in (1, 2, 4):
        out = tmp_path / f"mc_{threads}.csv"
        code = run_subcommand(argv + ["--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    rows = [line.split(",") for line in outputs[0].decode().splitlines()[2:]]
    ok = len(rows) == 3
    ok &= all(r[5] == "mc" and float(r[7]) > 0.0 and r[8] == "200000" for r in rows)
    ok &= outputs[0] == outputs[1] == outputs[2]
    report(11, "seeded Monte Carlo output is byte-identical across thread counts", ok)
