"""Tests for the protocol average-QFI evaluations."""

import itertools
import math

import numpy as np
import pytest

from entnet import (
    EigenSpec,
    EstimateMethod,
    GhzPartition,
    LeftoverPolicy,
    NetworkConfig,
    PartitionPolicy,
    ProtocolSpec,
    ftmbl_avg_qfi,
    ftmbl_k_opt,
    immediate_avg_qfi,
    monte_carlo_avg_qfi,
    qfi_upper_bound,
    best_group_sizes,
    snapshot_distribution,
    snapshot_qfi_uniform,
    vtmbl_avg_qfi,
    vtmbl_joint_prob,
    vtmbl_mu_opt,
)
from entnet.protocols import ProtocolKind, _qfi_by_link_count


def pure_snapshot_qfi(sensors: int, m: int) -> float:
    if m < 2:
        return 1 / sensors
    return (sensors - m + m * m) / sensors**2


def brute_force_immediate(sensors: int, p: float) -> float:
    """Sum over all 2^S link-outcome patterns with their Bernoulli weights."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=sensors):
        m = sum(pattern)
        weight = p**m * (1 - p) ** (sensors - m)
        total += weight * pure_snapshot_qfi(sensors, m)
    return total


class TestSnapshotDistribution:
    def test_point_mass(self):
        probs = snapshot_distribution(4, 1.0)
        np.testing.assert_allclose(probs, [0, 0, 0, 0, 1], atol=0)

    def test_half(self):
        np.testing.assert_allclose(snapshot_distribution(2, 0.5), [0.25, 0.5, 0.25], atol=1e-15)

    @pytest.mark.parametrize("sensors", [1, 5, 17, 64])
    def test_normalisation(self, sensors):
        for p in (0.0, 0.1, 0.37, 0.99, 1.0):
            assert abs(snapshot_distribution(sensors, p).sum() - 1.0) < 1e-14


class TestImmediate:
    def test_reference_point(self):
        assert immediate_avg_qfi(NetworkConfig(5, 0.5)).mean == pytest.approx(0.4, rel=1e-14)

    def test_matches_brute_force_enumeration(self):
        for sensors in range(2, 11):
            for p10 in range(1, 10):
                p = p10 / 10
                got = immediate_avg_qfi(NetworkConfig(sensors, p)).mean
                assert got == pytest.approx(brute_force_immediate(sensors, p), rel=1e-12)

    def test_no_links_limit(self):
        assert immediate_avg_qfi(NetworkConfig(7, 0.0)).mean == pytest.approx(1 / 7, rel=1e-14)

    def test_all_links_limit(self):
        assert immediate_avg_qfi(NetworkConfig(6, 1.0)).mean == pytest.approx(1.0, rel=1e-14)

    def test_optimal_policy_improves_imperfect_links(self):
        cfg = NetworkConfig(8, 0.7, 0.87)
        maximal = immediate_avg_qfi(cfg).mean
        optimal = immediate_avg_qfi(cfg, PartitionPolicy.OPTIMAL).mean
        assert optimal >= maximal


class TestFtmbl:
    def test_k1_is_immediate(self):
        for p in (0.2, 0.6):
            for f in (1.0, 0.9):
                cfg = NetworkConfig(5, p, f)
                assert ftmbl_avg_qfi(cfg, 1).mean == immediate_avg_qfi(cfg).mean

    def test_closed_form_equals_mixture(self):
        # same number through the generic mixture path (fidelity just below 1
        # is not special-cased) and through the F=1 closed form
        for sensors, p, k in [(5, 0.2, 6), (7, 0.5, 2), (4, 0.85, 3)]:
            closed = ftmbl_avg_qfi(NetworkConfig(sensors, p), k).mean
            p_eff = 1 - (1 - p) ** k
            probs = snapshot_distribution(sensors, p_eff)
            block = sum(probs[m] * pure_snapshot_qfi(sensors, m) for m in range(sensors + 1))
            mixture = ((k - 1) / sensors + block) / k
            assert closed == pytest.approx(mixture, rel=1e-12)

    def test_k_opt_scan_example(self):
        assert ftmbl_k_opt(0.2) == 6

    def test_k_opt_values(self):
        assert ftmbl_k_opt(0.9) == 1
        assert ftmbl_k_opt(0.5) == 2

    def test_k_opt_crossover(self):
        crossover = 2 - math.sqrt(2)
        assert ftmbl_k_opt(crossover + 1e-9) == 1
        assert ftmbl_k_opt(crossover - 1e-9) > 1

    def test_k_opt_beyond_two_hundred(self):
        assert ftmbl_k_opt(0.005) == 251
        assert ftmbl_k_opt(0.002) == 628
        # tiny p: the maximiser tends to t*/p with 2t* = e^t* - 1, t* = 1.25643
        assert ftmbl_k_opt(1e-12) * 1e-12 == pytest.approx(1.25643, abs=1e-5)

    def test_k_opt_matches_brute_force_scan(self):
        def objective(p, k):
            return (1.0 - (1.0 - p) ** k) ** 2 / k

        for p in np.concatenate([np.geomspace(1e-3, 1.0, 41), [0.0, 2 - math.sqrt(2)]]):
            p = float(p)
            ks = range(1, math.ceil(3.0 / p) + 1) if p else range(1, 10)
            best = max(ks, key=lambda k: (objective(p, k), -k))
            assert ftmbl_k_opt(p) == best, p

    @pytest.mark.parametrize("policy", list(PartitionPolicy))
    def test_link_count_table_is_snapshot_qfi(self, policy):
        # the gain-row sums repeat snapshot_qfi_uniform's float operations
        for sensors, f, eig in ((1, 0.9, EigenSpec()), (7, 0.86, EigenSpec(0.3, 1.7)),
                                (40, 0.93, EigenSpec()), (40, 1.0, EigenSpec(-1.0, 0.5))):
            table = _qfi_by_link_count(sensors, f, policy, eig)
            sizes = best_group_sizes(sensors, f)
            for m in range(2, sensors + 1):
                part = GhzPartition((m,) if policy is PartitionPolicy.MAXIMAL else sizes[m], sensors)
                assert table[m] == snapshot_qfi_uniform(sensors, part, f, eig), (sensors, f, m)
            assert table[0] == table[1] == eig.gap_squared / sensors

    def test_optimal_policy_at_sixty_sensors(self):
        for f in (0.86, 0.93):
            cfg = NetworkConfig(60, 0.3, f)
            optimal = ftmbl_avg_qfi(cfg, 2, PartitionPolicy.OPTIMAL).mean
            maximal = ftmbl_avg_qfi(cfg, 2, PartitionPolicy.MAXIMAL).mean
            assert maximal <= optimal <= qfi_upper_bound(60, 0.3)

    def test_k_opt_is_sensor_independent(self):
        # the analytic argmax objective has no sensor count in it; check the
        # averages themselves rank k the same way for two network sizes
        for p in (0.15, 0.45):
            k_best = ftmbl_k_opt(p)
            for sensors in (5, 10):
                values = [ftmbl_avg_qfi(NetworkConfig(sensors, p), k).mean for k in range(1, 25)]
                assert int(np.argmax(values)) + 1 == k_best


class TestVtmblJointProb:
    def test_t1(self):
        assert vtmbl_joint_prob(2, 0.5, 2, 1, 2) == pytest.approx(0.25, abs=1e-15)

    def test_t2(self):
        assert vtmbl_joint_prob(2, 0.5, 2, 2, 2) == pytest.approx(0.3125, abs=1e-15)

    def test_matches_sequence_enumeration(self):
        # exhaustive enumeration of per-slot, per-sensor outcome sequences
        for sensors, mu, p in [(2, 2, 0.5), (3, 2, 0.3), (3, 3, 0.6)]:
            for t in range(1, 5):
                for m in range(mu, sensors + 1):
                    expected = 0.0
                    for seq in itertools.product((0, 1), repeat=sensors * t):
                        ones = sum(seq)
                        weight = p**ones * (1 - p) ** (sensors * t - ones)
                        linked = [0] * sensors
                        stop = None
                        for slot in range(t):
                            for s in range(sensors):
                                linked[s] |= seq[slot * sensors + s]
                            if sum(linked) >= mu:
                                stop = slot + 1
                                break
                        if stop == t and sum(linked) == m:
                            expected += weight
                    got = vtmbl_joint_prob(sensors, p, mu, t, m)
                    assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_normalisation_at_truncation(self, p):
        sensors, mu = 5, 3
        total = sum(
            vtmbl_joint_prob(sensors, p, mu, t, m)
            for t in range(1, 201)
            for m in range(mu, sensors + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            vtmbl_joint_prob(5, 0.5, 3, 1, 2)


class TestVtmblAvgQfi:
    def test_closed_form_matches_series(self):
        for sensors, p, mu in [(5, 0.3, 3), (5, 0.7, 2), (8, 0.5, 6), (10, 0.1, 4)]:
            cfg = NetworkConfig(sensors, p)
            series = vtmbl_avg_qfi(cfg, mu).mean
            closed = vtmbl_avg_qfi(cfg, mu, EstimateMethod.CLOSED_FORM).mean
            assert closed == pytest.approx(series, abs=1e-9)

    def test_small_mu_is_immediate(self):
        cfg = NetworkConfig(5, 0.4)
        for mu in (0, 1):
            assert vtmbl_avg_qfi(cfg, mu).mean == immediate_avg_qfi(cfg).mean

    def test_high_p_converges_to_immediate(self):
        for mu in (2, 3, 5):
            cfg = NetworkConfig(5, 0.999999)
            assert vtmbl_avg_qfi(cfg, mu).mean == pytest.approx(
                immediate_avg_qfi(cfg).mean, abs=1e-4
            )

    def test_monte_carlo_agreement(self):
        cfg = NetworkConfig(5, 0.3)
        series = vtmbl_avg_qfi(cfg, 3).mean
        mc = vtmbl_avg_qfi(cfg, 3, EstimateMethod.MONTE_CARLO, trials=200_000, seed=99)
        assert abs(mc.mean - series) < 3 * mc.std_error

    def test_rejects_imperfect_links_for_analytic_methods(self):
        with pytest.raises(ValueError):
            vtmbl_avg_qfi(NetworkConfig(5, 0.5, 0.9), 3)

    def test_rejects_dead_network(self):
        with pytest.raises(ValueError):
            vtmbl_avg_qfi(NetworkConfig(5, 0.0), 3)


class TestVtmblMuOpt:
    def test_two_sensors(self):
        assert vtmbl_mu_opt(2, 0.5) == 2

    def test_ratio_stable_below_high_p(self):
        # mu_opt grows roughly linearly with the sensor count for moderate p
        for p in (0.3, 0.5, 0.7):
            ratios = [vtmbl_mu_opt(sensors, p) / sensors for sensors in range(4, 21, 4)]
            assert max(ratios) - min(ratios) <= 0.25

    def test_high_p_flattens_the_choice(self):
        # near-certain links make every waiting threshold behave like the
        # immediate protocol, so the mu preference loses its meaning
        def spread(sensors, p):
            vals = [vtmbl_avg_qfi(NetworkConfig(sensors, p), mu).mean
                    for mu in range(2, sensors)]
            return (max(vals) - min(vals)) / max(vals)

        assert spread(10, 0.98) < 5e-3
        assert spread(10, 0.3) > 5e-2


class TestMonteCarlo:
    def test_thread_count_does_not_change_result(self):
        cfg = NetworkConfig(5, 0.5)
        spec = ProtocolSpec.fixed_tmbl(3)
        kwargs = dict(trials=150_000, seed=42)
        one = monte_carlo_avg_qfi(cfg, spec, threads=1, **kwargs)
        four = monte_carlo_avg_qfi(cfg, spec, threads=4, **kwargs)
        assert one.mean == four.mean
        assert one.std_error == four.std_error

    def test_seed_changes_result(self):
        cfg = NetworkConfig(5, 0.5)
        spec = ProtocolSpec.immediate()
        a = monte_carlo_avg_qfi(cfg, spec, trials=50_000, seed=1)
        b = monte_carlo_avg_qfi(cfg, spec, trials=50_000, seed=2)
        assert a.mean != b.mean

    def test_dead_network_exact(self):
        est = monte_carlo_avg_qfi(NetworkConfig(5, 0.0), ProtocolSpec.immediate(),
                                  trials=10_000, seed=0)
        # every slot is exactly 1/S; the pooled mean may round by one ulp
        assert est.mean == pytest.approx(0.2, abs=1e-15)
        assert est.std_error == 0.0

    def test_zero_variance_cell_has_zero_std_error(self):
        # (1 - 0.001^3)^10 > 1 - 1e-8: every trial links all ten sensors
        est = monte_carlo_avg_qfi(NetworkConfig(10, 0.999, 0.97), ProtocolSpec.fixed_tmbl(3),
                                  trials=200_000, seed=1)
        assert est.std_error == 0.0

    def test_std_error_matches_two_pass_reference(self, monkeypatch):
        from entnet import _mc

        chunks = []
        moments = _mc.chunk_moments

        def spy(values):
            chunks.append(values.copy())
            return moments(values)

        monkeypatch.setattr(_mc, "chunk_moments", spy)
        # two distinct trial values; sum-of-squares pooling is wrong here
        # from the 7th digit
        est = monte_carlo_avg_qfi(NetworkConfig(10, 0.99, 0.97), ProtocolSpec.fixed_tmbl(3),
                                  trials=200_000, seed=11, threads=1)
        values = np.concatenate(chunks)
        assert values.size == 200_000 and len(np.unique(values)) > 1
        mean = math.fsum(values) / values.size
        assert est.mean == pytest.approx(mean, rel=1e-15)
        ss = math.fsum((v - mean) ** 2 for v in values)
        reference = math.sqrt(ss / (values.size - 1) / values.size)
        assert est.std_error == pytest.approx(reference, rel=1e-12)

    def test_constant_chunk_moments_are_exact(self):
        from entnet import _mc

        values = np.full(1000, 0.1)
        total = float(values.sum())
        assert _mc.chunk_moments(values) == (1000, total, 0.1, 0.0)

    def test_distillation_rejects_optimal_grouping(self):
        spec = ProtocolSpec.fixed_tmbl(3, LeftoverPolicy.DISCARD)
        cfg = NetworkConfig(5, 0.5, 0.9)
        with pytest.raises(ValueError, match="OPTIMAL"):
            monte_carlo_avg_qfi(cfg, spec, PartitionPolicy.OPTIMAL, trials=1000, seed=1)
        est = monte_carlo_avg_qfi(cfg, spec, PartitionPolicy.MAXIMAL, trials=1000, seed=1)
        assert est.trials == 1000

    def test_immediate_against_enumeration(self):
        cfg = NetworkConfig(5, 0.5)
        est = monte_carlo_avg_qfi(cfg, ProtocolSpec.immediate(), trials=300_000, seed=7)
        assert abs(est.mean - 0.4) < 3 * est.std_error

    def test_ftmbl_against_closed_form(self):
        cfg = NetworkConfig(6, 0.25)
        est = monte_carlo_avg_qfi(cfg, ProtocolSpec.fixed_tmbl(4), trials=300_000, seed=13)
        closed = ftmbl_avg_qfi(cfg, 4).mean
        assert abs(est.mean - closed) < 3 * est.std_error

    def test_imperfect_links(self):
        cfg = NetworkConfig(5, 0.6, 0.9)
        est = monte_carlo_avg_qfi(cfg, ProtocolSpec.fixed_tmbl(2), trials=300_000, seed=3)
        closed = ftmbl_avg_qfi(cfg, 2).mean
        assert abs(est.mean - closed) < 3 * est.std_error

    def test_estimate_carries_seed(self):
        est = monte_carlo_avg_qfi(NetworkConfig(4, 0.5), ProtocolSpec.immediate(),
                                  trials=1000, seed=5)
        assert est.seed == 5
        assert est.method is EstimateMethod.MONTE_CARLO
        assert est.trials == 1000

    def test_env_var_controls_default_threads(self, monkeypatch):
        from entnet.protocols import resolve_threads

        monkeypatch.setenv("ENTNET_THREADS", "3")
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2  # explicit argument wins
        monkeypatch.setenv("ENTNET_THREADS", "0")
        with pytest.raises(ValueError):
            resolve_threads()
        # worker count never changes the numbers
        cfg = NetworkConfig(5, 0.4)
        spec = ProtocolSpec.fixed_tmbl(2)
        monkeypatch.setenv("ENTNET_THREADS", "2")
        a = monte_carlo_avg_qfi(cfg, spec, trials=80_000, seed=9)
        monkeypatch.setenv("ENTNET_THREADS", "1")
        b = monte_carlo_avg_qfi(cfg, spec, trials=80_000, seed=9)
        assert a.mean == b.mean


class TestUpperBound:
    def test_reference_values(self):
        assert qfi_upper_bound(5, 0.5) == pytest.approx(0.6, abs=1e-15)
        assert qfi_upper_bound(5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_bounds_all_protocols(self):
        # with perfect links every average lies in [1/S, bound]
        for sensors in (5, 10):
            local = 1 / sensors
            for p10 in range(1, 10):
                p = p10 / 10
                cfg = NetworkConfig(sensors, p)
                bound = qfi_upper_bound(sensors, p)
                values = [
                    immediate_avg_qfi(cfg).mean,
                    ftmbl_avg_qfi(cfg, ftmbl_k_opt(p)).mean,
                    vtmbl_avg_qfi(cfg, vtmbl_mu_opt(sensors, p)).mean,
                ]
                for value in values:
                    assert local - 1e-12 <= value <= bound + 1e-12


class TestProtocolSpec:
    def test_immediate_is_k1(self):
        spec = ProtocolSpec.immediate()
        assert spec.kind is ProtocolKind.IMMEDIATE
        assert spec.k == 1

    def test_variable_needs_mu_ge_2(self):
        with pytest.raises(ValueError):
            ProtocolSpec.variable_tmbl(1)

    def test_no_distillation_with_waiting(self):
        with pytest.raises(ValueError):
            ProtocolSpec(ProtocolKind.VARIABLE_TMBL, mu=3,
                         distill_policy=LeftoverPolicy.DISCARD)
