"""Tests for 2 -> 1 link distillation and its protocol integration."""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from entnet import (
    DistillMethod,
    EigenSpec,
    EstimateMethod,
    FidelityDistribution,
    LeftoverPolicy,
    NetworkConfig,
    ProtocolSpec,
    GhzPartition,
    distill_pair,
    ftmbl_avg_qfi,
    ftmbl_distilled_avg_qfi,
    monte_carlo_avg_qfi,
    nested_distill,
    per_sensor_outcome_distribution,
    snapshot_distribution,
    snapshot_qfi_werner,
)
from entnet.distillation import _MAX_MULTISETS, _maximal_qfi
from entnet.errors import SizeLimitError

DISTILLING = (LeftoverPolicy.DISCARD, LeftoverPolicy.KEEP)


def event_tree_distill(fidelity, links, policy):
    """Independent oracle: every fusion attempt branches individually."""
    outcomes = defaultdict(float)

    def recurse(f, count, prob, leftovers):
        if count == 0:
            if policy is LeftoverPolicy.KEEP and leftovers:
                outcomes[max(leftovers)] += prob
            else:
                outcomes[0.0] += prob
            return
        if count == 1 or f <= 0.5:
            outcomes[f] += prob
            return
        step = distill_pair(f, f)
        pairs = count // 2
        next_leftovers = leftovers + ([f] if count % 2 else [])
        for branch in itertools.product((0, 1), repeat=pairs):
            wins = sum(branch)
            weight = prob * step.success_prob**wins * (1 - step.success_prob) ** (pairs - wins)
            recurse(step.out_fidelity, wins, weight, next_leftovers)

    recurse(fidelity, links, 1.0, [])
    return dict(outcomes)


class TestDistillPair:
    def test_perfect_links(self):
        step = distill_pair(1.0, 1.0)
        assert step.success_prob == 1.0
        assert step.out_fidelity == 1.0

    def test_half_is_fixed_point(self):
        step = distill_pair(0.5, 0.5)
        assert step.success_prob == pytest.approx(5 / 9, abs=1e-15)
        assert step.out_fidelity == pytest.approx(0.5, abs=1e-15)

    def test_reference_values(self):
        step = distill_pair(0.7, 0.7)
        assert step.success_prob == pytest.approx(0.68, abs=1e-14)
        assert step.out_fidelity == pytest.approx(0.735294, abs=5e-7)

    def test_ladder_never_decreases(self):
        # the level programme keeps the newest odd link as the best leftover
        rng = np.random.default_rng(3)
        near = np.arange(1, 1001) * 2.0**-53
        for f in np.concatenate([rng.uniform(0.5, 1.0, 2000), 1.0 - near, 0.5 + near]):
            assert distill_pair(f, f).out_fidelity >= f

    def test_improves_above_half(self):
        for f1, f2 in [(0.6, 0.7), (0.55, 0.95), (0.75, 0.75)]:
            assert distill_pair(f1, f2).out_fidelity > min(f1, f2)


class TestNestedDistill:
    def test_no_links(self):
        assert nested_distill(0.8, 0).outcomes == ((0.0, 1.0),)

    def test_single_link_both_policies(self):
        for policy in DISTILLING:
            assert nested_distill(0.8, 1, policy).outcomes == ((0.8, 1.0),)

    def test_none_policy_raises(self):
        with pytest.raises(ValueError):
            nested_distill(0.8, 2, LeftoverPolicy.NONE)
        with pytest.raises(ValueError):
            per_sensor_outcome_distribution(0.8, 0.5, 2, LeftoverPolicy.NONE)
        with pytest.raises(ValueError):
            ftmbl_distilled_avg_qfi(NetworkConfig(3, 0.5, 0.8), 2, LeftoverPolicy.NONE)

    def test_two_links_discard(self):
        dist = nested_distill(0.7, 2)
        assert dist.probability_of(0.0) == pytest.approx(0.32, abs=1e-14)
        fp = distill_pair(0.7, 0.7).out_fidelity
        assert dist.probability_of(fp) == pytest.approx(0.68, abs=1e-14)

    def test_three_links_keep_vs_discard(self):
        keep = nested_distill(0.7, 3, LeftoverPolicy.KEEP)
        discard = nested_distill(0.7, 3, LeftoverPolicy.DISCARD)
        assert keep.probability_of(0.7) == pytest.approx(0.32, abs=1e-14)
        assert discard.probability_of(0.0) == pytest.approx(0.32, abs=1e-14)
        fp = distill_pair(0.7, 0.7).out_fidelity
        for dist in (keep, discard):
            assert dist.probability_of(fp) == pytest.approx(0.68, abs=1e-14)

    def test_half_fidelity_fixed_point_exact(self):
        for links in range(6):
            dist = nested_distill(0.5, links)
            expected = ((0.0, 1.0),) if links == 0 else ((0.5, 1.0),)
            assert dist.outcomes == expected

    @pytest.mark.parametrize("policy", DISTILLING)
    @pytest.mark.parametrize("links", range(11))
    def test_matches_event_tree(self, policy, links):
        for fidelity in (0.55, 0.7, 0.84, 0.95, 1.0):
            expected = event_tree_distill(fidelity, links, policy)
            got = nested_distill(fidelity, links, policy)
            for fid in set(expected) | set(got.fidelities()):
                assert got.probability_of(fid) == pytest.approx(
                    expected.get(fid, 0.0), abs=1e-13
                )

    @pytest.mark.parametrize("links", range(9))
    def test_normalisation(self, links):
        for policy in DISTILLING:
            total = sum(p for _, p in nested_distill(0.77, links, policy).outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalisation_at_a_thousand_links(self):
        total = math.fsum(p for _, p in nested_distill(0.9, 1000, LeftoverPolicy.KEEP).outcomes)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_strict_improvement_of_survivors(self):
        for links in (2, 3, 4, 5):
            for fid, prob in nested_distill(0.8, links).outcomes:
                if fid > 0:
                    assert fid >= 0.8 - 1e-15
            top = max(nested_distill(0.8, links).fidelities())
            assert top > 0.8


class TestFidelityDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FidelityDistribution(((0.9, 0.5), (0.0, 0.4)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FidelityDistribution(((0.9, -0.1), (0.0, 1.1)))

    def test_aggregation(self):
        dist = FidelityDistribution.from_pairs([(0.9, 0.3), (0.9, 0.2), (0.0, 0.5)])
        assert dist.probability_of(0.9) == pytest.approx(0.5, abs=1e-15)


class TestLinkCountDistribution:
    """One sensor's link count over k attempts is snapshot_distribution(k, p)."""

    def test_single_attempt(self):
        np.testing.assert_allclose(snapshot_distribution(1, 0.3), [0.7, 0.3], atol=1e-15)

    def test_three_attempts(self):
        np.testing.assert_allclose(
            snapshot_distribution(3, 0.5), [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-15
        )

    @pytest.mark.parametrize("p,k", [(0.2, 5), (0.7, 8), (1.0, 3)])
    def test_mean(self, p, k):
        probs = snapshot_distribution(k, p)
        mean = sum(l * pr for l, pr in enumerate(probs))
        assert mean == pytest.approx(k * p, abs=1e-14)


class TestPerSensorOutcome:
    @pytest.mark.parametrize("policy", DISTILLING)
    def test_equals_mixture_of_per_count_laws(self, policy):
        # Monte Carlo and enumeration both read only the composed law, so
        # this is the one check of it against the per-count laws
        for fidelity in (0.3, 0.55, 0.7, 0.9, 0.99, 1.0):
            for p in (0.05, 0.3, 0.7, 1.0):
                for k in range(1, 9):
                    mixture = defaultdict(float)
                    for links, weight in enumerate(snapshot_distribution(k, p)):
                        for fid, prob in nested_distill(fidelity, links, policy).outcomes:
                            mixture[fid] += weight * prob
                    support = {fid for fid, prob in mixture.items() if prob > 0.0}
                    got = per_sensor_outcome_distribution(fidelity, p, k, policy)
                    assert set(got.fidelities()) == support
                    for fid, prob in got.outcomes:
                        assert prob == pytest.approx(mixture[fid], abs=1e-15)

    def test_composition(self):
        dist = per_sensor_outcome_distribution(0.7, 0.5, 2)
        counts = snapshot_distribution(2, 0.5)
        fp = distill_pair(0.7, 0.7).out_fidelity
        q = distill_pair(0.7, 0.7).success_prob
        assert dist.probability_of(0.7) == pytest.approx(counts[1], abs=1e-14)
        assert dist.probability_of(fp) == pytest.approx(counts[2] * q, abs=1e-14)
        assert dist.probability_of(0.0) == pytest.approx(
            counts[0] + counts[2] * (1 - q), abs=1e-14
        )


class TestDistilledAverage:
    def test_perfect_links_reduce_to_plain_protocol(self):
        for k in (1, 2, 4):
            cfg = NetworkConfig(5, 0.4)
            distilled = ftmbl_distilled_avg_qfi(cfg, k).mean
            plain = ftmbl_avg_qfi(cfg, k).mean
            assert distilled == pytest.approx(plain, rel=1e-12)

    def test_enumeration_matches_monte_carlo(self):
        cfg = NetworkConfig(5, 0.5, 0.9)
        exact = ftmbl_distilled_avg_qfi(cfg, 3).mean
        mc = ftmbl_distilled_avg_qfi(
            cfg, 3, method=DistillMethod.MONTE_CARLO, trials=300_000, seed=17
        )
        assert abs(mc.mean - exact) < 3 * mc.std_error

    def test_monte_carlo_entrypoint_through_protocols(self):
        cfg = NetworkConfig(5, 0.5, 0.9)
        for policy in DISTILLING:
            spec = ProtocolSpec.fixed_tmbl(3, policy)
            a = monte_carlo_avg_qfi(cfg, spec, trials=100_000, seed=21)
            b = ftmbl_distilled_avg_qfi(
                cfg, 3, policy, method=DistillMethod.MONTE_CARLO, trials=100_000, seed=21
            )
            assert (a.mean, a.std_error) == (b.mean, b.std_error)

    @pytest.mark.parametrize("method", [EstimateMethod.ENUMERATION, EstimateMethod.MONTE_CARLO])
    def test_policy_none_is_rejected(self, method):
        # a NONE spec would otherwise reach the undistilled Monte Carlo sampler
        with pytest.raises(ValueError, match="NONE"):
            ftmbl_distilled_avg_qfi(NetworkConfig(5, 0.5, 0.9), 3, LeftoverPolicy.NONE,
                                    method=method, trials=1000, seed=1)

    def test_rejects_other_methods_and_a_missing_seed(self):
        cfg = NetworkConfig(5, 0.5, 0.9)
        for method in (EstimateMethod.CLOSED_FORM, EstimateMethod.TRUNCATED_SERIES):
            with pytest.raises(ValueError, match=method.name):
                ftmbl_distilled_avg_qfi(cfg, 3, method=method)
        with pytest.raises(ValueError, match="seed"):
            ftmbl_distilled_avg_qfi(cfg, 3, method=EstimateMethod.MONTE_CARLO)

    def test_beats_undistilled_at_same_block(self):
        for k in (2, 3):
            for p in (0.3, 0.6, 0.9):
                for f in (0.87, 0.93, 0.99):
                    cfg = NetworkConfig(5, p, f)
                    distilled = ftmbl_distilled_avg_qfi(cfg, k).mean
                    plain = ftmbl_avg_qfi(cfg, k).mean
                    assert distilled >= plain - 1e-12

    def test_keep_wins_high_fidelity_discard_wins_near_threshold(self):
        for k in (3, 4):
            cfg_hi = NetworkConfig(5, 0.6, 0.95)
            cfg_lo = NetworkConfig(5, 0.6, 0.845)
            keep_hi = ftmbl_distilled_avg_qfi(cfg_hi, k, LeftoverPolicy.KEEP).mean
            disc_hi = ftmbl_distilled_avg_qfi(cfg_hi, k, LeftoverPolicy.DISCARD).mean
            keep_lo = ftmbl_distilled_avg_qfi(cfg_lo, k, LeftoverPolicy.KEEP).mean
            disc_lo = ftmbl_distilled_avg_qfi(cfg_lo, k, LeftoverPolicy.DISCARD).mean
            assert keep_hi > disc_hi
            assert disc_lo > keep_lo

    def test_usable_region_extends_below_threshold(self):
        from entnet import PartitionPolicy

        # below the n=3 usefulness threshold, raw links are worthless but
        # distilled ones beat the all-local baseline
        cfg = NetworkConfig(5, 0.7, 0.83)
        assert ftmbl_distilled_avg_qfi(cfg, 3).mean > 0.2
        best_raw = ftmbl_avg_qfi(cfg, 3, PartitionPolicy.OPTIMAL).mean
        assert best_raw == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("sensors,k", [(9, 2), (5, 6), (50, 3)])
    def test_formerly_capped_cells_match_monte_carlo(self, sensors, k):
        cfg = NetworkConfig(sensors, 0.4, 0.9)
        for policy in DISTILLING:
            exact = ftmbl_distilled_avg_qfi(cfg, k, policy).mean
            mc = ftmbl_distilled_avg_qfi(
                cfg, k, policy, method=DistillMethod.MONTE_CARLO, trials=1 << 17, seed=29
            )
            assert abs(mc.mean - exact) < 4 * mc.std_error

    def test_multiset_bound(self):
        cfg = NetworkConfig(200, 0.5, 0.9)
        outcomes = len(per_sensor_outcome_distribution(0.9, 0.5, 8).outcomes)
        multisets = math.comb(200 + outcomes - 1, outcomes - 1)
        assert multisets > _MAX_MULTISETS
        with pytest.raises(SizeLimitError, match=f"{multisets:,}.*{_MAX_MULTISETS:,}"):
            ftmbl_distilled_avg_qfi(cfg, 8)


class TestMaximalQfiKernel:
    def test_matches_snapshot_qfi_werner(self):
        # High-fidelity alphabets keep C m^2 away from m, where
        # snapshot_qfi_werner's S + C m^2 - m cancels and this kernel's
        # (S - m) + C m^2 does not.
        rng = np.random.default_rng(5)
        eig = EigenSpec(0.0, 1.7)
        for _ in range(300):
            sensors = int(rng.integers(2, 41))
            high = sorted(rng.uniform(0.9, 1.0, size=int(rng.integers(1, 6))), reverse=True)
            fids = np.array(high + [0.6, 0.5, 0.0])
            counts = rng.multinomial(sensors, rng.dirichlet(np.ones(len(fids))))
            got = _maximal_qfi(counts[None, :], fids, sensors, eig.gap_squared)[0]
            links = [f for f, c in zip(fids, counts) for _ in range(c) if f > 0.5]
            rng.shuffle(links)
            groups = [links] if len(links) >= 2 else []
            part = GhzPartition(tuple(len(g) for g in groups), sensors)
            expected = snapshot_qfi_werner(sensors, part, groups, eig)
            assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("fidelity", [0.7, 0.6])
    def test_one_large_group_does_not_cancel(self, fidelity):
        # all 40 sensors in one group that gains almost nothing: the QFI is C
        sensors = 40
        x = (4 * Fraction(fidelity) - 1) / 3
        exact = x ** (2 * sensors) / (((1 + x) / 2) ** sensors + ((1 - x) / 2) ** sensors)
        got = _maximal_qfi(np.array([[sensors]]), np.array([fidelity]), sensors, 1.0)[0]
        assert got == pytest.approx(float(exact), rel=1e-14)
