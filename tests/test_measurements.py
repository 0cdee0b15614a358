"""Tests for the local-measurement CFI and the QFI-attaining POVM."""

import itertools
import math

import numpy as np
import pytest

from entnet import (
    GhzPartition,
    LocalCfiInput,
    PhaseVector,
    build_probe,
    cfi_threshold,
    local_cfi,
    local_cfi_max,
    measurement_cfi,
    qfi_theta,
    qfim,
    sld_povm,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    solve_threshold,
)
from entnet.errors import SizeLimitError
from entnet.partitions import enumerate_partitions
from paper_equations import snapshot_qfi_pure


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


def uniform_groups(partition, fidelity):
    x = (4 * fidelity - 1) / 3
    return tuple(tuple([x] * n) for n in partition.group_sizes)


class TestLocalCfi:
    def test_perfect_links_achieve_pure_qfi_at_any_phases(self):
        rng = np.random.default_rng(2)
        for sizes in [(), (2,), (3,), (3, 2)]:
            sensors = 6
            part = GhzPartition(sizes, sensors)
            pure = snapshot_qfi_pure(sensors, part)
            for _ in range(5):
                phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                inp = LocalCfiInput(sensors, part, uniform_groups(part, 1.0), phis)
                assert local_cfi(inp) == pytest.approx(pure, rel=1e-13)

    def test_zero_phase_sum_kills_the_group(self):
        part = GhzPartition((2,), 4)
        phis = PhaseVector((0.4, -0.4, 0.1, 0.2))
        inp = LocalCfiInput(4, part, uniform_groups(part, 0.9), phis)
        # only the two local probes contribute
        assert local_cfi(inp) == pytest.approx(2 / 16, abs=1e-13)

    def test_hand_computed_pair(self):
        part = GhzPartition((2,), 2)
        phis = PhaseVector((np.pi / 4, np.pi / 4))
        inp = LocalCfiInput(2, part, ((0.9, 0.9),), phis)
        assert local_cfi(inp) == pytest.approx(0.6561, abs=1e-12)

    def test_matches_oracle_measurement(self):
        rng = np.random.default_rng(4)
        cases = [
            (4, (2,), [[0.9, 0.8]]),
            (5, (3, 2), [[0.9, 0.7, 0.8], [0.95, 0.85]]),
            (6, (2, 2), [[0.6, 0.84], [0.9, 1.0]]),
            (3, (3,), [[0.88] * 3]),
        ]
        for sensors, sizes, fids in cases:
            part = GhzPartition(sizes, sensors)
            probe = build_probe(sensors, part, fids)
            groups = tuple(tuple((4 * f - 1) / 3 for f in g) for g in fids)
            for _ in range(4):
                phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                closed = local_cfi(LocalCfiInput(sensors, part, groups, phis))
                oracle = measurement_cfi(probe, phis, plus_povm(sensors))
                assert closed == pytest.approx(oracle, abs=1e-6)

    def test_mixed_reduces_to_uniform(self):
        part = GhzPartition((3,), 5)
        phis = PhaseVector((0.2, 0.1, -0.4, 0.0, 0.9))
        x = 0.77
        uniform = LocalCfiInput(5, part, ((x, x, x),), phis)
        assert local_cfi(uniform) == pytest.approx(
            local_cfi(LocalCfiInput(5, part, uniform_groups(part, (3 * x + 1) / 4), phis)),
            rel=1e-13,
        )

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(9)
        for sizes in [(2,), (3,), (2, 2)]:
            sensors = 5
            part = GhzPartition(sizes, sensors)
            for f in (0.6, 0.84, 0.9, 1.0):
                qfi = snapshot_qfi_uniform(sensors, part, f)
                for _ in range(5):
                    phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                    inp = LocalCfiInput(sensors, part, uniform_groups(part, f), phis)
                    assert local_cfi(inp) <= qfi + 1e-12


class TestLocalCfiMax:
    def test_perfect_links(self):
        part = GhzPartition((4,), 6)
        assert local_cfi_max(6, part, uniform_groups(part, 1.0)) == pytest.approx(
            snapshot_qfi_pure(6, part), rel=1e-14
        )

    def test_reference_value(self):
        part = GhzPartition((5,), 5)
        x = (4 * 0.9 - 1) / 3
        got = local_cfi_max(5, part, ((x,) * 5,))
        assert got == pytest.approx(x**10, rel=1e-13)
        assert got == pytest.approx(0.2390677, abs=1e-6)

    def test_is_the_supremum_over_phases(self):
        rng = np.random.default_rng(6)
        part = GhzPartition((3,), 4)
        groups = uniform_groups(part, 0.88)
        top = local_cfi_max(4, part, groups)
        best_seen = 0.0
        for _ in range(200):
            phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, 4)))
            best_seen = max(best_seen, local_cfi(LocalCfiInput(4, part, groups, phis)))
        assert best_seen <= top + 1e-12
        # the maximising phases hit the bound exactly
        phis = PhaseVector((np.pi / 2, 0.0, 0.0, 0.3))
        assert local_cfi(LocalCfiInput(4, part, groups, phis)) == pytest.approx(top, rel=1e-12)

    def test_never_exceeds_werner_qfi(self):
        for sizes in [(2,), (3,), (3, 2), (2, 2)]:
            sensors = 6
            part = GhzPartition(sizes, sensors)
            for f in (0.6, 0.85, 0.95, 1.0):
                cfi = local_cfi_max(sensors, part, uniform_groups(part, f))
                qfi = snapshot_qfi_uniform(sensors, part, f)
                assert cfi <= qfi + 1e-12
                if f == 1.0:
                    assert cfi == pytest.approx(qfi, rel=1e-14)


class TestCfiThreshold:
    def test_pair_value(self):
        assert cfi_threshold(2) == pytest.approx((3 * 2 ** (-1 / 4) + 1) / 4, abs=1e-15)
        assert cfi_threshold(2) == pytest.approx(0.880672, abs=5e-7)

    def test_crossing_definition(self):
        # at the threshold an n-group's best CFI equals n local probes
        for n in (2, 3, 5):
            f = cfi_threshold(n)
            x = (4 * f - 1) / 3
            assert x ** (2 * n) * n * n == pytest.approx(n, rel=1e-12)

    def test_monotone_increasing_from_three(self):
        # the pair is the outlier here too; x = n^(-1/(2n)) makes n=4 tie it
        values = [cfi_threshold(n) for n in range(3, 33)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert cfi_threshold(4) == pytest.approx(cfi_threshold(2), abs=1e-15)

    def test_slow_approach_to_unity(self):
        assert cfi_threshold(200) > 0.98
        assert cfi_threshold(200) < 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_above_qfi_threshold(self, n):
        assert cfi_threshold(n) > solve_threshold(n).f_thres


class TestSldPovm:
    def test_completeness_and_positivity(self):
        part = GhzPartition((3, 2), 6)
        phis = PhaseVector((0.1, 0.2, 0.3, -0.4, 0.5, -0.6))
        povm = sld_povm(part, phis)
        total = sum(povm)
        assert np.max(np.abs(total - np.eye(2**6))) < 1e-12
        for elem in povm:
            assert np.linalg.eigvalsh(elem).min() > -1e-12

    def test_attains_qfi_on_pure_probes(self):
        sensors = 4
        part = GhzPartition((4,), sensors)
        probe = build_probe(sensors, part, [[1.0] * 4])
        phis = PhaseVector((0.3, 0.1, -0.7, 0.2))
        qfi = qfi_theta(qfim(probe, phis))
        cfi = measurement_cfi(probe, phis, sld_povm(part, phis))
        assert cfi == pytest.approx(qfi, abs=1e-8)

    def test_attains_qfi_on_werner_probe(self):
        sensors = 3
        part = GhzPartition((3,), sensors)
        fids = [[0.9] * 3]
        probe = build_probe(sensors, part, fids)
        phis = PhaseVector((0.2, -0.1, 0.4))
        cfi = measurement_cfi(probe, phis, sld_povm(part, phis))
        assert cfi == pytest.approx(snapshot_qfi_werner(sensors, part, fids), abs=1e-6)

    def test_attains_qfi_with_mixed_fidelities_and_locals(self):
        rng = np.random.default_rng(12)
        sensors = 5
        part = GhzPartition((2, 2), sensors)
        fids = [[0.9, 0.75], [0.95, 0.8]]
        probe = build_probe(sensors, part, fids)
        for _ in range(3):
            phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
            qfi = qfi_theta(qfim(probe, phis))
            cfi = measurement_cfi(probe, phis, sld_povm(part, phis))
            assert cfi == pytest.approx(qfi, abs=1e-6)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            sld_povm(GhzPartition((13,), 13), PhaseVector.zeros(13))


class TestAllPartitionsSweep:
    def test_local_cfi_against_oracle_everywhere(self):
        # broad closed-form vs oracle sweep at moderate size
        rng = np.random.default_rng(14)
        sensors = 4
        for part in enumerate_partitions(sensors, total_sensors=sensors):
            for f in (0.6, 0.9, 1.0):
                fids = [[f] * n for n in part.group_sizes]
                probe = build_probe(sensors, part, fids)
                groups = uniform_groups(part, f)
                phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                closed = local_cfi(LocalCfiInput(sensors, part, groups, phis))
                oracle = measurement_cfi(probe, phis, plus_povm(sensors))
                assert closed == pytest.approx(oracle, abs=1e-6)
