"""Tests for the closed-form snapshot QFI building blocks."""

import numpy as np
import pytest

from entnet import (
    EigenSpec,
    GhzPartition,
    NetworkConfig,
    best_group_sizes,
    coefficient_c,
    fidelity_from_werner,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    werner_from_fidelity,
)
from entnet.partitions import enumerate_partitions
from paper_equations import (
    coefficient_c_uniform,
    ghz_coeffs_equal,
    ghz_coeffs_mixed,
    snapshot_qfi_pure,
)


class TestEigenSpec:
    def test_default_gap_is_one(self):
        eig = EigenSpec()
        assert eig.delta_lambda == 1.0
        assert eig.gap_squared == 1.0

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            EigenSpec(0.3, 0.3)

    def test_offset_does_not_change_qfi(self):
        part = GhzPartition((3,), 5)
        shifted = EigenSpec(lambda0=7.0, lambda1=8.0)
        assert snapshot_qfi_pure(5, part, shifted) == snapshot_qfi_pure(5, part)


class TestWernerLink:
    @pytest.mark.parametrize("f,x", [(1.0, 1.0), (0.25, 0.0), (0.9, (4 * 0.9 - 1) / 3)])
    def test_fidelity_to_parameter(self, f, x):
        assert werner_from_fidelity(f) == pytest.approx(x, abs=1e-15)

    def test_round_trip(self):
        for f in np.linspace(0.0, 1.0, 101):
            x = werner_from_fidelity(float(f))
            assert fidelity_from_werner(x) == pytest.approx(f, abs=1e-15)

    def test_array_matches_scalar(self):
        fids = np.linspace(0.0, 1.0, 101)
        xs = werner_from_fidelity(fids)
        assert xs.tolist() == [werner_from_fidelity(f) for f in fids.tolist()]

    @pytest.mark.parametrize("f", [-0.01, 1.01])
    def test_out_of_range(self, f):
        # the map itself is unchecked; fidelities are checked where they enter
        with pytest.raises(ValueError):
            snapshot_qfi_werner(2, GhzPartition((2,), 2), [[0.9, f]])
        with pytest.raises(ValueError):
            NetworkConfig(5, 0.5, f)
        with pytest.raises(ValueError):
            best_group_sizes(4, f)


class TestGhzPartition:
    def test_canonical_order_and_equality(self):
        a = GhzPartition((2, 3), 6)
        b = GhzPartition((3, 2), 6)
        assert a == b
        assert a.group_sizes == (3, 2)

    def test_local_count_and_offsets(self):
        part = GhzPartition((3, 2), 7)
        assert part.local_count == 2
        assert part.offsets() == (0, 3)
        assert part.num_groups == 2

    def test_rejects_singleton_group(self):
        with pytest.raises(ValueError):
            GhzPartition((1, 3), 6)

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            GhzPartition((4, 3), 6)


class TestGhzCoeffs:
    def test_pure_limit(self):
        c = ghz_coeffs_equal(1.0, 3)
        assert (c.e00, c.e10) == (1.0, 0.0)

    def test_fully_mixed(self):
        c = ghz_coeffs_equal(0.0, 3)
        assert c.e00 == pytest.approx(1 / 8, abs=1e-15)
        assert c.e10 == pytest.approx(1 / 8, abs=1e-15)

    def test_hand_computed_n2(self):
        # x=0.8, n=2: e00 = (0.64 + (3.24 + 0.04)/4)/2, e10 with the sign flipped
        c = ghz_coeffs_equal(0.8, 2)
        assert c.e00 == pytest.approx(0.73, abs=1e-12)
        assert c.e10 == pytest.approx(0.09, abs=1e-12)

    def test_mixed_pure_limit(self):
        c = ghz_coeffs_mixed([1.0, 1.0, 1.0], 3)
        assert (c.e00, c.e10) == (1.0, 0.0)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.77, 1.0])
    def test_mixed_reduces_to_equal(self, x):
        mixed = ghz_coeffs_mixed([x, x], 2)
        equal = ghz_coeffs_equal(x, 2)
        assert mixed.e00 == pytest.approx(equal.e00, abs=1e-15)
        assert mixed.e10 == pytest.approx(equal.e10, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_product_identities(self, n):
        for x in np.linspace(0.0, 1.0, 21):
            c = ghz_coeffs_equal(float(x), n)
            spread = ((1 + x) ** n + (1 - x) ** n) / 2**n
            assert c.e00 + c.e10 == pytest.approx(spread, rel=1e-14)
            assert c.e00 - c.e10 == pytest.approx(x**n, abs=1e-14)
            assert c.e00 >= c.e10 >= -1e-15
            assert c.e00 + c.e10 <= 1 + 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ghz_coeffs_mixed([0.9, 0.8], 3)


class TestCoefficientC:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_pure_links_give_one(self, n):
        assert coefficient_c_uniform(1.0, n) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_examples(self):
        x = (4 * 0.9 - 1) / 3
        assert coefficient_c_uniform(x, 2) == pytest.approx(4 * x**4 / (2 + 2 * x**2), rel=1e-14)
        assert coefficient_c_uniform(x, 2) == pytest.approx(0.644354, abs=5e-7)
        assert coefficient_c_uniform(x, 3) == pytest.approx(0.521008, abs=5e-7)

    def test_general_matches_uniform(self):
        for n in (2, 3, 4):
            for x in (0.2, 0.6, 0.9):
                assert coefficient_c([x] * n, n) == pytest.approx(
                    coefficient_c_uniform(x, n), rel=1e-13
                )

    def test_permutation_invariance(self):
        xs = [0.9, 0.5, 0.75, 0.81]
        base = coefficient_c(xs, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = list(rng.permutation(xs))
            assert coefficient_c(perm, 4) == pytest.approx(base, rel=1e-14)


class TestSnapshotQfi:
    def test_all_local_baseline(self):
        assert snapshot_qfi_pure(5, GhzPartition((), 5)) == pytest.approx(1 / 5, abs=1e-15)

    def test_full_network_group(self):
        assert snapshot_qfi_pure(5, GhzPartition((5,), 5)) == pytest.approx(1.0, abs=1e-15)

    def test_two_group_snapshot(self):
        got = snapshot_qfi_pure(6, GhzPartition((3, 2), 6))
        assert got == pytest.approx(14 / 36, abs=1e-15)

    def test_perfect_links_reduce_to_pure(self):
        # Exhaustive over every partition for every sensor count up to 12.
        for sensors in range(2, 13):
            for part in enumerate_partitions(sensors):
                pure = snapshot_qfi_pure(sensors, part)
                werner = snapshot_qfi_uniform(sensors, part, 1.0)
                assert werner == pure

    def test_werner_example(self):
        got = snapshot_qfi_werner(5, GhzPartition((3, 2), 5), [[0.9] * 3, [0.9] * 2])
        # 0.290660 quoted from rounded C values; exact evaluation gives 0.2906594
        assert got == pytest.approx(0.290660, abs=2e-6)
        assert got == pytest.approx((5 + (9 * 0.5210075153 - 3) + (4 * 0.6443542019 - 2)) / 25, abs=1e-9)

    def test_below_threshold_is_worse_than_local(self):
        got = snapshot_qfi_uniform(5, GhzPartition((2,), 5), 0.84)
        assert got < 1 / 5

    def test_monotone_in_fidelity(self):
        for sizes in [(2,), (3,), (3, 2), (4, 2)]:
            sensors = 7
            part = GhzPartition(sizes, sensors)
            values = [snapshot_qfi_uniform(sensors, part, f) for f in np.linspace(0.5, 1.0, 26)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_monotone_in_each_group_fidelity(self):
        sensors = 6
        part = GhzPartition((3, 2), sensors)
        base = [[0.8, 0.7, 0.9], [0.75, 0.85]]
        for g, i in [(0, 0), (0, 2), (1, 1)]:
            prev = -np.inf
            for f in np.linspace(0.5, 1.0, 11):
                fids = [list(group) for group in base]
                fids[g][i] = float(f)
                val = snapshot_qfi_werner(sensors, part, fids)
                assert val >= prev - 1e-15
                prev = val

    def test_group_order_is_irrelevant(self):
        part = GhzPartition((3, 2), 6)
        a = snapshot_qfi_werner(6, part, [[0.9, 0.8, 0.7], [0.6, 0.95]])
        b = snapshot_qfi_werner(6, part, [[0.6, 0.95], [0.9, 0.8, 0.7]])
        assert a == pytest.approx(b, rel=1e-15)

    def test_rejects_mismatched_groups(self):
        with pytest.raises(ValueError):
            snapshot_qfi_werner(6, GhzPartition((3, 2), 6), [[0.9, 0.8], [0.7, 0.6]])

    def test_gap_scaling(self):
        part = GhzPartition((3,), 5)
        eig = EigenSpec(0.0, 2.5)
        assert snapshot_qfi_uniform(5, part, 0.9, eig) == pytest.approx(
            2.5**2 * snapshot_qfi_uniform(5, part, 0.9), rel=1e-14
        )
