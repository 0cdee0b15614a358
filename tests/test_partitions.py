"""Tests for the GHZ-grouping optimisers."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entnet import (
    GhzPartition,
    best_group_sizes,
    coefficient_c,
    enumerate_partitions,
    optimal_partition,
    optimal_partition_mixed,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    solve_threshold,
)


@lru_cache(maxsize=None)
def count_partitions_min2(total: int, max_part: int) -> int:
    """Independent counting recurrence: partitions of ``total`` into parts in [2, max_part]."""
    if total == 0:
        return 1
    if total < 2 or max_part < 2:
        return 0
    return sum(count_partitions_min2(total - p, p) for p in range(2, min(total, max_part) + 1))


def set_partitions(items):
    """Brute-force walk over all set partitions of a list."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


def summed_gain(fids, groups):
    """Summed gain C n^2 - n of groups of link indices, each C from coefficient_c."""
    return sum(coefficient_c([(4 * fids[i] - 1) / 3 for i in g], len(g)) * len(g) ** 2 - len(g)
               for g in groups)


def brute_force_mixed(fids, sensors):
    """Canonical group_members of the documented winner, by enumeration.

    Summed gains within 1e-12 relative count as tied (swapping
    equal-fidelity links only reorders a float sum).  Ties go to fewer
    groups, larger sizes, then the lexicographically smallest canonical
    groups of ranks, a link's rank being its position under (-F, index).
    """
    order = sorted(range(len(fids)), key=lambda i: (-fids[i], i))
    rank = {i: r for r, i in enumerate(order)}
    scored = []
    for blocks in set_partitions(list(range(len(fids)))):
        groups = [b for b in blocks if len(b) >= 2]
        gain = summed_gain(fids, groups)
        ranks = tuple(sorted((tuple(sorted(rank[i] for i in g)) for g in groups),
                             key=lambda g: (-len(g), g)))
        scored.append((gain, ranks))
    top = max(g for g, _ in scored)
    tied = [r for g, r in scored if g >= top - 1e-12 * abs(top)]
    ranks = min(tied, key=lambda r: (len(r), tuple(-len(g) for g in r), r))
    groups = (tuple(sorted(order[i] for i in g)) for g in ranks)
    return tuple(sorted(groups, key=lambda g: (-len(g), g)))


def enumerated_best_sizes(max_m, sensors, fidelity):
    """Argmax over enumerate_partitions for each m <= max_m, with the documented tie key."""
    scored = [
        (snapshot_qfi_uniform(sensors, p, fidelity), -p.num_groups, p.group_sizes)
        for p in enumerate_partitions(max_m, total_sensors=sensors)
    ]
    return [max(key for key in scored if sum(key[2]) <= m)[2] for m in range(max_m + 1)]


class TestEnumeratePartitions:
    def test_m3(self):
        got = [p.group_sizes for p in enumerate_partitions(3)]
        assert got == [(), (2,), (3,)]

    def test_m5(self):
        got = {p.group_sizes for p in enumerate_partitions(5)}
        assert got == {(), (2,), (3,), (4,), (5,), (2, 2), (3, 2)}

    def test_count_matches_recurrence(self):
        for m in (0, 1, 2, 7, 12, 20):
            expected = sum(count_partitions_min2(j, j) for j in range(m + 1))
            assert len(enumerate_partitions(m)) == expected

    def test_deterministic_order(self):
        a = [p.group_sizes for p in enumerate_partitions(9)]
        b = [p.group_sizes for p in enumerate_partitions(9)]
        assert a == b
        assert a == sorted(a, key=lambda s: (len(s), s))

    def test_total_sensors_override(self):
        parts = enumerate_partitions(4, total_sensors=9)
        assert all(p.total_sensors == 9 for p in parts)


class TestOptimalPartition:
    def test_perfect_links_take_everything(self):
        res = optimal_partition(5, 5, 1.0)
        assert res.best.group_sizes == (5,)

    def test_table_rows_m10_m20(self):
        assert optimal_partition(10, 10, 0.9).best.group_sizes == (5, 5)
        assert optimal_partition(20, 20, 0.88).best.group_sizes == (4, 4, 4, 4, 4)

    def test_published_cells(self):
        assert optimal_partition(15, 15, 0.842).best.group_sizes == (3, 3, 3, 3, 3)
        assert optimal_partition(10, 10, 0.86).best.group_sizes == (4, 3, 3)

    def test_unit_fidelity_takes_everything(self):
        for m in (2, 7, 19, 60):
            assert optimal_partition(m, m, 1.0).best.group_sizes == (m,)

    def test_low_fidelity_goes_local(self):
        for m in (2, 5, 9):
            res = optimal_partition(m, 9, 0.83)
            assert res.best.group_sizes == ()

    def test_result_qfi_matches_best(self):
        res = optimal_partition(6, 8, 0.9)
        assert res.qfi == snapshot_qfi_uniform(8, res.best, 0.9)
        assert res.candidates_evaluated == 6 * 5 // 2  # one DP transition per run choice

    def test_monotone_qfi_in_m_at_unit_fidelity(self):
        values = [optimal_partition(m, 12, 1.0).qfi for m in range(13)]
        assert all(b > a for a, b in zip(values[1:], values[2:]))  # strict from m >= 1
        assert values[0] == values[1]  # a lone link is discarded

    def test_argmax_does_not_depend_on_sensor_count(self):
        for f in (0.86, 0.9, 0.95):
            small = optimal_partition(7, 7, f).best.group_sizes
            big = optimal_partition(7, 30, f).best.group_sizes
            assert small == big

    def test_no_size_cap(self):
        res = optimal_partition(41, 50, 0.9)
        assert res.best.group_sizes == best_group_sizes(41, 0.9)[41]
        assert res.qfi == snapshot_qfi_uniform(50, res.best, 0.9)

    def test_rejects_zero_sensors(self):
        # the QFI of an average of no phases is undefined
        with pytest.raises(ValueError):
            optimal_partition(0, 0, 0.9)

    def test_group_count_conjecture(self):
        # optima use at most ceil(m/3) groups (checked, not assumed)
        for m in range(2, 21):
            for f in np.arange(0.841, 1.0001, 0.01):
                res = optimal_partition(m, m, float(f))
                assert res.best.num_groups <= -(-m // 3)


FIDELITY_GRID = sorted({round(float(f), 3) for f in np.arange(0.80, 1.0001, 0.005)} | {0.842})


class TestGroupingDp:
    def test_matches_enumeration_on_grid(self):
        mismatches = []
        for f in FIDELITY_GRID:
            dp = best_group_sizes(25, f)
            for m, want in enumerate(enumerated_best_sizes(25, 25, f)):
                if dp[m] != want or optimal_partition(m, 25, f).best.group_sizes != want:
                    mismatches.append((m, f, dp[m], want))
        assert not mismatches, f"DP disagrees with enumeration on {mismatches}"

    def test_near_uniform_groups(self):
        # the paper's conjecture: optimal group sizes differ by at most one
        for f in np.arange(0.80, 1.0001, 0.002):
            for m, sizes in enumerate(best_group_sizes(60, float(min(f, 1.0)))):
                assert not sizes or max(sizes) - min(sizes) <= 1, (m, f, sizes)

    def test_one_pass_serves_every_link_count(self):
        table = best_group_sizes(12, 0.9)
        assert len(table) == 13
        for m, sizes in enumerate(table):
            assert optimal_partition(m, 12, 0.9).best.group_sizes == sizes

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            best_group_sizes(-1, 0.9)
        with pytest.raises(ValueError):
            best_group_sizes(5, 1.1)


class TestOptimalPartitionMixed:
    def test_uniform_reduces_to_integer_search(self):
        for f in (0.86, 0.9, 1.0):
            mixed = optimal_partition_mixed([f] * 6, 6)
            plain = optimal_partition(6, 6, f)
            assert mixed.qfi == pytest.approx(plain.qfi, rel=1e-13)

    def test_groups_good_links_drops_bad_one(self):
        res = optimal_partition_mixed([1.0, 1.0, 0.3], 3)
        assert res.best.group_sizes == (2,)
        assert res.group_members == ((0, 1),)
        # exhaustive cross-check over all 5 set partitions of 3 links
        sizes_and_groups = [
            ((), []),
            ((2,), [[1.0, 1.0]]),
            ((2,), [[1.0, 0.3]]),
            ((3,), [[1.0, 1.0, 0.3]]),
        ]
        best = max(
            snapshot_qfi_werner(3, GhzPartition(s, 3), g) for s, g in sizes_and_groups
        )
        assert res.qfi == pytest.approx(best, rel=1e-14)

    def test_excludes_below_threshold_link(self):
        res = optimal_partition_mixed([0.95, 0.95, 0.95, 0.6], 4)
        assert 3 not in [len(b) + 1 for b in res.group_members]  # the 0.6 link is not grouped
        assert all(3 not in block for block in res.group_members)

    @pytest.mark.parametrize("links", [60, 200])
    def test_bounded_by_uniform_groupings(self, links):
        # raising every link to the top fidelity can only gain (dC/dx > 0),
        # lowering every link to the bottom one can only lose
        rng = random.Random(links)
        for lo, hi in ((0.8, 1.0), (0.93, 0.95)):
            fids = [rng.uniform(lo, hi) for _ in range(links)]
            res = optimal_partition_mixed(fids, links)
            assert optimal_partition(links, links, min(fids)).qfi <= res.qfi
            assert res.qfi <= optimal_partition(links, links, max(fids)).qfi
            used = [i for g in res.group_members for i in g]
            assert len(used) == len(set(used))

    def test_links_at_or_below_half_never_join(self):
        # a run through 300 links at F=0.9 and 700 at F=0 underflows e00 + e10 to 0
        fids = [0.0] * 700 + [0.9] * 300
        res = optimal_partition_mixed(fids, len(fids))
        assert res.best.group_sizes == best_group_sizes(300, 0.9)[300]
        assert min(i for g in res.group_members for i in g) == 700
        assert res.candidates_evaluated == 300 * 299 // 2

    def test_threshold_guides_grouping(self):
        f_lo = solve_threshold(2).f_thres - 0.02
        res = optimal_partition_mixed([f_lo, f_lo], 2)
        assert res.best.group_sizes == ()

    def test_matches_brute_force(self):
        rng = random.Random(2407)
        draws = [[0.9] * 6, [0.95, 0.9] * 3, [0.99, 0.88, 0.88, 0.93, 0.93, 0.93, 0.99, 0.85]]
        for _ in range(40):
            links = rng.randint(2, 8)
            pool = [round(rng.uniform(0.8, 1.0), 4) for _ in range(rng.randint(1, links))]
            draws.append([rng.choice(pool) for _ in range(links)])
        for fids in draws:
            sensors = len(fids) + rng.randint(0, 3)
            res = optimal_partition_mixed(fids, sensors)
            assert res.group_members == brute_force_mixed(fids, sensors), fids
            assert res.best.group_sizes == tuple(len(g) for g in res.group_members)
            assert res.candidates_evaluated == len(fids) * (len(fids) - 1) // 2

    @pytest.mark.parametrize("fids, members", [
        ([0.842, 0.86, 0.86, 0.86, 0.86, 0.86], ((0, 4, 5), (1, 2, 3))),
        ([0.86, 0.842, 0.842, 0.9, 0.8, 0.86, 0.8, 0.86], ((0, 3, 5), (1, 2, 7))),
    ])
    def test_ties_go_to_runs_of_ranks(self, fids, members):
        # equal-gain groupings: the highest-fidelity links group together
        assert optimal_partition_mixed(fids, len(fids)).group_members == members
        assert brute_force_mixed(fids, len(fids)) == members

    @settings(derandomize=True, deadline=500, max_examples=150)
    @given(st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=0, max_size=7),
        st.lists(st.sampled_from([0.3, 0.8, 0.842, 0.86, 0.9, 0.97, 1.0]), min_size=0, max_size=7),
    ))
    def test_gain_matches_set_partitions(self, fids):
        best = max(summed_gain(fids, [b for b in blocks if len(b) >= 2])
                   for blocks in set_partitions(list(range(len(fids)))))
        got = summed_gain(fids, optimal_partition_mixed(fids, max(len(fids), 1)).group_members)
        assert got == pytest.approx(best, rel=1e-12, abs=0.0)

    def test_rejects_zero_sensors(self):
        with pytest.raises(ValueError):
            optimal_partition_mixed([], 0)
