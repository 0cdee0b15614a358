"""Choosing the GHZ grouping that maximises snapshot QFI.

Given m successful links, the hub must decide how to partition them into
GHZ groups (leaving the rest local).  The snapshot QFI is additive over
groups, S + sum_g (C_g n_g^2 - n_g), so the best grouping is an exact
dynamic-programming optimum: over integer partitions when every link has
the same fidelity, and over subsets of links when fidelities differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    EigenSpec,
    GhzPartition,
    coefficient_c,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    werner_from_fidelity,
)
from .errors import SizeLimitError

__all__ = [
    "PartitionSearchResult",
    "enumerate_partitions",
    "best_group_sizes",
    "optimal_partition",
    "optimal_partition_mixed",
]

# The subset DP takes O(3^m) steps; 12 links run in well under a second.
MAX_MIXED_LINKS = 12


@dataclass(frozen=True)
class PartitionSearchResult:
    """Winning grouping and its snapshot QFI.

    ``candidates_evaluated`` counts DP transitions: m(m-1)/2 take-or-skip
    steps for uniform fidelity, (3^m - 1)/2 block choices for mixed.
    """

    best: GhzPartition
    qfi: float
    candidates_evaluated: int
    # Link indices per group, canonically ordered; only set by the
    # mixed-fidelity search where the assignment matters.
    group_members: tuple[tuple[int, ...], ...] | None = None


def _parts_descending(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    yield ()
    for part in range(min(remaining, max_part), 1, -1):
        for rest in _parts_descending(remaining - part, part):
            yield (part,) + rest


def enumerate_partitions(m: int, *, total_sensors: int | None = None) -> list[GhzPartition]:
    """All GHZ groupings of at most m links: multisets of parts >= 2, sum <= m.

    Includes the empty (all-local) grouping.  Output order is canonical:
    by group count, then lexicographically.
    """
    if m < 0:
        raise ValueError(f"link count must be non-negative, got {m}")
    total = m if total_sensors is None else total_sensors
    sizes = sorted(set(_parts_descending(m, m)), key=lambda s: (len(s), s))
    return [GhzPartition(s, total) for s in sizes]


def _check_fidelity(fidelity: float) -> None:
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")


def _check_sensors(links: int, sensors: int) -> None:
    # sensors >= 1: the QFI of an average of no phases is undefined
    if not (0 <= links <= sensors and sensors >= 1):
        raise ValueError(f"need 0 <= m <= sensors, sensors >= 1; got m={links}, sensors={sensors}")


def _group_gain(xs: Sequence[float]) -> float:
    """A group's snapshot-QFI gain over local probes, C n^2 - n."""
    n = len(xs)
    return coefficient_c(xs, n) * n * n - n


def best_group_sizes(max_links: int, fidelity: float) -> list[tuple[int, ...]]:
    """Best group sizes for every link count 0..max_links, from one DP pass.

    State (r, k) is the best grouping of at most r links into parts of at
    most k: it either skips part size k, (r, k-1), or takes one group of k
    on top of (r-k, k).  Groupings rank by summed gain, then fewer groups,
    then lexicographically larger sizes; a grouping with a part k always
    sorts above one whose parts are all below k, so on equal gain and group
    count the DP takes k.  The sizes depend on neither the sensor count
    nor the gap, which only shift and scale the snapshot QFI.
    """
    if max_links < 0:
        raise ValueError(f"link count must be non-negative, got {max_links}")
    _check_fidelity(fidelity)
    x = werner_from_fidelity(fidelity)
    gain = [0.0, 0.0] + [_group_gain([x] * n) for n in range(2, max_links + 1)]
    # key[r][k] = (summed gain, -groups) of state (r, k), k <= r; parts < 2 form no group.
    key = [[(0.0, 0)] * (r + 1) for r in range(max_links + 1)]
    took = [[False] * (r + 1) for r in range(max_links + 1)]
    for r in range(2, max_links + 1):
        for k in range(2, r + 1):
            rest_gain, rest_groups = key[r - k][min(k, r - k)]
            take = (gain[k] + rest_gain, rest_groups - 1)
            took[r][k] = take >= key[r][k - 1]
            key[r][k] = take if took[r][k] else key[r][k - 1]
    out = []
    for m in range(max_links + 1):
        sizes: list[int] = []
        r = k = m
        while k >= 2:
            if took[r][k]:
                sizes.append(k)
                r -= k
                k = min(k, r)
            else:
                k -= 1
        out.append(tuple(sizes))
    return out


def optimal_partition(
    m: int,
    sensors: int,
    fidelity: float,
    eig: EigenSpec = EigenSpec(),
) -> PartitionSearchResult:
    """Argmax of the snapshot QFI over all groupings of at most m links.

    Exact for every m (see ``best_group_sizes``); ties go to fewer groups,
    then to lexicographically larger sizes.
    """
    _check_sensors(m, sensors)
    best = GhzPartition(best_group_sizes(m, fidelity)[m], sensors)
    return PartitionSearchResult(
        best=best,
        qfi=snapshot_qfi_uniform(sensors, best, fidelity, eig),
        candidates_evaluated=m * (m - 1) // 2,
    )


def _members(block: int) -> tuple[int, ...]:
    return tuple(i for i in range(block.bit_length()) if block >> i & 1)


def _tie_rank(groups: Sequence[tuple[int, ...]]) -> tuple:
    """Canonical groups and the rank that orders equal-gain, equal-count ties.

    Smaller ranks win: lexicographically larger sizes first, then the
    lexicographically smallest canonical ``group_members``.
    """
    canonical = tuple(sorted(groups, key=lambda g: (-len(g), g)))
    return tuple(-len(g) for g in canonical), canonical


def optimal_partition_mixed(
    fidelities: Sequence[float],
    sensors: int,
    eig: EigenSpec = EigenSpec(),
) -> PartitionSearchResult:
    """Best assignment of links with unequal fidelities to GHZ groups.

    Links left out of every group are dropped (the sensor probes locally).
    A subset DP over bitmasks of links: the best grouping of a link set
    either drops its lowest link or puts it in a block with some of the
    others, O(3^m) steps.  Block gains are scored from the block's sorted
    fidelities and summed exactly, so groupings that only swap
    equal-fidelity links tie exactly.  Ties go to fewer groups, then to
    lexicographically larger sizes, then to the lexicographically smallest
    canonical ``group_members`` (groups by size descending, then by index).
    """
    m = len(fidelities)
    if m > MAX_MIXED_LINKS:
        raise SizeLimitError(
            f"the subset DP is capped at {MAX_MIXED_LINKS} links, got {m}; "
            "use Monte Carlo instead"
        )
    _check_sensors(m, sensors)
    fids = [float(f) for f in fidelities]
    for f in fids:
        _check_fidelity(f)
    xs = [werner_from_fidelity(f) for f in fids]

    full = (1 << m) - 1
    ratios = [
        _group_gain(sorted(xs[i] for i in _members(b))).as_integer_ratio()
        if b & (b - 1) else (0, 1)  # blocks of at least two links
        for b in range(full + 1)
    ]
    # Float gains as integers over one power-of-two denominator: exact sums.
    scale = max(den for _, den in ratios)
    gains = [num * (scale // den) for num, den in ratios]

    key = [(0, 0)] * (full + 1)  # (exact summed gain, -groups) per link set
    ranked = [_tie_rank(())] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        best_key, best_rank = key[rest], ranked[rest]  # the lowest link dropped
        sub = rest
        while sub:
            block = sub | low
            other = mask ^ block
            cand = (gains[block] + key[other][0], key[other][1] - 1)
            if cand >= best_key:
                rank = _tie_rank(ranked[other][1] + (_members(block),))
                if cand > best_key or rank < best_rank:
                    best_key, best_rank = cand, rank
            sub = (sub - 1) & rest
        key[mask], ranked[mask] = best_key, best_rank

    members = ranked[full][1]
    best = GhzPartition(tuple(len(g) for g in members), sensors)
    qfi = snapshot_qfi_werner(sensors, best, [[fids[i] for i in g] for g in members], eig)
    return PartitionSearchResult(
        best=best,
        qfi=qfi,
        candidates_evaluated=(3**m - 1) // 2,
        group_members=members,
    )
