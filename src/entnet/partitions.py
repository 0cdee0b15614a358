"""Choosing the GHZ grouping that maximises snapshot QFI.

Given m successful links, the hub must decide how to partition them into
GHZ groups (leaving the rest local).  The snapshot QFI is additive over
groups, S + sum_g (C_g n_g^2 - n_g), so the best grouping is a
dynamic-programming optimum over runs of links sorted by fidelity.  One DP
serves uniform and mixed fidelities; with a single fidelity it is exact and
one pass covers every link count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    EigenSpec,
    GhzPartition,
    prefix_coefficients,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    werner_from_fidelity,
)

__all__ = [
    "PartitionSearchResult",
    "enumerate_partitions",
    "best_group_sizes",
    "optimal_partition",
    "optimal_partition_mixed",
]

_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PartitionSearchResult:
    """Winning grouping and its snapshot QFI.

    ``candidates_evaluated`` counts DP transitions, m(m-1)/2 run choices
    for m searched links, in both the uniform and the mixed-fidelity search.
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


def group_gains(fidelity: float, max_links: int) -> list[float]:
    """Gain C n^2 - n of one n-link group at a single fidelity, n = 0..max_links.

    Entries 0 and 1 are 0, since fewer than two links form no group.  Each
    entry is the float ``coefficient_c([x] * n, n) * n * n - n`` would give.
    """
    _check_fidelity(fidelity)
    cs = prefix_coefficients([werner_from_fidelity(fidelity)] * max_links)
    return [0.0] + [c * n * n - n if n >= 2 else 0.0 for n, c in enumerate(cs, 1)]


def _best_runs(xs: Sequence[float]) -> list[int]:
    """Best grouping of every suffix of Werner parameters sorted non-increasing.

    ``best[i]``, the best grouping of links i..m-1, either drops link i or
    starts a group with the run i..j-1 on top of ``best[j]``: m(m-1)/2
    transitions, each run's gain read off ``prefix_coefficients``.  With
    mixed fidelities, searching runs only rests on a tested conjecture:
    some optimal grouping takes each group as a run of consecutive links in
    descending-fidelity order (background: Chakravarty, Orlin & Rothblum,
    Oper. Res. 33 (1985), on consecutive optimal partitions).  Two facts
    make the order sound.  A link with F <= 1/2 (|x| <= 1/3) only lowers a
    group's gain: adding it gives C' <= 3x^2 C <= C/3, and a pair holding
    it gains at most 4/3 - 2 < 0.  And dC/dx > 0 for every x > 0.

    Summed gains within 1e-12 relative of the suffix's best so far tie
    (summing the same groups in another order moves the last bits).  Ties
    go to fewer groups, then to the longer run at link i; among groupings
    that only swap equal-fidelity links, that is larger sizes first, then
    the lexicographically smallest canonical groups of ranks.

    Returns the length of the run that starts at each link in the best
    grouping of its suffix, 0 where the link is dropped.
    """
    m = len(xs)
    gain = [0.0] * (m + 1)
    groups = [0] * (m + 1)
    run = [0] * (m + 1)
    for i in range(m - 2, -1, -1):
        best, count, take = gain[i + 1], groups[i + 1], 0  # link i dropped
        lo, hi = best * (1.0 - _TIE_RTOL), best * (1.0 + _TIE_RTOL)
        cs = prefix_coefficients(xs[i:])
        next(cs)  # a lone link forms no group
        for n, c in enumerate(cs, 2):
            g = c * n * n - n + gain[i + n]
            if g > hi or (g >= lo and groups[i + n] < count):
                best, count, take = g, groups[i + n] + 1, n
                lo, hi = best * (1.0 - _TIE_RTOL), best * (1.0 + _TIE_RTOL)
        gain[i], groups[i], run[i] = best, count, take
    return run


def _runs_from(run: Sequence[int], start: int) -> Iterator[range]:
    """The groups of the best grouping of links start.., as ranges of sorted positions."""
    i = start
    while i < len(run) - 1:
        if run[i]:
            yield range(i, i + run[i])
            i += run[i]
        else:
            i += 1


def best_group_sizes(max_links: int, fidelity: float) -> list[tuple[int, ...]]:
    """Best group sizes for every link count 0..max_links, from one DP pass.

    With equal fidelities the suffix of r links is the best grouping of r
    links, so one pass of the run DP over max_links links serves every
    count.  Ties go to fewer groups, then to lexicographically larger
    sizes.  The sizes depend on neither the sensor count nor the gap, which
    only shift and scale the snapshot QFI.
    """
    if max_links < 0:
        raise ValueError(f"link count must be non-negative, got {max_links}")
    _check_fidelity(fidelity)
    run = _best_runs([werner_from_fidelity(fidelity)] * max_links)
    return [
        tuple(sorted((len(r) for r in _runs_from(run, max_links - m)), reverse=True))
        for m in range(max_links + 1)
    ]


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


def optimal_partition_mixed(
    fidelities: Sequence[float],
    sensors: int,
    eig: EigenSpec = EigenSpec(),
) -> PartitionSearchResult:
    """Best assignment of links with unequal fidelities to GHZ groups.

    Links left out of every group are dropped (the sensor probes locally).
    A link with F <= 1/2 only lowers a group's gain (see ``_best_runs``), so
    it is dropped up front, which also keeps a long run's e00 + e10 from
    underflowing to 0.  The other m links are ranked by (-F, index) and
    searched by the run DP: m(m-1)/2 transitions, O(m) memory.  Ties go to
    fewer groups, then to lexicographically larger sizes, then to the
    lexicographically smallest canonical groups of ranks (groups by size
    descending, then by rank).  ``group_members`` holds link indices.
    """
    m = len(fidelities)
    _check_sensors(m, sensors)
    fids = [float(f) for f in fidelities]
    for f in fids:
        _check_fidelity(f)
    order = sorted((i for i in range(m) if fids[i] > 0.5), key=lambda i: (-fids[i], i))
    run = _best_runs([werner_from_fidelity(fids[i]) for i in order])
    members = tuple(sorted(
        (tuple(sorted(order[i] for i in r)) for r in _runs_from(run, 0)),
        key=lambda g: (-len(g), g),
    ))
    best = GhzPartition(tuple(len(g) for g in members), sensors)
    qfi = snapshot_qfi_werner(sensors, best, [[fids[i] for i in g] for g in members], eig)
    return PartitionSearchResult(
        best=best,
        qfi=qfi,
        candidates_evaluated=len(order) * (len(order) - 1) // 2,
        group_members=members,
    )
