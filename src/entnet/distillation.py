"""Recurrence distillation of redundant sensor-hub links.

When a block of k generation attempts leaves a sensor with several links,
pairs of equal-fidelity links can be fused 2 -> 1: the fusion succeeds
with a known probability and, above fidelity 1/2, yields a strictly better
link.  Surviving links are fused again level by level.  An odd link at a
level is either discarded or kept as a fallback for the all-failures
branch; which choice wins depends on where the fidelity sits relative to
the usefulness thresholds.  A dynamic programme over the levels gives
each law, and the exact block average enumerates how many sensors end on
each of its values, up to a bound on the number of such count vectors.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from . import _mc
from .core import werner_from_fidelity
from .errors import SizeLimitError
from .protocols import (
    AvgQfiEstimate,
    EstimateMethod,
    LeftoverPolicy,
    NetworkConfig,
    resolve_threads,
    snapshot_distribution,
)

__all__ = [
    "DistillMethod",
    "DistillStep",
    "FidelityDistribution",
    "distill_pair",
    "nested_distill",
    "per_sensor_outcome_distribution",
    "ftmbl_distilled_avg_qfi",
    "simulate_distilled_block_protocol",
]

# Bound on the C(S+L-1, L-1) count vectors exact enumeration visits.
_MAX_MULTISETS = 1_000_000

# A final link at or below this fidelity is sensed around, not grouped.
_USABLE_FIDELITY = 0.5


class DistillMethod(Enum):
    ENUMERATION = "enumeration"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class DistillStep:
    """Success probability and output fidelity of one 2 -> 1 fusion."""

    success_prob: float
    out_fidelity: float

    def __post_init__(self) -> None:
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success probability must be in (0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class FidelityDistribution:
    """Distribution of a sensor's final link fidelity; 0 encodes no link."""

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((float(f), float(p)) for f, p in self.outcomes)
        object.__setattr__(self, "outcomes", pairs)
        total = 0.0
        seen = set()
        for fid, prob in pairs:
            if not (fid == 0.0 or 0.0 < fid <= 1.0):
                raise ValueError(f"fidelity must be 0 or in (0, 1], got {fid}")
            if prob < 0.0:
                raise ValueError(f"probability must be non-negative, got {prob}")
            if fid in seen:
                raise ValueError(f"duplicate fidelity {fid}; aggregate with from_pairs")
            seen.add(fid)
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "FidelityDistribution":
        """Aggregate equal fidelities and sort outcomes by descending fidelity."""
        acc: dict[float, float] = defaultdict(float)
        for fid, prob in pairs:
            acc[fid] += prob
        return cls(tuple(sorted(acc.items(), key=lambda fp: -fp[0])))

    def probability_of(self, fidelity: float) -> float:
        for fid, prob in self.outcomes:
            if fid == fidelity:
                return prob
        return 0.0

    def fidelities(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.outcomes)


def distill_pair(f1: float, f2: float) -> DistillStep:
    """Fuse two Werner links of fidelities f1, f2 into one."""
    for f in (f1, f2):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fidelity must be in [0, 1], got {f}")
    q = (
        f1 * f2
        + (f1 * (1.0 - f2) + f2 * (1.0 - f1)) / 3.0
        + 5.0 * (1.0 - f1) * (1.0 - f2) / 9.0
    )
    out = (f1 * f2 + (1.0 - f1) * (1.0 - f2) / 9.0) / q
    return DistillStep(success_prob=q, out_fidelity=out)


def nested_distill(
    fidelity: float, links: int, policy: LeftoverPolicy = LeftoverPolicy.DISCARD
) -> FidelityDistribution:
    """Distribution of the final fidelity after nested 2 -> 1 fusion.

    Each level pairs up the equal-fidelity links, fuses every pair, and
    moves the successes up to the improved fidelity; the process
    stops with one link, no links, or a fidelity at or below 1/2 (fusion
    no longer improves there).  Odd leftovers are dropped level by level
    under DISCARD; under KEEP the best leftover is delivered instead of
    "no link" when every fusion failed.  NONE is not a distillation and
    raises ``ValueError``.
    """
    if links < 0:
        raise ValueError(f"link count must be non-negative, got {links}")
    return _distill_levels(fidelity, np.arange(links + 1) == links, policy)


def per_sensor_outcome_distribution(
    fidelity: float, p: float, k: int, policy: LeftoverPolicy = LeftoverPolicy.DISCARD
) -> FidelityDistribution:
    """Final-fidelity law of one sensor after k attempts plus distillation."""
    return _distill_levels(fidelity, snapshot_distribution(k, p), policy)


def _distill_levels(
    fidelity: float, link_law: np.ndarray, policy: LeftoverPolicy
) -> FidelityDistribution:
    """Final-fidelity law for the link-count law ``link_law``, level by level.

    ``mass[c, j]``: c links on this level, ending on ``ends[j]`` if none survives.
    The ladder never decreases, so the newest odd link is the best leftover.
    """
    if policy is LeftoverPolicy.NONE:
        raise ValueError("no distillation behaviour for policy NONE")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    mass = np.asarray(link_law, dtype=float)[:, None]
    ends, ended, f = [0.0], [], fidelity
    while True:
        # one link, or links at or below 1/2 where fusion no longer improves, end here
        ended += [*zip(ends, mass[0]), (f, mass[1:].sum() if f <= 0.5 else mass[1:2].sum())]
        if f <= 0.5 or len(mass) <= 2:
            return FidelityDistribution.from_pairs(pair for pair in ended if pair[1] > 0.0)
        step = distill_pair(f, f)
        nxt = np.zeros((len(mass) // 2 + 1, len(ends) + 1))
        for c in np.flatnonzero(mass[2:].any(axis=1)) + 2:
            row = snapshot_distribution(c // 2, step.success_prob)
            if c % 2:
                nxt[: len(row), -1] += row * mass[c].sum()
            else:
                nxt[: len(row), :-1] += np.outer(row, mass[c])
        ends.append(f if policy is LeftoverPolicy.KEEP else 0.0)
        mass, f = nxt, step.out_fidelity


def _enumerated_block_qfi(
    cfg: NetworkConfig, k: int, policy: LeftoverPolicy
) -> float:
    sensors = cfg.sensors
    dist = per_sensor_outcome_distribution(cfg.fidelity, cfg.link_prob, k, policy)
    bars = len(dist.outcomes) - 1
    multisets = math.comb(sensors + bars, bars)
    if multisets > _MAX_MULTISETS:
        raise SizeLimitError(
            f"enumerating {multisets:,} count vectors exceeds {_MAX_MULTISETS:,}; use Monte Carlo"
        )
    # Stars and bars: each choice of bar slots among S + L - 1 is one count vector.
    slots = chain.from_iterable(combinations(range(sensors + bars), bars))
    chosen = np.fromiter(slots, dtype=np.int64, count=multisets * bars).reshape(multisets, bars)
    counts = np.diff(chosen, axis=1, prepend=-1, append=sensors + bars) - 1
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(sensors + 1)])
    log_probs = np.log([p for _, p in dist.outcomes])
    weights = np.exp(log_fact[sensors] - log_fact[counts].sum(axis=1) + counts @ log_probs)
    qfis = _maximal_qfi(counts, np.array(dist.fidelities()), sensors, cfg.eig.gap_squared)
    return math.fsum(weights * qfis)


def _maximal_qfi(
    counts: np.ndarray, fids: np.ndarray, sensors: int, gap2: float
) -> np.ndarray:
    """Maximal-GHZ snapshot QFI per row of sensor counts over the values ``fids``."""
    usable = fids > _USABLE_FIDELITY
    x = werner_from_fidelity(fids[usable])
    grouped_counts = counts[:, usable]
    m = grouped_counts.sum(axis=1)
    bases = np.array([x, (1.0 + x) / 2.0, (1.0 - x) / 2.0])
    diff, plus, minus = (bases[:, None, :] ** grouped_counts).prod(axis=2)
    # |diff| <= plus, so where both weights underflow to 0, C is 0 as well
    c = np.divide(diff * diff, plus + minus, out=np.zeros_like(plus), where=plus > 0.0)
    grouped = sensors + c * m * m - m
    return gap2 * np.where(m >= 2, grouped, float(sensors)) / (sensors * sensors)


def simulate_distilled_block_protocol(
    cfg: NetworkConfig,
    k: int,
    policy: LeftoverPolicy,
    *,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the distilled block protocol."""
    sensors, p = cfg.sensors, cfg.link_prob
    gap2 = cfg.eig.gap_squared
    local = gap2 / sensors
    laws = [nested_distill(cfg.fidelity, links, policy) for links in range(k + 1)]
    alphabet = np.array(sorted({f for law in laws for f in law.fidelities()}, reverse=True))
    tables = []
    for law in laws:
        positions = np.isin(alphabet, law.fidelities()).nonzero()[0]
        tables.append((np.cumsum([pr for _, pr in law.outcomes]), positions))
    stream = _mc.instance_stream("distilled", sensors, p, cfg.fidelity, k, policy.value)

    def run_chunk(index: int, size: int) -> np.ndarray:
        gen = _mc.chunk_generator(seed, index, stream)
        link_counts = gen.binomial(k, p, size=(size, sensors))
        uniforms = gen.random((size, sensors))
        slots = np.zeros((size, sensors), dtype=np.intp)
        for links in range(k + 1):
            sel = link_counts == links
            cums, vals = tables[links]
            picks = np.minimum(
                np.searchsorted(cums, uniforms[sel], side="right"), len(vals) - 1
            )
            slots[sel] = vals[picks]
        # one bincount over trial-offset slots gives every trial's count vector
        slots += len(alphabet) * np.arange(size)[:, None]
        counts = np.bincount(slots.ravel(), minlength=size * len(alphabet)).reshape(size, -1)
        return ((k - 1) * local + _maximal_qfi(counts, alphabet, sensors, gap2)) / k

    return _mc.run_chunked_trials(run_chunk, trials, resolve_threads(threads))


def ftmbl_distilled_avg_qfi(
    cfg: NetworkConfig,
    k: int,
    policy: LeftoverPolicy = LeftoverPolicy.DISCARD,
    *,
    method: DistillMethod = DistillMethod.ENUMERATION,
    trials: int = 1_000_000,
    seed: int | None = None,
    threads: int | None = None,
) -> AvgQfiEstimate:
    """Average QFI of the fixed-block protocol with per-sensor distillation.

    Every sensor independently collects a binomial number of links over the
    block, distills them, and the hub groups all sensors whose final link
    survived above fidelity 1/2 into one maximal GHZ projection; the first
    k - 1 slots of the block sense locally.  Enumeration sums the exact
    multinomial over the C(S+L-1, L-1) count vectors of the level
    programme's L-value law, up to 1,000,000; Monte Carlo does the rest.
    """
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    local = cfg.eig.gap_squared / cfg.sensors
    if method is DistillMethod.ENUMERATION:
        block = _enumerated_block_qfi(cfg, k, policy)
        return AvgQfiEstimate(mean=((k - 1) * local + block) / k)
    if seed is None:
        raise ValueError("Monte Carlo evaluation requires a seed")
    mean, err = simulate_distilled_block_protocol(
        cfg, k, policy, trials=trials, seed=seed, threads=threads
    )
    return AvgQfiEstimate(
        mean=mean,
        std_error=err,
        trials=trials,
        method=EstimateMethod.MONTE_CARLO,
        seed=seed,
    )
