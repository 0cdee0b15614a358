"""Recurrence distillation of redundant sensor-hub links.

When a block of k generation attempts leaves a sensor with several links,
pairs of equal-fidelity links can be fused 2 -> 1: the fusion succeeds
with a known probability and, above fidelity 1/2, yields a strictly better
link.  Surviving links are fused again level by level.  An odd link at a
level is either discarded or kept as a fallback for the all-failures
branch; which choice wins depends on where the fidelity sits relative to
the usefulness thresholds.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement
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

# Enumeration is exact but multinomial-sized; past these caps use Monte Carlo.
MAX_ENUM_SENSORS = 8
MAX_ENUM_BLOCK = 5

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
    recurses on the successes at the improved fidelity; the recursion
    stops with one link, no links, or a fidelity at or below 1/2 (fusion
    no longer improves there).  Odd leftovers are dropped level by level
    under DISCARD; under KEEP the best leftover is delivered instead of
    "no link" when every fusion failed.  NONE is not a distillation and
    raises ``ValueError``.
    """
    if policy is LeftoverPolicy.NONE:
        raise ValueError("no distillation behaviour for policy NONE")
    if links < 0:
        raise ValueError(f"link count must be non-negative, got {links}")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    acc: dict[float, float] = defaultdict(float)

    def recurse(f: float, count: int, prob: float, fallback: float) -> None:
        if prob == 0.0:
            return
        if count == 0:
            acc[fallback if policy is LeftoverPolicy.KEEP else 0.0] += prob
        elif count == 1 or f <= 0.5:
            acc[f] += prob
        else:
            step = distill_pair(f, f)
            q = step.success_prob
            pairs = count // 2
            # The leftover ladder is increasing, so the newest odd link is
            # automatically the best fallback.
            nxt_fallback = max(fallback, f) if count % 2 else fallback
            for s in range(pairs + 1):
                weight = prob * math.comb(pairs, s) * q**s * (1.0 - q) ** (pairs - s)
                recurse(step.out_fidelity, s, weight, nxt_fallback)

    recurse(fidelity, links, 1.0, 0.0)
    return FidelityDistribution.from_pairs(acc.items())


def per_sensor_outcome_distribution(
    fidelity: float, p: float, k: int, policy: LeftoverPolicy = LeftoverPolicy.DISCARD
) -> FidelityDistribution:
    """Final-fidelity law of one sensor after k attempts plus distillation."""
    counts = snapshot_distribution(k, p)
    pairs: list[tuple[float, float]] = []
    for links, p_links in enumerate(counts):
        if p_links == 0.0:
            continue
        for fid, prob in nested_distill(fidelity, links, policy).outcomes:
            pairs.append((fid, p_links * prob))
    return FidelityDistribution.from_pairs(pairs)


def _enumerated_block_qfi(
    cfg: NetworkConfig, k: int, policy: LeftoverPolicy
) -> float:
    sensors = cfg.sensors
    dist = per_sensor_outcome_distribution(cfg.fidelity, cfg.link_prob, k, policy)
    fids = np.array(dist.fidelities())
    probs = [p for _, p in dist.outcomes]
    combos = list(combinations_with_replacement(range(len(fids)), sensors))
    qfis = _vectorised_block_qfi(fids[np.array(combos)], sensors, cfg.eig.gap_squared)
    total = 0.0
    for combo, qfi in zip(combos, qfis.tolist()):
        counts = Counter(combo)
        weight = math.factorial(sensors)
        prob = 1.0
        for idx, c in counts.items():
            weight //= math.factorial(c)
            prob *= probs[idx] ** c
        total += weight * prob * qfi
    return total


def _vectorised_block_qfi(
    fids: np.ndarray, sensors: int, gap2: float
) -> np.ndarray:
    """Per-trial maximal-GHZ snapshot QFI for a (trials, sensors) fidelity array."""
    usable = fids > _USABLE_FIDELITY
    x = werner_from_fidelity(fids)
    m = usable.sum(axis=1)
    diff = np.where(usable, x, 1.0).prod(axis=1)
    plus = np.where(usable, (1.0 + x) / 2.0, 1.0).prod(axis=1)
    minus = np.where(usable, (1.0 - x) / 2.0, 1.0).prod(axis=1)
    c = diff * diff / (plus + minus)
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
    tables = []
    for links in range(k + 1):
        dist = nested_distill(cfg.fidelity, links, policy)
        probs = np.array([pr for _, pr in dist.outcomes])
        tables.append((np.cumsum(probs), np.array(dist.fidelities())))
    stream = _mc.instance_stream("distilled", sensors, p, cfg.fidelity, k, policy.value)

    def run_chunk(index: int, size: int) -> np.ndarray:
        gen = _mc.chunk_generator(seed, index, stream)
        link_counts = gen.binomial(k, p, size=(size, sensors))
        uniforms = gen.random((size, sensors))
        fids = np.zeros((size, sensors))
        for links in range(k + 1):
            sel = link_counts == links
            if not sel.any():
                continue
            cums, vals = tables[links]
            picks = np.minimum(
                np.searchsorted(cums, uniforms[sel], side="right"), len(vals) - 1
            )
            fids[sel] = vals[picks]
        values = ((k - 1) * local + _vectorised_block_qfi(fids, sensors, gap2)) / k
        return values

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
    multinomial over the per-sensor outcome alphabet and is capped at
    8 sensors and block length 5; Monte Carlo covers the rest.
    """
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    local = cfg.eig.gap_squared / cfg.sensors
    if method is DistillMethod.ENUMERATION:
        if cfg.sensors > MAX_ENUM_SENSORS or k > MAX_ENUM_BLOCK:
            raise SizeLimitError(
                f"enumeration is capped at {MAX_ENUM_SENSORS} sensors and "
                f"block length {MAX_ENUM_BLOCK}; use Monte Carlo"
            )
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
