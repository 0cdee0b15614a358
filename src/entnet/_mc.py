"""Shared Monte Carlo plumbing: counter-based streams and chunked trials.

Trials are split into fixed-size chunks; chunk i draws from a Philox
stream keyed by (seed, i), with a per-instance stream id in the counter
block so different simulated instances never share randomness.  Chunk
layout depends only on the trial count, and chunk sums are combined in
index order with exact summation, so results are identical under any
thread count.  The variance pools per-chunk sums of squared deviations
with the Chan-Golub-LeVeque update, also in index order, so a low- or
zero-variance estimate does not lose its digits to cancellation.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

CHUNK_TRIALS = 1 << 16
MAX_SLOTS = 1_000_000
UINT64_MASK = (1 << 64) - 1


def instance_stream(*parts) -> int:
    """Stable stream id for a simulation instance (decorrelates sweeps)."""
    text = "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def chunk_generator(seed: int, chunk_index: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & UINT64_MASK, chunk_index], dtype=np.uint64)
    # the stream id occupies a high counter word; generation only ever
    # advances the low word, so streams cannot collide
    counter = np.array([0, stream & UINT64_MASK, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def chunk_moments(values: np.ndarray) -> tuple[int, float, float, float]:
    """(count, sum, mean, M2) of one chunk's per-trial values.

    ``sum`` is numpy's pairwise sum, which the pooled mean reads.  Mean and
    M2 (the pairwise sum of squared deviations) are taken relative to the
    first value, so a constant chunk has exactly that mean and M2 = 0.
    Works in place, without allocating: ``values`` is overwritten.
    """
    size = values.size
    total = float(values.sum())
    first = float(values[0])
    values -= first
    offset = float(values.sum()) / size
    values -= offset
    np.square(values, out=values)
    return size, total, first + offset, float(values.sum())


def run_chunked_trials(
    run_chunk: Callable[[int, int], np.ndarray],
    trials: int,
    workers: int,
) -> tuple[float, float]:
    """Map ``run_chunk(index, size) -> per-trial values``; pool mean and std error."""
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got {trials}")
    sizes = chunk_sizes(trials)

    def moments(index: int, size: int) -> tuple[int, float, float, float]:
        return chunk_moments(run_chunk(index, size))

    if workers == 1 or len(sizes) == 1:
        results = [moments(i, size) for i, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(moments, range(len(sizes)), sizes))
    mean = math.fsum(r[1] for r in results) / trials
    count, _, run_mean, m2 = results[0]
    for size, _, chunk_mean, chunk_m2 in results[1:]:
        total = count + size
        delta = chunk_mean - run_mean
        run_mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    return mean, math.sqrt(m2 / (trials - 1) / trials)
