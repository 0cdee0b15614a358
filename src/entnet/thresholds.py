"""Fidelity thresholds below which a GHZ group loses to local probes.

An n-link group contributes more QFI than n local probes exactly when its
C coefficient exceeds 1/n; the boundary Werner parameter solves
2^n n x^(2n) = (1 + x)^n + (1 - x)^n on (0, 1).  The fidelities at which
one grouping of a few links overtakes another are found the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import fidelity_from_werner
from .errors import ConvergenceError
from .partitions import group_gains

__all__ = ["ThresholdResult", "solve_threshold", "grouping_region_edges"]

_SCAN_STEP = 1e-3
_BISECT_WIDTH = 1e-14
_CROSSOVER_WIDTH = 1e-13


@dataclass(frozen=True)
class ThresholdResult:
    n: int
    x_thres: float
    f_thres: float
    residual: float  # threshold equation mismatch relative to its right-hand side


def _gap(x: float, n: int) -> float:
    return 2.0**n * n * x ** (2 * n) - (1.0 + x) ** n - (1.0 - x) ** n


def _bisect(f: Callable[[float], float], lo: float, hi: float, width: float) -> float:
    """Halve a sign-change bracket of f until narrower than width; return its midpoint."""
    lo_negative = f(lo) < 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_threshold(n: int) -> ThresholdResult:
    """Solve the usefulness-threshold equation for group size n.

    A 0.001-grid scan over (0, 1) must find exactly one sign change
    (observed unique for 2 <= n <= 64); the bracket is then bisected to
    an interval width of 1e-14.  Bisection is used instead of Newton
    because the derivative has no clean form and robustness wins here.
    """
    if n < 2:
        raise ValueError(f"threshold is defined for n >= 2, got {n}")
    grid = [i * _SCAN_STEP for i in range(1, 1000)]
    values = [_gap(x, n) for x in grid]
    brackets = [
        (grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if (values[i] < 0.0) != (values[i + 1] < 0.0)
    ]
    if len(brackets) != 1:
        raise ConvergenceError(
            f"expected one sign change of the threshold equation for n={n}, "
            f"scan found {len(brackets)} in {brackets}"
        )
    lo, hi = brackets[0]
    x = _bisect(lambda v: _gap(v, n), lo, hi, _BISECT_WIDTH)
    rhs = (1.0 + x) ** n + (1.0 - x) ** n
    return ThresholdResult(
        n=n,
        x_thres=x,
        f_thres=fidelity_from_werner(x),
        residual=_gap(x, n) / rhs,
    )


def grouping_region_edges() -> list[float]:
    """Fidelity edges of the regions where the best grouping of 2..5 links is fixed.

    From 0.80 up: the triple and pair usefulness thresholds, then where one
    4-group overtakes a 3-group, a 3-group plus a pair, and where one 5-group
    overtakes a 4-group, each bisected on [0.84, 1]; 1.0 closes the last region.
    """

    def gain(f: float, sizes: tuple[int, ...]) -> float:
        gains = group_gains(f, max(sizes))
        return sum(gains[n] for n in sizes)

    def crossover(wins: tuple[int, ...], loses: tuple[int, ...]) -> float:
        return _bisect(lambda f: gain(f, wins) - gain(f, loses), 0.84, 1.0, _CROSSOVER_WIDTH)

    return [0.80, solve_threshold(3).f_thres, solve_threshold(2).f_thres,
            crossover((4,), (3,)), crossover((4,), (3, 2)), crossover((5,), (4,)), 1.0]
