"""Closed forms from the paper that the tests use as cross-checks.

The program evaluates every snapshot QFI through ``coefficient_c`` and
``snapshot_qfi_werner``; these special-case forms (perfect links, one
shared Werner parameter, explicit GHZ-basis weights) restate the paper's
equations so that the tests can check the general code against them.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from entnet.core import (
    EigenSpec,
    GhzPartition,
    _check_partition,
    _validate_werner_params,
)


@dataclass(frozen=True)
class GhzDiagonalCoeffs:
    """The two GHZ-basis weights that drive the QFI of a projected group.

    ``e00`` weighs the GHZ projector itself and ``e10`` its Z-flipped
    partner; all other GHZ-basis weights cancel pairwise in the QFI.
    """

    e00: float
    e10: float


def ghz_coeffs_equal(x: float, n: int) -> GhzDiagonalCoeffs:
    """GHZ-basis weights for n links sharing one Werner parameter x."""
    if n < 2:
        raise ValueError(f"a GHZ group needs n >= 2, got {n}")
    _validate_werner_params([x])
    spread = ((1.0 + x) ** n + (1.0 - x) ** n) / 2.0**n
    return GhzDiagonalCoeffs(0.5 * (x**n + spread), 0.5 * (-(x**n) + spread))


def ghz_coeffs_mixed(xs: Sequence[float], n: int) -> GhzDiagonalCoeffs:
    """GHZ-basis weights for n links with per-link Werner parameters."""
    if n < 2:
        raise ValueError(f"a GHZ group needs n >= 2, got {n}")
    if len(xs) != n:
        raise ValueError(f"expected {n} Werner parameters, got {len(xs)}")
    _validate_werner_params(xs)
    diff = math.prod(xs)
    total = math.prod((1.0 + x) / 2.0 for x in xs) + math.prod((1.0 - x) / 2.0 for x in xs)
    return GhzDiagonalCoeffs(0.5 * (total + diff), 0.5 * (total - diff))


def coefficient_c_uniform(x: float, n: int) -> float:
    """Uniform-fidelity C coefficient, 2^n x^(2n) / ((1-x)^n + (1+x)^n)."""
    if n < 2:
        raise ValueError(f"a GHZ group needs n >= 2, got {n}")
    _validate_werner_params([x])
    return 2.0**n * x ** (2 * n) / ((1.0 - x) ** n + (1.0 + x) ** n)


def snapshot_qfi_pure(
    sensors: int, partition: GhzPartition, eig: EigenSpec = EigenSpec()
) -> float:
    """QFI of a snapshot probe built from perfect links.

    Every group of size n contributes n^2 - n on top of the S baseline of
    the all-local probe; the empty partition therefore gives gap^2 / S.
    """
    _check_partition(sensors, partition)
    acc = float(sensors)
    for n in partition.group_sizes:
        acc += n * n - n
    return eig.gap_squared * acc / (sensors * sensors)
