"""Closed-form quantum Fisher information for GHZ-diagonal probe states.

Probe states are built from Werner links shared between sensors and a
central hub: the hub projects disjoint groups of links into GHZ-diagonal
states held by the sensors, and every sensor without a grouped link probes
with a local |+> state.  The estimated quantity is the average of the
per-sensor phases, so the scalar QFI is the Jacobian contraction of the
QFI matrix with the uniform weight vector (1/S, ..., 1/S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "EigenSpec",
    "GhzPartition",
    "werner_from_fidelity",
    "fidelity_from_werner",
    "coefficient_c",
    "prefix_coefficients",
    "snapshot_qfi_werner",
    "snapshot_qfi_uniform",
]

# Werner parameter range reachable from fidelities in [0, 1].
_X_MIN = -1.0 / 3.0


@dataclass(frozen=True)
class EigenSpec:
    """Eigenvalues of the per-qubit generator h = diag(lambda0, lambda1).

    Only the gap ``delta_lambda`` enters any Fisher-information formula:
    the identity component of h cancels under conjugation.  lambda0 is
    retained so callers can state their Hamiltonian explicitly.  The
    default gap is 1, the constant scaling used throughout.
    """

    lambda0: float = 0.0
    lambda1: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda0) and math.isfinite(self.lambda1)):
            raise ValueError("eigenvalues must be finite")
        if self.lambda1 == self.lambda0:
            raise ValueError("eigenvalue gap must be nonzero (zero gap makes every QFI zero)")

    @property
    def delta_lambda(self) -> float:
        return self.lambda1 - self.lambda0

    @property
    def gap_squared(self) -> float:
        return self.delta_lambda * self.delta_lambda


def werner_from_fidelity(fidelity):
    """Werner parameter x = (4F - 1)/3 of a link of fidelity F.

    Works elementwise on arrays.  Unchecked: callers validate fidelities
    where they enter the program.
    """
    return (4.0 * fidelity - 1.0) / 3.0


def fidelity_from_werner(x: float) -> float:
    """Inverse map from Werner parameter to fidelity, F = (3x + 1)/4."""
    if not _X_MIN <= x <= 1.0:
        raise ValueError(f"Werner parameter must be in [-1/3, 1], got {x}")
    return (3.0 * x + 1.0) / 4.0


@dataclass(frozen=True)
class GhzPartition:
    """Sizes of the disjoint GHZ groups formed from successful links.

    ``group_sizes`` is stored canonically sorted non-increasing, so
    equality is multiset equality.  Sensors not covered by any group
    (``local_count`` of them) use local probes.  Group nu occupies the
    contiguous sensor slots starting at ``offsets()[nu]``.
    """

    group_sizes: tuple[int, ...]
    total_sensors: int

    def __post_init__(self) -> None:
        sizes = tuple(sorted((int(n) for n in self.group_sizes), reverse=True))
        object.__setattr__(self, "group_sizes", sizes)
        if any(n < 2 for n in sizes):
            raise ValueError(f"every GHZ group needs at least 2 links, got {sizes}")
        if self.total_sensors < 0:
            raise ValueError("total_sensors must be non-negative")
        if sum(sizes) > self.total_sensors:
            raise ValueError(
                f"groups {sizes} need {sum(sizes)} sensors but only "
                f"{self.total_sensors} are available"
            )

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def grouped_count(self) -> int:
        return sum(self.group_sizes)

    @property
    def local_count(self) -> int:
        """Number of sensors probing locally (u = S - sum of group sizes)."""
        return self.total_sensors - self.grouped_count

    def offsets(self) -> tuple[int, ...]:
        """Starting sensor index of each group (cumulative size prefix)."""
        out = []
        acc = 0
        for n in self.group_sizes:
            out.append(acc)
            acc += n
        return tuple(out)


def _validate_werner_params(xs: Sequence[float]) -> None:
    for x in xs:
        if not _X_MIN <= x <= 1.0:
            raise ValueError(f"Werner parameter must be in [-1/3, 1], got {x}")


def prefix_coefficients(xs: Iterable[float]) -> Iterator[float]:
    """C of each leading group xs[:1], xs[:2], ..., from one pass of running products.

    e00 - e10 is the product of the Werner parameters and e00 + e10 is
    prod((1 + x)/2) + prod((1 - x)/2); both reduce to the uniform-x closed
    forms when all parameters coincide.  Unchecked: ``coefficient_c``
    validates, and the grouping search feeds it validated links.
    """
    diff = plus = minus = 1.0
    for x in xs:
        diff *= x
        plus *= (1.0 + x) / 2.0
        minus *= (1.0 - x) / 2.0
        total = plus + minus
        # |diff| <= plus, because |x| <= (1 + x)/2 on the Werner range and
        # rounding keeps the order; so when both weights underflow to 0
        # (at x = 0 from n = 1075 on), diff and C are 0 too.
        yield diff * diff / total if total > 0.0 else 0.0


def coefficient_c(xs: Sequence[float], n: int) -> float:
    """QFI prefactor of an n-link GHZ group, C = (e00 - e10)^2 / (e00 + e10).

    Equals 1 for perfect links and decays with link mixedness; an n-group
    beats n local probes exactly when C > 1/n.
    """
    if n < 2:
        raise ValueError(f"a GHZ group needs n >= 2, got {n}")
    if len(xs) != n:
        raise ValueError(f"expected {n} Werner parameters, got {len(xs)}")
    _validate_werner_params(xs)
    for c in prefix_coefficients(xs):
        pass
    return c


def _check_partition(sensors: int, partition: GhzPartition) -> None:
    if partition.total_sensors != sensors:
        raise ValueError(
            f"partition is sized for {partition.total_sensors} sensors, not {sensors}"
        )


def snapshot_qfi_werner(
    sensors: int,
    partition: GhzPartition,
    fidelities_per_group: Sequence[Sequence[float]],
    eig: EigenSpec = EigenSpec(),
) -> float:
    """QFI of a snapshot probe built from Werner links.

    ``fidelities_per_group`` holds one fidelity per link, one sequence per
    GHZ group; group order is irrelevant (the QFI is a sum over groups)
    but the multiset of group lengths must match the partition.
    """
    _check_partition(sensors, partition)
    lengths = tuple(sorted((len(g) for g in fidelities_per_group), reverse=True))
    if lengths != partition.group_sizes:
        raise ValueError(
            f"fidelity groups of sizes {lengths} do not match partition {partition.group_sizes}"
        )
    acc = float(sensors)
    for group in fidelities_per_group:
        for f in group:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fidelity must be in [0, 1], got {f}")
        n = len(group)
        xs = [werner_from_fidelity(f) for f in group]
        acc += coefficient_c(xs, n) * n * n - n
    return eig.gap_squared * acc / (sensors * sensors)


def snapshot_qfi_uniform(
    sensors: int,
    partition: GhzPartition,
    fidelity: float,
    eig: EigenSpec = EigenSpec(),
) -> float:
    """Snapshot QFI when every link shares the same fidelity."""
    groups = [[fidelity] * n for n in partition.group_sizes]
    return snapshot_qfi_werner(sensors, partition, groups, eig)
