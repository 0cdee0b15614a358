"""Average QFI of the link-generation protocols on a star network.

Three ways to spend time slots: sense immediately with whatever links the
last attempt produced, accumulate successes over a fixed block of k slots,
or wait until at least mu sensors hold links.  Each protocol has an
analytic evaluation (closed form or truncated series) plus a seeded Monte
Carlo estimate used as a cross-check.  The snapshot QFI reads only link
counts, so each Monte Carlo trial samples those counts from their exact
law instead of simulating sensors slot by slot.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _mc
from .core import EigenSpec
from .errors import ConvergenceError
from .partitions import best_group_sizes, group_gains

__all__ = [
    "PartitionPolicy",
    "ProtocolKind",
    "LeftoverPolicy",
    "EstimateMethod",
    "NetworkConfig",
    "ProtocolSpec",
    "AvgQfiEstimate",
    "snapshot_distribution",
    "immediate_avg_qfi",
    "ftmbl_avg_qfi",
    "ftmbl_k_opt",
    "vtmbl_joint_prob",
    "vtmbl_avg_qfi",
    "vtmbl_mu_opt",
    "monte_carlo_avg_qfi",
    "qfi_upper_bound",
    "resolve_threads",
]

# The stopping-time series ends once the unsummed probability mass falls
# below _TAIL_TOL, and gives up with ConvergenceError after _MAX_TIMESTEPS.
_TAIL_TOL = 1e-10
_MAX_TIMESTEPS = 100_000


class PartitionPolicy(Enum):
    """How the hub groups the m successful links of a snapshot."""

    MAXIMAL = "maximal"  # one m-GHZ group (none if m < 2)
    OPTIMAL = "optimal"  # exact argmax over groupings


class ProtocolKind(Enum):
    IMMEDIATE = "immediate"
    FIXED_TMBL = "ftmbl"
    VARIABLE_TMBL = "vtmbl"


class LeftoverPolicy(Enum):
    """Whether redundant links are distilled, and what happens to an odd one.

    Under DISCARD an unpaired link is dropped; under KEEP it is delivered
    instead of "no link" when every fusion failed.
    """

    NONE = "none"  # no distillation
    DISCARD = "discard"
    KEEP = "keep"


class EstimateMethod(Enum):
    """How an average was obtained; every ``AvgQfiEstimate`` names what ran."""

    CLOSED_FORM = "closed_form"  # an explicit formula for the average
    TRUNCATED_SERIES = "truncated_series"  # stopping-time law summed to _TAIL_TOL
    MONTE_CARLO = "monte_carlo"  # sampled, with a standard error
    ENUMERATION = "enumeration"  # exact sum over link counts or count vectors


@dataclass(frozen=True)
class NetworkConfig:
    """Star-network parameters: sensor count, link success odds, link quality.

    ``link_prob`` may be 0, modelling a network that never entangles (the
    all-local limit); the variable-block protocol rejects that case since
    it would wait forever.
    """

    sensors: int
    link_prob: float
    fidelity: float = 1.0
    eig: EigenSpec = EigenSpec()

    def __post_init__(self) -> None:
        if self.sensors < 2:
            raise ValueError(f"need at least 2 sensors, got {self.sensors}")
        if not 0.0 <= self.link_prob <= 1.0:
            raise ValueError(f"link probability must be in [0, 1], got {self.link_prob}")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity must be in [0, 1], got {self.fidelity}")


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run and whether redundant links are distilled."""

    kind: ProtocolKind
    k: int = 1
    mu: int = 2
    distill_policy: LeftoverPolicy = LeftoverPolicy.NONE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"block length must be >= 1, got {self.k}")
        if self.kind is ProtocolKind.IMMEDIATE and self.k != 1:
            raise ValueError("immediate sensing is the k=1 block protocol")
        if self.kind is ProtocolKind.VARIABLE_TMBL:
            if self.mu < 2:
                raise ValueError(f"variable block length needs mu >= 2, got {self.mu}")
            if self.distill_policy is not LeftoverPolicy.NONE:
                raise ValueError("distillation is only defined for the fixed-block protocols")

    @classmethod
    def immediate(cls, distill_policy: LeftoverPolicy = LeftoverPolicy.NONE) -> "ProtocolSpec":
        return cls(ProtocolKind.IMMEDIATE, k=1, distill_policy=distill_policy)

    @classmethod
    def fixed_tmbl(
        cls, k: int, distill_policy: LeftoverPolicy = LeftoverPolicy.NONE
    ) -> "ProtocolSpec":
        return cls(ProtocolKind.FIXED_TMBL, k=k, distill_policy=distill_policy)

    @classmethod
    def variable_tmbl(cls, mu: int) -> "ProtocolSpec":
        return cls(ProtocolKind.VARIABLE_TMBL, mu=mu)


@dataclass(frozen=True)
class AvgQfiEstimate:
    """An average-QFI value with its provenance."""

    mean: float
    std_error: float = 0.0
    trials: int = 0
    seed: int | None = None
    method: EstimateMethod = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")
        if self.method is EstimateMethod.MONTE_CARLO and self.seed is None:
            raise ValueError("Monte Carlo estimates must record their seed")


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: explicit argument, then ENTNET_THREADS, then CPU count."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"thread count must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get("ENTNET_THREADS", "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"ENTNET_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def snapshot_distribution(sensors: int, p_eff: float) -> np.ndarray:
    """Binomial law of successes among ``sensors`` independent tries of odds p_eff.

    The linked sensors after one attempt round, and also one sensor's links
    over a block of k attempts (``snapshot_distribution(k, p)``).
    """
    if sensors < 1:
        raise ValueError(f"need at least 1 sensor, got {sensors}")
    if not 0.0 <= p_eff <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p_eff}")
    return np.array([_binomial_pmf(sensors, p_eff, m) for m in range(sensors + 1)])


def _binomial_pmf(n: int, p: float, m: int) -> float:
    """P(Binomial(n, p) = m), unchecked."""
    return math.comb(n, m) * p**m * (1.0 - p) ** (n - m)


def _qfi_by_link_count(
    sensors: int, fidelity: float, policy: PartitionPolicy, eig: EigenSpec
) -> np.ndarray:
    """Snapshot QFI as a function of the success count m, under a policy."""
    local = eig.gap_squared / sensors
    gains = group_gains(fidelity, sensors)
    if policy is PartitionPolicy.OPTIMAL:
        best_sizes = best_group_sizes(sensors, fidelity)
    out = np.empty(sensors + 1)
    out[0] = local
    if sensors >= 1:
        out[1] = local  # a single link cannot form a group and is discarded
    for m in range(2, sensors + 1):
        # snapshot_qfi_uniform's float operations: S plus each group's gain,
        # largest group first
        acc = float(sensors)
        for n in (m,) if policy is PartitionPolicy.MAXIMAL else best_sizes[m]:
            acc += gains[n]
        out[m] = eig.gap_squared * acc / (sensors * sensors)
    return out


def ftmbl_avg_qfi(
    cfg: NetworkConfig,
    k: int,
    partition_policy: PartitionPolicy = PartitionPolicy.MAXIMAL,
) -> AvgQfiEstimate:
    """Average QFI of the fixed-block protocol with block length k.

    The first k - 1 slots of each block sense locally; the final slot uses
    the accumulated links, whose count is binomial with effective success
    probability 1 - (1 - p)^k.  With perfect links and the maximal grouping
    this collapses to gap^2/S * (1 + (S-1) (1-(1-p)^k)^2 / k), labelled
    CLOSED_FORM; otherwise the sum over link counts is ENUMERATION.
    """
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    sensors = cfg.sensors
    gap2 = cfg.eig.gap_squared
    p_eff = 1.0 - (1.0 - cfg.link_prob) ** k
    if cfg.fidelity == 1.0 and partition_policy is PartitionPolicy.MAXIMAL:
        mean = gap2 / sensors * (1.0 + (sensors - 1) * p_eff**2 / k)
        return AvgQfiEstimate(mean=mean, method=EstimateMethod.CLOSED_FORM)
    local = gap2 / sensors
    qfi_by_m = _qfi_by_link_count(sensors, cfg.fidelity, partition_policy, cfg.eig)
    block = float(snapshot_distribution(sensors, p_eff) @ qfi_by_m)
    return AvgQfiEstimate(mean=((k - 1) * local + block) / k, method=EstimateMethod.ENUMERATION)


def immediate_avg_qfi(
    cfg: NetworkConfig,
    partition_policy: PartitionPolicy = PartitionPolicy.MAXIMAL,
) -> AvgQfiEstimate:
    """Average QFI when sensing right after every generation attempt."""
    return ftmbl_avg_qfi(cfg, 1, partition_policy)


def ftmbl_k_opt(p: float) -> int:
    """Best fixed block length for perfect links; depends only on p.

    Maximises (1 - (1-p)^k)^2 / k; ties resolve to the smaller k.  Block
    lengths above 1 only ever win for p < 2 - sqrt(2).  The objective is
    unimodal in k with its maximum below 1.26/p, so the answer is the first
    k whose successor is no better, found by bisection on [1, ceil(2/p)].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 1  # every k ties at 0 for p = 0; the objective is 1/k for p = 1

    log_q = math.log1p(-p)

    def declines(k: int) -> bool:
        # f(k+1) <= f(k) with a = 1 - q^k, rearranged so that no difference
        # of nearly equal terms is formed: k p q^k (2a + p q^k) <= a^2
        qk = math.exp(k * log_q)
        a = -math.expm1(k * log_q)
        return k * p * qk * (2.0 * a + p * qk) <= a * a

    lo, hi = 1, math.ceil(2.0 / p)
    while lo < hi:
        mid = (lo + hi) // 2
        if declines(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def vtmbl_joint_prob(sensors: int, p: float, mu: int, t: int, m: int) -> float:
    """Probability that the waiting protocol stops at slot t with m links.

    Stopping at t means fewer than mu sensors were linked after slot t - 1
    and m >= mu are linked after slot t; the sum runs over how many of the
    m final links appeared in the last slot.
    """
    if not 1 <= mu <= sensors:
        raise ValueError(f"need 1 <= mu <= sensors, got mu={mu}")
    if m < mu:
        raise ValueError(f"stopping requires m >= mu, got m={m}, mu={mu}")
    if m > sensors:
        raise ValueError(f"m cannot exceed the sensor count, got {m}")
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {p}")
    if t == 1:
        return _binomial_pmf(sensors, p, m)
    pbar = 1.0 - p
    tail = 0.0
    for j in range(m - mu + 1, m + 1):
        tail += (
            math.comb(m, j)
            * (1.0 - pbar ** (t - 1)) ** (m - j)
            * p**j
            * pbar ** (j * (t - 1))
        )
    return math.comb(sensors, m) * pbar ** ((sensors - m) * t) * tail


def _vtmbl_series(cfg: NetworkConfig, mu: int) -> float:
    sensors = cfg.sensors
    gap2 = cfg.eig.gap_squared
    local = gap2 / sensors
    qfi_m = {
        m: gap2 * (sensors - m + m * m) / (sensors * sensors)
        for m in range(mu, sensors + 1)
    }
    total = 0.0
    mass = 0.0
    for t in range(1, _MAX_TIMESTEPS + 1):
        for m in range(mu, sensors + 1):
            joint = vtmbl_joint_prob(sensors, cfg.link_prob, mu, t, m)
            mass += joint
            total += joint * ((t - 1) * local + qfi_m[m]) / t
        if 1.0 - mass < _TAIL_TOL:
            return total
    raise ConvergenceError(
        f"stopping-time series not converged after {_MAX_TIMESTEPS} slots "
        f"(residual mass {1.0 - mass:.3e})"
    )


def _vtmbl_closed_form(cfg: NetworkConfig, mu: int) -> float:
    """Series summed in closed form via the binomial expansion of the t-sum.

    Validated against the truncated series; the series is authoritative on
    any disagreement.
    """
    sensors = cfg.sensors
    p = cfg.link_prob
    pbar = 1.0 - p
    acc = 0.0
    for m in range(mu, sensors + 1):
        inner = 0.0
        for j in range(m - mu + 1, m + 1):
            for ell in range(m - j + 1):
                alpha = sensors - m + j + ell
                y = pbar**alpha
                weight = 1.0 if y == 0.0 else -math.log1p(-y) / y
                inner += (
                    math.comb(m, j)
                    * p**j
                    * (-1.0) ** ell
                    * math.comb(m - j, ell)
                    * weight
                )
        acc += math.comb(sensors, m) * (m * m - m) * pbar ** (sensors - m) * inner
    return cfg.eig.gap_squared * (sensors + acc) / (sensors * sensors)


def vtmbl_avg_qfi(
    cfg: NetworkConfig,
    mu: int,
    method: EstimateMethod = EstimateMethod.TRUNCATED_SERIES,
) -> AvgQfiEstimate:
    """Average QFI of the wait-for-mu-links protocol: TRUNCATED_SERIES or CLOSED_FORM.

    Both assume perfect links; Monte Carlo is ``monte_carlo_avg_qfi``.  mu
    of 0 or 1 never waits, which is the immediate protocol, and is
    delegated there.
    """
    if method not in (EstimateMethod.TRUNCATED_SERIES, EstimateMethod.CLOSED_FORM):
        raise ValueError(f"vtmbl_avg_qfi is analytic, not {method.name}; see monte_carlo_avg_qfi")
    if mu > cfg.sensors:
        raise ValueError(f"mu={mu} cannot exceed the sensor count {cfg.sensors}")
    if mu <= 1:
        return immediate_avg_qfi(cfg)
    if cfg.link_prob == 0.0:
        raise ValueError("the waiting protocol never stops when links cannot form")
    if cfg.fidelity != 1.0:
        raise ValueError("analytic waiting-protocol averages are defined for fidelity 1")
    evaluate = _vtmbl_series if method is EstimateMethod.TRUNCATED_SERIES else _vtmbl_closed_form
    return AvgQfiEstimate(mean=evaluate(cfg, mu), method=method)


def vtmbl_mu_opt(
    sensors: int,
    p: float,
    eig: EigenSpec = EigenSpec(),
) -> int:
    """Best waiting threshold mu in [2, sensors]; ties go to the smaller mu."""
    if sensors < 2:
        raise ValueError(f"need at least 2 sensors, got {sensors}")
    cfg = NetworkConfig(sensors, p, 1.0, eig)
    best_mu, best_val = 2, -math.inf
    for mu in range(2, sensors + 1):
        val = vtmbl_avg_qfi(cfg, mu).mean
        if val > best_val:
            best_mu, best_val = mu, val
    return best_mu


def qfi_upper_bound(sensors: int, p: float) -> float:
    """Average QFI if every attempt either links all sensors or none.

    At unit gap (multiply by gap^2 for others) it bounds the fixed-block
    protocols, since p_eff^2 <= p_eff <= k p.  The waiting protocol
    averages ((T-1) local + h(M)) / T per block; at S=2, where E[1/T] > p,
    it exceeds this bound by up to 2.5%.
    """
    if sensors < 1:
        raise ValueError(f"need at least 1 sensor, got {sensors}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    return ((sensors - 1) * p + 1.0) / sensors


# --- Monte Carlo -----------------------------------------------------------


def _mc_block_protocol(
    cfg: NetworkConfig,
    k: int,
    qfi_by_m: np.ndarray,
    trials: int,
    seed: int,
    threads: int | None,
) -> tuple[float, float]:
    """Each trial draws the block's link count M ~ Binomial(S, 1 - (1-p)^k)."""
    sensors, p = cfg.sensors, cfg.link_prob
    local = cfg.eig.gap_squared / sensors
    p_eff = 1.0 if p == 1.0 else -math.expm1(k * math.log1p(-p))
    stream = _mc.instance_stream("block", sensors, p, cfg.fidelity, k)

    def run_chunk(index: int, size: int) -> np.ndarray:
        gen = _mc.chunk_generator(seed, index, stream)
        return ((k - 1) * local + qfi_by_m[gen.binomial(sensors, p_eff, size)]) / k

    return _mc.run_chunked_trials(run_chunk, trials, resolve_threads(threads))


def _mc_waiting_protocol(
    cfg: NetworkConfig,
    mu: int,
    qfi_by_m: np.ndarray,
    trials: int,
    seed: int,
    threads: int | None,
) -> tuple[float, float]:
    """Each trial draws its stopping slot T and link count M directly.

    A sensor whose uniform is V first links at slot ceil(ln V / ln(1-p)), so
    T is the slot of W, the mu-th largest of the S uniforms, and
    W ~ Beta(S - mu + 1, mu).  Given W the other S - mu uniforms are iid on
    (0, W), and each is linked by slot T with odds 1 - (1-p)^T / W.
    """
    sensors, p = cfg.sensors, cfg.link_prob
    local = cfg.eig.gap_squared / sensors
    log_q = -math.inf if p == 1.0 else math.log1p(-p)
    stream = _mc.instance_stream("waiting", sensors, p, cfg.fidelity, mu)

    def run_chunk(index: int, size: int) -> np.ndarray:
        gen = _mc.chunk_generator(seed, index, stream)
        log_w = np.log(gen.beta(sensors - mu + 1, mu, size))
        stop_t = np.maximum(1.0, np.ceil(log_w / log_q))
        # ln((1-p)^T / W) <= 0 up to rounding
        late = -np.expm1(np.minimum(stop_t * log_q - log_w, 0.0))
        stop_m = mu + gen.binomial(sensors - mu, late)
        return ((stop_t - 1) * local + qfi_by_m[stop_m]) / stop_t

    return _mc.run_chunked_trials(run_chunk, trials, resolve_threads(threads))


def monte_carlo_avg_qfi(
    cfg: NetworkConfig,
    spec: ProtocolSpec,
    partition_policy: PartitionPolicy = PartitionPolicy.MAXIMAL,
    *,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> AvgQfiEstimate:
    """Estimate a protocol's average per-slot QFI by sampling its link counts.

    Each trial is one sensing block (k slots, or the random wait for mu
    links) and contributes the block's per-slot QFI average, matching the
    analytic definitions.  A trial never steps through slots: it draws the
    block's link count (binomial), the stopping slot and link count of the
    wait (a Beta order statistic plus a binomial), or how many sensors end
    on each distilled fidelity (multinomial), so its cost does not grow
    with k or 1/p.  Results are deterministic for a fixed (seed, trials)
    pair whatever the thread count.  This is the one Monte Carlo entry
    point, and it checks every input: a 64-bit seed, at least 2 trials,
    mu <= S and p > 0 to wait, MAXIMAL grouping to distill.
    """
    if seed is None or not 0 <= seed <= _mc.UINT64_MASK:
        raise ValueError(f"Monte Carlo needs a seed in [0, 2**64), got {seed}")
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got {trials}")
    if spec.distill_policy is not LeftoverPolicy.NONE:
        if partition_policy is not PartitionPolicy.MAXIMAL:
            raise ValueError(
                "distilled Monte Carlo groups every linked sensor; "
                f"{partition_policy.name} grouping with distillation is not defined"
            )
        from .distillation import _mc_distilled_protocol

        mean, err = _mc_distilled_protocol(cfg, spec.k, spec.distill_policy, trials, seed, threads)
    else:
        qfi_by_m = _qfi_by_link_count(cfg.sensors, cfg.fidelity, partition_policy, cfg.eig)
        if spec.kind is ProtocolKind.VARIABLE_TMBL:
            if spec.mu > cfg.sensors:
                raise ValueError(
                    f"mu={spec.mu} cannot exceed the sensor count {cfg.sensors}"
                )
            if cfg.link_prob == 0.0:
                raise ValueError("the waiting protocol never stops when links cannot form")
            mean, err = _mc_waiting_protocol(
                cfg, spec.mu, qfi_by_m, trials, seed, threads
            )
        else:
            mean, err = _mc_block_protocol(cfg, spec.k, qfi_by_m, trials, seed, threads)
    return AvgQfiEstimate(
        mean=mean,
        std_error=err,
        trials=trials,
        method=EstimateMethod.MONTE_CARLO,
        seed=seed,
    )
