"""Dense density-matrix ground truth for the closed forms.

Small-scale brute-force engine: Werner link construction, hub-side GHZ
projections, phase imprinting, QFI matrices from an eigendecomposition,
SLD operators and the Fisher information of explicit POVMs.  Everything
here is a pure function of its inputs and is meant as a test oracle, not
a production simulator; the qubit count is capped at 12.

Each ``DenseState`` is diagonalised once, when it is built: the positivity
check runs ``eigh`` (in real arithmetic whenever the matrix has no
imaginary part) and the state keeps the spectrum.  ``qfim`` and
``sld_operator`` read it, and ``apply_phases`` carries it through the
diagonal phase unitary without a new decomposition.  The probes are real
and rank-deficient, so the QFI matrix keeps only the eigenvectors in the
probe's support (Liu et al., J. Phys. A 53, 023001 (2020)).  POVM
positivity is certified by one batched Cholesky factorisation, with an
eigenvalue check as the fallback.  POVM outcome probabilities and their
derivatives come from one contraction of the stacked elements with the
state and its exact derivative along a common phase shift; nothing is
differenced.

Qubit convention: qubit 0 is the leftmost tensor factor (most significant
bit of the computational-basis index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EigenSpec, GhzPartition, werner_from_fidelity
from .errors import SizeLimitError

__all__ = [
    "MAX_QUBITS",
    "DenseState",
    "PhaseVector",
    "build_werner",
    "ghz_project",
    "build_probe",
    "apply_phases",
    "phase_diagonal",
    "qfim",
    "qfi_theta",
    "sld_operator",
    "measurement_cfi",
]

MAX_QUBITS = 12

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_TOL = 1e-12
_DEGENERACY_TOL = 1e-14
_POVM_TOL = 1e-10


def _real_if_exact(mat: np.ndarray) -> np.ndarray:
    """The real part of a complex array whose imaginary part is exactly zero.

    Real arithmetic halves the memory traffic of ``eigh``/``eigvalsh`` and
    needs about a quarter of the flops; any nonzero imaginary entry keeps
    the complex array, so nothing is dropped.
    """
    if np.iscomplexobj(mat) and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@dataclass(frozen=True)
class DenseState:
    """A validated density matrix on a register of qubits.

    The state owns a read-only complex copy of its matrix and keeps the
    ``eigh`` spectrum its positivity check computed, so the matrix is
    diagonalised once however many quantities are derived from it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"density matrix must be square, got shape {shape}")
        dim = shape[0]
        if dim & (dim - 1) or dim < 2:
            raise ValueError(f"dimension must be a power of two, got {dim}")
        if dim > 2**MAX_QUBITS:
            raise SizeLimitError(f"dense engine is capped at {MAX_QUBITS} qubits")
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if np.may_share_memory(mat, self.matrix):
            mat = mat.copy()
        # Every check reads `not (value <= tol)`, so a NaN fails it.
        if not np.max(np.abs(mat - mat.conj().T)) <= _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(mat)
        if not (abs(trace.real - 1.0) <= _TRACE_TOL and abs(trace.imag) <= _TRACE_TOL):
            raise ValueError("density matrix must have unit trace")
        evals, evecs = np.linalg.eigh(_real_if_exact(mat))
        if not evals.min() >= -_EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        _read_only(mat, evals, evecs)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_spectrum", (evals, evecs))

    def _conjugated(self, diag: np.ndarray) -> "DenseState":
        """diag(u) rho diag(u)^H for a unit-modulus u, with no new check.

        Conjugation by a unitary keeps Hermiticity, trace and the
        eigenvalues, and maps each eigenvector v to u * v.
        """
        evals, evecs = self._spectrum
        mat = (diag[:, None] * self.matrix) * diag.conj()[None, :]
        rotated = diag[:, None] * evecs
        _read_only(mat, rotated)
        out = object.__new__(type(self))
        object.__setattr__(out, "matrix", mat)
        object.__setattr__(out, "_spectrum", (evals, rotated))
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1


@dataclass(frozen=True)
class PhaseVector:
    """The per-sensor phases; the estimated quantity is their mean."""

    phis: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(p) for p in self.phis)
        if not all(math.isfinite(p) for p in vals):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phis", vals)

    def __len__(self) -> int:
        return len(self.phis)

    @property
    def theta(self) -> float:
        return sum(self.phis) / len(self.phis)

    @classmethod
    def zeros(cls, sensors: int) -> "PhaseVector":
        return cls((0.0,) * sensors)


_PLUS_PROJECTOR = np.full((2, 2), 0.5, dtype=complex)


def build_werner(x: float) -> DenseState:
    """Two-qubit Werner state x * Phi + (1 - x)/4 * I, sensor qubit first."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"Werner parameter must be in [0, 1], got {x}")
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1.0 / math.sqrt(2.0)
    mat = x * np.outer(bell, bell.conj()) + (1.0 - x) / 4.0 * np.eye(4)
    return DenseState(mat)


def ghz_project(links: Sequence[DenseState], n: int) -> DenseState:
    """Project the hub halves of n links onto the n-GHZ state.

    Each link is a two-qubit state ordered (sensor, hub).  The returned
    state lives on the n sensor qubits and is normalised by its trace,
    i.e. it is the conditional state given the corrected GHZ outcome.
    General two-qubit inputs are accepted, not only Werner states.
    """
    if n < 2:
        raise ValueError(f"a GHZ projection needs n >= 2 links, got {n}")
    if len(links) != n:
        raise ValueError(f"expected {n} links, got {len(links)}")
    if n > MAX_QUBITS:
        raise SizeLimitError(f"dense engine is capped at {MAX_QUBITS} qubits")
    for link in links:
        if link.dim != 4:
            raise ValueError("each link must be a two-qubit state")
    # The GHZ bra/ket touches only the all-zero and all-one hub strings, so
    # the projection factorises into per-link 2x2 sensor-side blocks
    # M[b, b'] = <b|_hub beta |b'>_hub and sigma = (1/2) sum_{b,b'} kron(M_i[b,b']).
    sigma = np.zeros((2**n, 2**n), dtype=complex)
    for b in (0, 1):
        for bp in (0, 1):
            acc = np.ones((1, 1), dtype=complex)
            for link in links:
                block = link.matrix.reshape(2, 2, 2, 2)[:, b, :, bp]
                acc = np.kron(acc, block)
            sigma += 0.5 * acc
    norm = np.trace(sigma).real
    if norm <= 0.0:
        raise ValueError("GHZ projection has zero probability for these links")
    return DenseState(sigma / norm)


def build_probe(
    sensors: int,
    partition: GhzPartition,
    fidelities_per_group: Sequence[Sequence[float]],
) -> DenseState:
    """Assemble the snapshot probe: projected groups tensored with |+> locals.

    Group order follows the canonical (non-increasing) partition order, so
    group nu occupies the sensor slots given by ``partition.offsets()``.
    """
    if partition.total_sensors != sensors:
        raise ValueError("partition sized for a different sensor count")
    if sensors > MAX_QUBITS:
        raise SizeLimitError(f"dense engine is capped at {MAX_QUBITS} qubits")
    groups = [tuple(g) for g in fidelities_per_group]
    if tuple(sorted((len(g) for g in groups), reverse=True)) != partition.group_sizes:
        raise ValueError("fidelity groups do not match the partition sizes")
    groups.sort(key=len, reverse=True)
    probe = np.ones((1, 1), dtype=complex)
    for group in groups:
        links = [build_werner(werner_from_fidelity(f)) for f in group]
        sigma = ghz_project(links, len(group))
        probe = np.kron(probe, sigma.matrix)
    for _ in range(partition.local_count):
        probe = np.kron(probe, _PLUS_PROJECTOR)
    return DenseState(probe)


def phase_diagonal(phis: PhaseVector, eig: EigenSpec = EigenSpec()) -> np.ndarray:
    """Diagonal of the phase-imprinting unitary U(phi).

    Per qubit the generator is h = -(gap/2) Z; the identity component is
    dropped because it cancels under conjugation.
    """
    sensors = len(phis)
    half = 0.5 * eig.delta_lambda
    diag = np.ones(1, dtype=complex)
    for phi in phis.phis:
        qubit = np.array([np.exp(1j * half * phi), np.exp(-1j * half * phi)])
        diag = np.einsum("i,j->ij", diag, qubit).reshape(-1)
    assert diag.shape[0] == 2**sensors
    return diag


def apply_phases(
    state: DenseState, phis: PhaseVector, eig: EigenSpec = EigenSpec()
) -> DenseState:
    """Conjugate a state by the local phase unitaries.

    The result keeps the input's eigenvalues and rotates its eigenvectors,
    so nothing is diagonalised or re-checked.
    """
    if state.num_qubits != len(phis):
        raise ValueError(
            f"state has {state.num_qubits} qubits but {len(phis)} phases were given"
        )
    return state._conjugated(phase_diagonal(phis, eig))


def _spins(sensors: int) -> np.ndarray:
    """Row s holds the Z eigenvalue of qubit s on every basis state.

    +1 for |0>, -1 for |1>; the local generator is -(gap/2) times a row,
    and the column sums z = S - 2 popcount give a common phase shift.
    """
    idx = np.arange(2**sensors)
    shifts = np.arange(sensors - 1, -1, -1)
    return 1.0 - 2.0 * ((idx[None, :] >> shifts[:, None]) & 1)


def qfim(probe: DenseState, phis: PhaseVector, eig: EigenSpec = EigenSpec()) -> np.ndarray:
    """QFI matrix of the phase-imprinted probe, one row/column per sensor.

    Uses the eigendecomposition formula with weights
    4 E_g ((E_g' - E_g) / (E_g' + E_g))^2 on the ordered pair (g', g);
    pairs whose eigenvalue sum falls below 1e-14 contribute nothing.
    Because the local generators commute with the imprinting unitary the
    result is independent of the phases.

    Only columns g in the support (E_g above the same 1e-14) are kept.
    The weight vanishes on the diagonal, so h_s may be taken as -(gap/2) Z,
    of norm |gap|/2; with non-negative eigenvalues the weight is at most
    4 E_g, so by Cauchy-Schwarz a dropped column moves any entry by at most
    gap^2 E_g, and the whole cut by at most gap^2 times the sum of the
    dropped eigenvalues (1e-14 gap^2 per dropped column).  With
    N_s = sqrt(weight) * <g'|h_s|g>, the matrix is Re(N N^H).
    """
    sensors = probe.num_qubits
    if len(phis) != sensors:
        raise ValueError("phase vector length must match the qubit count")
    dim = probe.dim
    evals, evecs = probe._spectrum
    support = evals > _DEGENERACY_TOL
    e_supp = evals[support]
    gens = (-0.5 * eig.delta_lambda) * _spins(sensors)
    # one GEMM for every sensor: mats[g', s, g] = <g'| h_s |g>, g in the support
    scaled = gens.T[:, :, None] * evecs[:, support][:, None, :]
    mats = (evecs.conj().T @ scaled.reshape(dim, -1)).reshape(dim, sensors, -1)
    del scaled
    esum = evals[:, None] + e_supp[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(esum > _DEGENERACY_TOL, (evals[:, None] - e_supp[None, :]) / esum, 0.0)
    root_weight = 2.0 * np.sqrt(e_supp)[None, :] * np.abs(ratio)
    mats *= root_weight[:, None, :]
    rows = mats.transpose(1, 0, 2).reshape(sensors, -1)
    out = (rows @ rows.conj().T).real
    return 0.5 * (out + out.T)


def qfi_theta(qfi_matrix: np.ndarray) -> float:
    """Scalar QFI for the mean phase: contraction with J = (1/S, ..., 1/S)."""
    mat = np.asarray(qfi_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("QFI matrix must be square")
    sensors = mat.shape[0]
    return float(mat.sum()) / (sensors * sensors)


def sld_operator(
    probe: DenseState, phis: PhaseVector, eig: EigenSpec = EigenSpec()
) -> np.ndarray:
    """Symmetric logarithmic derivative of the evolved state w.r.t. the mean phase.

    Satisfies d_theta rho = (L rho + rho L) / 2 with d_theta realised as the
    averaged phase derivative (1/S) sum_s d_phi_s; its eigenbasis is a
    QFI-attaining measurement.
    """
    sensors = probe.num_qubits
    if len(phis) != sensors:
        raise ValueError("phase vector length must match the qubit count")
    evals, evecs = apply_phases(probe, phis, eig)._spectrum
    hbar = (-0.5 * eig.delta_lambda) * _spins(sensors).mean(axis=0)
    hmat = evecs.conj().T @ (hbar[:, None] * evecs)
    esum = evals[:, None] + evals[None, :]
    ediff = evals[None, :] - evals[:, None]  # E_g' - E_g for entry [g, g']
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(esum > _DEGENERACY_TOL, -2j * ediff / esum, 0.0)
    return evecs @ (coeff * hmat) @ evecs.conj().T


def _certified_positive(elements: np.ndarray) -> bool:
    """True when one batched Cholesky factorisation proves each element PSD to -3τ/4.

    τ is ``_POVM_TOL``.  Cholesky and ``eigvalsh`` both read only the lower
    triangle and the real diagonal, so both see the same Hermitian H per
    element.  Let A = H + (τ/2) I, Â its floating-point value, t the
    computed sum of |Re Â_ii|, u the unit roundoff and g = γ_{4(d+1)}.
    If the factorisation of Â completes, Higham, *Accuracy and Stability
    of Numerical Algorithms* (2nd ed.), Thm 10.3 gives R^H R = Â + ΔA with
    |ΔA| <= g |R^H| |R|; its real constant γ_{d+1} is enlarged to g to
    cover complex arithmetic (Higham §3.6).  Then
    ||ΔA||_2 <= g ||R||_F^2 = g (tr Â + tr ΔA) <= g (t + g ||R||_F^2), so
    ||ΔA||_2 <= g t / (1 - g), and R^H R >= 0 gives λ_min(Â) >= -g t/(1 - g).
    Forming the shift moves each diagonal entry by at most u |Â_ii| and
    summing t loses at most a factor 1 - γ_d, so for d <= 2^12
    λ_min(H) >= -τ/2 - 2 g t.  The stack is accepted only when
    2 g t <= τ/4, which proves λ_min(H) >= -3τ/4 for every element.  The
    remaining τ/4 exceeds the rounding of ``eigvalsh`` itself, which is of
    order d u ||H||_2 <= d u t <= τ/32, so an accepted stack is one the
    eigenvalue test accepts.  Any other outcome (a failed factorisation, a
    large trace, a NaN) returns False and leaves the decision to it.
    """
    dim = elements.shape[-1]
    unit = 0.5 * np.finfo(float).eps
    gamma = 4 * (dim + 1) * unit / (1.0 - 4 * (dim + 1) * unit)
    shifted = elements + (0.5 * _POVM_TOL) * np.eye(dim)
    trace = np.abs(np.diagonal(shifted, axis1=1, axis2=2).real).sum(axis=1)
    if not 2.0 * gamma * trace.max() <= 0.25 * _POVM_TOL:
        return False
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _validate_povm(povm: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Stack a POVM as a (K, d, d) array and check it; real when exactly real."""
    if len(povm) == 0:
        raise ValueError("POVM must have at least one element")
    for shape in {np.shape(elem) for elem in povm}:
        if shape != (dim, dim):
            raise ValueError(f"POVM element has shape {shape}, expected {(dim, dim)}")
    elements = _real_if_exact(np.ascontiguousarray(povm, dtype=complex))
    if not np.max(np.abs(elements - elements.conj().transpose(0, 2, 1))) <= _POVM_TOL:
        raise ValueError("POVM element is not Hermitian")
    if not (_certified_positive(elements) or np.linalg.eigvalsh(elements).min() >= -_POVM_TOL):
        raise ValueError("POVM element is not positive semidefinite")
    if not np.max(np.abs(elements.sum(axis=0) - np.eye(dim))) <= _POVM_TOL:
        raise ValueError("POVM elements do not sum to the identity")
    return elements


def measurement_cfi(
    probe: DenseState,
    phis: PhaseVector,
    povm: Sequence[np.ndarray],
    eig: EigenSpec = EigenSpec(),
) -> float:
    """Classical Fisher information of a POVM's outcomes w.r.t. the mean phase.

    The derivative is exact: shifting every phase by s multiplies rho_ab by
    exp(i (gap/2) s (z_a - z_b)) with z = S - 2 popcount, so
    d rho/ds = i (gap/2) (z_a - z_b) rho_ab.  It is scaled by 1/S to match
    the mean-phase convention.  Probabilities and slopes come from one
    contraction of the stacked elements with rho and d rho/ds, O(K d^2);
    outcomes with probability at most 1e-12 are excluded from the quotient.
    """
    sensors = probe.num_qubits
    if len(phis) != sensors:
        raise ValueError("phase vector length must match the qubit count")
    elements = _validate_povm(povm, probe.dim)
    rho = apply_phases(probe, phis, eig).matrix
    z = _spins(sensors).sum(axis=0)
    drho = (0.5j * eig.delta_lambda) * (z[:, None] - z[None, :]) * rho
    # tr(E X) = sum_ab E_ab conj(X_ab) for Hermitian X; its real part is the
    # dot product of the (re, im) pairs, which keeps the GEMM real.
    states = np.stack([rho, drho]).reshape(2, -1)
    flat = elements.reshape(len(elements), -1)
    if np.iscomplexobj(flat):
        flat, states = flat.view(float), states.view(float)
    else:
        states = np.ascontiguousarray(states.real)
    probs, slopes = (flat @ states.T).T
    keep = probs > 1e-12
    dtheta = slopes[keep] / sensors
    return float(np.sum(dtheta * dtheta / probs[keep]))
