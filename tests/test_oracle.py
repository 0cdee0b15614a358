"""Tests for the dense density-matrix oracle."""

import itertools
import math

import numpy as np
import pytest

from entnet import (
    DenseState,
    EigenSpec,
    GhzPartition,
    PhaseVector,
    apply_phases,
    build_probe,
    build_werner,
    ghz_project,
    measurement_cfi,
    qfi_theta,
    local_cfi,
    LocalCfiInput,
    qfim,
    snapshot_qfi_werner,
    sld_operator,
    sld_povm,
)
from entnet.errors import SizeLimitError
from entnet.oracle import _POVM_TOL, _certified_positive, _validate_povm
from paper_equations import coefficient_c_uniform, ghz_coeffs_equal, ghz_coeffs_mixed


def ghz_vec(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def plus_povm(sensors):
    """Rank-1 |+/-> product measurement on every qubit."""
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    elems = []
    for bits in itertools.product((0, 1), repeat=sensors):
        v = np.ones(1)
        for b in bits:
            v = np.kron(v, minus if b else plus)
        elems.append(np.outer(v, v).astype(complex))
    return elems


def reference_qfim(probe, eig=EigenSpec()):
    """Full-eigenbasis pair loop over every column, in complex arithmetic."""
    sensors = probe.num_qubits
    evals, evecs = np.linalg.eigh(probe.matrix.astype(complex))
    idx = np.arange(probe.dim)
    esum = evals[:, None] + evals[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(esum > 1e-14, (evals[:, None] - evals[None, :]) / esum, 0.0)
    weight = 4.0 * evals[None, :] * ratio**2
    mats = []
    for s in range(sensors):
        bit = (idx >> (sensors - 1 - s)) & 1
        gen = np.where(bit == 0, eig.lambda0, eig.lambda1)
        mats.append(evecs.conj().T @ (gen[:, None] * evecs))
    out = np.empty((sensors, sensors))
    for a in range(sensors):
        for b in range(sensors):
            out[a, b] = np.sum(weight * mats[a] * mats[b].conj()).real
    return out


def fresh_eigh_qfim(probe, eig=EigenSpec()):
    """qfim's arithmetic, step by step, on a fresh ``eigh`` of probe.matrix."""
    sensors, dim = probe.num_qubits, probe.dim
    mat = probe.matrix
    if not mat.imag.any():
        mat = np.ascontiguousarray(mat.real)
    evals, evecs = np.linalg.eigh(mat)
    support = evals > 1e-14
    e_supp = evals[support]
    idx = np.arange(dim)
    spins = np.array([1.0 - 2.0 * ((idx >> (sensors - 1 - s)) & 1) for s in range(sensors)])
    gens = (-0.5 * eig.delta_lambda) * spins
    scaled = gens.T[:, :, None] * evecs[:, support][:, None, :]
    mats = (evecs.conj().T @ scaled.reshape(dim, -1)).reshape(dim, sensors, -1)
    esum = evals[:, None] + e_supp[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(esum > 1e-14, (evals[:, None] - e_supp[None, :]) / esum, 0.0)
    root_weight = 2.0 * np.sqrt(e_supp)[None, :] * np.abs(ratio)
    rows = (mats * root_weight[:, None, :]).transpose(1, 0, 2).reshape(sensors, -1)
    out = (rows @ rows.conj().T).real
    return 0.5 * (out + out.T)


def perturbed_povm(rng, dim, c, complex_, parts=2):
    """A projective POVM whose first element has least eigenvalue -c * _POVM_TOL.

    The first element loses c * tol along a direction w outside its range
    and the second gains it, so the elements still sum to the identity.
    """
    raw = rng.normal(size=(dim, dim))
    if complex_:
        raw = raw + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(raw)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    cols = np.split(np.arange(dim), cuts)
    elems = [basis[:, idx] @ basis[:, idx].conj().T for idx in cols]
    w = basis[:, cols[1]] @ rng.normal(size=len(cols[1]))
    w = w / np.linalg.norm(w)
    kick = (c * _POVM_TOL) * np.outer(w, w.conj())
    elems[0] = elems[0] - kick
    elems[1] = elems[1] + kick
    return elems


def mean_generator(sensors, eig=EigenSpec()):
    dim = 2**sensors
    idx = np.arange(dim)
    h = np.zeros(dim)
    for s in range(sensors):
        bit = (idx >> (sensors - 1 - s)) & 1
        h += np.where(bit == 0, eig.lambda0, eig.lambda1) / sensors
    return np.diag(h).astype(complex)


class TestPhaseVector:
    def test_theta_is_the_mean(self):
        phis = PhaseVector((0.2, 0.4, 0.9))
        assert phis.theta == pytest.approx(0.5, abs=1e-15)
        assert len(phis) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhaseVector((0.1, float("nan")))


class TestDenseState:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DenseState(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DenseState(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DenseState(np.diag([1.5, -0.5]))

    def test_qubit_cap(self):
        with pytest.raises(SizeLimitError):
            DenseState(np.broadcast_to(np.zeros((1, 1)), (2**13, 2**13)))

    def test_rejects_complex_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DenseState(np.array([[0.5, 0.8j], [-0.8j, 0.5]]))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_rejects_nan(self, entry):
        mat = np.eye(2) / 2
        mat[entry] = np.nan
        with pytest.raises(ValueError):
            DenseState(mat)

    def test_keeps_complex_dtype_for_real_input(self):
        assert DenseState(np.eye(2) / 2).matrix.dtype == complex

    def test_owns_a_read_only_copy(self):
        sensors = 4
        phis = PhaseVector.zeros(sensors)
        mat = build_probe(sensors, GhzPartition((3,), sensors), [[0.9, 0.8, 0.95]]).matrix.copy()
        state = DenseState(mat)
        before, qfi = state.matrix.copy(), qfim(state, phis)
        mat[:] = np.eye(2**sensors) / 2**sensors
        np.testing.assert_array_equal(state.matrix, before)
        np.testing.assert_array_equal(qfim(state, phis), qfi)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            apply_phases(state, PhaseVector((0.3,) * sensors)).matrix[0, 0] = 1.0


class TestBuildWerner:
    def test_pure_bell(self):
        state = build_werner(1.0)
        evals = np.linalg.eigvalsh(state.matrix)
        np.testing.assert_allclose(sorted(evals), [0, 0, 0, 1], atol=1e-14)

    def test_fully_mixed(self):
        np.testing.assert_allclose(build_werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_fidelity_relation(self):
        bell = ghz_vec(2)
        state = build_werner(0.8)
        fid = (bell.conj() @ state.matrix @ bell).real
        assert fid == pytest.approx((3 * 0.8 + 1) / 4, abs=1e-14)


class TestGhzProject:
    def test_pure_links_give_ghz(self):
        sigma = ghz_project([build_werner(1.0)] * 2, 2)
        np.testing.assert_allclose(sigma.matrix, np.outer(ghz_vec(2), ghz_vec(2)), atol=1e-14)

    def test_matches_full_tensor_contraction(self):
        # Literal bra-ket contraction of the 2n-qubit tensor product, as an
        # independent check of the per-link block construction.
        for xs in [(0.8, 0.8), (0.9, 0.7), (0.95, 0.6, 0.8), (1.0, 0.5, 0.25, 0.75)]:
            n = len(xs)
            links = [build_werner(x) for x in xs]
            full = np.ones((1, 1), dtype=complex)
            for link in links:
                full = np.kron(full, link.matrix)
            # qubit order A1 B1 A2 B2 ...; hub qubits sit at the odd slots
            tensor = full.reshape((2,) * (4 * n))
            g = ghz_vec(n).reshape((2,) * n)
            row_b = [2 * i + 1 for i in range(n)]
            step1 = np.tensordot(tensor, g.conj(), axes=(row_b, list(range(n))))
            # remaining axes: A rows (n of them), then the 2n column axes;
            # the hub column axes now sit at positions n+1, n+3, ...
            col_b = [n + 2 * i + 1 for i in range(n)]
            step2 = np.tensordot(step1, g, axes=(col_b, list(range(n))))
            sigma_ref = step2.reshape(2**n, 2**n)
            sigma_ref = sigma_ref / np.trace(sigma_ref).real
            got = ghz_project(links, n)
            np.testing.assert_allclose(got.matrix, sigma_ref, atol=1e-13)

    @pytest.mark.parametrize("x,n", [(0.8, 2), (0.8, 3), (0.5, 4)])
    def test_diagonal_weights_match_closed_form(self, x, n):
        sigma = ghz_project([build_werner(x)] * n, n)
        g = ghz_vec(n)
        gz = g.copy()
        gz[-1] *= -1
        coeffs = ghz_coeffs_equal(x, n)
        assert (g.conj() @ sigma.matrix @ g).real == pytest.approx(coeffs.e00, abs=1e-13)
        assert (gz.conj() @ sigma.matrix @ gz).real == pytest.approx(coeffs.e10, abs=1e-13)

    def test_mixed_diagonal_weights(self):
        xs = [0.9, 0.7, 0.8]
        sigma = ghz_project([build_werner(x) for x in xs], 3)
        g = ghz_vec(3)
        gz = g.copy()
        gz[-1] *= -1
        coeffs = ghz_coeffs_mixed(xs, 3)
        e00 = (g.conj() @ sigma.matrix @ g).real
        e10 = (gz.conj() @ sigma.matrix @ gz).real
        assert e00 == pytest.approx(coeffs.e00, abs=1e-12)
        assert e10 == pytest.approx(coeffs.e10, abs=1e-12)
        assert e00 - e10 == pytest.approx(np.prod(xs), abs=1e-12)

    def test_product_difference_identity_n2(self):
        sigma = ghz_project([build_werner(0.9), build_werner(0.7)], 2)
        g = ghz_vec(2)
        gz = g.copy()
        gz[-1] *= -1
        diff = (g.conj() @ sigma.matrix @ g).real - (gz.conj() @ sigma.matrix @ gz).real
        assert diff == pytest.approx(0.63, abs=1e-13)

    def test_ghz_basis_diagonality(self):
        # The projected state commutes with the GHZ-basis projector set.
        n = 3
        sigma = ghz_project([build_werner(0.8)] * n, n).matrix
        basis = []
        g = ghz_vec(n)
        z1 = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
        xs = [
            np.kron(np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)), np.eye(2)),
            np.kron(np.kron(np.eye(2), np.array([[0, 1], [1, 0]])), np.eye(2)),
        ]
        for j in (0, 1):
            for i1 in (0, 1):
                for i2 in (0, 1):
                    v = np.linalg.matrix_power(z1, j) @ g
                    if i1:
                        v = xs[0] @ v
                    if i2:
                        v = xs[1] @ v
                    basis.append(v)
        basis = np.array(basis)
        overlap = basis.conj() @ sigma @ basis.T
        off_diag = overlap - np.diag(np.diag(overlap))
        assert np.max(np.abs(off_diag)) < 1e-12


class TestApplyPhases:
    def test_zero_phases_identity(self):
        probe = build_werner(0.8)
        np.testing.assert_allclose(
            apply_phases(probe, PhaseVector.zeros(2)).matrix, probe.matrix, atol=1e-15
        )

    def test_unitarity_preserves_spectrum(self):
        rng = np.random.default_rng(11)
        probe = build_probe(3, GhzPartition((2,), 3), [[0.85, 0.9]])
        phis = PhaseVector(tuple(rng.uniform(-3, 3, 3)))
        evolved = apply_phases(probe, phis)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(evolved.matrix), np.linalg.eigvalsh(probe.matrix), atol=1e-12
        )
        assert np.trace(evolved.matrix).real == pytest.approx(1.0, abs=1e-13)

    def test_single_qubit_phase(self):
        plus = DenseState(np.full((2, 2), 0.5, dtype=complex))
        phi = 0.7
        evolved = apply_phases(plus, PhaseVector((phi,)))
        # off-diagonal picks up e^{i phi}; |+> overlap is cos^2(phi/2)
        assert evolved.matrix[0, 1] == pytest.approx(0.5 * np.exp(1j * phi), abs=1e-14)
        overlap = np.full(2, 1 / math.sqrt(2)) @ evolved.matrix @ np.full(2, 1 / math.sqrt(2))
        assert overlap.real == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_phases(build_werner(0.9), PhaseVector.zeros(3))

    def test_carried_spectrum_rebuilds_matrix(self):
        rng = np.random.default_rng(5)
        probe = build_probe(5, GhzPartition((3, 2), 5), [[0.9, 0.8, 0.95], [0.85, 0.9]])
        phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, 5)))
        once = apply_phases(probe, phis)
        for state in (once, apply_phases(once, phis)):
            evals, evecs = state._spectrum
            rebuilt = (evecs * evals[None, :]) @ evecs.conj().T
            np.testing.assert_allclose(rebuilt, state.matrix, rtol=0, atol=1e-13)


class TestQfim:
    def test_product_plus_states(self):
        sensors = 3
        probe = build_probe(sensors, GhzPartition((), sensors), [])
        mat = qfim(probe, PhaseVector.zeros(sensors))
        np.testing.assert_allclose(mat, np.eye(sensors), atol=1e-12)

    def test_pure_ghz_rank_one(self):
        sensors = 3
        probe = build_probe(sensors, GhzPartition((sensors,), sensors), [[1.0] * sensors])
        mat = qfim(probe, PhaseVector.zeros(sensors))
        np.testing.assert_allclose(mat, np.ones((sensors, sensors)), atol=1e-12)
        assert np.linalg.matrix_rank(mat, tol=1e-9) == 1

    def test_block_structure_matches_coefficient(self):
        sensors = 4
        probe = build_probe(sensors, GhzPartition((2, 2), sensors), [[0.9, 0.9], [0.9, 0.9]])
        mat = qfim(probe, PhaseVector.zeros(sensors))
        c = coefficient_c_uniform((4 * 0.9 - 1) / 3, 2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = c
        expected[2:, 2:] = c
        np.testing.assert_allclose(mat, expected, atol=1e-11)

    def test_phase_independence(self):
        probe = build_probe(3, GhzPartition((3,), 3), [[0.8] * 3])
        a = qfim(probe, PhaseVector.zeros(3))
        b = qfim(probe, PhaseVector((0.2, -1.0, 0.5)))
        np.testing.assert_allclose(a, b, atol=1e-11)

    def test_complex_probe_matches_real_probe(self):
        sensors = 5
        probe = build_probe(sensors, GhzPartition((3, 2), sensors),
                            [[0.9, 0.8, 0.95], [0.85, 0.9]])
        phis = PhaseVector((0.4, -1.2, 0.7, 2.1, -0.3))
        evolved = apply_phases(probe, phis)
        assert np.abs(evolved.matrix.imag).max() > 0.1
        np.testing.assert_allclose(qfim(evolved, phis), qfim(probe, phis), rtol=0, atol=1e-13)

    def test_rank_deficient_probe_with_locals(self):
        sensors = 6
        part = GhzPartition((3, 2), sensors)
        fids = [[1.0, 0.9, 0.95], [0.85, 1.0]]
        probe = build_probe(sensors, part, fids)
        rank = int(np.sum(np.linalg.eigvalsh(probe.matrix) > 1e-14))
        assert rank <= probe.dim // 2
        mat = qfim(probe, PhaseVector.zeros(sensors))
        assert qfi_theta(mat) == pytest.approx(
            snapshot_qfi_werner(sensors, part, fids), abs=1e-12)
        np.testing.assert_allclose(mat, reference_qfim(probe), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(mat, mat.T)

    def test_bit_identical_to_fresh_eigh(self):
        eig = EigenSpec(0.3, -1.4)
        for sensors, sizes, fids in [(6, (3, 2), [[1.0, 0.9, 0.95], [0.85, 1.0]]),
                                     (5, (5,), [[0.8, 0.9, 0.85, 0.95, 0.75]])]:
            probe = build_probe(sensors, GhzPartition(sizes, sensors), fids)
            phis = PhaseVector(tuple(np.linspace(-2.0, 2.5, sensors)))
            by_hand = DenseState(apply_phases(probe, phis).matrix)
            assert by_hand.matrix.imag.any()
            for state in (probe, by_hand):
                np.testing.assert_array_equal(qfim(state, phis, eig), fresh_eigh_qfim(state, eig))

    def test_matches_full_eigenbasis_reference(self):
        eig = EigenSpec(0.3, -1.4)
        for sensors, sizes, fids in [(4, (2, 2), [[0.9, 0.7], [0.8, 0.95]]),
                                     (5, (5,), [[0.8, 0.9, 0.85, 0.95, 0.75]])]:
            probe = build_probe(sensors, GhzPartition(sizes, sensors), fids)
            got = qfim(probe, PhaseVector.zeros(sensors), eig)
            np.testing.assert_allclose(got, reference_qfim(probe, eig), rtol=0, atol=1e-13)


class TestQfiTheta:
    def test_identity_matrix(self):
        assert qfi_theta(np.eye(5)) == pytest.approx(1 / 5, abs=1e-15)

    def test_all_ones(self):
        assert qfi_theta(np.ones((3, 3))) == pytest.approx(1.0, abs=1e-15)

    def test_composition_matches_closed_form(self):
        sensors = 5
        part = GhzPartition((3, 2), sensors)
        fids = [[0.9] * 3, [0.9] * 2]
        probe = build_probe(sensors, part, fids)
        got = qfi_theta(qfim(probe, PhaseVector.zeros(sensors)))
        assert got == pytest.approx(snapshot_qfi_werner(sensors, part, fids), abs=1e-12)


class TestSldOperator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defining_equation_and_moments(self, seed):
        rng = np.random.default_rng(seed)
        sensors = 4
        part = GhzPartition((2,), sensors)
        fids = [[0.9, 0.75]]
        probe = build_probe(sensors, part, fids)
        phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
        sld = sld_operator(probe, phis)
        rho = apply_phases(probe, phis).matrix
        hbar = mean_generator(sensors)
        drho = -1j * (hbar @ rho - rho @ hbar)
        np.testing.assert_allclose(drho, 0.5 * (sld @ rho + rho @ sld), atol=1e-8)
        assert abs(np.trace(rho @ sld)) < 1e-10
        qfi = np.trace(rho @ sld @ sld).real
        assert qfi == pytest.approx(snapshot_qfi_werner(sensors, part, fids), abs=1e-8)

    def test_pure_ghz_eigenvectors_match_povm_vectors(self):
        sensors = 2
        probe = build_probe(sensors, GhzPartition((2,), sensors), [[1.0, 1.0]])
        phis = PhaseVector((0.4, -0.9))
        sld = sld_operator(probe, phis)
        evals, evecs = np.linalg.eigh(sld)
        from entnet import sld_povm

        povm = sld_povm(GhzPartition((2,), sensors), phis)
        # the two phase-sensitive projectors should be eigenvectors of L
        for proj in povm[:2]:
            vec = proj[:, np.argmax(np.diag(proj).real)]
            vec = vec / np.linalg.norm(vec)
            image = sld @ vec
            lam = vec.conj() @ image
            assert np.linalg.norm(image - lam * vec) < 1e-8


class TestMeasurementCfi:
    def test_local_povm_on_plus_products(self):
        sensors = 3
        probe = build_probe(sensors, GhzPartition((), sensors), [])
        phis = PhaseVector((0.3, 0.1, -0.2))
        cfi = measurement_cfi(probe, phis, plus_povm(sensors))
        assert cfi == pytest.approx(1 / sensors, rel=1e-6)

    def test_povm_validation(self):
        probe = build_probe(2, GhzPartition((), 2), [])
        with pytest.raises(ValueError):
            measurement_cfi(probe, PhaseVector.zeros(2), [np.eye(4) * 0.5])

    def test_complex_povm_validation_paths(self):
        part = GhzPartition((2,), 2)
        phis = PhaseVector((0.3, -0.8))
        probe = build_probe(2, part, [[0.9, 0.85]])
        povm = sld_povm(part, phis)
        assert np.abs(np.imag(povm)).max() > 0.1
        assert measurement_cfi(probe, phis, povm) > 0.0
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 3] = 1e-6j
        bad = {
            "at least one element": [],
            "shape": [e[:2, :2] for e in povm],
            "not Hermitian": [povm[0] + skew, povm[1] - skew, povm[2]],
            "positive semidefinite": [povm[0] + 2 * povm[1], -povm[1], povm[2]],
            "sum to the identity": povm[:2],
        }
        for message, elements in bad.items():
            with pytest.raises(ValueError, match=message):
                measurement_cfi(probe, phis, elements)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [4, 128])
    @pytest.mark.parametrize("c,certified,valid", [
        (0.0, True, True), (0.3, True, True), (0.6, False, True),
        (0.99, False, True), (1.01, False, False), (3.0, False, False),
    ])
    def test_positivity_certificate_edges(self, c, certified, valid, dim, complex_):
        rng = np.random.default_rng(dim + 7 * complex_)
        elems = perturbed_povm(rng, dim, c, complex_)
        stack = np.array(elems)
        assert np.iscomplexobj(stack) == complex_
        assert np.linalg.eigvalsh(stack).min() == pytest.approx(-c * _POVM_TOL, abs=1e-3 * _POVM_TOL)
        assert _certified_positive(stack) == certified
        if valid:
            _validate_povm(elems, dim)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                _validate_povm(elems, dim)

    def test_rejects_nan(self):
        element = np.eye(2) / 2
        element[0, 1] = np.nan
        with pytest.raises(ValueError):
            _validate_povm([element, np.eye(2) / 2], 2)

    def test_large_trace_falls_back_to_eigenvalues(self):
        identity = [np.eye(1024)]
        assert not _certified_positive(np.array(identity))
        _validate_povm(identity, 1024)

    def test_positivity_decision_matches_eigenvalue_check(self):
        rng = np.random.default_rng(31)
        decisions = set()
        for _ in range(200):
            dim = int(rng.choice([2, 4, 8, 16]))
            elems = perturbed_povm(rng, dim, rng.uniform(0.0, 2.0), bool(rng.integers(2)),
                                   parts=int(rng.integers(2, dim + 1)))
            expected = np.linalg.eigvalsh(np.array(elems)).min() >= -_POVM_TOL
            try:
                _validate_povm(elems, dim)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected
            decisions.add((accepted, _certified_positive(np.array(elems))))
        assert decisions == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("sensors,sizes,fids,phases", [
        (3, (2,), [[0.9, 0.8]], (0.3, -0.7, 1.1)),
        (4, (2, 2), [[0.95, 0.85], [0.8, 0.9]], (0.4, 0.9, -1.3, 0.2)),
        (5, (3, 2), [[0.9, 0.85, 0.95], [0.88, 0.92]], (0.5, -0.2, 0.8, 1.0, -0.6)),
        (5, (4,), [[0.9] * 4], (0.7, 0.1, -0.4, 0.3, 0.9)),
    ])
    def test_exact_derivative_matches_closed_forms(self, sensors, sizes, fids, phases):
        part = GhzPartition(sizes, sensors)
        phis = PhaseVector(phases)
        probe = build_probe(sensors, part, fids)
        xs = tuple(tuple((4 * f - 1) / 3 for f in g) for g in fids)
        local = local_cfi(LocalCfiInput(sensors, part, xs, phis))
        assert measurement_cfi(probe, phis, plus_povm(sensors)) == pytest.approx(local, abs=1e-12)
        qfi = snapshot_qfi_werner(sensors, part, fids)
        assert measurement_cfi(probe, phis, sld_povm(part, phis)) == pytest.approx(qfi, abs=1e-12)

    def test_information_inequality(self):
        rng = np.random.default_rng(21)
        for sizes, fids in [((2,), [[0.9, 0.8]]), ((3,), [[0.85] * 3]), ((), [])]:
            sensors = 4
            part = GhzPartition(sizes, sensors)
            probe = build_probe(sensors, part, fids)
            for _ in range(5):
                phis = PhaseVector(tuple(rng.uniform(-np.pi, np.pi, sensors)))
                qfi = qfi_theta(qfim(probe, phis))
                cfi = measurement_cfi(probe, phis, plus_povm(sensors))
                assert cfi <= qfi + 1e-6
