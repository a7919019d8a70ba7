"""Eigendecomposition ensembles and bipartite decompositions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_amplitudes
from qrsim import (
    CompositeSystem,
    InternalStateEnsemble,
    NumericalInvariantError,
    PureState,
    SchmidtDecomposition,
    ValidationError,
    partial_trace,
    possible_internal_states,
    reconstruct,
    schmidt_decompose,
)
from qrsim.hilbert import DensityMatrix
from qrsim.schmidt import _checked_eigen, _checked_ensembles


def pair_system():
    return CompositeSystem([("S1", 2), ("S2", 2)])


def density(comp_or_set, matrix):
    if isinstance(comp_or_set, CompositeSystem):
        comp_or_set = comp_or_set.subset(comp_or_set.labels)
    return DensityMatrix(comp_or_set, matrix)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


class TestPossibleInternalStates:
    def test_descending_order_and_aligned_vectors(self):
        comp = CompositeSystem([("A", 2)])
        ens = possible_internal_states(density(comp, np.diag([0.36, 0.64])))
        assert_allclose(ens.eigenvalues, [0.64, 0.36], atol=1e-15)
        # dominant state is the second basis vector, phase-fixed to +1
        assert_allclose(ens.vectors[:, 0], [0.0, 1.0], atol=1e-15)
        assert_allclose(ens.vectors[:, 1], [1.0, 0.0], atol=1e-15)
        assert not ens.degenerate
        assert list(ens.negligible) == [False, False]

    def test_states_and_projectors(self):
        comp = CompositeSystem([("A", 2)])
        ens = possible_internal_states(density(comp, np.diag([0.25, 0.75])))
        assert list(ens.eigenvalues) == pytest.approx([0.75, 0.25])
        p0, p1 = (np.outer(v, v.conj()) for v in ens.vectors.T)
        assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-15)
        assert_allclose(p0 + p1, np.eye(2), atol=1e-15)

    def test_negligible_flags(self):
        comp = CompositeSystem([("A", 2)])
        ens = possible_internal_states(density(comp, np.diag([1.0 - 1e-10, 1e-10])))
        assert list(ens.negligible) == [False, True]
        assert ens.eigenvalues[1] >= 0.0

    def test_maximally_mixed_is_degenerate_with_canonical_basis(self):
        comp = CompositeSystem([("A", 2)])
        ens = possible_internal_states(density(comp, np.eye(2) / 2))
        assert ens.degenerate
        assert_allclose(ens.vectors, np.eye(2), atol=1e-12)

    def test_degenerate_basis_depends_only_on_the_matrix(self):
        # the same mixed matrix assembled from two different in-cluster bases
        rng = np.random.default_rng(7)
        comp = CompositeSystem([("A", 3)])
        u = random_unitary(rng, 3)
        v0, v1, v2 = u[:, 0], u[:, 1], u[:, 2]
        w1 = (v1 + v2) / np.sqrt(2)
        w2 = (v1 - v2) / np.sqrt(2)

        def assemble(x1, x2):
            rho = 0.5 * np.outer(v0, v0.conj())
            rho += 0.25 * (np.outer(x1, x1.conj()) + np.outer(x2, x2.conj()))
            return density(comp, rho)

        e1 = possible_internal_states(assemble(v1, v2))
        e2 = possible_internal_states(assemble(w1, w2))
        assert e1.degenerate and e2.degenerate
        assert_allclose(e1.vectors, e2.vectors, atol=1e-7)
        for ens in (e1, e2):
            rho = assemble(v1, v2).matrix
            for k, lam in enumerate(ens.eigenvalues):
                assert_allclose(rho @ ens.vectors[:, k], lam * ens.vectors[:, k], atol=1e-9)

    def test_phase_canonicalization(self):
        rng = np.random.default_rng(8)
        comp = CompositeSystem([("A", 3)])
        u = random_unitary(rng, 3)
        rho = (u * np.array([0.5, 0.3, 0.2])) @ u.conj().T
        ens = possible_internal_states(density(comp, rho))
        for k in range(3):
            col = ens.vectors[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_tolerance_validation(self):
        comp = CompositeSystem([("A", 2)])
        rho = density(comp, np.eye(2) / 2)
        for bad in (0.0, -1e-9, 2e-3):
            with pytest.raises(ValidationError, match="tolerance"):
                possible_internal_states(rho, tolerance=bad)

    def test_requires_density_matrix(self):
        with pytest.raises(ValidationError, match="DensityMatrix"):
            possible_internal_states(np.eye(2) / 2)

    def test_ensemble_fields(self):
        comp = CompositeSystem([("A", 2)])
        ens = possible_internal_states(density(comp, np.diag([0.7, 0.3])))
        assert ens.subsystem.label == "A"
        assert ens.eigenvalues.tolist() == [0.7, 0.3]
        assert ens.vectors.shape == (2, 2)
        assert_allclose(np.abs(ens.vectors), np.eye(2), atol=1e-12)
        assert ens.negligible.tolist() == [False, False]
        assert ens.degenerate is False


class TestEnsembleValidation:
    def setup_method(self):
        self.sub = CompositeSystem([("A", 2)]).subset(["A"])

    def test_ascending_rejected(self):
        with pytest.raises(ValidationError, match="descending"):
            InternalStateEnsemble(self.sub, [0.3, 0.7], np.eye(2))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            InternalStateEnsemble(self.sub, [0.7, 0.7], np.eye(2))

    def test_non_orthonormal_rejected(self):
        vecs = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="orthonormal"):
            InternalStateEnsemble(self.sub, [0.5, 0.5], vecs)

    def test_misaligned_flags_rejected(self):
        with pytest.raises(ValidationError, match="flags"):
            InternalStateEnsemble(self.sub, [0.5, 0.5], np.eye(2), negligible=[False])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            InternalStateEnsemble(self.sub, [np.nan, np.nan], np.eye(2))
        with pytest.raises(ValidationError, match="orthonormal"):
            InternalStateEnsemble(self.sub, [0.5, 0.5], [[np.nan, 0.0], [0.0, 1.0]])


def random_ensembles(rng, d, count):
    """``count`` valid (descending eigenvalues, orthonormal columns) pairs, stacked."""
    vals = np.ascontiguousarray(np.sort(rng.dirichlet(np.ones(d), count), axis=-1)[:, ::-1])
    vecs = np.stack([random_unitary(rng, d) for _ in range(count)])
    return vals, vecs


class TestStackedEnsembles:
    """``_checked_ensembles`` checks once per stack, as each member's construction."""

    COUNT = 5
    BAD = 3  # the corrupted member

    def setup_method(self):
        self.sub = CompositeSystem([("A", 3), ("B", 2)]).subset(["A"])
        self.vals, self.vecs = random_ensembles(np.random.default_rng(11), 3, self.COUNT)
        self.vals[1, -1] = 0.0  # a negligible state
        self.vals[1] /= self.vals[1].sum()

    def test_clean_stack_equals_single_constructions(self):
        vals, negligible = _checked_ensembles(3, self.vals, self.vecs, 1e-9, None)
        assert vals.shape == negligible.shape == (self.COUNT, 3)
        for i in range(self.COUNT):
            alone = InternalStateEnsemble(self.sub, self.vals[i], self.vecs[i], 1e-9)
            for got, want in ((vals[i], alone.eigenvalues), (negligible[i], alone.negligible)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert negligible[1].tolist() == [False, False, True]

    def test_stack_holds_copies(self):
        # the containers built from a stack's rows keep their own copies
        ens = InternalStateEnsemble(self.sub, self.vals[0], self.vecs[0], 1e-9)
        before = ens.vectors.copy(), ens.eigenvalues.copy()
        self.vecs[0] = 0.0
        self.vals[0] = 0.0
        assert np.array_equal(ens.vectors, before[0])
        assert np.array_equal(ens.eigenvalues, before[1])
        assert not ens.vectors.flags.writeable

    @pytest.mark.parametrize(
        "corruption", ["order", "range", "sum", "gram", "nan value", "nan vector"]
    )
    def test_a_corrupt_member_raises_its_single_error(self, corruption):
        vals, vecs = self.vals[self.BAD], self.vecs[self.BAD]
        if corruption == "order":
            vals[:] = vals[::-1].copy()
        elif corruption == "range":
            vals[0] = 1.5
        elif corruption == "sum":
            vals *= 0.9
        elif corruption == "nan value":
            vals[1] = np.nan
        elif corruption == "nan vector":
            vecs[1, 1] = np.nan
        else:
            vecs[:, 0] *= 1.01
        with pytest.raises(ValidationError) as alone:
            InternalStateEnsemble(self.sub, vals, vecs, 1e-9)
        with pytest.raises(ValidationError) as stacked:
            _checked_ensembles(3, self.vals, self.vecs, 1e-9, None)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_a_corrupt_eigendecomposition_raises_its_single_error(self):
        self.vecs[self.BAD][:, 0] *= 1.01
        one = slice(self.BAD, self.BAD + 1)
        with pytest.raises(NumericalInvariantError) as alone:
            _checked_eigen(3, self.vals[one], self.vecs[one], 1e-9)
        with pytest.raises(NumericalInvariantError) as stacked:
            _checked_eigen(3, self.vals, self.vecs, 1e-9)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("eigendecomposition broke an invariant: ")


# ---------------------------------------------------------------------------


class TestSchmidtDecompose:
    def test_correlated_pair(self):
        psi = PureState(pair_system(), [0.6, 0.0, 0.0, 0.8])
        sd = schmidt_decompose(psi, "S1")
        assert_allclose(sd.coefficients, [0.8, 0.6], atol=1e-15)
        assert sd.rank == 2
        assert sd.left.labels == ("S1",) and sd.right.labels == ("S2",)
        # dominant pair is |1>|1>, pivots already positive
        assert_allclose(sd.left_basis[:, 0], [0.0, 1.0], atol=1e-15)
        assert_allclose(sd.right_basis[:, 0], [0.0, 1.0], atol=1e-15)

    def test_phases_move_into_the_right_basis(self):
        psi = PureState(pair_system(), [0.6, 0.0, 0.0, 0.8j])
        sd = schmidt_decompose(psi, "S1")
        assert_allclose(sd.coefficients, [0.8, 0.6], atol=1e-15)
        pivot = sd.left_basis[1, 0]
        assert abs(pivot.imag) < 1e-15 and pivot.real > 0
        assert_allclose(reconstruct(sd).amplitudes, psi.amplitudes, atol=1e-14)

    def test_product_state_rank_one(self):
        psi = PureState(pair_system(), np.kron([0.6, 0.8], [1.0, 0.0]))
        sd = schmidt_decompose(psi, "S1")
        assert sd.rank == 1
        assert sd.coefficients[0] == pytest.approx(1.0)
        assert sd.coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_multi_label_cut(self):
        comp = CompositeSystem([("S1", 2), ("S2", 3), ("S3", 2)])
        rng = np.random.default_rng(41)
        psi = PureState(comp, random_amplitudes(rng, 12))
        sd = schmidt_decompose(psi, ["S3", "S1"])
        assert sd.left.labels == ("S1", "S3")
        assert sd.right.labels == ("S2",)
        assert sd.coefficients.size == 3  # min(4, 3)
        assert_allclose(reconstruct(sd).amplitudes, psi.amplitudes, atol=1e-12)

    def test_random_states_spectra_and_reconstruction(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
            comp = CompositeSystem([(f"S{i}", d) for i, d in enumerate(dims, 1)])
            psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
            size = int(rng.integers(1, n))
            left = [comp.labels[i] for i in rng.choice(n, size=size, replace=False)]
            sd = schmidt_decompose(psi, left)

            recon = reconstruct(sd)
            assert abs(np.vdot(psi.amplitudes, recon.amplitudes)) ** 2 >= 1.0 - 1e-12
            assert_allclose(recon.amplitudes, psi.amplitudes, atol=1e-12)

            probs = sd.coefficients ** 2
            for side in (sd.left, sd.right):
                spectrum = np.sort(np.linalg.eigvalsh(partial_trace(psi, side).matrix))[::-1]
                assert_allclose(spectrum[: probs.size], probs, atol=1e-9)

            for k in range(sd.coefficients.size):
                col = sd.left_basis[:, k]
                pivot = col[int(np.argmax(np.abs(col)))]
                if sd.coefficients[k] > 1e-9:
                    assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rank_respects_tolerance(self):
        eps = 1e-6
        amps = np.array([1.0, 0.0, 0.0, eps]) / np.sqrt(1 + eps ** 2)
        psi = PureState(pair_system(), amps)
        assert schmidt_decompose(psi, "S1").rank == 2
        assert schmidt_decompose(psi, "S1", tolerance=1e-5).rank == 1

    def test_whole_system_cut_rejected(self):
        psi = PureState(pair_system(), [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="complement"):
            schmidt_decompose(psi, ["S1", "S2"])


class TestSchmidtValidation:
    def setup_method(self):
        comp = pair_system()
        self.left = comp.subset(["S1"])
        self.right = comp.subset(["S2"])

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="real"):
            SchmidtDecomposition(
                self.left, self.right, [0.8j, 0.6], np.eye(2), np.eye(2), rank=2
            )

    def test_ascending_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="descending"):
            SchmidtDecomposition(
                self.left, self.right, [0.6, 0.8], np.eye(2), np.eye(2), rank=2
            )

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError, match="rank"):
            SchmidtDecomposition(
                self.left, self.right, [0.8, 0.6], np.eye(2), np.eye(2), rank=1
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            SchmidtDecomposition(
                self.left, self.left, [1.0], np.eye(2)[:, :1], np.eye(2)[:, :1], rank=1
            )
