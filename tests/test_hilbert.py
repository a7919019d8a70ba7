"""Composite-space plumbing: layout, validation, evolution, reduction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import brute_partial_trace, kron_embedded, random_amplitudes, random_dims
from qrsim import (
    CompositeSystem,
    DensityMatrix,
    LocalOperator,
    NumericalInvariantError,
    PureState,
    SubsystemSet,
    ValidationError,
    apply,
    as_subsystem_set,
    partial_trace,
)
from qrsim.hilbert import permute_operator_factors, permute_vector_factors


def make_composite(dims, prefix="S"):
    return CompositeSystem([(f"{prefix}{i}", d) for i, d in enumerate(dims, 1)])


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


class TestCompositeSystem:
    def test_layout_accessors(self):
        comp = CompositeSystem([("A", 2), ("B", 3), ("C", 2)])
        assert comp.labels == ("A", "B", "C")
        assert comp.dims == (2, 3, 2)
        assert comp.total_dim == 12
        assert comp.axis("B") == 1
        assert comp.dim_of("C") == 2

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            CompositeSystem([("A", 2), ("A", 3)])

    def test_label_with_a_plus_rejected(self):
        # '+' joins labels in system expressions, so no expression could name it
        with pytest.raises(ValidationError, match=r"label 'P\+Q' contains '\+'"):
            CompositeSystem([("P+Q", 2), ("R", 2)])

    def test_trivial_dimension_rejected(self):
        with pytest.raises(ValidationError, match="dimension"):
            CompositeSystem([("A", 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CompositeSystem([])

    def test_unknown_label(self):
        comp = make_composite((2, 2))
        with pytest.raises(ValidationError, match="unknown"):
            comp.axis("Z")

    def test_dimension_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QRS_MAX_DIM", "8")
        with pytest.raises(ValidationError, match="cap"):
            CompositeSystem([("A", 4), ("B", 4)])
        CompositeSystem([("A", 4), ("B", 2)])  # exactly at the lowered cap

    def test_dimension_cap_cannot_be_raised(self, monkeypatch):
        monkeypatch.setenv("QRS_MAX_DIM", "999999999")
        with pytest.raises(ValidationError, match="cap"):
            CompositeSystem([("A", 2 ** 10), ("B", 2 ** 10)])

    def test_dimension_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv("QRS_MAX_DIM", "not-a-number")
        with pytest.raises(ValidationError, match="QRS_MAX_DIM"):
            CompositeSystem([("A", 2)])
        monkeypatch.setenv("QRS_MAX_DIM", "1")
        with pytest.raises(ValidationError, match="QRS_MAX_DIM"):
            CompositeSystem([("A", 2)])


class TestSubsystemSet:
    def test_canonical_order_is_declaration_order(self):
        comp = CompositeSystem([("A", 2), ("B", 3), ("C", 2)])
        s = comp.subset(["C", "A"])
        assert s.labels == ("A", "C")
        assert s.dims == (2, 2)
        assert s.axes == (0, 2)
        assert s.joint_dim == 4
        assert s.label == "A+C"

    def test_complement(self):
        comp = make_composite((2, 2, 2))
        s = comp.subset(["S1", "S3"])
        assert s.complement().labels == ("S2",)
        full = comp.subset(comp.labels)
        assert full.complement().members == frozenset()
        assert full.complement().joint_dim == 1

    def test_empty_set_only_via_classmethod(self):
        comp = make_composite((2, 2))
        with pytest.raises(ValidationError, match="empty"):
            comp.subset([])
        assert SubsystemSet.empty(comp).labels == ()

    def test_unknown_members_rejected(self):
        comp = make_composite((2, 2))
        with pytest.raises(ValidationError, match="not subsystems"):
            comp.subset(["S1", "X"])

    def test_disjointness(self):
        comp = make_composite((2, 2, 2))
        assert comp.subset(["S1"]).disjoint_from(comp.subset(["S2", "S3"]))
        assert not comp.subset(["S1", "S2"]).disjoint_from(comp.subset(["S2"]))

    def test_coercion_reanchors_compatible_sets(self):
        comp_a = make_composite((2, 3))
        comp_b = CompositeSystem([("S1", 2), ("S2", 3), ("S3", 2)])
        s = comp_a.subset(["S2"])
        re_anchored = as_subsystem_set(s, comp_b)
        assert re_anchored.parent is comp_b
        assert as_subsystem_set("S1", comp_b).labels == ("S1",)
        assert as_subsystem_set(["S3", "S1"], comp_b).labels == ("S1", "S3")


class TestPureState:
    def test_length_mismatch_names_both_sizes(self):
        comp = make_composite((2, 2))
        with pytest.raises(ValidationError, match=r"length 3.*expected 4"):
            PureState(comp, [1.0, 0.0, 0.0])

    def test_norm_band(self):
        comp = make_composite((2,))
        # within the band: silently renormalized
        st = PureState(comp, [1.0 + 5e-7, 0.0])
        assert_allclose(np.linalg.norm(st.amplitudes), 1.0, atol=1e-15)
        with pytest.raises(ValidationError, match="norm"):
            PureState(comp, [1.0 + 5e-6, 0.0])
        with pytest.raises(ValidationError, match="norm"):
            PureState(comp, [0.0, 0.0])

    def test_amplitudes_locked(self):
        comp = make_composite((2,))
        st = PureState(comp, [1.0, 0.0])
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.5

    def test_nonfinite_rejected(self):
        comp = make_composite((2,))
        with pytest.raises(ValidationError, match="finite"):
            PureState(comp, [np.nan, 1.0])

    def test_tensor_view_and_overlap(self):
        comp = make_composite((2, 3))
        rng = np.random.default_rng(5)
        a = PureState(comp, random_amplitudes(rng, 6))
        b = PureState(comp, random_amplitudes(rng, 6))
        assert a.tensor_view().shape == (2, 3)
        assert not a.tensor_view().flags.writeable
        # a view keeps the row-major layout, so overlaps read off views agree
        overlap = np.sum(a.tensor_view().conj() * b.tensor_view())
        assert_allclose(overlap, np.vdot(a.amplitudes, b.amplitudes), atol=1e-15)
        assert_allclose(np.vdot(a.amplitudes, a.amplitudes), 1.0, atol=1e-12)


class TestDensityMatrix:
    def setup_method(self):
        self.target = make_composite((2,)).subset(["S1"])

    def test_valid(self):
        rho = DensityMatrix(self.target, np.diag([0.25, 0.75]))
        assert_allclose(rho.matrix, np.diag([0.25, 0.75]))

    def test_not_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(self.target, np.array([[0.5, 1e-3], [0.0, 0.5]]))

    def test_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(self.target, np.diag([0.5, 0.6]))

    def test_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(self.target, np.diag([1.1, -0.1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            DensityMatrix(self.target, np.eye(3) / 3.0)


class TestLocalOperator:
    def setup_method(self):
        self.support = make_composite((2,)).subset(["S1"])

    def test_unitary_check(self):
        LocalOperator(self.support, np.eye(2))
        with pytest.raises(ValidationError, match="unitary"):
            LocalOperator(self.support, np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------


class TestPermutations:
    def test_vector_roundtrip(self):
        rng = np.random.default_rng(11)
        dims = (2, 3, 2)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        perm = [2, 0, 1]
        moved = permute_vector_factors(v, dims, perm)
        inverse = [perm.index(i) for i in range(3)]
        back = permute_vector_factors(moved, [dims[p] for p in perm], inverse)
        assert_allclose(back, v)

    def test_operator_permutation_matches_kron_reordering(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        swapped = permute_operator_factors(np.kron(a, b), (2, 3), [1, 0])
        assert_allclose(swapped, np.kron(b, a), atol=1e-14)


class TestTensorEmbedApply:
    def test_apply_rejects_missing_or_mismatched_labels(self):
        comp = CompositeSystem([("A", 2), ("B", 2)])
        psi = PureState(comp, [1.0, 0.0, 0.0, 0.0])
        other = CompositeSystem([("C", 2)])
        with pytest.raises(ValidationError, match="not part"):
            apply(LocalOperator(other.subset(["C"]), np.eye(2)), psi)
        bigger = CompositeSystem([("A", 3), ("B", 2)])
        with pytest.raises(ValidationError, match="mismatch"):
            apply(LocalOperator(bigger.subset(["A"]), np.eye(3)), psi)

    def test_apply_agrees_with_embedded_matrix(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dims = random_dims(rng, max_parts=3)
            comp = make_composite(dims)
            psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
            n = len(dims)
            size = int(rng.integers(1, n + 1))
            picked = list(rng.choice(n, size=size, replace=False))
            support = comp.subset([comp.labels[i] for i in picked])
            u = random_unitary(rng, support.joint_dim)
            out = apply(LocalOperator(support, u), psi)
            want = kron_embedded(u, dims, support.axes) @ psi.amplitudes
            assert_allclose(out.amplitudes, want, atol=1e-12)

    def test_apply_preserves_overlaps(self):
        rng = np.random.default_rng(24)
        comp = make_composite((2, 3))
        psi = PureState(comp, random_amplitudes(rng, 6))
        phi = PureState(comp, random_amplitudes(rng, 6))
        u = random_unitary(rng, 3)
        op = LocalOperator(comp.subset(["S2"]), u)
        before = np.vdot(psi.amplitudes, phi.amplitudes)
        after = np.vdot(apply(op, psi).amplitudes, apply(op, phi).amplitudes)
        assert abs(after - before) < 1e-12


# ---------------------------------------------------------------------------


class TestPartialTrace:
    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            dims = random_dims(rng)
            comp = make_composite(dims)
            psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
            n = len(dims)
            for size in range(1, n + 1):
                keep_axes = sorted(rng.choice(n, size=size, replace=False))
                keep = [comp.labels[i] for i in keep_axes]
                got = partial_trace(psi, keep).matrix
                want = brute_partial_trace(psi.amplitudes, dims, keep_axes)
                assert_allclose(got, want, atol=1e-12)

    def test_keep_all_is_projector(self):
        rng = np.random.default_rng(32)
        comp = make_composite((2, 2))
        psi = PureState(comp, random_amplitudes(rng, 4))
        rho = partial_trace(psi, comp.labels).matrix
        assert_allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-14)

    def test_correlated_pair_reduces_to_weights(self):
        # a|00> + b|11>: either factor alone carries diag(|a|^2, |b|^2)
        comp = make_composite((2, 2))
        a, b = 0.6, 0.8
        psi = PureState(comp, [a, 0.0, 0.0, b])
        for keep in (["S1"], ["S2"]):
            rho = partial_trace(psi, keep).matrix
            assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-15)

    def test_rejects_other_inputs(self):
        with pytest.raises(ValidationError, match="expects a PureState"):
            partial_trace(np.eye(2) / 2, ["S1"])
