"""Pointer-coupling unitaries, angle bases, seeded readout."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_amplitudes
from qrsim import (
    CompositeSystem,
    InternalStateEnsemble,
    MeasurementDevice,
    PureState,
    SAMPLER_ALGORITHM,
    ValidationError,
    apply,
    build_measurement_unitary,
    partial_trace,
    possible_internal_states,
    sample_outcome_indices,
    spin_basis,
)
from qrsim.measurement import _coupling_matrix


def pointer_composite(system_dim=2, pointer_dim=3):
    return CompositeSystem([("P", system_dim), ("M", pointer_dim)])


def z_device(pointer_dim=3, **kwargs):
    return MeasurementDevice.from_basis("M", np.eye(2), pointer_dim=pointer_dim, **kwargs)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


class TestMeasurementDevice:
    def test_from_basis_defaults(self):
        dev = z_device()
        assert dev.pointer_dim == 3
        assert dev.ready_index == 0
        assert dev.pointers == (1, 2)
        assert dev.outcomes == 2
        assert_allclose(dev.basis, np.eye(2))

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValidationError, match="complete"):
            MeasurementDevice("M", [([1.0, 0.0], 1)])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            MeasurementDevice("M", [([1.0, 0.0], 1), ([1.0, 1.0], 2)])

    def test_pointer_collision_rejected(self):
        with pytest.raises(ValidationError, match="collision"):
            MeasurementDevice("M", [([1.0, 0.0], 1), ([0.0, 1.0], 1)])

    def test_pointer_too_small(self):
        with pytest.raises(ValidationError, match="cannot resolve"):
            z_device(pointer_dim=1)

    def test_parked_outcome_may_share_the_ready_position(self):
        dev = MeasurementDevice(
            "M", [([1.0, 0.0], 0), ([0.0, 1.0], 1)], pointer_dim=2
        )
        assert dev.pointers == (0, 1)

    def test_index_ranges(self):
        with pytest.raises(ValidationError, match="ready index"):
            z_device(ready_index=5)
        with pytest.raises(ValidationError, match="out of range"):
            MeasurementDevice("M", [([1.0, 0.0], 1), ([0.0, 1.0], 7)], pointer_dim=3)


class TestCouplingUnitary:
    def test_records_each_branch_on_its_pointer(self):
        # (a|u> + b|d>)|ready> -> a|u>|m1> + b|d>|m2>
        comp = pointer_composite()
        a, b = 0.6, 0.8
        psi0 = PureState(comp, np.kron([a, b], [1.0, 0.0, 0.0]))
        op = build_measurement_unitary(z_device(), comp.subset(["P"]))
        out = apply(op, psi0)
        want = np.zeros(6)
        want[1] = a   # (u, m1)
        want[5] = b   # (d, m2)
        assert_allclose(out.amplitudes, want, atol=1e-14)

    def test_exact_unitarity(self):
        rng = np.random.default_rng(91)
        for d, dp in ((2, 3), (3, 4), (2, 2)):
            comp = CompositeSystem([("P", d), ("M", dp)])
            dev = MeasurementDevice.from_basis("M", random_unitary(rng, d), pointer_dim=dp)
            op = build_measurement_unitary(dev, comp.subset(["P"]))
            assert_allclose(
                op.matrix.conj().T @ op.matrix, np.eye(d * dp), atol=1e-12
            )

    def test_eigenbasis_measurement_leaves_the_target_state_alone(self):
        # couple the pointer to the very basis the reduced matrix selects
        rng = np.random.default_rng(92)
        pair = CompositeSystem([("A", 2), ("B", 3)])
        psi_ab = PureState(pair, random_amplitudes(rng, 6))
        ens = possible_internal_states(partial_trace(psi_ab, "A"))
        # the pointer M starts at its ready position 0
        psi = PureState(
            CompositeSystem([("A", 2), ("B", 3), ("M", 3)]),
            np.kron(psi_ab.amplitudes, [1.0, 0.0, 0.0]),
        )
        dev = MeasurementDevice.from_basis("M", ens.vectors)
        op = build_measurement_unitary(dev, psi.system.subset(["A"]))
        before = partial_trace(psi, "A").matrix
        after = partial_trace(apply(op, psi), "A").matrix
        assert_allclose(after, before, atol=1e-12)

    def test_basis_vector_inputs_pass_through(self):
        rng = np.random.default_rng(93)
        comp = CompositeSystem([("P", 2), ("M", 3), ("B", 2)])
        basis = random_unitary(rng, 2)
        dev = MeasurementDevice.from_basis("M", basis)
        op = build_measurement_unitary(dev, comp.subset(["P"]))
        for k in range(2):
            rest = random_amplitudes(rng, 2)  # bystander factor
            amps = np.kron(np.kron(basis[:, k], [1.0, 0.0, 0.0]), rest)
            out = apply(op, PureState(comp, amps))
            want = np.kron(np.kron(basis[:, k], np.eye(3)[dev.pointers[k]]), rest)
            assert_allclose(out.amplitudes, want, atol=1e-13)

    def test_born_weights_land_on_the_pointer(self):
        rng = np.random.default_rng(94)
        comp = pointer_composite()
        state = random_amplitudes(rng, 2)
        psi0 = PureState(comp, np.kron(state, [1.0, 0.0, 0.0]))
        basis = random_unitary(rng, 2)
        dev = MeasurementDevice.from_basis("M", basis)
        out = apply(build_measurement_unitary(dev, comp.subset(["P"])), psi0)
        ens = possible_internal_states(partial_trace(out, "M"))
        weights = np.abs(basis.conj().T @ state) ** 2
        assert_allclose(ens.eigenvalues, np.sort(np.append(weights, 0.0))[::-1], atol=1e-12)

    @pytest.mark.parametrize(
        "target, pointer_dim", [((("Q", 3),), 4), ((("A", 2), ("B", 2)), 5)]
    )
    def test_matches_the_kron_sum_bit_for_bit(self, target, pointer_dim):
        # a 3-outcome basis on a qutrit and a basis on a 4-dim target, each
        # declared after the pointer and in reverse, so the build is permuted
        rng = np.random.default_rng(95)
        labels = [label for label, _ in target]
        d = int(np.prod([dim for _, dim in target]))
        comp = CompositeSystem([("M", pointer_dim)] + list(reversed(target)))
        bases = np.stack([random_unitary(rng, d) for _ in range(3)])
        pointers = [int(p) for p in rng.permutation(pointer_dim)[:d]]
        ready = 1
        built = [
            build_measurement_unitary(
                MeasurementDevice.from_basis("M", basis, pointer_dim, ready, pointers),
                comp.subset(labels),
            ).matrix
            for basis in bases
        ]
        stacked = _coupling_matrix(bases, pointers, ready, pointer_dim)
        # the oracle sums one kron term per outcome, in (target, pointer)
        # order, and then moves the pointer factor to the front
        dims = [comp.dim_of(label) for label in comp.labels[1:]] + [pointer_dim]
        n = len(dims)
        front = [n - 1] + list(range(n - 1))
        for basis, matrix, coupling in zip(bases, built, stacked):
            oracle = np.zeros((d * pointer_dim, d * pointer_dim), dtype=complex)
            for k, pointer in enumerate(pointers):
                shift = np.roll(np.eye(pointer_dim), (pointer - ready) % pointer_dim, axis=0)
                oracle += np.kron(np.outer(basis[:, k], basis[:, k].conj()), shift)
            assert coupling.tobytes() == oracle.tobytes()
            permuted = oracle.reshape(dims + dims).transpose(front + [n + a for a in front])
            assert matrix.tobytes() == permuted.reshape(oracle.shape).tobytes()

    def test_target_and_pointer_wiring_validation(self):
        comp = pointer_composite()
        dev = z_device()
        with pytest.raises(ValidationError, match="own target"):
            build_measurement_unitary(dev, comp.subset(["P", "M"]))
        lone = CompositeSystem([("P", 2)])
        with pytest.raises(ValidationError, match="not a subsystem"):
            build_measurement_unitary(dev, lone.subset(["P"]))
        wrong_dp = CompositeSystem([("P", 2), ("M", 4)])
        with pytest.raises(ValidationError, match="pointer dimension"):
            build_measurement_unitary(dev, wrong_dp.subset(["P"]))
        wrong_target = CompositeSystem([("P", 3), ("M", 3)])
        with pytest.raises(ValidationError, match="target dimension"):
            build_measurement_unitary(dev, wrong_target.subset(["P"]))


class TestSpinBasis:
    def test_poles(self):
        assert_allclose(spin_basis(0.0), np.eye(2), atol=1e-15)
        assert_allclose(spin_basis(np.pi), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)

    def test_half_angle_weights(self):
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            basis = spin_basis(theta)
            assert_allclose(abs(basis[0, 0]) ** 2, np.cos(theta / 2.0) ** 2, atol=1e-12)
            assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            spin_basis(np.inf)
        with pytest.raises(ValidationError, match="finite"):
            spin_basis([0.0, np.nan])

    def test_angle_arrays_stack_the_bases(self):
        thetas = np.array([[0.0, 1.3], [2.9, -4.4]])
        stacked = spin_basis(thetas)
        assert stacked.shape == (2, 2, 2, 2)
        for index in np.ndindex(thetas.shape):
            assert stacked[index].tobytes() == spin_basis(float(thetas[index])).tobytes()


# ---------------------------------------------------------------------------


class TestSampling:
    def setup_method(self):
        sub = CompositeSystem([("A", 2)]).subset(["A"])
        self.ens = InternalStateEnsemble(sub, [0.64, 0.36], np.eye(2))
        self.certain = InternalStateEnsemble(sub, [1.0, 0.0], np.eye(2))

    def test_bulk_draws_are_reproducible(self):
        a = sample_outcome_indices(self.ens, 500, seed=9)
        b = sample_outcome_indices(self.ens, 500, seed=9)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}
        assert SAMPLER_ALGORITHM == "numpy.random.PCG64"

    def test_certain_outcome(self):
        draws = sample_outcome_indices(self.certain, 200, seed=4)
        assert np.all(draws == 0)

    def test_frequencies_track_probabilities(self):
        draws = sample_outcome_indices(self.ens, 100_000, seed=2024)
        freq = np.bincount(draws, minlength=2) / draws.size
        assert_allclose(freq, [0.64, 0.36], atol=0.01)

    def test_count_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            sample_outcome_indices(self.ens, 0, seed=1)
