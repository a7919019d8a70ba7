"""Pointer-coupling unitaries, angle bases, seeded readout."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qrsim.bell
from conftest import kron_embedded, random_amplitudes, xi_columns
from qrsim import (
    BellScenario,
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
from qrsim.hilbert import _evolve
from qrsim.measurement import _DeviceCoupling


def pointer_composite(system_dim=2, pointer_dim=3):
    return CompositeSystem([("P", system_dim), ("M", pointer_dim)])


def z_device(pointer_dim=3, **kwargs):
    return MeasurementDevice.from_basis("M", np.eye(2), pointer_dim=pointer_dim, **kwargs)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_sum(basis, pointers, ready, pointer_dim):
    """sum_k |b_k><b_k| (x) S_k in (target, pointer) order, one kron term per outcome.

    S_k is the cyclic pointer shift taking ``ready`` to ``pointers[k]``.
    """
    d = basis.shape[0]
    oracle = np.zeros((d * pointer_dim, d * pointer_dim), dtype=complex)
    for k, pointer in enumerate(pointers):
        shift = np.roll(np.eye(pointer_dim), (pointer - ready) % pointer_dim, axis=0)
        oracle += np.kron(np.outer(basis[:, k], basis[:, k].conj()), shift)
    return oracle


@st.composite
def coupled_registers(draw):
    """A register with a pointer M, a 1- or 2-subsystem target, maybe a bystander C.

    Returns (composite, target labels, basis seed, pointer_dim, ready, pointers);
    the declaration order is any permutation, so the target may come before
    or after the pointer, or around it.
    """
    target = [("A", draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        target.append(("B", draw(st.integers(2, 3))))
    d = int(np.prod([dim for _, dim in target]))
    pointer_dim = draw(st.integers(d, d + 2))
    extra = [("C", 2)] if draw(st.booleans()) else []
    order = draw(st.permutations(target + [("M", pointer_dim)] + extra))
    ready = draw(st.integers(0, pointer_dim - 1))
    pointers = draw(st.permutations(range(pointer_dim)))[:d]
    labels = [label for label, _ in target]
    seed = draw(st.integers(0, 2**32 - 1))
    return CompositeSystem(order), labels, seed, pointer_dim, ready, pointers


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
        for pointer_dim in (1, 0, -1):
            with pytest.raises(ValidationError, match="cannot resolve"):
                z_device(pointer_dim=pointer_dim)

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(coupled_registers())
    def test_matrix_and_apply_match_the_kron_sum(self, case):
        comp, labels, seed, pointer_dim, ready, pointers = case
        rng = np.random.default_rng(seed)
        target = comp.subset(labels)
        basis = random_unitary(rng, target.joint_dim)
        dev = MeasurementDevice.from_basis("M", basis, pointer_dim, ready, pointers)
        op = build_measurement_unitary(dev, target)
        # the oracle acts on the target's labels in declared order, then the pointer
        oracle = kron_embedded(
            kron_sum(basis, pointers, ready, pointer_dim),
            comp.dims,
            list(target.axes) + [comp.axis("M")],
        )
        assert_allclose(kron_embedded(op.matrix, comp.dims, op.support.axes), oracle, atol=1e-13)
        psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
        assert_allclose(apply(op, psi).amplitudes, oracle @ psi.amplitudes, atol=1e-13)

    @pytest.mark.parametrize(
        "target, pointer_dim", [((("Q", 3),), 4), ((("A", 2), ("B", 2)), 5)]
    )
    def test_matches_the_kron_sum_bit_for_bit(self, target, pointer_dim):
        # a basis on a qutrit and on a 4-dim target, each declared after the
        # pointer and in reverse, so the step is permuted; the dense matrix is
        # bit for bit what ``apply`` does to each basis state
        rng = np.random.default_rng(95)
        labels = [label for label, _ in target]
        d = int(np.prod([dim for _, dim in target]))
        comp = CompositeSystem([("M", pointer_dim)] + list(reversed(target)))
        bases = np.stack([random_unitary(rng, d) for _ in range(3)])
        pointers = [int(p) for p in rng.permutation(pointer_dim)[:d]]
        ready = 1
        # the oracle is in (target, pointer) order; move the pointer to the front
        dims = [comp.dim_of(label) for label in comp.labels[1:]] + [pointer_dim]
        n = len(dims)
        front = [n - 1] + list(range(n - 1))
        for basis in bases:
            op = build_measurement_unitary(
                MeasurementDevice.from_basis("M", basis, pointer_dim, ready, pointers),
                comp.subset(labels),
            )
            matrix = op.matrix
            images = [apply(op, PureState(comp, e)).amplitudes for e in np.eye(comp.total_dim)]
            assert matrix.tobytes() == np.stack(images, axis=1).tobytes()
            oracle = kron_sum(basis, pointers, ready, pointer_dim)
            permuted = oracle.reshape(dims + dims).transpose(front + [n + a for a in front])
            assert_allclose(matrix, permuted.reshape(oracle.shape), atol=1e-13)

    def test_the_bell_engine_couplings_match_the_kron_sum(self, monkeypatch):
        # record what the engine builds for M1, M2 and M3 at seeded angles
        built = []

        def recording(*args):
            built.append((args, _DeviceCoupling(*args)))
            return built[-1][1]

        monkeypatch.setattr(qrsim.bell, "_DeviceCoupling", recording)
        rng = np.random.default_rng(97)
        thetas1, thetas2 = rng.uniform(-7.0, 7.0, size=(2, 5))
        qrsim.bell._run_batch(BellScenario(0.6, 0.8, 0.0, 0.0), thetas1, thetas2)
        want_bases = {
            "M1": [xi_columns(t) for t in thetas1],
            "M2": [xi_columns(t) for t in thetas2],
            "M3": [np.eye(2)] * 5,
        }
        assert sorted(pointer for (_, pointer, *_), _ in built) == ["M1", "M2", "M3"]
        for (target, pointer, bases, pointers, ready), coupling in built:
            comp = target.parent
            bases = np.broadcast_to(bases, (5, 2, 2))
            assert_allclose(bases, want_bases[pointer], atol=1e-15)
            states = np.stack([random_amplitudes(rng, comp.total_dim) for _ in range(5)])
            out = _evolve(states.reshape((5,) + comp.dims), [coupling._step(comp.labels)])
            axes = list(target.axes) + [comp.axis(pointer)]
            for basis, state, got in zip(bases, states, out):
                oracle = kron_embedded(
                    kron_sum(basis, pointers, ready, comp.dim_of(pointer)), comp.dims, axes
                )
                assert_allclose(got.reshape(-1), oracle @ state, atol=1e-13)

    def test_a_large_device_stays_factored(self):
        # a dense coupling on this 64 x 65 support would take 277 MB
        rng = np.random.default_rng(98)
        comp = CompositeSystem([("T", 64), ("M", 65)])
        basis = random_unitary(rng, 64)
        target_state = random_amplitudes(rng, 64)
        psi = PureState(comp, np.kron(target_state, np.eye(65)[0]))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            dev = MeasurementDevice.from_basis("M", basis, pointer_dim=65)
            out = apply(build_measurement_unitary(dev, comp.subset(["T"])), psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"{elapsed:.2f} s"
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        # outcome k parks b_k <b_k|target> on pointer position k + 1
        recorded = out.amplitudes.reshape(64, 65)
        assert_allclose(recorded[:, 1:], basis * (basis.conj().T @ target_state), atol=1e-13)
        assert_allclose(recorded[:, 0], 0.0, atol=1e-13)

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
