"""Relative states, joint outcome tables, formal tables, comparability.

Oracle note: ``oracle_disjoint_table`` evaluates P(j1..jn) for disjoint
systems as the squared norm of the amplitude tensor after contracting each
system's state vector away.  The library kernel instead contracts one
network of ket, projector vectors and bra, so agreement is a real check
rather than the same code run twice.  ``oracle_formal_table`` multiplies
dense full-space projectors built with ``np.kron``.
"""

import functools
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_amplitudes
from qrsim import (
    CompositeSystem,
    InternalStateEnsemble,
    JointDistribution,
    LocalOperator,
    NumericalInvariantError,
    OverlappingSystemsError,
    PureState,
    QuasiDistribution,
    ValidationError,
    apply,
    comparability,
    formal_joint,
    joint_probability,
    partial_trace,
    possible_internal_states,
    state_of,
)
from qrsim.qrs import _check_quasi, _checked_joint


def make_composite(dims, prefix="S"):
    return CompositeSystem([(f"{prefix}{i}", d) for i, d in enumerate(dims, 1)])


def correlated_pair(a=0.6, b=0.8):
    """a|ud> - b|du> on two qubits."""
    return PureState(make_composite((2, 2)), [0.0, a, -b, 0.0])


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def oracle_disjoint_table(psi, systems, ensembles):
    dims = psi.system.dims
    shape = tuple(e.eigenvalues.size for e in ensembles)
    table = np.zeros(shape)
    axes_list = [s.axes for s in systems]
    for idx in np.ndindex(*shape):
        cur = psi.amplitudes.reshape(dims)
        removed = []
        for axes, ens, k in zip(axes_list, ensembles, idx):
            shifted = tuple(a - sum(1 for r in removed if r < a) for a in axes)
            phi = ens.vectors[:, k].reshape(tuple(dims[a] for a in axes))
            cur = np.tensordot(cur, phi.conj(), axes=(shifted, tuple(range(phi.ndim))))
            removed.extend(axes)
        table[idx] = float(np.sum(np.abs(cur) ** 2))
    return table


def dense_projector(comp, members, phi):
    """|phi><phi| on ``members``, identity elsewhere, as one full-space matrix.

    Built term by term from Kronecker products over the factors in
    declaration order, the order in which ensemble vectors are laid out.
    """
    order = [label for label in comp.labels if label in members]
    dims = tuple(comp.dim_of(label) for label in order)
    phi = phi.reshape(dims)
    full = np.zeros((comp.total_dim, comp.total_dim), dtype=complex)
    for a in np.ndindex(*dims):
        for b in np.ndindex(*dims):
            factors = []
            for label, d in comp.subsystems:
                if label in order:
                    j = order.index(label)
                    unit = np.zeros((d, d))
                    unit[a[j], b[j]] = 1.0
                    factors.append(unit)
                else:
                    factors.append(np.eye(d))
            full += phi[a] * np.conj(phi[b]) * functools.reduce(np.kron, factors)
    return full


def oracle_formal_table(psi, quasi):
    """<psi| P_1 ... P_n |psi> with every projector a dense full-space matrix."""
    comp = psi.system
    projectors = [
        [dense_projector(comp, s.members, ens.vectors[:, k]) for k in range(ens.eigenvalues.size)]
        for s, ens in zip(quasi.systems, quasi.ensembles)
    ]
    table = np.empty(quasi.table.shape, dtype=complex)
    for idx in np.ndindex(*table.shape):
        vec = psi.amplitudes
        for projs, k in reversed(list(zip(projectors, idx))):
            vec = projs[k] @ vec
        table[idx] = np.vdot(psi.amplitudes, vec)
    return table


def disjoint_tuple(rng, comp, max_systems=3):
    """Random pairwise-disjoint label groups covering part of the composite."""
    labels = list(comp.labels)
    rng.shuffle(labels)
    n_sys = int(rng.integers(1, min(max_systems, len(labels)) + 1))
    groups = [[] for _ in range(n_sys)]
    for i, lbl in enumerate(labels[: max(n_sys, int(rng.integers(n_sys, len(labels) + 1)))]):
        groups[i % n_sys].append(lbl)
    return [g for g in groups if g]


# ---------------------------------------------------------------------------


class TestStateOf:
    def test_recorded_branches_weight_both_factors(self):
        comp = CompositeSystem([("P", 2), ("M", 3)])
        a, b = 0.6, 0.8
        amps = np.zeros(6)
        amps[1] = a   # (up, first pointer)
        amps[5] = b   # (down, second pointer)
        psi = PureState(comp, amps)
        assert_allclose(state_of("P", ["P", "M"], psi).matrix, np.diag([0.36, 0.64]), atol=1e-15)
        assert_allclose(
            state_of("M", ["P", "M"], psi).matrix, np.diag([0.0, 0.36, 0.64]), atol=1e-15
        )

    def test_self_reference_is_the_projector(self):
        rng = np.random.default_rng(51)
        comp = make_composite((2, 2))
        psi = PureState(comp, random_amplitudes(rng, 4))
        rho = state_of(["S1", "S2"], ["S1", "S2"], psi).matrix
        assert_allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-14)

    def test_reference_must_cover_the_state(self):
        psi = correlated_pair()
        with pytest.raises(ValidationError, match="reference"):
            state_of("S1", ["S1"], psi)

    def test_target_must_sit_inside_reference(self):
        comp = make_composite((2, 2, 2))
        other = comp.subset(["S3"])
        pair = make_composite((2, 2))
        psi = PureState(pair, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            state_of(other, ["S1", "S2"], psi)

    def test_unaffected_by_operations_elsewhere(self):
        # whatever happens to the complement, the relative state stays put
        rng = np.random.default_rng(52)
        psi = correlated_pair()
        before = state_of("S1", ["S1", "S2"], psi).matrix
        for _ in range(10):
            u = random_unitary(rng, 2)
            op = LocalOperator(psi.system.subset(["S2"]), u)
            after = state_of("S1", ["S1", "S2"], apply(op, psi)).matrix
            assert_allclose(after, before, atol=1e-13)


# ---------------------------------------------------------------------------


class TestJointProbability:
    def test_correlated_pair_is_diagonal(self):
        dist = joint_probability(["S1", "S2"], correlated_pair())
        assert_allclose(np.diag(dist.table), [0.64, 0.36], atol=1e-12)
        assert_allclose(dist.table - np.diag(np.diag(dist.table)), 0.0, atol=1e-12)

    def test_single_system_reproduces_the_spectrum(self):
        psi = correlated_pair()
        dist = joint_probability(["S1"], psi)
        ens = possible_internal_states(partial_trace(psi, "S1"))
        assert_allclose(dist.table, ens.eigenvalues, atol=1e-12)

    def test_matches_contraction_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
            comp = make_composite(dims)
            psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
            groups = disjoint_tuple(rng, comp)
            dist = joint_probability(groups, psi)
            want = oracle_disjoint_table(psi, dist.systems, dist.ensembles)
            assert_allclose(dist.table, want, atol=1e-12)

    def test_argument_order_only_transposes(self):
        rng = np.random.default_rng(62)
        comp = make_composite((2, 3, 2))
        psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
        abc = joint_probability([["S1"], ["S2"], ["S3"]], psi)
        cab = joint_probability([["S3"], ["S1"], ["S2"]], psi)
        assert_allclose(cab.table, np.transpose(abc.table, (2, 0, 1)), atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(63)
        comp = make_composite((2, 3))
        amps = np.kron(random_amplitudes(rng, 2), random_amplitudes(rng, 3))
        dist = joint_probability(["S1", "S2"], PureState(comp, amps))
        assert_allclose(dist.table, np.outer(dist.table.sum(1), dist.table.sum(0)), atol=1e-12)

    def test_basic_table_properties(self):
        rng = np.random.default_rng(64)
        comp = make_composite((2, 2, 3))
        psi = PureState(comp, random_amplitudes(rng, 12))
        dist = joint_probability([["S1"], ["S2", "S3"]], psi)
        assert dist.table.min() >= 0.0
        assert abs(dist.table.sum() - 1.0) < 1e-9
        assert_allclose(dist.table.sum(1), dist.ensembles[0].eigenvalues, atol=1e-9)
        assert_allclose(dist.table.sum(0), dist.ensembles[1].eigenvalues, atol=1e-9)

    def test_overlap_is_rejected_with_a_pointer_to_formal_joint(self):
        rng = np.random.default_rng(65)
        comp = make_composite((2, 2, 2))
        psi = PureState(comp, random_amplitudes(rng, 8))
        with pytest.raises(OverlappingSystemsError, match="formal_joint"):
            joint_probability([["S1", "S2"], ["S2", "S3"]], psi)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValidationError):
            joint_probability([], correlated_pair())


# ---------------------------------------------------------------------------


class TestFormalJoint:
    def test_coincides_with_joint_on_disjoint_systems(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            comp = make_composite((2, 2, 2))
            psi = PureState(comp, random_amplitudes(rng, 8))
            groups = [["S1"], ["S2", "S3"]]
            quasi = formal_joint(groups, psi)
            dist = joint_probability(groups, psi)
            assert quasi.max_imag < 1e-12
            assert_allclose(quasi.table.real, dist.table, atol=1e-12)

    def test_overlapping_query_reduces_to_the_complement_joint(self):
        # (S1+S2, S2+S3) carries the same information as (S3, S1): identical
        # branch vectors, so the formal table is the proper one plus zeros
        rng = np.random.default_rng(82)
        for _ in range(8):
            comp = make_composite((2, 2, 2))
            psi = PureState(comp, random_amplitudes(rng, 8))
            # a near-tie between the two branch weights would make the
            # descending pairing between the sides ambiguous; skip those
            spectrum = np.linalg.eigvalsh(partial_trace(psi, "S3").matrix)
            if spectrum[1] - spectrum[0] < 1e-3:
                continue
            quasi = formal_joint([["S1", "S2"], ["S2", "S3"]], psi)
            dist = joint_probability([["S3"], ["S1"]], psi)
            assert quasi.max_imag < 1e-10
            got = quasi.table.real
            assert_allclose(got[:2, :2], dist.table, atol=1e-10)
            assert_allclose(got[2:, :], 0.0, atol=1e-10)
            assert_allclose(got[:, 2:], 0.0, atol=1e-10)

    def test_summing_an_axis_marginalizes(self):
        rng = np.random.default_rng(83)
        comp = make_composite((2, 2, 2))
        psi = PureState(comp, random_amplitudes(rng, 8))
        q3 = formal_joint([["S1"], ["S1", "S2"], ["S3"]], psi)
        q2 = formal_joint([["S1"], ["S3"]], psi)
        assert_allclose(q3.table.sum(axis=1), q2.table, atol=1e-12)

    def test_metadata_preserves_argument_order(self):
        psi = correlated_pair()
        quasi = formal_joint([["S2"], ["S1"]], psi)
        assert tuple(s.label for s in quasi.systems) == ("S2", "S1")

    def test_matches_dense_operator_oracle(self):
        # overlapping chains on mixed qubit/qutrit registers, systems listed
        # in shuffled (not declaration) order
        rng = np.random.default_rng(85)
        for _ in range(8):
            dims = tuple(int(d) for d in rng.integers(2, 4, size=4))
            comp = make_composite(dims)
            psi = PureState(comp, random_amplitudes(rng, comp.total_dim))
            labels = [str(label) for label in rng.permutation(comp.labels)]
            size = int(rng.integers(2, 4))
            chain = [labels[i:i + size] for i in range(4 - size + 1)]
            quasi = formal_joint(chain, psi)
            assert_allclose(quasi.table, oracle_formal_table(psi, quasi), atol=1e-12)

    def test_repeated_system_is_diagonal_with_the_spectrum(self):
        rng = np.random.default_rng(86)
        comp = make_composite((3, 2, 2))
        psi = PureState(comp, random_amplitudes(rng, 12))
        quasi = formal_joint([["S3", "S1"], ["S1", "S3"]], psi)
        spectrum = quasi.ensembles[0].eigenvalues
        assert_allclose(quasi.table, np.diag(spectrum), atol=1e-12)
        assert_allclose(quasi.table, oracle_formal_table(psi, quasi), atol=1e-12)

    def test_reversed_order_conjugates_the_table(self):
        # (P_1 ... P_n)^dagger = P_n ... P_1
        rng = np.random.default_rng(87)
        comp = make_composite((2, 3, 2))
        psi = PureState(comp, random_amplitudes(rng, 12))
        chain = [["S1", "S2"], ["S2", "S3"], ["S3", "S1"]]
        forward = formal_joint(chain, psi)
        backward = formal_joint(chain[::-1], psi)
        assert forward.max_imag > 1e-3
        assert_allclose(backward.table, forward.table.conj().transpose(2, 1, 0), atol=1e-12)

    def test_query_beyond_the_label_budget_fails_before_allocating(self):
        # 2 state axes + 26 x (1 axis + 1 index) = 54 einsum labels > 52
        comp = CompositeSystem([("A", 2), ("B", 2)])
        psi = PureState(comp, [1.0, 0.0, 0.0, 0.0])
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValidationError, match="labels"):
                formal_joint([["A"]] * 26, psi)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2 ** 20  # a 2**26-entry table would be 1 GiB
        with pytest.raises(ValidationError, match="labels"):
            joint_probability([["A"]] * 26, psi)


# ---------------------------------------------------------------------------


class TestComparability:
    def test_pairwise_disjoint_route(self):
        comp = make_composite((2, 2, 2))
        verdict = comparability([["S1"], ["S2"]], comp)
        assert verdict.comparable and verdict.route == "pairwise-disjoint"
        assert verdict.substitutions == ()

    def test_three_set_overlap_resolves_by_complements(self):
        comp = make_composite((2, 2, 2))
        verdict = comparability([["S1", "S2"], ["S2", "S3"]], comp)
        assert verdict.comparable and verdict.route == "complement-reduction"
        subs = {orig.label: repl.label for orig, repl in verdict.substitutions}
        assert subs == {"S1+S2": "S3", "S2+S3": "S1"}

    def test_four_set_chain_is_not_comparable(self):
        comp = make_composite((2, 2, 2, 2))
        verdict = comparability(
            [["S1", "S2"], ["S2", "S3"], ["S3", "S4"]], comp
        )
        assert not verdict.comparable and verdict.route == "none"

    def test_verdict_ignores_listing_order(self):
        comp = make_composite((2, 2, 2, 2))
        sets = [["S1", "S2"], ["S2", "S3"], ["S3", "S4"]]
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            verdict = comparability([sets[i] for i in perm], comp)
            assert not verdict.comparable

    def test_whole_system_queries_have_no_usable_complement(self):
        comp = make_composite((2, 2))
        verdict = comparability([["S1"], ["S1", "S2"]], comp)
        assert not verdict.comparable

    def test_duplicate_system_resolves_with_one_flip(self):
        comp = make_composite((2, 2))
        verdict = comparability([["S1"], ["S1"]], comp)
        assert verdict.comparable and verdict.route == "complement-reduction"
        assert len(verdict.substitutions) == 1

    def test_system_count_cap(self):
        comp = make_composite((2, 2))
        comparability([["S1"]] * 16, comp)  # at the cap: allowed
        with pytest.raises(ValidationError, match="capped"):
            comparability([["S1"]] * 17, comp)

    def test_json_shape(self):
        comp = make_composite((2, 2, 2))
        d = comparability([["S1", "S2"], ["S2", "S3"]], comp).to_json_dict()
        assert d["comparable"] is True
        assert d["route"] == "complement-reduction"
        assert d["substitutions"][0] == {"original": "S1+S2", "replacement": "S3"}


# ---------------------------------------------------------------------------


class TestDistributionContainers:
    def setup_method(self):
        comp = CompositeSystem([("A", 2)])
        self.sub = comp.subset(["A"])
        self.ens = InternalStateEnsemble(self.sub, [1.0, 0.0], np.eye(2))

    def test_rounding_noise_is_clipped_to_zero(self):
        dist = JointDistribution((self.sub,), (self.ens,), np.array([1.0, -5e-10]))
        assert dist.table[1] == 0.0

    def test_noise_below_the_floor_fails(self):
        with pytest.raises(NumericalInvariantError, match="floor"):
            JointDistribution((self.sub,), (self.ens,), np.array([1.0, -5e-9]))

    def test_sum_and_marginal_invariants(self):
        with pytest.raises(NumericalInvariantError, match="sums to"):
            JointDistribution((self.sub,), (self.ens,), np.array([0.9, 0.0]))
        with pytest.raises(NumericalInvariantError, match="marginal"):
            JointDistribution((self.sub,), (self.ens,), np.array([0.5, 0.5]))
        with pytest.raises(NumericalInvariantError, match="shape"):
            JointDistribution((self.sub,), (self.ens,), np.array([1.0, 0.0, 0.0]))

    def test_nan_entries_fail(self):
        with pytest.raises(NumericalInvariantError, match="floor"):
            JointDistribution((self.sub,), (self.ens,), [np.nan, 0.0])
        with pytest.raises(NumericalInvariantError, match="floor"):
            JointDistribution((self.sub,), (self.ens,), [1.0, np.nan])

    def test_quasi_table_is_a_copy(self):
        table = np.array([1.0 + 0.0j, 0.0])
        quasi = QuasiDistribution((self.sub,), (self.ens,), table)
        table[0] = 2
        assert quasi.table[0] == 1.0
        assert not quasi.table.flags.writeable

    def test_quasi_entries_survive_verbatim(self):
        table = np.array([1.1 - 0.2j, -0.1 + 0.2j])
        quasi = QuasiDistribution((self.sub,), (self.ens,), table)
        assert_allclose(quasi.table, table)
        assert quasi.max_imag == pytest.approx(0.2)
        assert quasi.min_real == pytest.approx(-0.1)
        with pytest.raises(NumericalInvariantError, match="finite"):
            QuasiDistribution((self.sub,), (self.ens,), np.array([np.nan, 0.0]))

    def test_serialization_shapes(self):
        dist = joint_probability(["S1", "S2"], correlated_pair())
        d = dist.to_json_dict()
        assert d["systems"] == ["S1", "S2"]
        assert d["shape"] == [2, 2]
        assert len(d["values"]) == 4
        q = formal_joint([["S1"], ["S2"]], correlated_pair()).to_json_dict()
        assert q["systems"] == ["S1", "S2"]
        assert q["shape"] == [2, 2]
        assert [len(v) for v in q["values"]] == [2, 2, 2, 2]


class TestStackedDistributions:
    """The table checks run once per stack and raise what each member alone raises."""

    COUNT = 4
    BAD = 2  # the corrupted member

    def setup_method(self):
        comp = CompositeSystem([("A", 3), ("B", 2)])
        self.systems = (comp.subset(["A"]), comp.subset(["B"]))
        rng = np.random.default_rng(17)
        self.eigenvalues = []
        columns = []
        for s in self.systems:
            d = s.joint_dim
            vals = np.sort(rng.dirichlet(np.ones(d), self.COUNT), axis=-1)[:, ::-1]
            vals[1, -1] = 0.0  # member 1 has an empty row and column
            vals[1] /= vals[1].sum()
            vecs = np.linalg.qr(rng.standard_normal((self.COUNT, d, d)))[0]
            column = [InternalStateEnsemble(s, v, u, 1e-9) for v, u in zip(vals, vecs)]
            self.eigenvalues.append(np.stack([e.eigenvalues for e in column]))
            columns.append(column)
        self.ensembles = list(zip(*columns))
        self.tables = np.stack(
            [np.outer(a.eigenvalues, b.eigenvalues) for a, b in self.ensembles]
        )
        self.quasi = self.tables + 1j * rng.standard_normal(self.tables.shape)

    def assert_same_error(self, single, stacked):
        with pytest.raises(NumericalInvariantError) as alone:
            single()
        with pytest.raises(NumericalInvariantError) as together:
            stacked()
        assert type(together.value) is type(alone.value)
        assert str(together.value) == str(alone.value)

    def test_clean_stacks_equal_single_constructions(self):
        self.tables[1, -1, 0] = -5e-10  # rounding noise, clipped to zero
        self.tables[1, -1, -1] = 5e-10
        joints = _checked_joint(self.systems, self.eigenvalues, self.tables)
        _check_quasi(self.eigenvalues, self.quasi)
        for i in range(self.COUNT):
            alone = JointDistribution(self.systems, self.ensembles[i], self.tables[i].copy())
            assert joints[i].dtype == alone.table.dtype
            assert joints[i].shape == alone.table.shape
            assert joints[i].tobytes() == alone.table.tobytes()
        assert joints[1, -1, 0] == 0.0

    @pytest.mark.parametrize("corruption", ["floor", "above one", "sum", "marginal", "nan"])
    def test_a_corrupt_joint_member_raises_its_single_error(self, corruption):
        table = self.tables[self.BAD]
        if corruption == "floor":
            table[0, 0] = -1e-6
        elif corruption == "above one":
            table[0, 0] = 1.5
        elif corruption == "sum":
            table *= 0.99
        elif corruption == "nan":
            table[1, 0] = np.nan
        else:
            table[:] = table[::-1].copy()
        self.assert_same_error(
            lambda: JointDistribution(self.systems, self.ensembles[self.BAD], table),
            lambda: _checked_joint(self.systems, self.eigenvalues, self.tables),
        )

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_a_non_finite_quasi_member_raises_its_single_error(self, entry):
        self.quasi[self.BAD, 1, 0] = entry
        bad = self.BAD
        self.assert_same_error(
            lambda: QuasiDistribution(self.systems, self.ensembles[bad], self.quasi[bad]),
            lambda: _check_quasi(self.eigenvalues, self.quasi),
        )

    def test_shape_and_alignment_are_checked_per_member(self):
        short = [members[:1] for members in self.ensembles]
        self.assert_same_error(
            lambda: JointDistribution(self.systems, short[0], self.tables[0]),
            lambda: _checked_joint(self.systems, self.eigenvalues[:1], self.tables),
        )
        self.assert_same_error(
            lambda: QuasiDistribution(self.systems, short[0], self.quasi[0]),
            lambda: _check_quasi(self.eigenvalues[:1], self.quasi),
        )
