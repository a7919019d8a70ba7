"""The evolve and reduction cores against the public single-state routes.

``apply`` and the Bell engine evolve through one batched core, and
``joint_probability``, ``formal_joint`` and the engine reduce through one
checked eigendecomposition.  These properties pin the cores to routes that
do not use them: the public ``possible_internal_states(partial_trace(...))``
chain, bit for bit, with the tables contracted by the table kernel on that
chain's ensembles, and a ``np.kron`` oracle for evolution.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import kron_embedded
from qrsim import (
    CompositeSystem,
    LocalOperator,
    PureState,
    apply,
    formal_joint,
    joint_probability,
    partial_trace,
    possible_internal_states,
)
from qrsim.qrs import _projector_product_table

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# few distinct values make degenerate spectra common
COARSE = st.sampled_from([0.0, 1.0, -1.0, 1j, 0.5 - 0.5j])
FINE = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def states(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    total = int(np.prod(dims))
    amps = np.array(draw(st.lists(st.one_of(COARSE, FINE), min_size=total, max_size=total)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    comp = CompositeSystem([(f"S{i}", d) for i, d in enumerate(dims, 1)])
    return PureState(comp, amps / norm)


def label_groups(draw, psi, disjoint):
    """Non-empty label groups of ``psi``'s system, pairwise disjoint if asked."""
    labels = list(psi.system.labels)
    if disjoint:
        owner = draw(st.lists(st.integers(-1, 2), min_size=len(labels), max_size=len(labels)))
        groups = [[l for l, o in zip(labels, owner) if o == g] for g in range(3)]
        groups = [g for g in groups if g]
        assume(groups)
        return groups
    pick = st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True)
    return draw(st.lists(pick, min_size=1, max_size=3))


def public_ensemble(psi, system):
    return possible_internal_states(partial_trace(psi, system))


def public_table(psi, systems, ensembles):
    """The table kernel on the public route's ensembles."""
    return _projector_product_table(psi.tensor_view(), systems, [e.vectors for e in ensembles])


def assert_same_ensembles(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.subsystem == w.subsystem
        assert g.degenerate == w.degenerate
        for name in ("eigenvalues", "vectors", "negligible"):
            assert np.array_equal(getattr(g, name), getattr(w, name))


@SETTINGS
@given(data=st.data())
def test_joint_probability_matches_the_public_route(data):
    psi = data.draw(states())
    groups = label_groups(data.draw, psi, disjoint=True)
    dist = joint_probability(groups, psi)
    want = [public_ensemble(psi, s) for s in dist.systems]
    assert_same_ensembles(dist.ensembles, want)
    table = public_table(psi, dist.systems, want)
    assert np.array_equal(dist.table, np.clip(table.real, 0.0, 1.0))


@SETTINGS
@given(data=st.data())
def test_formal_joint_matches_the_public_route(data):
    psi = data.draw(states())
    groups = label_groups(data.draw, psi, disjoint=False)
    quasi = formal_joint(groups, psi)
    want = [public_ensemble(psi, s) for s in quasi.systems]
    assert_same_ensembles(quasi.ensembles, want)
    assert np.array_equal(quasi.table, public_table(psi, quasi.systems, want))


@SETTINGS
@given(data=st.data())
def test_apply_matches_the_kron_oracle(data):
    psi = data.draw(states())
    comp = psi.system
    labels = data.draw(
        st.lists(st.sampled_from(comp.labels), min_size=1, max_size=2, unique=True)
    )
    support = comp.subset(labels)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = support.joint_dim
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    out = apply(LocalOperator(support, u), psi)
    want = kron_embedded(u, comp.dims, support.axes) @ psi.amplitudes
    assert_allclose(out.amplitudes, want, atol=1e-12)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
