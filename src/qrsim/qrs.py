"""Reference-dependent states and multi-system outcome statistics.

The state of a system S relative to a reference R containing it is the
reduced matrix of R's state vector over S.  Joint outcome probabilities for
pairwise-disjoint systems are traces of products of possible-internal-state
projectors against the whole system's matrix; because disjoint projectors
commute, those traces are real and non-negative and form a proper
distribution.

For overlapping systems the same projector product can still be evaluated
formally (``formal_joint``).  The result is generally complex or negative,
which is the quantitative sign that the queried systems admit no common
ignorance interpretation.  ``comparability`` decides whether a tuple of
systems can be made pairwise disjoint by replacing members with their
complements, the substitution licensed by the unique descending-coefficient
pairing across a bipartition's Schmidt decomposition.

Every table, proper or formal (a Kirkwood-Dirac quasiprobability), is one
einsum network over ket, ensemble vectors and bra, contracted on a greedy
path whose size cap comes from the inputs (``_projector_product_table``).
Queries needing more than einsum's 52 labels are refused up front.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalInvariantError,
    OverlappingSystemsError,
    UndefinedConditionalError,
    ValidationError,
)
from .hilbert import (
    CompositeSystem,
    DensityMatrix,
    PureState,
    SubsystemSet,
    as_subsystem_set,
    _lock,
    partial_trace,
)
from .schmidt import DEFAULT_TOLERANCE, InternalStateEnsemble, possible_internal_states

_REALNESS_ATOL = 1e-10
_CLIP_FLOOR = -1e-9
_TABLE_ATOL = 1e-9

MAX_COMPARABILITY_SYSTEMS = 16

# numpy's einsum accepts these 52 labels and no others
_EINSUM_LABELS = string.ascii_letters


# ---------------------------------------------------------------------------
# distribution containers

def _reim_pairs(values) -> list:
    """A complex array or number as nested lists that end in [re, im] float pairs."""
    values = np.asarray(values)
    return np.stack((values.real, values.imag), -1).tolist()


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Proper joint outcome table over pairwise-disjoint systems.

    Axis i enumerates the possible internal states of ``systems[i]`` in
    ensemble order (descending probability).  Entries in [-1e-9, 0) from
    rounding are clipped to zero; anything lower fails construction.
    """

    systems: tuple
    ensembles: tuple
    table: np.ndarray

    def __post_init__(self):
        systems = tuple(self.systems)
        ensembles = tuple(self.ensembles)
        table = np.asarray(self.table, dtype=float)
        shape = tuple(e.eigenvalues.size for e in ensembles)
        if len(systems) != len(ensembles):
            raise NumericalInvariantError("systems and ensembles are misaligned")
        if table.shape != shape:
            raise NumericalInvariantError(
                f"table shape {table.shape} does not match ensemble sizes {shape}"
            )
        if float(table.min(initial=0.0)) < _CLIP_FLOOR:
            raise NumericalInvariantError(
                f"probability entry {float(table.min()):.3e} below the clip floor {_CLIP_FLOOR}"
            )
        if float(table.max(initial=0.0)) > 1.0 + _TABLE_ATOL:
            raise NumericalInvariantError("probability entry above 1")
        table = np.clip(table, 0.0, 1.0)
        total = float(table.sum())
        if abs(total - 1.0) > _TABLE_ATOL:
            raise NumericalInvariantError(
                f"table sums to {total!r}, not 1 within {_TABLE_ATOL}"
            )
        for i, ens in enumerate(ensembles):
            marg = table.sum(axis=tuple(a for a in range(table.ndim) if a != i))
            dev = float(np.max(np.abs(marg - ens.eigenvalues)))
            if dev > _TABLE_ATOL:
                raise NumericalInvariantError(
                    f"axis {i} marginal deviates from the ensemble probabilities by {dev:.3e}"
                )
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "ensembles", ensembles)
        object.__setattr__(self, "table", _lock(table))

    def marginal(self, i: int) -> np.ndarray:
        axes = tuple(a for a in range(self.table.ndim) if a != i)
        return self.table.sum(axis=axes)

    def to_json_dict(self) -> dict:
        return {
            "systems": [s.label for s in self.systems],
            "shape": [int(n) for n in self.table.shape],
            "values": self.table.reshape(-1).tolist(),
        }


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Formal projector-product table; entries may be complex or negative.

    ``max_imag``/``min_real`` summarize how far the table is from a proper
    distribution.  Entries are preserved verbatim, never clipped.
    """

    systems: tuple
    ensembles: tuple
    table: np.ndarray

    def __post_init__(self):
        systems = tuple(self.systems)
        ensembles = tuple(self.ensembles)
        table = np.asarray(self.table, dtype=complex)
        shape = tuple(e.eigenvalues.size for e in ensembles)
        if table.shape != shape:
            raise NumericalInvariantError(
                f"table shape {table.shape} does not match ensemble sizes {shape}"
            )
        if not np.all(np.isfinite(table)):
            raise NumericalInvariantError("quasi table entries must be finite")
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "ensembles", ensembles)
        object.__setattr__(self, "table", _lock(table))

    @property
    def max_imag(self) -> float:
        return float(np.max(np.abs(self.table.imag)))

    @property
    def min_real(self) -> float:
        return float(np.min(self.table.real))

    def to_json_dict(self) -> dict:
        return {
            "systems": [s.label for s in self.systems],
            "shape": [int(n) for n in self.table.shape],
            "values": _reim_pairs(self.table.reshape(-1)),
            "max_imag": self.max_imag,
            "min_real": self.min_real,
        }


@dataclass(frozen=True)
class ComparabilityVerdict:
    """Outcome of the complement-substitution search.

    ``route`` is one of ``pairwise-disjoint`` (no substitution needed),
    ``complement-reduction`` (the listed substitutions make the tuple
    disjoint) or ``none``.  ``substitutions`` holds one (original,
    replacement) pair per replaced position, in query order; of equal
    systems, the leftmost are the ones replaced.
    """

    comparable: bool
    route: str
    substitutions: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "comparable": bool(self.comparable),
            "route": self.route,
            "substitutions": [
                {"original": orig.label, "replacement": repl.label}
                for orig, repl in self.substitutions
            ],
        }


# ---------------------------------------------------------------------------
# relative states

def state_of(target, reference, psi_ref: PureState) -> DensityMatrix:
    """State of ``target`` relative to ``reference``, whose state is ``psi_ref``.

    ``target`` must be contained in ``reference``; ``psi_ref`` must live on
    exactly the reference's subsystems.  When target equals reference the
    result is the rank-one projector of ``psi_ref``.
    """
    if not isinstance(psi_ref, PureState):
        raise ValidationError("state_of expects the reference state as a PureState")
    system = psi_ref.system
    reference_set = as_subsystem_set(reference, system)
    if reference_set.members != frozenset(system.labels):
        raise ValidationError(
            f"reference {reference_set.label!r} does not match the state's "
            f"subsystems {'+'.join(system.labels)!r}"
        )
    if isinstance(target, SubsystemSet):
        if not target.members <= reference_set.members:
            raise ValidationError(
                f"target {target.label!r} is not contained in the reference "
                f"{reference_set.label!r}"
            )
        target_set = as_subsystem_set(target.members, system)
    else:
        target_set = as_subsystem_set(target, system)
    return partial_trace(psi_ref, target_set)


# ---------------------------------------------------------------------------
# projector-product kernel

def _projector_product_table(ket: np.ndarray, systems, vectors) -> np.ndarray:
    """Entries <psi| P_1 ... P_n |psi> over all ensemble index combinations.

    ``ket`` is the state tensor, one axis per subsystem of the systems'
    parent; ``vectors[i]`` holds system i's ensemble vectors as columns.
    Both may carry one leading batch axis (every operand or none), which
    the table then carries too: a stack of runs is one contraction.

    The whole table is one einsum network.  Reading from the ket, each
    projector from P_n back to P_1 contributes the conjugated ensemble
    vectors, closing its system's current axis labels, and the ensemble
    vectors, opening fresh ones; the bra closes what is left.  Each
    ensemble index is an output axis, so no entry is computed on its own.

    The path is greedy, with intermediates capped at (state size) x (largest
    ensemble), or at the table size when the table is larger.  A tighter cap
    makes greedy stop early and hand the remaining operands to one
    many-operand loop: with numpy's default cap, the largest operand, that
    loop is slower on overlapping chains than contracting entry by entry.
    """
    labels = iter(_EINSUM_LABELS)
    batched = ket.ndim > len(systems[0].parent.dims)
    batch = next(labels) if batched else ""
    current = [next(labels) for _ in systems[0].parent.dims]
    outputs = [next(labels) for _ in systems]
    terms, operands = [batch + "".join(current)], [ket]
    for s, vecs, k in reversed(list(zip(systems, vectors, outputs))):
        vecs = vecs.reshape(vecs.shape[:-2] + s.dims + vecs.shape[-1:])
        terms.append(batch + "".join(current[a] for a in s.axes) + k)
        operands.append(vecs.conj())
        for a in s.axes:
            current[a] = next(labels)
        terms.append(batch + "".join(current[a] for a in s.axes) + k)
        operands.append(vecs)
    terms.append(batch + "".join(current))
    operands.append(ket.conj())
    expr = ",".join(terms) + "->" + batch + "".join(outputs)
    sizes = [v.shape[-1] for v in vectors]
    runs = ket.shape[0] if batched else 1
    limit = max(ket.size * max(sizes), runs * math.prod(sizes))
    return np.einsum(expr, *operands, optimize=("greedy", limit))


def _real_table(raw: np.ndarray) -> np.ndarray:
    """Real part of a disjoint-system table, whose imaginary part is rounding."""
    worst_imag = float(np.max(np.abs(raw.imag)))
    if worst_imag > _REALNESS_ATOL:
        raise NumericalInvariantError(
            f"disjoint-system table has imaginary residue {worst_imag:.3e}"
        )
    return raw.real


def _coerce_systems(systems, psi: PureState) -> tuple:
    coerced = tuple(as_subsystem_set(s, psi.system) for s in systems)
    if not coerced:
        raise ValidationError("at least one system is required")
    # one label per state axis, plus per system its fresh axes and its index
    needed = len(psi.system.dims) + sum(len(s.axes) + 1 for s in coerced)
    if needed > len(_EINSUM_LABELS):
        raise ValidationError(
            f"this query needs {needed} contraction labels; the table kernel "
            f"supports at most {len(_EINSUM_LABELS)} (fewer or smaller systems)"
        )
    return coerced


# ---------------------------------------------------------------------------
# joint statistics

def joint_probability(
    systems, psi: PureState, tolerance: float = DEFAULT_TOLERANCE
) -> JointDistribution:
    """Joint outcome table for pairwise-disjoint systems of ``psi``'s composite.

    Axis i runs over system i's possible internal states.  The product of
    the per-system projectors is evaluated against the full state; overlap
    between systems is rejected (use ``formal_joint`` for that).
    """
    coerced = _coerce_systems(systems, psi)
    for i, j in itertools.combinations(range(len(coerced)), 2):
        if not coerced[i].disjoint_from(coerced[j]):
            raise OverlappingSystemsError(
                f"systems {coerced[i].label!r} and {coerced[j].label!r} overlap; "
                "joint probabilities need pairwise-disjoint systems "
                "(formal_joint evaluates overlapping queries)"
            )
    ensembles = tuple(
        possible_internal_states(partial_trace(psi, s), tolerance) for s in coerced
    )
    raw = _projector_product_table(
        psi.tensor_view(), coerced, [e.vectors for e in ensembles]
    )
    return JointDistribution(systems=coerced, ensembles=ensembles, table=_real_table(raw))


def conditional_probability(dist: JointDistribution, given) -> np.ndarray:
    """Distribution over the remaining axes given one system's outcome.

    ``given`` is a (system_index, state_index) pair.  Conditioning on an
    outcome of zero marginal probability is undefined and rejected.
    """
    if not isinstance(dist, JointDistribution):
        raise ValidationError("conditional_probability expects a JointDistribution")
    try:
        sys_index, state_index = (int(v) for v in given)
    except (TypeError, ValueError):
        raise ValidationError(
            "given must be a (system_index, state_index) pair"
        ) from None
    ndim = dist.table.ndim
    if not 0 <= sys_index < ndim:
        raise ValidationError(f"system index {sys_index} out of range for {ndim} systems")
    if not 0 <= state_index < dist.table.shape[sys_index]:
        raise ValidationError(
            f"state index {state_index} out of range for axis of size "
            f"{dist.table.shape[sys_index]}"
        )
    if ndim < 2:
        raise ValidationError("conditioning needs at least two systems")
    sliced = np.take(dist.table, state_index, axis=sys_index)
    weight = float(sliced.sum())
    if weight <= 0.0:
        raise UndefinedConditionalError(
            f"outcome {state_index} of system {sys_index} has zero probability; "
            "the conditional is undefined"
        )
    return sliced / weight


def formal_joint(
    systems,
    psi: PureState,
    tolerance: float = DEFAULT_TOLERANCE,
    bases=None,
) -> QuasiDistribution:
    """Evaluate the projector product for arbitrary (even overlapping) systems.

    The product is taken in the caller's argument order, which is preserved
    in the output metadata; with overlap the projectors need not commute, so
    order matters and entries may be complex or negative.

    ``bases`` optionally overrides the ensemble used for individual systems
    (a list aligned with ``systems``; None entries fall back on
    ``possible_internal_states``).  Any override must be a complete
    orthonormal ensemble on its system; the hook exists because a degenerate
    reduced matrix does not single out its eigenbasis.
    """
    coerced = _coerce_systems(systems, psi)
    if bases is None:
        bases = [None] * len(coerced)
    if len(bases) != len(coerced):
        raise ValidationError("bases must align with systems")
    ensembles = []
    for s, override in zip(coerced, bases):
        if override is None:
            ensembles.append(possible_internal_states(partial_trace(psi, s), tolerance))
        else:
            if not isinstance(override, InternalStateEnsemble):
                raise ValidationError("basis overrides must be InternalStateEnsemble values")
            if override.subsystem.members != s.members:
                raise ValidationError(
                    f"override ensemble is for {override.subsystem.label!r}, "
                    f"not {s.label!r}"
                )
            if override.eigenvalues.size != s.joint_dim:
                raise ValidationError(
                    "override ensemble must be complete on its system"
                )
            ensembles.append(override)
    ensembles = tuple(ensembles)
    table = _projector_product_table(
        psi.tensor_view(), coerced, [e.vectors for e in ensembles]
    )
    return QuasiDistribution(systems=coerced, ensembles=ensembles, table=table)


# ---------------------------------------------------------------------------
# comparability

def comparability(systems, parent: CompositeSystem) -> ComparabilityVerdict:
    """Decide whether the systems can be measured jointly.

    Searches all 2**n substitution patterns (each system kept or replaced by
    its complement in ``parent``), fewest substitutions first.  Patterns
    producing an empty set are skipped: a complement can only stand in for
    its partner across a proper bipartition.
    """
    coerced = tuple(as_subsystem_set(s, parent) for s in systems)
    if not coerced:
        raise ValidationError("at least one system is required")
    if len(coerced) > MAX_COMPARABILITY_SYSTEMS:
        raise ValidationError(
            f"comparability search is capped at {MAX_COMPARABILITY_SYSTEMS} systems, "
            f"got {len(coerced)}"
        )
    n = len(coerced)
    member_sets = [s.members for s in coerced]
    all_labels = frozenset(parent.labels)

    for flips in range(n + 1):
        for combo in itertools.combinations(range(n), flips):
            flipped = set(combo)
            candidate = [
                (all_labels - member_sets[i]) if i in flipped else member_sets[i]
                for i in range(n)
            ]
            if any(not c for c in candidate):
                continue
            ok = all(
                not (candidate[i] & candidate[j])
                for i, j in itertools.combinations(range(n), 2)
            )
            if not ok:
                continue
            if not flipped:
                return ComparabilityVerdict(comparable=True, route="pairwise-disjoint")
            subs = tuple(
                (coerced[i], SubsystemSet(parent, candidate[i])) for i in sorted(flipped)
            )
            return ComparabilityVerdict(
                comparable=True, route="complement-reduction", substitutions=subs
            )
    return ComparabilityVerdict(comparable=False, route="none")
