"""Reference-dependent states and multi-system outcome statistics.

The state of a system S relative to a reference R containing it is the
reduced matrix of R's state vector over S.  Every query takes its ensembles
from one reduction core, ``_pure_reductions`` and then the checked canonical
``eigh`` of ``schmidt``, which the Bell engine runs on whole stacks.  Joint
outcome probabilities for pairwise-disjoint systems are traces of products
of possible-internal-state projectors against the whole system's matrix;
because disjoint projectors commute, those traces are real and non-negative
and form a proper distribution.

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
The path is searched once per network shape and memoized, so the Bell
engine's repeated networks run without a search.  The table checks take
stacks of tables and of ensemble eigenvalues, so the engine checks a whole
batch at once.  Queries needing more than einsum's 52 labels are refused
up front.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, OverlappingSystemsError, ValidationError
from .hilbert import (
    CompositeSystem,
    DensityMatrix,
    PureState,
    SubsystemSet,
    as_subsystem_set,
    _lock,
    _pure_reductions,
    partial_trace,
)
from .schmidt import (
    DEFAULT_TOLERANCE,
    _checked_eigh,
    _ensemble,
    _validate_tolerance,
)

_REALNESS_ATOL = 1e-10
_CLIP_FLOOR = -1e-9
_TABLE_ATOL = 1e-9

MAX_COMPARABILITY_SYSTEMS = 16

# numpy's einsum accepts these 52 labels and no others
_EINSUM_LABELS = string.ascii_letters
# greedy contraction paths of the table kernel by (expression, operand
# shapes), oldest dropped first beyond the limit
_PATHS: dict = {}
_PATH_MEMO_LIMIT = 256


# ---------------------------------------------------------------------------
# distribution containers

def _reim_pairs(values) -> list:
    """A complex array or number as nested lists that end in [re, im] float pairs."""
    values = np.asarray(values)
    return np.stack((values.real, values.imag), -1).tolist()


def _check_table_shapes(eigenvalues, tables) -> None:
    """The table shape against the ensemble sizes.

    ``tables`` stacks B tables and ``eigenvalues`` holds one stack of
    ensemble eigenvalues per table axis, (B, n_i) or one (n_i) for all.
    """
    shape = tuple(e.shape[-1] for e in eigenvalues)
    if tables.shape[1:] != shape:
        raise NumericalInvariantError(
            f"table shape {tables.shape[1:]} does not match ensemble sizes {shape}"
        )


def _checked_joint(systems, eigenvalues, tables) -> np.ndarray:
    """``JointDistribution``'s checks on a stack of tables; returns them clipped.

    ``eigenvalues`` and ``tables`` are as in ``_check_table_shapes``.  The
    first check that any member fails raises, with that check's first
    failing member in the message, so a stack of one raises what a single
    construction does.
    """
    if len(systems) != len(eigenvalues):
        raise NumericalInvariantError("systems and ensembles are misaligned")
    _check_table_shapes(eigenvalues, tables)
    axes = tuple(range(1, tables.ndim))
    # every check is written so that NaN fails it
    lows = tables.min(axis=axes, initial=0.0)
    bad = ~(lows >= _CLIP_FLOOR)
    if bad.any():
        raise NumericalInvariantError(
            f"probability entry {float(lows[bad.argmax()]):.3e} below the clip floor "
            f"{_CLIP_FLOOR}"
        )
    if not np.all(tables.max(axis=axes, initial=0.0) <= 1.0 + _TABLE_ATOL):
        raise NumericalInvariantError("probability entry above 1")
    tables = np.clip(tables, 0.0, 1.0)
    totals = tables.sum(axis=axes)
    bad = ~(np.abs(totals - 1.0) <= _TABLE_ATOL)
    if bad.any():
        raise NumericalInvariantError(
            f"table sums to {float(totals[bad.argmax()])!r}, not 1 within {_TABLE_ATOL}"
        )
    for i in range(len(systems)):
        marg = tables.sum(axis=tuple(a for a in axes if a != i + 1))
        devs = np.max(np.abs(marg - eigenvalues[i]), axis=-1)
        bad = ~(devs <= _TABLE_ATOL)
        if bad.any():
            raise NumericalInvariantError(
                f"axis {i} marginal deviates from the ensemble probabilities by "
                f"{devs[bad.argmax()]:.3e}"
            )
    return tables


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
        table = _checked_joint(
            systems,
            [e.eigenvalues for e in ensembles],
            np.asarray(self.table, dtype=float)[None],
        )
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "ensembles", ensembles)
        object.__setattr__(self, "table", _lock(table)[0])

    def to_json_dict(self) -> dict:
        return {
            "systems": [s.label for s in self.systems],
            "shape": [int(n) for n in self.table.shape],
            "values": self.table.reshape(-1).tolist(),
        }


def _check_quasi(eigenvalues, tables) -> None:
    """``QuasiDistribution``'s checks on a stack of tables (as ``_checked_joint``)."""
    _check_table_shapes(eigenvalues, tables)
    if not np.all(np.isfinite(tables)):
        raise NumericalInvariantError("quasi table entries must be finite")


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
        table = np.array(self.table, dtype=complex)
        _check_quasi([e.eigenvalues for e in ensembles], table[None])
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
    The path depends only on the expression and the operand shapes, so it
    is searched once per such pair and memoized in ``_PATHS``; einsum runs a
    given path without searching, and the table is the same to the bit.
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
    key = (expr, tuple(op.shape for op in operands))
    path = _PATHS.get(key)
    if path is None:
        sizes = [v.shape[-1] for v in vectors]
        runs = ket.shape[0] if batched else 1
        limit = max(ket.size * max(sizes), runs * math.prod(sizes))
        path = np.einsum_path(expr, *operands, optimize=("greedy", limit))[0]
        if len(_PATHS) >= _PATH_MEMO_LIMIT:
            del _PATHS[next(iter(_PATHS))]
        _PATHS[key] = path
    return np.einsum(expr, *operands, optimize=path)


def _real_table(raw: np.ndarray) -> np.ndarray:
    """Real part of a disjoint-system table, whose imaginary part is rounding."""
    worst_imag = float(np.max(np.abs(raw.imag)))
    if worst_imag > _REALNESS_ATOL:
        raise NumericalInvariantError(
            f"disjoint-system table has imaginary residue {worst_imag:.3e}"
        )
    return raw.real


def _possible_internal_states(psi: PureState, system: SubsystemSet, tolerance: float):
    """Possible internal states of ``system`` relative to the whole of ``psi``.

    The same ensemble ``possible_internal_states`` gives for the reduced
    matrix, from the one reduction core, with no ``DensityMatrix`` built.
    """
    rho = _pure_reductions(psi.amplitudes, psi.system.dims, system.axes)
    w, v, degenerate = _checked_eigh(rho[None], tolerance)
    return _ensemble(system, w, v, tolerance, degenerate)


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
    tolerance = _validate_tolerance(tolerance)
    ensembles = tuple(_possible_internal_states(psi, s, tolerance) for s in coerced)
    raw = _projector_product_table(
        psi.tensor_view(), coerced, [e.vectors for e in ensembles]
    )
    return JointDistribution(systems=coerced, ensembles=ensembles, table=_real_table(raw))


def formal_joint(
    systems, psi: PureState, tolerance: float = DEFAULT_TOLERANCE
) -> QuasiDistribution:
    """Evaluate the projector product for arbitrary (even overlapping) systems.

    The product is taken in the caller's argument order, which is preserved
    in the output metadata; with overlap the projectors need not commute, so
    order matters and entries may be complex or negative.  Each system's
    projectors are those of its possible internal states relative to
    ``psi``; a degenerate reduced matrix contributes its canonical basis
    (see ``schmidt``).
    """
    coerced = _coerce_systems(systems, psi)
    tolerance = _validate_tolerance(tolerance)
    ensembles = tuple(_possible_internal_states(psi, s, tolerance) for s in coerced)
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
