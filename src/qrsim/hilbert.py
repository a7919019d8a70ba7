"""Labeled finite-dimensional composite Hilbert spaces and dense operations.

Index convention: product-basis states are enumerated in row-major
(lexicographic) order over the declared subsystem sequence, with the
first-declared subsystem varying slowest.  Every label-set operation
canonicalizes to declaration order, so two sets naming the same labels
always agree on axis layout.

Everything is dense.  The total dimension is capped at 2**14; the
``QRS_MAX_DIM`` environment variable may lower the cap but never raise it.

Evolution has one core for a stack of states, ``_evolve``, which ``apply``
runs on a stack of one; reductions of pure states have ``_pure_reductions``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalInvariantError, ValidationError

HARD_DIM_CAP = 2 ** 14

# construction tolerances
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGEN_FLOOR = -1e-10
UNITARY_ATOL = 1e-10
NORM_ACCEPT_BAND = 1e-6


def _dim_cap() -> int:
    raw = os.environ.get("QRS_MAX_DIM")
    if raw is None:
        return HARD_DIM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"QRS_MAX_DIM must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValidationError(f"QRS_MAX_DIM must be at least 2, got {value}")
    return min(HARD_DIM_CAP, value)


@dataclass(frozen=True)
class CompositeSystem:
    """Ordered collection of labeled subsystems with a fixed index layout."""

    subsystems: tuple

    def __init__(self, subsystems: Iterable):
        pairs = tuple((str(label), int(dim)) for label, dim in subsystems)
        if not pairs:
            raise ValidationError("a composite system needs at least one subsystem")
        seen = set()
        for label, dim in pairs:
            if not label:
                raise ValidationError("subsystem labels must be non-empty strings")
            if "+" in label:
                raise ValidationError(
                    f"subsystem label {label!r} contains '+', which joins labels"
                )
            if label in seen:
                raise ValidationError(f"duplicate subsystem label {label!r}")
            seen.add(label)
            if dim < 2:
                raise ValidationError(
                    f"subsystem {label!r} has dimension {dim}; dimensions below 2 "
                    "are rejected (a trivial factor carries no state)"
                )
        total = math.prod(dim for _, dim in pairs)
        cap = _dim_cap()
        if total > cap:
            raise ValidationError(
                f"total dimension {total} exceeds the dense-representation cap {cap}"
            )
        object.__setattr__(self, "subsystems", pairs)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Tensor axis of ``label`` in the declared layout."""
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise ValidationError(f"unknown subsystem label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.axis(label)][1]

    def subset(self, members: Iterable[str]) -> "SubsystemSet":
        return SubsystemSet(self, frozenset(members))


@dataclass(frozen=True)
class SubsystemSet:
    """Subset of a composite system's labels, canonicalized to declaration order.

    Non-empty by construction; the empty set arises only through
    :meth:`empty` / :meth:`complement` for complement arithmetic.
    """

    parent: CompositeSystem
    members: frozenset

    def __post_init__(self):
        members = frozenset(str(m) for m in self.members)
        known = set(self.parent.labels)
        unknown = members - known
        if unknown:
            raise ValidationError(
                f"labels {sorted(unknown)} are not subsystems of the parent"
            )
        if not members:
            raise ValidationError(
                "empty subsystem set; use SubsystemSet.empty for complement arithmetic"
            )
        object.__setattr__(self, "members", members)

    @classmethod
    def empty(cls, parent: CompositeSystem) -> "SubsystemSet":
        obj = object.__new__(cls)
        object.__setattr__(obj, "parent", parent)
        object.__setattr__(obj, "members", frozenset())
        return obj

    @property
    def labels(self) -> tuple:
        """Member labels in the parent's declaration order."""
        return tuple(l for l in self.parent.labels if l in self.members)

    @property
    def dims(self) -> tuple:
        return tuple(self.parent.dim_of(l) for l in self.labels)

    @property
    def joint_dim(self) -> int:
        return math.prod(self.dims) if self.members else 1

    @property
    def axes(self) -> tuple:
        return tuple(self.parent.axis(l) for l in self.labels)

    @property
    def label(self) -> str:
        """Canonical string form, members joined by '+'."""
        return "+".join(self.labels)

    def complement(self) -> "SubsystemSet":
        rest = frozenset(self.parent.labels) - self.members
        if not rest:
            return SubsystemSet.empty(self.parent)
        return SubsystemSet(self.parent, rest)

    def disjoint_from(self, other: "SubsystemSet") -> bool:
        return not (self.members & other.members)


def as_subsystem_set(value, parent: CompositeSystem) -> SubsystemSet:
    """Coerce a SubsystemSet or an iterable of labels against ``parent``.

    A SubsystemSet built against a different but label/dimension-compatible
    composite is re-anchored to ``parent``.
    """
    if isinstance(value, SubsystemSet):
        if value.parent is parent:
            return value
        return SubsystemSet(parent, value.members)
    if isinstance(value, str):
        return SubsystemSet(parent, frozenset([value]))
    return SubsystemSet(parent, frozenset(value))


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, without ``__post_init__``.

    For results whose checks have already run: the states ``_evolve`` has
    checked and normalized.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a composite system.  Immutable."""

    system: CompositeSystem
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.system.total_dim:
            raise ValidationError(
                f"amplitude vector has length {amps.size}, expected "
                f"{self.system.total_dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ACCEPT_BAND:
            raise ValidationError(
                f"state norm {norm!r} outside the acceptance band "
                f"[1-{NORM_ACCEPT_BAND}, 1+{NORM_ACCEPT_BAND}]"
            )
        object.__setattr__(self, "amplitudes", _lock(amps / norm))

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped with one axis per subsystem."""
        return self.amplitudes.reshape(self.system.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a subsystem set."""

    system: SubsystemSet
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.system.joint_dim
        if mat.shape != (d, d):
            raise ValidationError(
                f"density matrix shape {mat.shape} does not match joint dimension {d}"
            )
        _check_density(mat)
        _check_eigen_floor(np.linalg.eigvalsh(mat))
        object.__setattr__(self, "matrix", _lock(mat.copy()))


def _check_density(mats: np.ndarray) -> None:
    """Finite, Hermitian and unit-trace checks on one matrix or a stack of them."""
    if not np.all(np.isfinite(mats)):
        raise ValidationError("density matrix entries must be finite")
    herm = float(np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)))) if mats.size else 0.0
    if herm > HERMITIAN_ATOL:
        raise ValidationError(
            f"matrix is not Hermitian: max deviation {herm:.3e} > {HERMITIAN_ATOL}"
        )
    traces = np.trace(mats, axis1=-2, axis2=-1).reshape(-1)
    tr = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValidationError(f"trace {tr!r} is not 1 within {TRACE_ATOL}")


def _check_eigen_floor(eigenvalues: np.ndarray) -> None:
    """Positive-semidefiniteness check on the eigenvalues of one or more matrices."""
    lo = float(np.min(eigenvalues))
    if lo < EIGEN_FLOOR:
        raise ValidationError(
            f"matrix has eigenvalue {lo:.3e} below the floor {EIGEN_FLOOR}"
        )


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Unitary operator acting on a subsystem set, in canonical factor order."""

    support: SubsystemSet
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.support.joint_dim
        if mat.shape != (d, d):
            raise ValidationError(
                f"operator shape {mat.shape} does not match support dimension {d}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValidationError("operator entries must be finite")
        _check_unitary(mat)
        object.__setattr__(self, "matrix", _lock(mat.copy()))


def _unitary_deviation(mats: np.ndarray) -> float:
    """Largest entry of |M^H M - I| over one square matrix or a stack of them."""
    d = mats.shape[-1]
    return float(np.max(np.abs(mats.conj().swapaxes(-1, -2) @ mats - np.eye(d))))


def _check_unitary(mats: np.ndarray) -> None:
    dev = _unitary_deviation(mats)
    if dev > UNITARY_ATOL:
        raise ValidationError(
            f"matrix is not unitary: max deviation {dev:.3e} > {UNITARY_ATOL}"
        )


# ---------------------------------------------------------------------------
# factor permutation helpers

def permute_vector_factors(vec: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Re-lay-out a product-space vector from factor order F to [F[p] for p in perm]."""
    t = np.asarray(vec).reshape(tuple(dims))
    return t.transpose(perm).reshape(-1)


def permute_operator_factors(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Re-lay-out a product-space operator from factor order F to [F[p] for p in perm]."""
    dims = tuple(dims)
    n = len(dims)
    d = math.prod(dims)
    t = np.asarray(mat).reshape(dims + dims)
    axes = tuple(perm) + tuple(n + p for p in perm)
    return t.transpose(axes).reshape(d, d)


# ---------------------------------------------------------------------------
# operations

def apply(op: LocalOperator, state: PureState) -> PureState:
    """Apply a local unitary to a state (norm-preserving evolution)."""
    system = state.system
    positions = []
    for lbl in op.support.labels:
        if lbl not in system.labels:
            raise ValidationError(f"support label {lbl!r} is not part of the state")
        if system.dim_of(lbl) != op.support.parent.dim_of(lbl):
            raise ValidationError(f"dimension mismatch for {lbl!r}")
        positions.append(system.axis(lbl))
    out = _evolve(state.tensor_view()[None], [(op.matrix, positions)])
    return _frozen(PureState, system=system, amplitudes=_lock(out.reshape(-1)))


def _evolve(tensors: np.ndarray, steps) -> np.ndarray:
    """Stacked states after each (matrices, positions) step of ``steps``, in order.

    ``tensors`` has a leading stack axis, then one axis per subsystem.  A
    step applies one operator in its support's factor order, or a stack of
    them that broadcasts against the states, to the ``positions`` axes; then
    each state is checked to have kept norm 1 and is divided by its norm.
    The squared norms are row-by-column ``matmul`` products, the dot
    products ``np.linalg.norm`` sums, so a stack evolves as each of its
    states would alone, and normalizes as ``PureState`` does.
    """
    for matrices, positions in steps:
        axes = [1 + p for p in positions]
        front = range(1, 1 + len(axes))
        moved = np.moveaxis(tensors, axes, front)
        out = matrices @ moved.reshape(len(moved), matrices.shape[-1], -1)
        out = np.moveaxis(out.reshape(out.shape[:1] + moved.shape[1:]), front, axes)
        flat = out.reshape(len(out), -1)
        re, im = flat.real[:, None, :], flat.imag[:, None, :]
        norms = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= 1e-12:
            raise NumericalInvariantError(f"unitary application drifted the norm by {drift:.3e}")
        tensors = (flat / norms[:, None]).reshape(out.shape)
    return tensors


def _pure_reductions(amps: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Reduced matrices over ``keep_axes`` of state vectors on the last axis of ``amps``.

    Leading axes of ``amps`` stack independent states; each reduction is
    M M^H with M the state reshaped to (kept, traced) indices.
    """
    lead = amps.ndim - 1
    keep_axes = list(keep_axes)
    traced_axes = [i for i in range(len(dims)) if i not in keep_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    dt = math.prod(dims[i] for i in traced_axes) if traced_axes else 1
    order = list(range(lead)) + [lead + i for i in keep_axes + traced_axes]
    t = amps.reshape(amps.shape[:lead] + tuple(dims)).transpose(order)
    m = t.reshape(amps.shape[:lead] + (dk, dt))
    return m @ m.conj().swapaxes(-1, -2)


def partial_trace(state: PureState, keep) -> DensityMatrix:
    """Trace out everything outside ``keep``, returning the reduced matrix.

    ``keep`` may be a SubsystemSet or an iterable of labels; it must be a
    non-empty subset of the state's labels.  Keeping every label returns the
    state's projector.
    """
    if not isinstance(state, PureState):
        raise ValidationError(
            f"partial_trace expects a PureState, got {type(state).__name__}"
        )
    keep_set = as_subsystem_set(keep, state.system)
    rho = _pure_reductions(state.amplitudes, state.system.dims, keep_set.axes)
    try:
        return DensityMatrix(keep_set, rho)
    except ValidationError as exc:  # internally produced matrix must be valid
        raise NumericalInvariantError(f"partial trace produced an invalid matrix: {exc}") from exc
