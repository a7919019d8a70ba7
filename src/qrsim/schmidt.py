"""Internal-state ensembles and Schmidt decompositions across bipartitions.

The possible internal states of a subsystem are the eigenvectors of its
reduced matrix, with the eigenvalues as their probabilities.  Output order
is descending by eigenvalue; zero-probability states are retained and
flagged so eigenbases stay complete.

Degenerate eigenvalue clusters have no preferred basis, so they are
canonicalized deterministically: the cluster basis is rotated to
diagonalize the projection of a fixed diagonal perturbation (entries
1, 2, 3, ... in the computational basis), then every vector's phase is
fixed so its largest-magnitude component is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .hilbert import (
    DensityMatrix,
    PureState,
    SubsystemSet,
    as_subsystem_set,
    _check_density,
    _check_eigen_floor,
    _lock,
    permute_vector_factors,
)

DEFAULT_TOLERANCE = 1e-9
_ENSEMBLE_ATOL = 1e-9


def _validate_tolerance(tolerance: float) -> float:
    tolerance = float(tolerance)
    if not (0.0 < tolerance <= 1e-3):
        raise ValidationError(f"tolerance must lie in (0, 1e-3], got {tolerance!r}")
    return tolerance


def _fix_phases(vectors: np.ndarray) -> tuple:
    """Rotate each column so its largest-magnitude component is real positive.

    ``vectors`` is one matrix of columns or a stack of them.  Returns the
    rotated copy and the unit phase divided out of each column (1 for a
    zero column), so a caller can move that phase elsewhere.
    """
    rows = np.argmax(np.abs(vectors), axis=-2)
    pivot = np.take_along_axis(vectors, rows[..., None, :], axis=-2)[..., 0, :]
    # hypot rounds as abs() of one complex number does; np.abs of an array may not
    mag = np.hypot(pivot.real, pivot.imag)
    phases = np.divide(pivot, mag, out=np.ones_like(pivot), where=mag > 0.0)
    return vectors * phases.conj()[..., None, :], phases


def _checked_ensembles(d: int, vals, vecs, tolerance, negligible) -> tuple:
    """``InternalStateEnsemble``'s checks on a stack of members.

    ``vals`` is (B, n) and ``vecs`` (B, d, n); ``negligible`` is None, for
    flags read off the eigenvalues, or B members' flags.  The first check
    that any member fails raises, with that check's first failing member in
    the message, so a stack of one raises what a single construction does.
    Returns the eigenvalues clipped to [0, 1] and the negligible flags.
    """
    n = vals.shape[-1]
    if vecs.shape[1:] != (d, n):
        raise ValidationError(
            f"vector matrix shape {vecs.shape[1:]} does not match "
            f"(dimension {d}, {n} states)"
        )
    # every check is written so that NaN fails it
    if not np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12)):
        raise ValidationError("eigenvalues must lie in [0, 1]")
    if np.any(np.diff(vals) > 1e-12):
        raise ValidationError("eigenvalues must be in descending order")
    sums = vals.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= _ENSEMBLE_ATOL)
    if bad.any():
        raise ValidationError(
            f"eigenvalues sum to {float(sums[bad.argmax()])!r}, not 1 within {_ENSEMBLE_ATOL}"
        )
    gram = vecs.conj().swapaxes(-1, -2) @ vecs
    devs = np.max(np.abs(gram - np.eye(n)), axis=(-2, -1))
    bad = ~(devs <= _ENSEMBLE_ATOL)
    if bad.any():
        raise ValidationError(
            f"state vectors are not orthonormal: deviation {devs[bad.argmax()]:.3e}"
        )
    if negligible is None:
        negligible = vals < tolerance
    else:
        negligible = np.array(negligible, dtype=bool).reshape(len(vals), -1)
        if negligible.shape != vals.shape:
            raise ValidationError("negligible flags must align with eigenvalues")
    return np.clip(vals, 0.0, 1.0), negligible


@dataclass(frozen=True, eq=False)
class InternalStateEnsemble:
    """Eigenvalue-ordered possible internal states of one subsystem set."""

    subsystem: SubsystemSet
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, aligned with eigenvalues
    tolerance: float = DEFAULT_TOLERANCE
    degenerate: bool = False
    negligible: np.ndarray = None

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=complex)
        vals, neg = _checked_ensembles(
            self.subsystem.joint_dim,
            np.asarray(self.eigenvalues, dtype=float).reshape(1, -1),
            vecs[None],
            self.tolerance,
            self.negligible,
        )
        object.__setattr__(self, "eigenvalues", _lock(vals)[0])
        object.__setattr__(self, "vectors", _lock(vecs))
        object.__setattr__(self, "negligible", _lock(neg)[0])


def possible_internal_states(
    rho: DensityMatrix, tolerance: float = DEFAULT_TOLERANCE
) -> InternalStateEnsemble:
    """Full eigendecomposition of a reduced matrix as an outcome ensemble.

    Eigenvalues are clipped to [0, 1] and sorted descending; values below
    ``tolerance`` are kept but flagged negligible.  Clusters with adjacent
    gaps below ``tolerance`` mark the ensemble degenerate and are rotated to
    the canonical perturbation basis (see module docstring), which depends
    only on the eigenvalue multiset, never on the input's eigenvector phases.
    """
    tolerance = _validate_tolerance(tolerance)
    if not isinstance(rho, DensityMatrix):
        raise ValidationError("possible_internal_states expects a DensityMatrix")
    w, v, degenerate = _canonical_eigh(rho.matrix[None], tolerance)
    return _ensemble(rho.system, w, v, tolerance, degenerate)


def _canonical_eigh(matrices: np.ndarray, tolerance: float) -> tuple:
    """Canonical eigendecompositions of a stack of Hermitian matrices.

    Returns (w, v, degenerate): eigenvalues sorted descending, unclipped;
    eigenvector columns aligned with them, each degenerate cluster rotated
    to the perturbation basis and every phase fixed (module docstring); and
    per matrix whether it has a cluster.  Matrices with clusters are
    canonicalized together, one group per cluster layout.
    """
    w, v = np.linalg.eigh(matrices)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    # adjacent eigenvalues closer than the tolerance share a cluster
    joined = w[:, :-1] - w[:, 1:] < tolerance
    degenerate = joined.any(axis=-1)
    if degenerate.any():
        d = w.shape[-1]
        perturbation = np.arange(1, d + 1, dtype=float)
        groups: dict = {}
        for n in np.flatnonzero(degenerate):
            groups.setdefault(joined[n].tobytes(), []).append(n)
        for group in groups.values():
            bounds = [0, *(np.flatnonzero(~joined[group[0]]) + 1), d]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi - lo < 2:
                    continue
                block = v[group, :, lo:hi]
                projected = block.conj().swapaxes(-1, -2) @ (perturbation[:, None] * block)
                _, rot = np.linalg.eigh(projected)
                v[group, :, lo:hi] = block @ rot
    v, _ = _fix_phases(v)
    return w, v, degenerate


def _checked_eigh(rhos: np.ndarray, tolerance: float) -> tuple:
    """``_canonical_eigh`` of a stack of internally computed reductions.

    The reductions get ``DensityMatrix``'s checks, its floor on the
    eigenvalues ``eigh`` returns; a failure is the library's own, so it
    raises ``NumericalInvariantError``.
    """
    try:
        _check_density(rhos)
        w, v, degenerate = _canonical_eigh(rhos, tolerance)
        _check_eigen_floor(w)
    except ValidationError as exc:
        raise NumericalInvariantError(
            f"partial trace produced an invalid matrix: {exc}"
        ) from exc
    return w, v, degenerate


def _checked_eigen(d: int, w: np.ndarray, v: np.ndarray, tolerance: float) -> tuple:
    """``_checked_ensembles`` on a stack of canonical eigendecompositions.

    ``w`` and ``v`` are as ``_canonical_eigh`` returns them; a failure is the
    library's own, so it raises ``NumericalInvariantError``.  Returns the
    clipped eigenvalues and the negligible flags.
    """
    try:
        return _checked_ensembles(d, np.clip(w, 0.0, 1.0), v, tolerance, None)
    except ValidationError as exc:
        raise NumericalInvariantError(f"eigendecomposition broke an invariant: {exc}") from exc


def _ensemble(subsystem, w, v, tolerance, degenerate) -> InternalStateEnsemble:
    """The ensemble of a stack of one canonical eigendecomposition."""
    vals, _ = _checked_eigen(subsystem.joint_dim, w, v, tolerance)
    return InternalStateEnsemble(subsystem, vals[0], v[0], tolerance, bool(degenerate[0]))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite decomposition sum_k c_k |left_k> |right_k| of a pure state."""

    left: SubsystemSet
    right: SubsystemSet
    coefficients: np.ndarray
    left_basis: np.ndarray   # columns
    right_basis: np.ndarray  # columns
    rank: int
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.left.parent is not self.right.parent:
            raise ValidationError("left and right sets must share a parent")
        if self.left.members & self.right.members:
            raise ValidationError("left and right sets overlap")
        if self.left.members | self.right.members != frozenset(self.left.parent.labels):
            raise ValidationError("left and right sets must partition the parent")
        raw = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if float(np.max(np.abs(raw.imag), initial=0.0)) > 1e-12:
            raise ValidationError("coefficients must be real (phases go in the bases)")
        coeffs = raw.real.astype(float)
        if coeffs.size and float(coeffs.min()) < -1e-12:
            raise ValidationError("coefficients must be non-negative")
        if coeffs.size and float(np.max(np.diff(coeffs), initial=0.0)) > 1e-12:
            raise ValidationError("coefficients must be in descending order")
        coeffs = np.clip(coeffs, 0.0, None)
        lb = np.asarray(self.left_basis, dtype=complex)
        rb = np.asarray(self.right_basis, dtype=complex)
        k = coeffs.size
        if lb.shape != (self.left.joint_dim, k) or rb.shape != (self.right.joint_dim, k):
            raise ValidationError("basis shapes do not match the coefficient count")
        total = float(np.sum(np.abs(coeffs) ** 2))
        if abs(total - 1.0) > _ENSEMBLE_ATOL:
            raise ValidationError(
                f"squared coefficients sum to {total!r}, not 1 within {_ENSEMBLE_ATOL}"
            )
        for name, basis in (("left", lb), ("right", rb)):
            dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(k))))
            if dev > _ENSEMBLE_ATOL:
                raise ValidationError(f"{name} basis is not orthonormal: deviation {dev:.3e}")
        expected_rank = int(np.sum(coeffs > self.tolerance))
        if self.rank != expected_rank:
            raise ValidationError(
                f"rank {self.rank} does not match the {expected_rank} coefficients "
                f"above tolerance {self.tolerance}"
            )
        object.__setattr__(self, "coefficients", _lock(coeffs.copy()))
        object.__setattr__(self, "left_basis", _lock(lb.copy()))
        object.__setattr__(self, "right_basis", _lock(rb.copy()))


def schmidt_decompose(
    psi: PureState, left, tolerance: float = DEFAULT_TOLERANCE
) -> SchmidtDecomposition:
    """Decompose ``psi`` across the (left, complement) bipartition.

    Coefficients come back real, non-negative and descending; phases are
    absorbed into the right basis.  All min(d_left, d_right) terms are
    retained, ``rank`` counting those above ``tolerance``.
    """
    tolerance = _validate_tolerance(tolerance)
    system = psi.system
    left_set = as_subsystem_set(left, system)
    if left_set.members == frozenset(system.labels):
        raise ValidationError(
            "left set covers the whole system; a bipartition needs a non-empty complement"
        )
    right_set = left_set.complement()

    dims = system.dims
    left_axes = list(left_set.axes)
    right_axes = list(right_set.axes)
    dl = left_set.joint_dim
    dr = right_set.joint_dim
    mat = psi.tensor_view().transpose(left_axes + right_axes).reshape(dl, dr)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)

    # canonical phases: left pivots real positive, compensation on the right
    u, phases = _fix_phases(u)
    vh = vh * phases[:, None]

    rank = int(np.sum(s > tolerance))
    try:
        return SchmidtDecomposition(
            left=left_set,
            right=right_set,
            coefficients=s,
            left_basis=u,
            right_basis=vh.T,
            rank=rank,
            tolerance=tolerance,
        )
    except ValidationError as exc:
        raise NumericalInvariantError(f"decomposition broke an invariant: {exc}") from exc


def reconstruct(sd: SchmidtDecomposition) -> PureState:
    """Reassemble the pure state in the parent's canonical index order."""
    parent = sd.left.parent
    mat = sd.left_basis @ (sd.coefficients[:, None] * sd.right_basis.T)
    src_order = list(sd.left.labels) + list(sd.right.labels)
    dims_src = [parent.dim_of(l) for l in src_order]
    perm = [src_order.index(l) for l in parent.labels]
    amps = permute_vector_factors(mat.reshape(-1), dims_src, perm)
    return PureState(parent, amps)
