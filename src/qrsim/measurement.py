"""Pointer-coupling dynamics and seeded readout of internal states.

A perfect measurement is a unitary on (measured system, pointer) steering
the pointer's ready state to a distinct position for each measured-basis
vector: |b_k>|m_ready> -> |b_k>|m_k>.  Only those columns are physically
fixed; the rest of each basis block is completed with a cyclic pointer
permutation, which is exactly unitary and never populated by a run started
from the ready state.

Readout statistics live in the pointer's possible internal states, so
sampling an outcome reduces to drawing an index from an ensemble's
probability vector with a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import (
    LocalOperator,
    SubsystemSet,
    UNITARY_ATOL,
    _lock,
    _unitary_deviation,
    permute_operator_factors,
)
from .schmidt import InternalStateEnsemble

SAMPLER_ALGORITHM = "numpy.random.PCG64"
# draws per sampling call; 10**7 draws take about 160 MB of buffers
MAX_SAMPLES = 10 ** 7


@dataclass(frozen=True, eq=False)
class MeasurementDevice:
    """Pointer subsystem plus the basis it records.

    ``outcome_map`` pairs each measured-basis vector with the pointer index
    the ready state is steered to when that vector is found.  The vectors
    must form a complete orthonormal basis of the measured system; pointer
    indices must be pairwise distinct (coinciding with ``ready_index`` is
    allowed and leaves that outcome's pointer parked).
    """

    label: str
    outcome_map: tuple
    pointer_dim: int | None = None
    ready_index: int = 0

    def __post_init__(self):
        label = str(self.label)
        if not label:
            raise ValidationError("device label must be a non-empty string")
        entries = []
        for entry in self.outcome_map:
            try:
                vector, pointer = entry
            except (TypeError, ValueError):
                raise ValidationError(
                    "outcome_map entries must be (vector, pointer_index) pairs"
                ) from None
            vec = np.asarray(vector, dtype=complex).reshape(-1)
            if not np.all(np.isfinite(vec)):
                raise ValidationError("measured-basis vectors must be finite")
            entries.append((_lock(vec.copy()), int(pointer)))
        if not entries:
            raise ValidationError("outcome_map must define at least one outcome")
        d = entries[0][0].size
        if any(vec.size != d for vec, _ in entries):
            raise ValidationError("measured-basis vectors must share one dimension")
        if len(entries) != d:
            raise ValidationError(
                f"{len(entries)} basis vectors cannot be complete on a "
                f"{d}-dimensional system"
            )
        _check_basis(np.stack([vec for vec, _ in entries], axis=1))
        pointer_dim = self.pointer_dim
        if pointer_dim is None:
            pointer_dim = d + 1
        pointer_dim = int(pointer_dim)
        if pointer_dim < d:
            raise ValidationError(
                f"pointer dimension {pointer_dim} cannot resolve {d} outcomes"
            )
        ready = int(self.ready_index)
        if not 0 <= ready < pointer_dim:
            raise ValidationError(
                f"ready index {ready} out of range for pointer dimension {pointer_dim}"
            )
        pointers = [p for _, p in entries]
        for p in pointers:
            if not 0 <= p < pointer_dim:
                raise ValidationError(
                    f"pointer index {p} out of range for pointer dimension {pointer_dim}"
                )
        if len(set(pointers)) != len(pointers):
            raise ValidationError(
                f"pointer collision: outcome pointer indices {pointers} are not distinct"
            )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "outcome_map", tuple(entries))
        object.__setattr__(self, "pointer_dim", pointer_dim)
        object.__setattr__(self, "ready_index", ready)

    @property
    def outcomes(self) -> int:
        return len(self.outcome_map)

    @property
    def basis(self) -> np.ndarray:
        """Measured basis, one vector per column in outcome order."""
        return np.stack([vec for vec, _ in self.outcome_map], axis=1)

    @property
    def pointers(self) -> tuple:
        return tuple(p for _, p in self.outcome_map)

    @classmethod
    def from_basis(
        cls,
        label: str,
        basis: np.ndarray,
        pointer_dim: int | None = None,
        ready_index: int = 0,
        pointers=None,
    ) -> "MeasurementDevice":
        """Build a device from a basis matrix (columns = measured vectors).

        Default pointer assignment sends outcome k to position
        (ready_index + 1 + k) mod pointer_dim.
        """
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValidationError("basis must be a square matrix of column vectors")
        d = basis.shape[1]
        if pointer_dim is None:
            pointer_dim = d + 1
        if pointers is None:
            pointers = [(int(ready_index) + 1 + k) % int(pointer_dim) for k in range(d)]
        if len(pointers) != d:
            raise ValidationError("pointers must assign one index per basis vector")
        outcome_map = tuple(
            (basis[:, k], int(pointers[k])) for k in range(d)
        )
        return cls(
            label=label,
            outcome_map=outcome_map,
            pointer_dim=pointer_dim,
            ready_index=ready_index,
        )


def _check_basis(bases: np.ndarray) -> None:
    """Orthonormality check on one measured basis (columns) or a stack of them."""
    gram_dev = _unitary_deviation(bases)
    if gram_dev > UNITARY_ATOL:
        raise ValidationError(
            f"measured basis is not orthonormal: max Gram deviation "
            f"{gram_dev:.3e} > {UNITARY_ATOL}"
        )


def _coupling_matrix(bases: np.ndarray, pointers, ready_index: int, pointer_dim: int):
    """Coupling matrix on (measured system, pointer), in that factor order.

    ``bases`` is one measured basis (columns) or a stack of them.  Outcome k
    shifts the pointer cyclically by s_k = pointers[k] - ready_index, so its
    projector |b_k><b_k| fills the slots u[:, (q + s_k) % p, :, q] of the
    (d, p, d, p) tensor.  Slots are accumulated into zeros, which gives the
    same bits as summing kron(|b_k><b_k|, shift_k) over k.
    """
    d = bases.shape[-1]
    p = pointer_dim
    u = np.zeros(bases.shape[:-2] + (d, p, d, p), dtype=complex)
    q = np.arange(p)
    for k, pointer in enumerate(pointers):
        vec = bases[..., :, k]
        u[..., :, (q + pointer - ready_index) % p, :, q] += (
            vec[..., :, None] * vec[..., None, :].conj()
        )
    return u.reshape(bases.shape[:-2] + (d * p, d * p))


def build_measurement_unitary(
    device: MeasurementDevice, target: SubsystemSet
) -> LocalOperator:
    """Coupling unitary on (target, pointer) implementing the device.

    Acts as |b_k>|m_ready> -> |b_k>|m_pk|; within each measured-basis block
    the pointer undergoes the cyclic shift taking ready to that outcome's
    position, which completes the mapping to a full unitary.
    """
    parent = target.parent
    if not target.members:
        raise ValidationError("measurement target must be non-empty")
    if device.label in target.members:
        raise ValidationError(
            f"device pointer {device.label!r} cannot be part of its own target"
        )
    if device.label not in parent.labels:
        raise ValidationError(
            f"device pointer {device.label!r} is not a subsystem of the composite"
        )
    dp = parent.dim_of(device.label)
    if dp != device.pointer_dim:
        raise ValidationError(
            f"subsystem {device.label!r} has dimension {dp}, device expects "
            f"pointer dimension {device.pointer_dim}"
        )
    d = target.joint_dim
    if device.basis.shape[0] != d:
        raise ValidationError(
            f"measured-basis dimension {device.basis.shape[0]} does not match "
            f"target dimension {d}"
        )
    u = _coupling_matrix(
        device.basis, device.pointers, device.ready_index, device.pointer_dim
    )
    built_order = list(target.labels) + [device.label]
    support = SubsystemSet(parent, target.members | {device.label})
    canonical = support.labels
    dims = [parent.dim_of(l) for l in built_order]
    perm = [built_order.index(l) for l in canonical]
    matrix = permute_operator_factors(u, dims, perm)
    return LocalOperator(support=support, matrix=matrix)


def spin_basis(theta) -> np.ndarray:
    """Qubit basis at angle theta from the z axis (half-angle rotation).

    Columns: xi1 = (cos t/2, sin t/2), xi2 = (-sin t/2, cos t/2).  An array
    of angles gives a stack of bases, one per angle.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("spin basis angle must be finite")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    basis = np.empty(theta.shape + (2, 2), dtype=complex)
    basis[..., 0, 0] = c
    basis[..., 0, 1] = -s
    basis[..., 1, 0] = s
    basis[..., 1, 1] = c
    return basis


def _sample_count(count) -> int:
    """``count`` as an int, checked to lie in [1, MAX_SAMPLES] before any draw."""
    count = int(count)
    if count < 1:
        raise ValidationError("sample count must be positive")
    if count > MAX_SAMPLES:
        raise ValidationError(f"sample count is capped at {MAX_SAMPLES}, got {count}")
    return count


def sample_outcome_indices(
    ensemble: InternalStateEnsemble, count: int, seed: int
) -> np.ndarray:
    """Vector of ``count`` seeded draws from the ensemble's probabilities."""
    count = _sample_count(count)
    weights = ensemble.eigenvalues
    probs = weights / float(weights.sum())
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    return rng.choice(probs.size, size=count, p=probs)
