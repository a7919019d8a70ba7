"""Pointer-coupling dynamics and seeded readout of internal states.

A perfect measurement is the von Neumann premeasurement on (measured
system, pointer), U = sum_k |b_k><b_k| (x) S_k, with S_k the cyclic pointer
shift from the ready position to outcome k's: |b_k>|m_ready> -> |b_k>|m_k>.
U stays factored, the measured basis B plus a pointer gather index, and is
applied as one step: rotate the target by B^H, shift each basis index's
pointer, rotate back by B.  No dense matrix or U^H U is formed: U is
unitary because B is checked orthonormal and each S_k permutes positions.

Readout statistics live in the pointer's possible internal states, so
sampling an outcome reduces to drawing an index from a probability vector
with a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import UNITARY_ATOL, SubsystemSet, _evolve, _lock, _unitary_deviation
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
        pointer_dim = d + 1 if pointer_dim is None else pointer_dim
        if pointers is None:  # cls() refuses a pointer_dim below d, 0 included
            p = max(int(pointer_dim), 1)
            pointers = [(int(ready_index) + 1 + k) % p for k in range(d)]
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


class _DeviceCoupling:
    """Premeasurement sum_k |b_k><b_k| (x) S_k on ``target`` and ``pointer``, factored.

    ``bases`` is one measured basis (columns) or a stack of them, checked
    orthonormal here.  S_k shifts the pointer by s_k = pointers[k] -
    ready_index, so flat (basis index, pointer) slot k * p + q takes its
    amplitude from ``gather[k * p + q]`` = k * p + (q - s_k) mod p.
    ``order`` is the step's axes: the target's labels, then the pointer.
    """

    def __init__(self, target: SubsystemSet, pointer: str, bases, pointers, ready_index):
        _check_basis(bases)
        p = target.parent.dim_of(pointer)
        shifts = np.asarray(pointers)[:, None] - ready_index
        source = (np.arange(p) - shifts) % p + p * np.arange(len(shifts))[:, None]
        self.support = SubsystemSet(target.parent, target.members | {pointer})
        self.order = target.labels + (pointer,)
        self.basis = bases
        self.gather = source.reshape(-1)

    def _step(self, labels) -> tuple:
        """This coupling's ``_evolve`` step on a register with factor ``labels``."""
        return [labels.index(l) for l in self.order], self.basis, self.gather

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix in the support's factor order, built anew on each read."""
        d = self.support.joint_dim
        columns = np.eye(d, dtype=complex).reshape((d,) + self.support.dims)
        return _evolve(columns, [self._step(self.support.labels)]).reshape(d, d).T


def build_measurement_unitary(
    device: MeasurementDevice, target: SubsystemSet
) -> _DeviceCoupling:
    """Coupling unitary on (target, pointer) implementing the device.

    Acts as |b_k>|m_ready> -> |b_k>|m_pk>, shifting the pointer cyclically
    within each measured-basis block.  The basis, orthonormal within
    UNITARY_ATOL, is replaced by its polar factor, the nearest orthonormal
    basis, so evolution keeps the norm to rounding error.
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
    u, _, vh = np.linalg.svd(device.basis)
    return _DeviceCoupling(
        target, device.label, u @ vh, device.pointers, device.ready_index
    )


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


def _seeded_draws(weights: np.ndarray, count, seed) -> np.ndarray:
    """``count`` PCG64 draws of indices in proportion to ``weights``, count checked first."""
    count = _sample_count(count)
    total = weights.sum()
    if total <= 0.0:
        raise ValidationError("cannot sample from an all-zero table")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    return rng.choice(weights.size, size=count, p=weights / total)


def sample_outcome_indices(
    ensemble: InternalStateEnsemble, count: int, seed: int
) -> np.ndarray:
    """Vector of ``count`` seeded draws from the ensemble's probabilities."""
    return _seeded_draws(ensemble.eigenvalues, count, seed)
