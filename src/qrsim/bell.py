"""Two-particle spin experiment with competing outcome statistics.

The prepared pair a|ud> - b|du> is measured by two pointer devices at
angles theta1 and theta2.  Three quantities are computed from one state
vector:

* the proper joint outcome table of the two pointers, whose correlator for
  the maximally entangled pair is -cos(theta1 - theta2);
* the same run preceded by a z-axis measurement of the first particle
  (recorded on a third pointer), whose marginalized table factorizes and
  gives the correlator -cos(theta1) * cos(theta2);
* the formal three-system table over (first particle + its pointer, first
  pointer, second pointer), which is generally complex or negative exactly
  where the proper correlator beats every factorizing model.

CHSH values are read off one grid of runs over the settings they involve,
and each distinct setting runs once.

Outcome indexing everywhere: index 0 is the basis vector at the device
angle (value +1), index 1 its orthogonal companion (value -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .hilbert import (
    CompositeSystem,
    NORM_ACCEPT_BAND,
    PureState,
    _lock,
    apply,
)
from .measurement import MeasurementDevice, build_measurement_unitary, spin_basis
from .qrs import JointDistribution, QuasiDistribution, _reim_pairs, formal_joint, joint_probability
from .schmidt import DEFAULT_TOLERANCE, InternalStateEnsemble

PARTICLE_1 = "P1"
PARTICLE_2 = "P2"
DEVICE_1 = "M1"
DEVICE_2 = "M2"
DEVICE_3 = "M3"

_POINTER_DIM = 3
_READY = 0
_READY_MASS_ATOL = 1e-9
_CORRELATOR_BOUND_ATOL = 1e-9

SWEEP_HEADER = (
    "theta1",
    "theta2",
    "E_quantum",
    "E_hidden",
    "S_quantum",
    "S_hidden",
    "max_imag",
    "min_real",
)

CHSH_MODELS = ("quantum", "hidden")


@dataclass(frozen=True)
class BellScenario:
    """Pair coefficients, device angles, and the outcome-value convention.

    (a, b) is accepted within 1e-6 of unit norm and renormalized exactly.
    ``outcome_values`` assigns the numbers entering correlators: entry 0 to
    the angle-aligned outcome, entry 1 to its orthogonal companion.
    ``include_m3`` controls whether the z-recording third device is part of
    the run; without it the factorizing statistics are unavailable.
    """

    a: complex
    b: complex
    theta1: float
    theta2: float
    include_m3: bool = True
    outcome_values: tuple = (1.0, -1.0)

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValidationError("pair coefficients must be finite")
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if abs(norm - 1.0) > NORM_ACCEPT_BAND:
            raise ValidationError(
                f"coefficient norm {norm!r} outside the acceptance band "
                f"[1-{NORM_ACCEPT_BAND}, 1+{NORM_ACCEPT_BAND}]"
            )
        theta1 = float(self.theta1)
        theta2 = float(self.theta2)
        if not (math.isfinite(theta1) and math.isfinite(theta2)):
            raise ValidationError("device angles must be finite")
        values = tuple(float(v) for v in self.outcome_values)
        if len(values) != 2 or not all(math.isfinite(v) for v in values):
            raise ValidationError("outcome_values must be two finite numbers")
        object.__setattr__(self, "a", a / norm)
        object.__setattr__(self, "b", b / norm)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "theta2", theta2)
        object.__setattr__(self, "include_m3", bool(self.include_m3))
        object.__setattr__(self, "outcome_values", values)


@dataclass(frozen=True, eq=False)
class BellResult:
    """Everything one run produces.

    ``quantum_joint``/``hidden_joint`` are full pointer-ensemble tables;
    ``quantum_table``/``hidden_table``/``quasi_table`` are the 2x2(x2)
    outcome-indexed views with the parked ready positions dropped.
    ``m1_outcome_indices``/``m2_outcome_indices`` give the ensemble index of
    each outcome in the proper-run pointer ensembles.
    """

    scenario: BellScenario
    marginal1: np.ndarray
    marginal2: np.ndarray
    quantum_joint: JointDistribution
    quantum_table: np.ndarray
    quasi: QuasiDistribution
    quasi_table: np.ndarray
    E_quantum: float
    m1_outcome_indices: tuple
    m2_outcome_indices: tuple
    hidden_joint: JointDistribution | None = None
    hidden_table: np.ndarray | None = None
    E_hidden: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "a": _reim_pairs(self.scenario.a),
            "b": _reim_pairs(self.scenario.b),
            "theta1": float(self.scenario.theta1),
            "theta2": float(self.scenario.theta2),
            "outcome_values": [float(v) for v in self.scenario.outcome_values],
            "marginal1": self.marginal1.tolist(),
            "marginal2": self.marginal2.tolist(),
            "quantum_joint": self.quantum_table.tolist(),
            "E_quantum": float(self.E_quantum),
            "hidden_joint": None,
            "E_hidden": None,
            "quasi": {
                "systems": [s.label for s in self.quasi.systems],
                "table": _reim_pairs(self.quasi_table),
                "max_imag": self.quasi.max_imag,
                "min_real": self.quasi.min_real,
            },
        }
        if self.hidden_table is not None:
            out["hidden_joint"] = self.hidden_table.tolist()
            out["E_hidden"] = float(self.E_hidden)
        return out


def build_bell_state(
    a: complex, b: complex, system: CompositeSystem | None = None, ready=None
) -> PureState:
    """State a|ud> - b|du> on P1 and P2 of ``system``, in either order.

    Every other subsystem starts at the index ``ready`` (a label -> index
    map) gives it, typically a device pointer at its ready position.  The
    default system is the bare two-particle composite (P1, P2).
    """
    if system is None:
        system = CompositeSystem([(PARTICLE_1, 2), (PARTICLE_2, 2)])
    ready = {} if ready is None else ready
    for particle in (PARTICLE_1, PARTICLE_2):
        if particle not in system.labels:
            raise ValidationError(
                f"state constructor 'bell' requires subsystem {particle!r}"
            )
        if system.dim_of(particle) != 2:
            raise ValidationError(
                f"state constructor 'bell' requires {particle!r} to have dimension 2"
            )
    slot = []
    for label in system.labels:
        if label in (PARTICLE_1, PARTICLE_2):
            slot.append(slice(None))
        elif label in ready:
            index = int(ready[label])
            if not 0 <= index < system.dim_of(label):
                raise ValidationError(
                    f"state constructor 'bell': ready index {index} out of range "
                    f"for subsystem {label!r} of dimension {system.dim_of(label)}"
                )
            slot.append(index)
        else:
            raise ValidationError(
                f"state constructor 'bell' cannot initialize subsystem "
                f"{label!r} (neither a particle nor a device pointer)"
            )
    pair = np.array([[0.0, a], [-b, 0.0]], dtype=complex)
    if system.axis(PARTICLE_2) < system.axis(PARTICLE_1):
        pair = pair.T
    full = np.zeros(system.dims, dtype=complex)
    full[tuple(slot)] = pair
    return PureState(system, full.reshape(-1))


def _outcome_indices(ensemble: InternalStateEnsemble, pointers) -> tuple:
    """Ensemble index holding each pointer position's state.

    The pointer's reduced matrix is diagonal in its position basis, so each
    ensemble vector concentrates on one position; readout is the argmax.
    """
    indices = []
    for p in pointers:
        weights = np.abs(ensemble.vectors[p, :]) ** 2
        idx = int(np.argmax(weights))
        if weights[idx] <= 0.5:
            raise NumericalInvariantError(
                f"pointer position {p} is not resolved by any ensemble vector "
                f"(best weight {weights[idx]:.3e})"
            )
        indices.append(idx)
    if len(set(indices)) != len(indices):
        raise NumericalInvariantError("pointer positions map to one ensemble vector")
    return tuple(indices)


def _check_outcome_mass(block: np.ndarray, what: str) -> None:
    drift = abs(float(block.real.sum()) - 1.0)
    if drift > _READY_MASS_ATOL:
        raise NumericalInvariantError(
            f"{what}: outcome probabilities sum to 1{drift:+.3e}; the ready "
            "position retained weight"
        )


def _correlator(block: np.ndarray, values) -> float:
    v = np.asarray(values, dtype=float)
    e = float(np.sum(np.outer(v, v) * block))
    if abs(e) > 1.0 + _CORRELATOR_BOUND_ATOL:
        raise NumericalInvariantError(f"correlator {e!r} outside [-1, 1]")
    return e


def _chi_ensemble(
    scenario: BellScenario, u1_matrix: np.ndarray, subsystem
) -> InternalStateEnsemble:
    """Post-interaction internal states of (first particle + its pointer).

    The reduced matrix of that compound is degenerate whenever |a| = |b|,
    so its eigenbasis alone does not single out the physically evolved
    states; they are constructed directly as the coupling unitary applied
    to (pair-basis vector, ready pointer), padded with an orthonormal
    completion at probability zero.
    """
    coeffs = np.array([scenario.a, -scenario.b], dtype=complex)
    weights = np.abs(coeffs) ** 2
    order = np.argsort(-weights, kind="stable")
    ready = np.zeros(_POINTER_DIM)
    ready[_READY] = 1.0
    columns = []
    for k in order:
        phi = np.zeros(2, dtype=complex)
        phi[k] = 1.0
        columns.append(u1_matrix @ np.kron(phi, ready))
    chi = np.stack(columns, axis=1)
    full_basis, _, _ = np.linalg.svd(chi)
    vectors = np.concatenate([chi, full_basis[:, chi.shape[1]:]], axis=1)
    eigenvalues = np.concatenate(
        [weights[order], np.zeros(vectors.shape[1] - chi.shape[1])]
    )
    return InternalStateEnsemble(
        subsystem=subsystem,
        eigenvalues=eigenvalues,
        vectors=vectors,
        tolerance=DEFAULT_TOLERANCE,
        degenerate=True,
    )


def run_bell(scenario: BellScenario) -> BellResult:
    """Prepare, couple the devices, and collect all outcome statistics."""
    subsystems = [
        (PARTICLE_1, 2),
        (DEVICE_1, _POINTER_DIM),
        (PARTICLE_2, 2),
        (DEVICE_2, _POINTER_DIM),
    ]
    if scenario.include_m3:
        subsystems.append((DEVICE_3, _POINTER_DIM))
    comp = CompositeSystem(subsystems)
    ready = dict.fromkeys((DEVICE_1, DEVICE_2, DEVICE_3), _READY)
    psi0 = build_bell_state(scenario.a, scenario.b, comp, ready)

    d1 = MeasurementDevice.from_basis(
        DEVICE_1, spin_basis(scenario.theta1), _POINTER_DIM, _READY
    )
    d2 = MeasurementDevice.from_basis(
        DEVICE_2, spin_basis(scenario.theta2), _POINTER_DIM, _READY
    )
    u1 = build_measurement_unitary(d1, comp.subset([PARTICLE_1]))
    u2 = build_measurement_unitary(d2, comp.subset([PARTICLE_2]))

    m1 = comp.subset([DEVICE_1])
    m2 = comp.subset([DEVICE_2])
    p1m1 = comp.subset([PARTICLE_1, DEVICE_1])

    psi_q = apply(u2, apply(u1, psi0))
    quantum_joint = joint_probability((m1, m2), psi_q)
    idx1 = _outcome_indices(quantum_joint.ensembles[0], d1.pointers)
    idx2 = _outcome_indices(quantum_joint.ensembles[1], d2.pointers)
    quantum_table = quantum_joint.table[np.ix_(idx1, idx2)]
    _check_outcome_mass(quantum_table, "proper run")
    values = scenario.outcome_values
    e_quantum = _correlator(quantum_table, values)
    marginal1 = quantum_table.sum(axis=1)
    marginal2 = quantum_table.sum(axis=0)

    chi_ens = _chi_ensemble(scenario, u1.matrix, p1m1)
    quasi = formal_joint((p1m1, m1, m2), psi_q, bases=[chi_ens, None, None])
    qidx1 = _outcome_indices(quasi.ensembles[1], d1.pointers)
    qidx2 = _outcome_indices(quasi.ensembles[2], d2.pointers)
    quasi_table = quasi.table[np.ix_((0, 1), qidx1, qidx2)]

    hidden_joint = None
    hidden_table = None
    e_hidden = None
    if scenario.include_m3:
        d3 = MeasurementDevice.from_basis(
            DEVICE_3, np.eye(2, dtype=complex), _POINTER_DIM, _READY
        )
        u3 = build_measurement_unitary(d3, comp.subset([PARTICLE_1]))
        m3 = comp.subset([DEVICE_3])
        psi_h = apply(u2, apply(u1, apply(u3, psi0)))
        recorded = joint_probability((m3, m1, m2), psi_h)
        hidden_joint = JointDistribution(
            systems=(m1, m2),
            ensembles=(recorded.ensembles[1], recorded.ensembles[2]),
            table=recorded.table.sum(axis=0),
        )
        hidx1 = _outcome_indices(hidden_joint.ensembles[0], d1.pointers)
        hidx2 = _outcome_indices(hidden_joint.ensembles[1], d2.pointers)
        hidden_table = hidden_joint.table[np.ix_(hidx1, hidx2)]
        _check_outcome_mass(hidden_table, "recorded run")
        e_hidden = _correlator(hidden_table, values)

    return BellResult(
        scenario=scenario,
        marginal1=_lock(marginal1),
        marginal2=_lock(marginal2),
        quantum_joint=quantum_joint,
        quantum_table=_lock(quantum_table.copy()),
        quasi=quasi,
        quasi_table=_lock(quasi_table.copy()),
        E_quantum=e_quantum,
        m1_outcome_indices=idx1,
        m2_outcome_indices=idx2,
        hidden_joint=hidden_joint,
        hidden_table=_lock(hidden_table.copy()) if hidden_table is not None else None,
        E_hidden=e_hidden,
    )


def _setting_grid(
    a: complex,
    b: complex,
    thetas1,
    thetas2,
    include_m3: bool,
    outcome_values=(1.0, -1.0),
) -> list:
    """``run_bell`` over thetas1 x thetas2, once per distinct setting.

    Returns rows of results, ``grid[i][j]`` at (thetas1[i], thetas2[j]).
    Settings are keyed by their bit patterns, so -0.0 keeps its own run and
    the sign it prints.  Runs go through the module-level ``run_bell`` name,
    so a call tracer or test that rebinds it sees every run.
    """
    runs: dict = {}
    grid = []
    for t1 in thetas1:
        row = []
        for t2 in thetas2:
            key = (float(t1).hex(), float(t2).hex())
            if key not in runs:
                runs[key] = run_bell(
                    BellScenario(
                        a,
                        b,
                        t1,
                        t2,
                        include_m3=include_m3,
                        outcome_values=outcome_values,
                    )
                )
            row.append(runs[key])
        grid.append(row)
    return grid


def _grid_chsh(grid, model: str, i: int, j: int) -> float:
    """S = E(0,0) - E(0,j) + E(i,0) + E(i,j) read off a setting grid."""

    def e(x: int, y: int) -> float:
        result = grid[x][y]
        return result.E_hidden if model == "hidden" else result.E_quantum

    return e(0, 0) - e(0, j) + e(i, 0) + e(i, j)


def _validated_angles(angles) -> tuple:
    try:
        a1, a2, b1, b2 = (float(v) for v in angles)
    except (TypeError, ValueError):
        raise ValidationError(
            "angles must be four numbers (a1, a2, b1, b2)"
        ) from None
    for v in (a1, a2, b1, b2):
        if not math.isfinite(v):
            raise ValidationError("angles must be finite")
    return a1, a2, b1, b2


def chsh(
    a: complex,
    b: complex,
    angles,
    model: str = "quantum",
    outcome_values=(1.0, -1.0),
) -> float:
    """S = E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2) for the chosen model.

    This sign pattern is the one a factorizing correlator bounds by 2 in
    absolute value while the maximally entangled pair reaches 2*sqrt(2) at
    (0, pi/2, pi/4, 3pi/4).  ``model`` selects which correlator of the run
    enters: "quantum" for the proper two-pointer statistics, "hidden" for
    the z-recorded factorizing ones.  Each distinct setting runs once.
    """
    if model not in CHSH_MODELS:
        raise ValidationError(
            f"unknown correlator model {model!r}; valid models: "
            f"{', '.join(CHSH_MODELS)}"
        )
    a1, a2, b1, b2 = _validated_angles(angles)
    grid = _setting_grid(
        a, b, (a1, a2), (b1, b2), model == "hidden", outcome_values
    )
    return _grid_chsh(grid, model, 1, 1)


def chsh_at_point(
    a: complex,
    b: complex,
    theta1: float,
    theta2: float,
    model: str = "quantum",
    outcome_values=(1.0, -1.0),
) -> float:
    """CHSH value attached to one angle pair: settings (0, theta1 | 0, theta2).

    The z axis serves as the shared reference setting on both sides, so the
    value varies over a (theta1, theta2) grid and exceeds 2 exactly where
    the pair's statistics admit no factorizing account.
    """
    return chsh(a, b, (0.0, theta1, 0.0, theta2), model, outcome_values)


def sweep(
    a: complex,
    b: complex,
    points: int = 16,
    outcome_values=(1.0, -1.0),
) -> tuple:
    """Grid evaluation over points x points angles uniform in [0, 2*pi).

    Returns (header, rows); each row is [theta1, theta2, E_quantum,
    E_hidden, S_quantum, S_hidden, max_imag, min_real] with the S values
    formed from grid entries via the (0, theta1 | 0, theta2) settings (the
    grid always contains angle 0).  Each grid setting runs once.
    """
    points = int(points)
    if points < 1:
        raise ValidationError("sweep needs at least one grid point per axis")
    thetas = [2.0 * math.pi * k / points for k in range(points)]
    grid = _setting_grid(a, b, thetas, thetas, True, outcome_values)
    rows = []
    for i, t1 in enumerate(thetas):
        for j, t2 in enumerate(thetas):
            r = grid[i][j]
            rows.append(
                [
                    t1,
                    t2,
                    r.E_quantum,
                    r.E_hidden,
                    _grid_chsh(grid, "quantum", i, j),
                    _grid_chsh(grid, "hidden", i, j),
                    r.quasi.max_imag,
                    r.quasi.min_real,
                ]
            )
    return SWEEP_HEADER, rows


def sample_joint_outcomes(table: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Seeded outcome counts with the table's shape (table entries as weights)."""
    count = int(count)
    if count < 1:
        raise ValidationError("sample count must be positive")
    table = np.asarray(table, dtype=float)
    flat = np.clip(table.reshape(-1), 0.0, None)
    total = flat.sum()
    if total <= 0.0:
        raise ValidationError("cannot sample from an all-zero table")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    draws = rng.choice(flat.size, size=count, p=flat / total)
    counts = np.bincount(draws, minlength=flat.size)
    return counts.reshape(table.shape)
