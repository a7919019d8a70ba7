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

CHSH values are read off one grid of runs over the settings they involve.
The grid hands its distinct settings to one batched engine, which prepares
the pair once, stacks every setting's devices along a leading axis and
computes all of their tables in one pass; ``run_bell`` is that engine's
batch of one, so a setting gives the same result either way.

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
    _apply_matrices,
    _check_density,
    _check_eigen_floor,
    _check_unitary,
    _checked_norms,
    _lock,
    _pure_reductions,
    apply,
)
from .measurement import (
    MeasurementDevice,
    _check_basis,
    _coupling_matrix,
    build_measurement_unitary,
    spin_basis,
)
from .qrs import (
    JointDistribution,
    QuasiDistribution,
    _projector_product_table,
    _real_table,
    _reim_pairs,
)
from .schmidt import DEFAULT_TOLERANCE, InternalStateEnsemble, _canonical_eigh, _ensemble

PARTICLE_1 = "P1"
PARTICLE_2 = "P2"
DEVICE_1 = "M1"
DEVICE_2 = "M2"
DEVICE_3 = "M3"

_POINTER_DIM = 3
_READY = 0
# outcome k of a device steers its pointer from ready to position k + 1
_POINTERS = (1, 2)
# settings per stacked run; each holds about 17 KiB of transients while it runs
_BATCH_LIMIT = 1024
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


def _outcome_indices(vectors: np.ndarray) -> np.ndarray:
    """Ensemble index holding each outcome's pointer position, per ensemble.

    ``vectors`` stacks pointer ensembles (columns).  A pointer's reduced
    matrix is diagonal in its position basis, so each ensemble vector
    concentrates on one position; readout is the argmax.  Returns one row
    of indices, aligned with ``_POINTERS``, per ensemble.
    """
    weights = np.abs(vectors[..., _POINTERS, :]) ** 2
    indices = np.argmax(weights, axis=-1)
    best = np.take_along_axis(weights, indices[..., None], axis=-1)[..., 0]
    if np.any(best <= 0.5):
        worst = np.unravel_index(np.argmin(best), best.shape)
        raise NumericalInvariantError(
            f"pointer position {_POINTERS[worst[-1]]} is not resolved by any "
            f"ensemble vector (best weight {best[worst]:.3e})"
        )
    if np.any(indices[..., 0] == indices[..., 1]):
        raise NumericalInvariantError("pointer positions map to one ensemble vector")
    return indices


def _outcome_blocks(tables: np.ndarray, idx1: np.ndarray, idx2: np.ndarray) -> np.ndarray:
    """Stacked (run, M1, M2, ...) tables at each run's outcome indices."""
    runs = np.arange(len(tables))[:, None, None]
    return tables[runs, idx1[:, :, None], idx2[:, None, :]]


def _checked_correlators(blocks: np.ndarray, values, what: str) -> np.ndarray:
    """Correlators of stacked 2x2 outcome tables, after the mass and bound checks."""
    drift = float(np.max(np.abs(blocks.sum(axis=(-2, -1)) - 1.0)))
    if drift > _READY_MASS_ATOL:
        raise NumericalInvariantError(
            f"{what}: outcome probabilities sum to 1{drift:+.3e}; the ready "
            "position retained weight"
        )
    v = np.asarray(values, dtype=float)
    e = np.sum(np.outer(v, v) * blocks, axis=(-2, -1))
    worst = float(e[np.argmax(np.abs(e))])
    if abs(worst) > 1.0 + _CORRELATOR_BOUND_ATOL:
        raise NumericalInvariantError(f"correlator {worst!r} outside [-1, 1]")
    return e


def _device_couplings(thetas) -> np.ndarray:
    """Stacked coupling matrices on (particle, pointer) of angled devices.

    Runs the orthonormality check of ``MeasurementDevice`` on every basis
    and the unitarity check of ``LocalOperator`` on every coupling.
    """
    bases = spin_basis(thetas)
    _check_basis(bases)
    couplings = _coupling_matrix(bases, _POINTERS, _READY, _POINTER_DIM)
    _check_unitary(couplings)
    return couplings


def _evolve(state: np.ndarray, couplings, supports) -> np.ndarray:
    """Apply stacked couplings in order, normalizing after each like ``apply``."""
    for u, support in zip(couplings, supports):
        state = _apply_matrices(u, state, support.axes)
        flat = state.reshape(len(state), -1)
        state = (flat / _checked_norms(flat)[:, None]).reshape(state.shape)
    return state


def _chi_vectors(a: complex, b: complex, u1: np.ndarray) -> tuple:
    """Post-interaction internal states of (first particle + its pointer).

    The reduced matrix of that compound is degenerate whenever |a| = |b|,
    so its eigenbasis alone does not single out the physically evolved
    states; they are the coupling unitary's columns at (pair-basis vector,
    ready pointer), in descending weight, padded with an orthonormal
    completion at probability zero.  Returns (eigenvalues, stacked vectors).
    """
    weights = np.abs(np.array([a, -b], dtype=complex)) ** 2
    order = np.argsort(-weights, kind="stable")
    chi = u1[:, :, [k * _POINTER_DIM + _READY for k in order]]
    full_basis = np.linalg.svd(chi)[0]
    vectors = np.concatenate([chi, full_basis[:, :, chi.shape[-1]:]], axis=-1)
    eigenvalues = np.concatenate(
        [weights[order], np.zeros(vectors.shape[-1] - chi.shape[-1])]
    )
    return eigenvalues, vectors


def _run_batch(scenarios) -> list:
    """Results of every scenario, in order, from one stacked computation.

    The scenarios differ only in their angles: the pair, ``include_m3`` and
    the outcome values are read from the first, so the prepared state, and
    the z-recorded state of the hidden run, are built once.  Its callers
    are ``run_bell`` (one scenario) and ``_setting_grid`` (one pair and
    options for the whole grid).  The angled devices' couplings are stacked
    over a leading axis with one entry per scenario; reductions go through
    one batched ``eigh``, and each of the three outcome tables is one
    contraction over the stack.  Every check that the single-object path
    makes runs on every scenario, and each result is built from its slices
    through the containers' own constructors.
    """
    first = scenarios[0]
    n = len(scenarios)
    subsystems = [
        (PARTICLE_1, 2),
        (DEVICE_1, _POINTER_DIM),
        (PARTICLE_2, 2),
        (DEVICE_2, _POINTER_DIM),
    ]
    if first.include_m3:
        subsystems.append((DEVICE_3, _POINTER_DIM))
    comp = CompositeSystem(subsystems)
    m1 = comp.subset([DEVICE_1])
    m2 = comp.subset([DEVICE_2])
    p1m1 = comp.subset([PARTICLE_1, DEVICE_1])
    p2m2 = comp.subset([PARTICLE_2, DEVICE_2])
    ready = dict.fromkeys((DEVICE_1, DEVICE_2, DEVICE_3), _READY)
    psi0 = build_bell_state(first.a, first.b, comp, ready)

    # both supports list the particle before its pointer, the couplings' order
    u1 = _device_couplings([s.theta1 for s in scenarios])
    u2 = _device_couplings([s.theta2 for s in scenarios])
    psi_q = _evolve(psi0.tensor_view()[None], (u1, u2), (p1m1, p2m2))
    reduced = [
        _pure_reductions(psi_q.reshape(n, -1), comp.dims, m.axes) for m in (m1, m2)
    ]
    if first.include_m3:
        m3 = comp.subset([DEVICE_3])
        d3 = MeasurementDevice.from_basis(
            DEVICE_3, np.eye(2, dtype=complex), _POINTER_DIM, _READY, _POINTERS
        )
        psi3 = apply(build_measurement_unitary(d3, comp.subset([PARTICLE_1])), psi0)
        psi_h = _evolve(psi3.tensor_view()[None], (u1, u2), (p1m1, p2m2))
        reduced += [
            _pure_reductions(psi_h.reshape(n, -1), comp.dims, m.axes)
            for m in (m3, m1, m2)
        ]
    try:
        rhos = np.concatenate(reduced)
        _check_density(rhos)
        w, v, degenerate = _canonical_eigh(rhos, DEFAULT_TOLERANCE)
        _check_eigen_floor(w)
    except ValidationError as exc:
        raise NumericalInvariantError(
            f"partial trace produced an invalid matrix: {exc}"
        ) from exc
    # axis 0: quantum M1, M2, then hidden M3, M1, M2; axis 1: scenario
    w = w.reshape(len(reduced), n, _POINTER_DIM)
    v = v.reshape(len(reduced), n, _POINTER_DIM, _POINTER_DIM)
    degenerate = degenerate.reshape(len(reduced), n)
    indices = _outcome_indices(v)
    pointer_sets = (m1, m2, m3, m1, m2) if first.include_m3 else (m1, m2)

    quantum_raw = _real_table(_projector_product_table(psi_q, (m1, m2), v[:2]))
    chi_weights, chi_vectors = _chi_vectors(first.a, first.b, u1)
    quasi_raw = _projector_product_table(psi_q, (p1m1, m1, m2), (chi_vectors, v[0], v[1]))
    if first.include_m3:
        hidden_raw = _real_table(_projector_product_table(psi_h, (m3, m1, m2), v[2:]))
    quantum, quasi, hidden = [], [], []
    for i in range(n):
        ens = [
            _ensemble(m, w[k, i], v[k, i], DEFAULT_TOLERANCE, bool(degenerate[k, i]))
            for k, m in enumerate(pointer_sets)
        ]
        chi = InternalStateEnsemble(
            p1m1, chi_weights, chi_vectors[i], DEFAULT_TOLERANCE, degenerate=True
        )
        quantum.append(JointDistribution((m1, m2), ens[:2], quantum_raw[i]))
        quasi.append(QuasiDistribution((p1m1, m1, m2), (chi, *ens[:2]), quasi_raw[i]))
        if first.include_m3:
            recorded = JointDistribution((m3, m1, m2), ens[2:], hidden_raw[i])
            hidden.append(JointDistribution((m1, m2), ens[3:], recorded.table.sum(axis=0)))

    values = first.outcome_values
    quantum_tables = _outcome_blocks(
        np.stack([j.table for j in quantum]), indices[0], indices[1]
    )
    e_quantum = _checked_correlators(quantum_tables, values, "proper run")
    marginals1 = quantum_tables.sum(axis=-1)
    marginals2 = quantum_tables.sum(axis=-2)
    # compound axis last while the pointer axes are indexed, then first again
    quasi_tables = np.moveaxis(
        _outcome_blocks(np.moveaxis(quasi_raw[:, :2], 1, -1), indices[0], indices[1]),
        -1,
        1,
    )
    if hidden:
        hidden_tables = _outcome_blocks(
            np.stack([j.table for j in hidden]), indices[3], indices[4]
        )
        e_hidden = _checked_correlators(hidden_tables, values, "recorded run")
    return [
        BellResult(
            scenario=scenarios[i],
            marginal1=_lock(marginals1[i]),
            marginal2=_lock(marginals2[i]),
            quantum_joint=quantum[i],
            quantum_table=_lock(quantum_tables[i]),
            quasi=quasi[i],
            quasi_table=_lock(quasi_tables[i]),
            E_quantum=float(e_quantum[i]),
            m1_outcome_indices=tuple(indices[0, i].tolist()),
            m2_outcome_indices=tuple(indices[1, i].tolist()),
            hidden_joint=hidden[i] if hidden else None,
            hidden_table=_lock(hidden_tables[i]) if hidden else None,
            E_hidden=float(e_hidden[i]) if hidden else None,
        )
        for i in range(n)
    ]


def run_bell(scenario: BellScenario) -> BellResult:
    """Prepare, couple the devices, and collect all outcome statistics."""
    return _run_batch([scenario])[0]


def _setting_grid(
    a: complex,
    b: complex,
    thetas1,
    thetas2,
    include_m3: bool,
    outcome_values=(1.0, -1.0),
) -> list:
    """Runs over thetas1 x thetas2, once per distinct setting.

    Returns rows of results, ``grid[i][j]`` at (thetas1[i], thetas2[j]).
    Settings are keyed by their bit patterns, so -0.0 keeps its own run and
    the sign it prints.  The distinct settings go to the module-level
    ``_run_batch`` name in batches of at most ``_BATCH_LIMIT``, which bounds
    the stacked transients; a call tracer or test that rebinds that name
    sees every batch.
    """
    slots: dict = {}
    scenarios = []
    cells = []
    for t1 in thetas1:
        for t2 in thetas2:
            key = (float(t1).hex(), float(t2).hex())
            if key not in slots:
                slots[key] = len(scenarios)
                scenarios.append(
                    BellScenario(
                        a,
                        b,
                        t1,
                        t2,
                        include_m3=include_m3,
                        outcome_values=outcome_values,
                    )
                )
            cells.append(slots[key])
    results = []
    for start in range(0, len(scenarios), _BATCH_LIMIT):
        results.extend(_run_batch(scenarios[start:start + _BATCH_LIMIT]))
    width = len(thetas2)
    return [
        [results[k] for k in cells[row:row + width]]
        for row in range(0, len(cells), width)
    ]


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
