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
computes all of their tables in one pass.  The engine returns columns of
numbers, one row per setting, checked once per stack with the containers'
own checks; the grid keeps the columns that CHSH values, sweeps and the
command line read.  ``run_bell`` is the engine's batch of one and the only
place result containers are built, so a setting gives the same numbers
either way.

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
    _check_unitary,
    _evolve,
    _lock,
    _pure_reductions,
)
from .measurement import (
    MeasurementDevice,
    _check_basis,
    _coupling_matrix,
    _sample_count,
    build_measurement_unitary,
    spin_basis,
)
from .qrs import (
    JointDistribution,
    QuasiDistribution,
    _check_quasi,
    _checked_joint,
    _projector_product_table,
    _real_table,
    _reim_pairs,
)
from .schmidt import (
    DEFAULT_TOLERANCE,
    InternalStateEnsemble,
    _checked_eigen,
    _checked_eigh,
    _checked_ensembles,
)

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

# points per sweep axis; 256 makes a grid of 65,536 settings
MAX_SWEEP_POINTS = 256


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
        quasi = self.quasi
        return _bell_record(
            self.scenario,
            dict(vars(self), max_imag=quasi.max_imag, min_real=quasi.min_real),
        )


def _bell_record(scenario: BellScenario, cell) -> dict:
    """The JSON record of one setting: ``scenario`` plus its numbers.

    ``cell`` maps the names of ``BellResult``'s tables and correlators, and
    ``max_imag``/``min_real``, to the setting's values; the recorded-run
    entries are None without M3.
    """
    hidden = cell["hidden_table"]
    return {
        "a": _reim_pairs(scenario.a),
        "b": _reim_pairs(scenario.b),
        "theta1": float(scenario.theta1),
        "theta2": float(scenario.theta2),
        "outcome_values": [float(v) for v in scenario.outcome_values],
        "marginal1": cell["marginal1"].tolist(),
        "marginal2": cell["marginal2"].tolist(),
        "quantum_joint": cell["quantum_table"].tolist(),
        "E_quantum": float(cell["E_quantum"]),
        "hidden_joint": None if hidden is None else hidden.tolist(),
        "E_hidden": None if hidden is None else float(cell["E_hidden"]),
        "quasi": {
            "systems": [f"{PARTICLE_1}+{DEVICE_1}", DEVICE_1, DEVICE_2],
            "table": _reim_pairs(cell["quasi_table"]),
            "max_imag": float(cell["max_imag"]),
            "min_real": float(cell["min_real"]),
        },
    }


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


def _run_batch(scenario: BellScenario, thetas1, thetas2) -> dict:
    """Stacked results of ``scenario``'s run at the angles (thetas1[i], thetas2[i]).

    Only the angles vary: the pair, ``include_m3`` and the outcome values
    are ``scenario``'s, so the prepared state and its z-recording for the
    hidden run are computed once.  The callers are ``run_bell`` (one
    setting) and ``_setting_grid`` (the distinct settings of a grid).  The
    engine composes the library's cores over a stack with one entry per
    setting: ``_evolve`` applies the couplings, ``_checked_eigh`` decomposes
    every pointer reduction in one call, and each outcome table is one
    contraction.  Every stack gets the checks, and raises the messages, of
    the containers ``run_bell`` builds, once per stack.

    Returns a record of arrays, row i for setting i: ``BellResult``'s
    ``marginal1``, ``marginal2``, ``quantum_table``, ``quasi_table``,
    ``E_quantum``, ``hidden_table`` and ``E_hidden`` (None without M3); the
    quasi table's ``max_imag`` and ``min_real``; the full ``quantum_joint``,
    ``hidden_joint`` and ``quasi`` tables; the pointer ensembles'
    ``eigenvalues``, ``vectors``, ``degenerate`` flags and outcome
    ``indices``, leading axis aligned with ``pointers`` (quantum M1, M2,
    then hidden M3, M1, M2); and the ``compound`` (P1+M1) ensembles'
    ``chi_weights`` (one row for all) and ``chi_vectors``.
    """
    n = len(thetas1)
    include_m3 = scenario.include_m3
    subsystems = [
        (PARTICLE_1, 2),
        (DEVICE_1, _POINTER_DIM),
        (PARTICLE_2, 2),
        (DEVICE_2, _POINTER_DIM),
    ]
    if include_m3:
        subsystems.append((DEVICE_3, _POINTER_DIM))
    comp = CompositeSystem(subsystems)
    m1 = comp.subset([DEVICE_1])
    m2 = comp.subset([DEVICE_2])
    p1m1 = comp.subset([PARTICLE_1, DEVICE_1])
    p2m2 = comp.subset([PARTICLE_2, DEVICE_2])
    ready = dict.fromkeys((DEVICE_1, DEVICE_2, DEVICE_3), _READY)
    psi0 = build_bell_state(scenario.a, scenario.b, comp, ready)

    # both supports list the particle before its pointer, the couplings' order
    u1 = _device_couplings(thetas1)
    u2 = _device_couplings(thetas2)
    angled = [(u1, p1m1.axes), (u2, p2m2.axes)]
    psi_q = _evolve(psi0.tensor_view()[None], angled)
    reduced = [
        _pure_reductions(psi_q.reshape(n, -1), comp.dims, m.axes) for m in (m1, m2)
    ]
    pointers = (m1, m2)
    if include_m3:
        m3 = comp.subset([DEVICE_3])
        d3 = MeasurementDevice.from_basis(
            DEVICE_3, np.eye(2, dtype=complex), _POINTER_DIM, _READY, _POINTERS
        )
        u3 = build_measurement_unitary(d3, comp.subset([PARTICLE_1]))
        psi_h = _evolve(psi0.tensor_view()[None], [(u3.matrix, u3.support.axes)] + angled)
        reduced += [
            _pure_reductions(psi_h.reshape(n, -1), comp.dims, m.axes)
            for m in (m3, m1, m2)
        ]
        pointers += (m3, m1, m2)
    w, v, degenerate = _checked_eigh(np.concatenate(reduced), DEFAULT_TOLERANCE)
    # axis 0: the pointer ensembles, in ``pointers`` order; axis 1: setting
    stack = (len(pointers), n)
    vectors = v.reshape(stack + v.shape[1:])
    indices = _outcome_indices(vectors)

    quantum_raw = _real_table(_projector_product_table(psi_q, (m1, m2), vectors[:2]))
    chi_weights, chi_vectors = _chi_vectors(scenario.a, scenario.b, u1)
    quasi = _projector_product_table(
        psi_q, (p1m1, m1, m2), (chi_vectors, vectors[0], vectors[1])
    )
    if include_m3:
        hidden_raw = _real_table(
            _projector_product_table(psi_h, (m3, m1, m2), vectors[2:])
        )
    vals, _ = _checked_eigen(_POINTER_DIM, w, v, DEFAULT_TOLERANCE)
    vals = vals.reshape(stack + (-1,))
    chi_stack = np.broadcast_to(chi_weights, (n, chi_weights.size))
    _checked_ensembles(p1m1.joint_dim, chi_stack, chi_vectors, DEFAULT_TOLERANCE, None)
    quantum = _checked_joint((m1, m2), vals[:2], quantum_raw)
    _check_quasi((chi_weights, *vals[:2]), quasi)
    if include_m3:
        recorded = _checked_joint((m3, m1, m2), vals[2:], hidden_raw)
        hidden = _checked_joint((m1, m2), vals[3:], recorded.sum(axis=1))

    values = scenario.outcome_values
    quantum_tables = _outcome_blocks(quantum, indices[0], indices[1])
    # compound axis last while the pointer axes are indexed, then first again
    quasi_tables = np.moveaxis(
        _outcome_blocks(np.moveaxis(quasi[:, :2], 1, -1), indices[0], indices[1]),
        -1,
        1,
    )
    record = {
        "marginal1": quantum_tables.sum(axis=-1),
        "marginal2": quantum_tables.sum(axis=-2),
        "quantum_table": quantum_tables,
        "quasi_table": quasi_tables,
        "E_quantum": _checked_correlators(quantum_tables, values, "proper run"),
        "hidden_table": None,
        "E_hidden": None,
        "max_imag": np.max(np.abs(quasi.imag), axis=(1, 2, 3)),
        "min_real": np.min(quasi.real, axis=(1, 2, 3)),
        "quantum_joint": quantum,
        "hidden_joint": None,
        "quasi": quasi,
        "pointers": pointers,
        "eigenvalues": vals,
        "vectors": vectors,
        "degenerate": degenerate.reshape(stack),
        "indices": indices,
        "compound": p1m1,
        "chi_weights": chi_weights,
        "chi_vectors": chi_vectors,
    }
    if include_m3:
        hidden_tables = _outcome_blocks(hidden, indices[3], indices[4])
        record["hidden_joint"] = hidden
        record["hidden_table"] = hidden_tables
        record["E_hidden"] = _checked_correlators(hidden_tables, values, "recorded run")
    return record


def run_bell(scenario: BellScenario) -> BellResult:
    """Prepare, couple the devices, and collect all outcome statistics."""
    r = _run_batch(scenario, [scenario.theta1], [scenario.theta2])
    rows = zip(r["pointers"], r["eigenvalues"][:, 0], r["vectors"][:, 0], r["degenerate"][:, 0])
    ens = [InternalStateEnsemble(m, w, v, DEFAULT_TOLERANCE, bool(d)) for m, w, v, d in rows]
    chi = InternalStateEnsemble(
        r["compound"], r["chi_weights"], r["chi_vectors"][0], DEFAULT_TOLERANCE, True
    )
    m1, m2 = r["pointers"][:2]
    hidden = scenario.include_m3
    return BellResult(
        scenario=scenario,
        marginal1=_lock(r["marginal1"][0]),
        marginal2=_lock(r["marginal2"][0]),
        quantum_joint=JointDistribution((m1, m2), ens[:2], r["quantum_joint"][0]),
        quantum_table=_lock(r["quantum_table"][0]),
        quasi=QuasiDistribution((r["compound"], m1, m2), (chi, *ens[:2]), r["quasi"][0]),
        quasi_table=_lock(r["quasi_table"][0]),
        E_quantum=float(r["E_quantum"][0]),
        m1_outcome_indices=tuple(r["indices"][0, 0].tolist()),
        m2_outcome_indices=tuple(r["indices"][1, 0].tolist()),
        hidden_joint=(
            JointDistribution((m1, m2), ens[3:], r["hidden_joint"][0]) if hidden else None
        ),
        hidden_table=_lock(r["hidden_table"][0]) if hidden else None,
        E_hidden=float(r["E_hidden"][0]) if hidden else None,
    )


# the batch columns a setting grid keeps: what ``chsh``, ``sweep`` and the CLI read
_GRID_COLUMNS = (
    "marginal1 marginal2 quantum_table quasi_table E_quantum hidden_table E_hidden "
    "max_imag min_real"
).split()


def _setting_grid(
    a: complex,
    b: complex,
    thetas1,
    thetas2,
    include_m3: bool,
    outcome_values=(1.0, -1.0),
) -> dict:
    """Runs over thetas1 x thetas2, once per distinct setting.

    Returns ``_GRID_COLUMNS`` (None where the run has no M3), ``theta1``,
    ``theta2``, and ``S_quantum``/``S_hidden``, the CHSH value
    S = E(0,0) - E(0,j) + E(i,0) + E(i,j) of each cell; every column is
    indexed [i, j, ...] at (thetas1[i], thetas2[j]).  Settings are keyed by
    their bit patterns, so -0.0 keeps its own run and the sign it prints.
    The distinct settings, in order of first appearance, go to the
    module-level ``_run_batch`` name in batches of at most ``_BATCH_LIMIT``,
    which bounds the stacked transients; a call tracer or test that rebinds
    that name sees every batch.
    """
    # the pair, the options and the first angles are checked as one run's
    scenario = BellScenario(a, b, thetas1[0], thetas2[0], include_m3, outcome_values)
    t1, t2 = np.meshgrid(
        np.asarray(thetas1, dtype=float), np.asarray(thetas2, dtype=float), indexing="ij"
    )
    if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
        raise ValidationError("device angles must be finite")
    settings = np.stack([t1.reshape(-1), t2.reshape(-1)], axis=-1)
    _, first, inverse = np.unique(
        settings.view(np.int64), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    cells = np.argsort(order)[inverse.reshape(t1.shape)]
    distinct = settings[first[order]]
    parts = {name: [] for name in _GRID_COLUMNS}
    for start in range(0, len(distinct), _BATCH_LIMIT):
        chunk = distinct[start:start + _BATCH_LIMIT]
        batch = _run_batch(scenario, chunk[:, 0], chunk[:, 1])
        for name, columns in parts.items():
            columns.append(batch[name])
    grid = {
        name: None if columns[0] is None else np.concatenate(columns)[cells]
        for name, columns in parts.items()
    }
    grid["theta1"], grid["theta2"] = t1, t2
    for model in CHSH_MODELS:
        e = grid[f"E_{model}"]
        grid[f"S_{model}"] = None if e is None else e[0, 0] - e[:1] + e[:, :1] + e
    return grid


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
    return float(grid[f"S_{model}"][1, 1])


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
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(
            f"sweep is capped at {MAX_SWEEP_POINTS} points per axis, got {points}"
        )
    thetas = [2.0 * math.pi * k / points for k in range(points)]
    grid = _setting_grid(a, b, thetas, thetas, True, outcome_values)
    rows = np.stack([grid[name] for name in SWEEP_HEADER], axis=-1)
    return SWEEP_HEADER, rows.reshape(-1, len(SWEEP_HEADER)).tolist()


def sample_joint_outcomes(table: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Seeded outcome counts with the table's shape (table entries as weights)."""
    count = _sample_count(count)
    table = np.asarray(table, dtype=float)
    flat = np.clip(table.reshape(-1), 0.0, None)
    total = flat.sum()
    if total <= 0.0:
        raise ValidationError("cannot sample from an all-zero table")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    draws = rng.choice(flat.size, size=count, p=flat / total)
    counts = np.bincount(draws, minlength=flat.size)
    return counts.reshape(table.shape)
