"""Simulations of reference-dependent quantum states on dense qudit registers.

The package builds labeled composite systems, extracts the internal states a
subsystem can possess relative to a containing reference, and evaluates
joint, formal (quasi), and sampled outcome statistics.  The
``bell`` module assembles these pieces into the canonical two-particle
correlation experiment; ``cli`` exposes everything as a command-line tool.
"""

from .errors import (
    NumericalInvariantError,
    OverlappingSystemsError,
    ValidationError,
)
from .hilbert import (
    CompositeSystem,
    DensityMatrix,
    LocalOperator,
    PureState,
    SubsystemSet,
    apply,
    as_subsystem_set,
    partial_trace,
    permute_operator_factors,
    permute_vector_factors,
)
from .schmidt import (
    DEFAULT_TOLERANCE,
    InternalStateEnsemble,
    SchmidtDecomposition,
    possible_internal_states,
    reconstruct,
    schmidt_decompose,
)
from .qrs import (
    ComparabilityVerdict,
    JointDistribution,
    QuasiDistribution,
    comparability,
    formal_joint,
    joint_probability,
    state_of,
)
from .measurement import (
    MeasurementDevice,
    SAMPLER_ALGORITHM,
    build_measurement_unitary,
    sample_outcome_indices,
    spin_basis,
)
from .bell import (
    BellResult,
    BellScenario,
    CHSH_MODELS,
    SWEEP_HEADER,
    build_bell_state,
    chsh,
    run_bell,
    sample_joint_outcomes,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BellResult",
    "BellScenario",
    "CHSH_MODELS",
    "ComparabilityVerdict",
    "CompositeSystem",
    "DEFAULT_TOLERANCE",
    "DensityMatrix",
    "InternalStateEnsemble",
    "JointDistribution",
    "LocalOperator",
    "MeasurementDevice",
    "NumericalInvariantError",
    "OverlappingSystemsError",
    "PureState",
    "QuasiDistribution",
    "SAMPLER_ALGORITHM",
    "SWEEP_HEADER",
    "SchmidtDecomposition",
    "SubsystemSet",
    "ValidationError",
    "apply",
    "as_subsystem_set",
    "build_bell_state",
    "build_measurement_unitary",
    "chsh",
    "comparability",
    "formal_joint",
    "joint_probability",
    "partial_trace",
    "permute_operator_factors",
    "permute_vector_factors",
    "possible_internal_states",
    "reconstruct",
    "run_bell",
    "sample_joint_outcomes",
    "sample_outcome_indices",
    "schmidt_decompose",
    "spin_basis",
    "state_of",
    "sweep",
]
