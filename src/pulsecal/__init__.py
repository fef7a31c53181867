"""pulsecal: coordinated pulse landscapes for parameterized gate families.

Optimize control pulses for a grid of reference operations, iteratively
re-optimize each pulse toward the average of its mesh neighbors so that
nearby pulses become compatible, and serve pulses for arbitrary gates in
the family by barycentric interpolation.
"""

from .calibrate import (
    CalibConfig,
    Landscape,
    ReferencePulse,
    RoundRecord,
    calibrate,
    calibration_rounds,
    initial_round,
    neighbor_average,
    neighbor_penalty,
    reoptimization_round,
    visit_order,
)
from .errors import DomainError, FormatError, OptimizationError, PulsecalError
from .evaluate import (
    EvalRecord,
    EvalSummary,
    evaluate_grid,
    interpolate,
    interpolate_many,
    sweep,
)
from .families import (
    CARTAN_BOX,
    FAMILIES,
    SINGLE_QUBIT,
    WEYL_CHAMBER,
    GateFamily,
    get_family,
)
from .io import load_landscape, save_landscape
from .linalg import expm_hermitian, gate_infidelity
from .mesh import (
    BarycentricLocation,
    SimplicialMesh,
    build_mesh,
    from_simplices,
    locate,
    neighbors,
)
from .optimize import (
    OptConfig,
    OptReport,
    minimize,
    minimize_lockstep,
    pulse_objective,
    seeded_init,
)
from .pulses import (
    ControlAnsatz,
    CostSpec,
    HamiltonianModel,
    cost_and_gradient,
    evolve,
    tikhonov_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CARTAN_BOX",
    "FAMILIES",
    "SINGLE_QUBIT",
    "WEYL_CHAMBER",
    "BarycentricLocation",
    "CalibConfig",
    "ControlAnsatz",
    "CostSpec",
    "DomainError",
    "EvalRecord",
    "EvalSummary",
    "FormatError",
    "GateFamily",
    "HamiltonianModel",
    "Landscape",
    "OptConfig",
    "OptReport",
    "OptimizationError",
    "PulsecalError",
    "ReferencePulse",
    "RoundRecord",
    "SimplicialMesh",
    "build_mesh",
    "calibrate",
    "calibration_rounds",
    "cost_and_gradient",
    "evaluate_grid",
    "evolve",
    "expm_hermitian",
    "from_simplices",
    "gate_infidelity",
    "get_family",
    "initial_round",
    "interpolate",
    "interpolate_many",
    "load_landscape",
    "locate",
    "minimize",
    "minimize_lockstep",
    "neighbor_average",
    "neighbor_penalty",
    "neighbors",
    "pulse_objective",
    "reoptimization_round",
    "save_landscape",
    "seeded_init",
    "sweep",
    "tikhonov_weight",
    "visit_order",
]
