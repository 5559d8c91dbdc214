"""Pre- and post-selected quantum systems in beamsplitter networks.

Forward state evolution, backward-evolved postselection functionals and the
conditional (ABL) probability rule, certainty reporting, impulsive pointer
measurements in both time directions, and rule-based pilot-wave
trajectories, with a deterministic CLI front end.
"""
from .hilbert import (
    Bra,
    Ket,
    LinearOp,
    Projector,
    adjoint,
    basis_bra,
    basis_ket,
    make_projector,
)
from .network import (
    Element,
    Network,
    build_network,
    evolve,
    preset_double_mz,
)
from .pilot import (
    EnsembleStats,
    ParticleState,
    RuleTable,
    TrajectoryRecord,
    run_ensemble,
    run_trajectory,
)
from .pointer import (
    MeasurementRecord,
    MeasurementSetup,
    decode_reading,
    measure_backward,
    measure_forward,
)
from .twotime import (
    ProjectorSet,
    TwoStateVector,
    certainty_report,
    spin_observable,
    two_state_at_cut,
)

__version__ = "0.1.0"

__all__ = [
    "Bra",
    "Element",
    "EnsembleStats",
    "Ket",
    "LinearOp",
    "MeasurementRecord",
    "MeasurementSetup",
    "Network",
    "ParticleState",
    "Projector",
    "ProjectorSet",
    "RuleTable",
    "TrajectoryRecord",
    "TwoStateVector",
    "adjoint",
    "basis_bra",
    "basis_ket",
    "build_network",
    "certainty_report",
    "decode_reading",
    "evolve",
    "make_projector",
    "measure_backward",
    "measure_forward",
    "preset_double_mz",
    "run_ensemble",
    "run_trajectory",
    "spin_observable",
    "two_state_at_cut",
]
