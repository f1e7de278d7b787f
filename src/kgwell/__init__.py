"""kgwell: finite-element simulation and verification of a coupled wave
system with nonlinear sign-indefinite coupling and velocity damping on the
part of the boundary where the radial field points outward.

The library builds meshes, assembles the Galerkin operators, computes the
potential-well thresholds and decay constants, integrates the dynamics with
an energy-consistent implicit midpoint scheme, and checks the well
invariant, the boundary dissipation inequality, the perturbed-energy
equivalence, and the exponential decay bound E(t) <= 3 E(0) exp(-tau t/3).
"""

from .assembly import (
    CouplingSpec,
    DiscreteOperators,
    assemble_operators,
    boundary_mass_matrix,
    coupling_energy,
    coupling_vectors,
)
from .constants import (
    AdmissibilityReport,
    ConvergenceError,
    SetupError,
    ValidationReport,
    WellConstants,
    admissibility,
    compute_well_constants,
    embedding_constant,
    first_eigenpair,
    trace_constant,
    validate_hypotheses,
    well_constants,
    well_function,
)
from .diagnostics import (
    DecayReport,
    EnergySample,
    check_decay_bound,
    check_dissipation,
    check_equivalence,
    full_sample,
    well_monitor,
)
from .dynamics import (
    FieldInit,
    NonlinearSolveFailure,
    ScenarioConfig,
    SimState,
    StepOptions,
    Trajectory,
    prepare,
    record,
    simulate,
    step,
    write_trajectory_csv,
)
from .geometry import (
    BoundaryPartition,
    EmptyGamma1Error,
    Mesh,
    MeshError,
    MixedFacetError,
    build_interval_mesh,
    build_rectangle_mesh,
    classify_boundary,
    radial_field,
)

__version__ = "0.1.0"
