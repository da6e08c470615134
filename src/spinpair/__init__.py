"""Two-spin ensemble simulator contrasting linear quantum dynamics with
state-dependent mean-value precession."""

from .dynamics_linear import NoSignallingReport, no_signalling_suite
from .dynamics_nonlinear import (
    EvolutionPolicy,
    evolve_ensemble,
    time_grid,
)
from .measurement import (
    ImpossibleOutcomeError,
    MeasurementBasis,
    OutcomeBranch,
    basis_from_vectors,
    measure_all,
    validate_basis,
)
from .qmath import ConsistencyError, mean_value, pauli, projector, trace_out_remote
from .scenarios import (
    SPECS,
    BasisChoice,
    DegenerateConfigError,
    ScenarioConfig,
    ScenarioId,
    ScenarioReport,
    run_scenario,
)
from .states import (
    DOWN,
    UP,
    BlochVector,
    Branch,
    Ensemble,
    NotProductError,
    branch_bloch,
    correlated_ensemble,
    density_of,
    diag_eigenstates,
    product_ensemble,
    reduced_bloch,
    singlet,
)

__version__ = "0.1.0"
