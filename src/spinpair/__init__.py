"""Two-spin ensemble simulator contrasting linear quantum dynamics with
state-dependent mean-value precession."""

from .dynamics_linear import (
    NoSignallingReport,
    ProductUnitary,
    evolve,
    heisenberg_probability,
    no_signalling_suite,
)
from .dynamics_nonlinear import (
    EvolutionPolicy,
    Trajectory,
    closed_form,
    eom_rhs,
    evolve_ensemble,
    fixed_rate,
    integrate_rk4,
    mean_field_rate,
    time_grid,
)
from .measurement import (
    ImpossibleOutcomeError,
    MeasurementBasis,
    OutcomeBranch,
    basis_from_vectors,
    collapse,
    joint_probability_total,
    measure_all,
    outcome_probability,
    validate_basis,
)
from .qmath import (
    ConsistencyError,
    dagger,
    mean_value,
    pauli,
    projector,
    spin_unitary,
    tensor,
    trace_out_remote,
    trace_out_system,
)
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
