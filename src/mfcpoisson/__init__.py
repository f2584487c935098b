"""Mean-field control with Poissonian common noise: simulation and verification."""

__version__ = "0.1.0"

from .coefficients import (  # noqa: F401
    AdjointTriplet,
    CoefficientSet,
    JumpSpec,
    LQParams,
    delta_hamiltonian_strict,
    hamiltonian_strict,
    lq_coefficients,
)
from .lq import (  # noqa: F401
    RiccatiSolution,
    adjoint_ansatz,
    optimal_control,
    quadratic_minimizer,
    solve_riccati,
    value_function,
)
from .measures import (  # noqa: F401
    EmpiricalMeasure,
    JointEmpiricalMeasure,
    RelaxedKernel,
    fm_distance,
    joint_with_kernel,
)
from .simulate import (  # noqa: F401
    ChatteringRule,
    FeedbackRule,
    InitSpec,
    ParticleCloud,
    PoissonPath,
    RelaxedRule,
    ScenarioRecord,
    TimeGrid,
    sample_poisson_path,
    simulate_record,
    simulate_records,
    simulate_relaxed,
    simulate_strict,
)
