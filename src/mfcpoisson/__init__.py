"""Mean-field control with Poissonian common noise: simulation and verification."""

__version__ = "0.1.0"

from .coefficients import (  # noqa: F401
    AdjointTriplet,
    CoefficientSet,
    JumpSpec,
    LQParams,
    delta_hamiltonian_relaxed,
    delta_hamiltonian_strict,
    hamiltonian_relaxed,
    hamiltonian_strict,
    lq_coefficients,
)
from .lq import (  # noqa: F401
    RiccatiSolution,
    adjoint_ansatz,
    lq_value_evaluator,
    optimal_control,
    quadratic_minimizer,
    solve_riccati,
    value_function,
)
from .measures import (  # noqa: F401
    Box,
    EmpiricalMeasure,
    JointEmpiricalMeasure,
    RelaxedKernel,
    extend,
    fm_distance,
    joint_with_kernel,
    kr_distance,
    second_moment,
)
from .simulate import (  # noqa: F401
    FeedbackRule,
    InitSpec,
    OpenLoopRule,
    ParticleCloud,
    PoissonPath,
    RelaxedRule,
    ScenarioRecord,
    TimeGrid,
    chattering,
    estimate_cost,
    paired_costs,
    sample_poisson_path,
    simulate_cost,
    simulate_record,
    simulate_relaxed,
    simulate_strict,
)
