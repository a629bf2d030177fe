"""Residual iteration methods for large sparse quadratic eigenvalue problems.

Solves ``Q(lam) x = (lam^2 M + lam C + K) x = 0`` for the eigenvalues
nearest a shift, by Newton refinement of a single pair or by a growing
subspace driven by exact (LU) or iterative (COCR or GMRES) solves with
``Q(sigma)``.
A dense companion-pencil oracle provides reference eigenpairs with left
vectors and the angle/resolvent checks used to validate the iteration's
behaviour.
"""

from .errors import (
    Breakdown,
    DegenerateResidual,
    HypothesisViolated,
    InfiniteEigenvaluePresent,
    NoConvergence,
    OrthogonalToTarget,
    QriError,
    SingularMatrix,
    Stagnation,
    ZeroVector,
)
from .gmres import GmresResult, gmres
from .linalg import OrthonormalBasis
from .oracle import (
    OracleDecomposition,
    angle_sandwich,
    expansion_angle_bound,
    expansion_angle_identity,
    expansion_perturbation_diagnostics,
    full_eig,
    resolvent_check,
    sin_angle,
    tan_angle,
)
from .problems import (
    SpringMaxwellParams,
    example1,
    random_qep,
    spring_maxwell,
    wave2d,
)
from .qep import (
    QepProblem,
    q_apply,
    q_prime_apply,
    read_problem,
    relative_residual,
    write_problem,
)
from .solver import (
    NewtonResult,
    RitzPair,
    RunResult,
    SolverConfig,
    newton_solve,
    outer_loop,
    refined_vector,
)

__version__ = "0.1.0"

__all__ = [
    "Breakdown",
    "DegenerateResidual",
    "GmresResult",
    "HypothesisViolated",
    "InfiniteEigenvaluePresent",
    "NewtonResult",
    "NoConvergence",
    "OracleDecomposition",
    "OrthogonalToTarget",
    "OrthonormalBasis",
    "QepProblem",
    "QriError",
    "RitzPair",
    "RunResult",
    "SingularMatrix",
    "SolverConfig",
    "SpringMaxwellParams",
    "Stagnation",
    "ZeroVector",
    "angle_sandwich",
    "example1",
    "expansion_angle_bound",
    "expansion_angle_identity",
    "expansion_perturbation_diagnostics",
    "full_eig",
    "gmres",
    "newton_solve",
    "outer_loop",
    "q_apply",
    "q_prime_apply",
    "random_qep",
    "read_problem",
    "refined_vector",
    "relative_residual",
    "resolvent_check",
    "sin_angle",
    "spring_maxwell",
    "tan_angle",
    "wave2d",
    "write_problem",
]
