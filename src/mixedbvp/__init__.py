"""Series solver for a mixed elliptic-hyperbolic problem on a rectangle.

The equation (-1)^s u_x^(2s) + p0(x) u + (-1)^n sgn(y) u_y^(2n) = 0 on
(0, pi) x (-a, a) is solved by eigenfunction expansion in x and a 4n-th
order two-region boundary system in y per mode.  Solvability hinges on
small denominators controlled by the arithmetic of a/pi; the denominators
module diagnoses them and the series module applies the matching
truncation rule.
"""

from .denominators import (
    CalibrationUnstable,
    CaseNotTabulated,
    DenominatorReport,
    IrrationalInput,
    build_report,
    classify_phase,
    continued_fraction,
    diophantine_scan,
    separation_check,
)
from .eigen import (
    DiscretizationTooCoarse,
    EigenBasis,
    model_eigenpairs,
    numeric_eigenpairs,
)
from .modal import (
    ModeBank,
    assemble,
    assemble_from_spec,
    scaled_determinant,
    solve_modal,
)
from .problem import (
    BoundaryFunction,
    ExpressionError,
    PiRatio,
    ProblemSpec,
    ValidationError,
    load_config,
    make_spec,
    parse_config_text,
    validate,
)
from .roots import characteristic_roots, fundamental_system
from .series import (
    OutOfDomain,
    SingularModeWithData,
    SolutionField,
    smoothness_check,
    solution_to_csv,
    solve_problem,
)
from .verify import (
    OracleUnavailable,
    boundary_check,
    matching_check,
    oracle_compare,
    pde_residual,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryFunction",
    "CalibrationUnstable",
    "CaseNotTabulated",
    "DenominatorReport",
    "DiscretizationTooCoarse",
    "EigenBasis",
    "ExpressionError",
    "IrrationalInput",
    "ModeBank",
    "OracleUnavailable",
    "OutOfDomain",
    "PiRatio",
    "ProblemSpec",
    "SingularModeWithData",
    "SolutionField",
    "ValidationError",
    "assemble",
    "assemble_from_spec",
    "boundary_check",
    "build_report",
    "characteristic_roots",
    "classify_phase",
    "continued_fraction",
    "diophantine_scan",
    "fundamental_system",
    "load_config",
    "make_spec",
    "matching_check",
    "model_eigenpairs",
    "numeric_eigenpairs",
    "oracle_compare",
    "parse_config_text",
    "pde_residual",
    "run_verification",
    "scaled_determinant",
    "separation_check",
    "smoothness_check",
    "solution_to_csv",
    "solve_modal",
    "solve_problem",
    "validate",
]
