"""Principal points and self-consistent sets for elliptical random functions.

Random elements of a separable Hilbert space are represented by their
coefficients in an orthonormal basis, truncated at level d.  The package
simulates elliptical elements built as Gaussian scale mixtures, estimates
covariance operators, solves for self-consistent point sets (Lloyd and a
closed-form two-point solution along the leading eigendirection), and ships
an executable check for each structural identity those solvers rely on.
"""

__version__ = "0.1.0"

from .basis import (
    Basis,
    SubspaceSplit,
    make_basis,
    random_orthogonal,
    write_curve_csv,
)
from .checks import (
    ALL_CHECKS,
    VerificationReport,
    check_conditional_linearity,
    check_convex_hull,
    check_dimension_bound,
    check_eigen_span,
    check_kernel_orthogonality,
    check_mse_identity,
    check_projection_self_consistency,
    check_ratio_invariance,
    check_unitary_equivariance,
    reference_models,
    reference_suite,
)
from .errors import (
    ConfigError,
    DegenerateDirectionError,
    FunquantError,
    InsufficientDataError,
    ShapeError,
    SingularityError,
    UsageError,
)
from .estimates import (
    CovarianceEstimate,
    estimate,
    principal_angles,
    trace_tail,
    write_estimate_json,
)
from .laws import NormalMixtureLaw, StudentTLaw, UniformLaw, UnivariateLaw
from .models import (
    EllipticalModel,
    ScaleMixture,
    conditional_mean,
    conditional_slope,
    covariance_operator,
    model_from_dict,
    sample,
    write_samples_csv,
)
from .quantize import (
    AttractionAssignment,
    LloydReport,
    PointSet,
    assign,
    closed_form_two_points,
    empirical_mse,
    g_constant,
    lloyd,
    min_distance,
    quantizer_variable,
    self_consistency_residual,
    univariate_principal_points,
    write_pointset_json,
)
