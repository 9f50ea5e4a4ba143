"""Exact self-affine iterated function systems on curves and surfaces.

The package builds explicit affine systems whose attractors live on the
moment curve (t, t², …, tⁿ) and on the paraboloid x₁²+⋯+x_{n−1}² = x_n,
verifies the defining identities exactly over the rationals, samples
attractors numerically, classifies curve germs up to affine conjugacy
against the moment curve, and walks the polynomial-pullback obstruction
that keeps non-trivial self-affine sets off compact algebraic surfaces.
"""

from types import ModuleType as _ModuleType

from .affine import (
    AffineMap,
    ContractionCertificate,
    IteratedFunctionSystem,
    compose,
    fixed_point,
    ifs_from_jsonable,
    ifs_to_jsonable,
    invert,
    is_contractive,
    map_from_jsonable,
    map_to_jsonable,
    matrix_from_jsonable,
    max_row_sum,
    operator_norm,
)
from .attractor import chaos_game, diameter, hutchinson_iterate, one_sided_hausdorff
from .classifier import (
    VERDICT_CONJUGATION,
    VERDICT_GAP,
    VERDICT_HYPERPLANE,
    VERDICT_MOMENT,
    ClassificationResult,
    ConjugationReport,
    GraphForm,
    HyperplaneDegeneracyError,
    InsufficientOrderError,
    RecenterResult,
    check_conjugation,
    classify_curve,
    germ_from_jsonable,
    graph_form,
    normalize_at_fixed_point,
    solve_recenter,
    tangent_eigenvalue,
)
from .cloud import PointCloud, read_csv, write_csv, write_svg
from .exactlinalg import (
    determinant,
    express_in_span,
    greedy_independent,
    mat_inverse,
    solve,
)
from .moment import (
    InvarianceReport,
    MomentCurveSpec,
    MomentIfsRecipe,
    build_moment_ifs,
    choose_anchors,
    eval_moment,
    lambda_bound,
    recipe_from_jsonable,
    recipe_to_jsonable,
    verify_moment_invariance,
)
from .paraboloid import (
    ParaboloidSpec,
    build_paraboloid_ifs,
    paraboloid_polynomial,
    surface_residual,
    verify_paraboloid_conjugation,
)
from .polynomials import (
    FixedPointReport,
    MultiPoly,
    ScalingCertificate,
    format_polynomial,
    is_self_affine_pair,
    parse_polynomial,
    scaling_certificate,
    scaling_constant,
    verify_fixed_points_on_surface,
)
from .pullback import (
    CITED_CONCLUSION,
    DecayReport,
    PullbackSequence,
    circle_polynomial,
    coefficient_span_dimension,
    dependency_witness,
    diameter_decay_report,
    pullback_sequence,
    rational_circle_points,
)
from .rationals import format_rational, parse_rational, sqrt_upper_bound
from .series import (
    TruncatedSeries,
    series_compose,
    series_multiply,
    series_reverse,
)

__version__ = "0.1.0"

# The public names are the ones imported above; the submodules are not among them.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
