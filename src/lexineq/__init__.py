"""lexineq: a dictionary (lexicographic) total order on the complex
plane, a region-transform algebra over its half-planes, and closed-form
solvers for four classes of complex inequalities, verified against a
brute-force membership oracle.
"""

from .errors import (
    DegenerateFractionError,
    LexineqError,
    MultipleVariablesError,
    NonIntegerExponentError,
    NonPositiveScaleError,
    ParseError,
    PoleError,
    UnknownLawError,
    UnsupportedFormError,
    ZeroLeadingCoefficientError,
)
from .lexorder import (
    Ordering,
    Polar,
    complex_add,
    complex_div,
    complex_mul,
    complex_square,
    complex_sub,
    lex_cmp,
    lex_ge,
    lex_le,
    polar_decompose,
)
from .region import (
    Disc,
    Generic,
    HyperbolaDomain,
    Invert,
    Membership,
    ObliqueHalfPlane,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    VerticalHalfPlane,
    apply_transform,
    classify,
    contains,
    membership_grid,
    normalize,
)
from .solver import (
    Fractional,
    InequalityProblem,
    Linear,
    LinearSystem,
    Quadratic,
    SolutionKind,
    SolutionSet,
    solution_contains,
    solution_grid,
    solve,
    solve_fractional,
    solve_linear,
    solve_linear_system,
    solve_quadratic,
)
from .oracle import (
    DEFAULT_EPS,
    Bitmap,
    GridSpec,
    VerificationReport,
    boundary_margin,
    default_grid,
    eval_direct,
    sample_raster,
    verify,
)
from .normalize import classify_problem
from .parser import SourceExpr, eval_expr, parse, parse_complex, parse_input, to_text

__version__ = "0.1.0"

# ``laws`` samples with numpy, which costs more start-up time than the rest
# of the package; its names are bound on first access (PEP 562) so that
# ``import lexineq`` and the scalar commands do not load numpy.
_LAWS_NAMES = frozenset({"LAW_IDS", "LawReport", "check_all", "check_law", "recheck"})


def __getattr__(name: str):
    if name in _LAWS_NAMES:
        from . import laws

        value = getattr(laws, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
