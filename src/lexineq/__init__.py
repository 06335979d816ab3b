"""lexineq: a dictionary (lexicographic) total order on the complex
plane, a region-transform algebra over its half-planes, and closed-form
solvers for three classes of complex inequalities and systems of them,
verified against a brute-force membership oracle.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.  ``import lexineq``
# imports no submodule: a name is bound on first access (PEP 562), so each
# command loads only the modules it runs.  Where ``PYTHONDONTWRITEBYTECODE``
# is set, a module loaded is a module compiled, on every call.
_EXPORTS = {
    "errors": (
        "DegenerateFractionError", "LexineqError", "MultipleVariablesError",
        "NonIntegerExponentError", "NonPositiveScaleError", "ParseError", "PoleError",
        "UnknownLawError", "UnsupportedFormError", "ZeroLeadingCoefficientError",
    ),
    "lexorder": (
        "Membership", "Ordering", "Polar", "complex_div", "lex_cmp", "lex_ge", "lex_le",
        "polar_decompose",
    ),
    "parser": ("SourceExpr", "eval_expr", "parse", "parse_complex", "parse_input", "to_text"),
    "normalize": (
        "Fractional", "InequalityProblem", "Linear", "Quadratic", "System",
        "classify_problem",
    ),
    "region": (
        "Disc", "Generic", "HyperbolaDomain", "Invert", "ObliqueHalfPlane", "Region",
        "Rotate", "Scale", "Sqrt", "Translate", "VerticalHalfPlane", "apply_transform",
        "classify", "contains", "membership_grid",
    ),
    "solver": (
        "SolutionKind", "SolutionSet", "solution_contains", "solution_grid", "solve",
        "solve_fractional", "solve_linear", "solve_quadratic",
    ),
    "oracle": (
        "DEFAULT_EPS", "Bitmap", "GridSpec", "VerificationReport", "boundary_margin",
        "default_grid", "eval_direct", "sample_raster", "verify",
    ),
    # laws samples with numpy, which costs more start-up time than the rest
    "laws": ("LAW_IDS", "LawReport", "check_all", "check_law", "recheck"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet, as ``lexineq.solver``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
