"""Every exported name resolves, so a deletion cannot leave one dangling."""

import importlib
import pkgutil

import pytest

import lexineq

MODULES = [m.name for m in pkgutil.iter_modules(lexineq.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lexineq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# The names ``import lexineq`` bound when the package imported its modules
# eagerly, with ``System`` in place of the deleted ``LinearSystem`` and
# ``solve_linear_system``: the lazy table must keep every one of them.
PACKAGE_NAMES = {
    "DegenerateFractionError", "LexineqError", "MultipleVariablesError",
    "NonIntegerExponentError", "NonPositiveScaleError", "ParseError", "PoleError",
    "UnknownLawError", "UnsupportedFormError", "ZeroLeadingCoefficientError",
    "Ordering", "Polar", "complex_div", "lex_cmp", "lex_ge", "lex_le", "polar_decompose",
    "Disc", "Generic", "HyperbolaDomain", "Invert", "Membership", "ObliqueHalfPlane",
    "Region", "Rotate", "Scale", "Sqrt", "Translate", "VerticalHalfPlane",
    "apply_transform", "classify", "contains", "membership_grid",
    "Fractional", "InequalityProblem", "Linear", "Quadratic", "System",
    "SolutionKind", "SolutionSet", "solution_contains", "solution_grid", "solve",
    "solve_fractional", "solve_linear", "solve_quadratic",
    "DEFAULT_EPS", "Bitmap", "GridSpec", "VerificationReport", "boundary_margin",
    "default_grid", "eval_direct", "sample_raster", "verify",
    "classify_problem",
    "SourceExpr", "eval_expr", "parse", "parse_complex", "parse_input", "to_text",
    "LAW_IDS", "LawReport", "check_all", "check_law", "recheck",
}


def test_package_table_holds_every_package_name():
    assert PACKAGE_NAMES <= set(lexineq._HOME)
    assert set(lexineq.__all__) == set(lexineq._HOME)
    assert set(lexineq._HOME) <= set(dir(lexineq))


@pytest.mark.parametrize("name", sorted(lexineq._HOME))
def test_package_name_resolves_to_its_home(name):
    home = importlib.import_module(f"lexineq.{lexineq._HOME[name]}")
    value = getattr(lexineq, name)
    assert value is getattr(home, name)
    if isinstance(value, type) or callable(value):
        assert value.__module__ == home.__name__  # defined there, not re-exported


def test_every_module_is_checked():
    # the modules that declare __all__ are among those listed
    assert {"laws", "lexorder", "normalize", "oracle", "parser", "region", "solver"} <= set(MODULES)
