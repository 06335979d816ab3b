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


def test_lazy_laws_names_resolve():
    missing = [n for n in sorted(lexineq._LAWS_NAMES) if not hasattr(lexineq, n)]
    assert missing == []


def test_every_module_is_checked():
    # the modules that declare __all__ are among those listed
    assert {"laws", "lexorder", "normalize", "oracle", "parser", "region", "solver"} <= set(MODULES)
