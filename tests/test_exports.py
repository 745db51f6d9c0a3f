"""Every public name a module lists in __all__ exists, so a deletion that
misses its __all__ entry or a package re-export fails here."""

import importlib
import pkgutil

import pytest

import spcop

MODULES = sorted(m.name for m in pkgutil.iter_modules(spcop.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"spcop.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from spcop.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_star_import():
    namespace = {}
    exec("from spcop import *", namespace)
    assert "best_eta_report" in namespace
