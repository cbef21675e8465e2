"""Every module under ``repro`` imports: a reference to deleted code
fails here in about a second instead of deep inside a Spark test."""
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def test_modules_found():
    assert "repro.core.terms" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
