import importlib
import pkgutil
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    # every declared entry point "name = module:attr" must import, or the
    # installed command fails at start
    tomllib = pytest.importorskip("tomllib")    # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_public_names_resolve():
    # every name a module exports must exist on it, so a deletion cannot
    # leave a stale export behind
    package = importlib.import_module("medbound")
    for info in pkgutil.iter_modules(package.__path__, "medbound."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
