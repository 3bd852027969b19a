import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    # every declared entry point "name = module:attr" must import, or the
    # installed command fails at start
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
