import importlib
import pkgutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def test_traced_names_exist():
    # the benchmark's tracer wraps these module attributes by name, and its own
    # tests read each one with a plain getattr: a refactor that drops one must
    # fail here too (the file is only read, not imported as a module)
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    for module, attr, _, _ in namespace["TARGETS"]:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
