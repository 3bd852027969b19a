import ast
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


def traced_targets():
    """(module, attribute) pairs the benchmark's tracer wraps; the file is
    only read, not imported as a module."""
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return [(module, attr) for module, attr, _, _ in namespace["TARGETS"]]


def test_traced_names_exist():
    # the benchmark's tracer wraps these module attributes by name, and its own
    # tests read each one with a plain getattr: a refactor that drops one must
    # fail here too
    for module, attr in traced_targets():
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_no_unused_imports():
    # no linter is installed: every name a module imports must be referenced
    # in it, unless the tracer wraps it there by name
    traced = set(traced_targets())
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        module = f"medbound.{path.stem}" if path.stem != "__init__" else "medbound"
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        unused = {name for name in imported - used - exported
                  if (module, name) not in traced}
        assert not unused, f"{module} imports {sorted(unused)} without using them"
