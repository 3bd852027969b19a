import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def test_public_names_are_exported():
    # every module-level def or class without a leading underscore is in its
    # module's __all__, so __all__ is the whole public surface of a module
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        module = f"medbound.{path.stem}" if path.stem != "__init__" else "medbound"
        public = {node.name for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        assert public <= exported, f"{module} does not export {sorted(public - exported)}"


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


def test_no_unused_parameters():
    # every parameter of a function or lambda is read in its body (self and
    # cls exempt): a parameter nothing reads is an option that does nothing
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None} - {"self", "cls"}
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            assert params <= read, f"{path.name}:{node.lineno} {name} ignores {params - read}"


def test_layout_caches_sit_on_frozen_dataclasses():
    # a `cached_property` holds what was computed from the object's fields,
    # the problems' one layout (`_layout`) among them: only a frozen
    # dataclass keeps those from being reassigned under it
    layouts = set()
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            cached = {f.name for f in node.body if isinstance(f, ast.FunctionDef)
                      and any(getattr(d, "id", None) == "cached_property"
                              for d in f.decorator_list)}
            if not cached:
                continue
            if "_layout" in cached:
                layouts.add(node.name)
            frozen = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                         and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                                 for k in d.keywords)
                         for d in node.decorator_list)
            assert frozen, f"{path.name}:{node.lineno} {node.name} caches but is not frozen"
    assert layouts == {"MedProblem", "BPProblem"}


def test_library_prints_nothing():
    # the library reports through its return values: no print, no writes to
    # sys.stdout or sys.stderr and no logging anywhere in src/medbound
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not (isinstance(node, ast.Name) and node.id == "print"), where
            assert not (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                        and isinstance(node.value, ast.Name) and node.value.id == "sys"), where
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                       [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                       if isinstance(node, ast.ImportFrom) and node.module else [])
            assert not any(m.split(".")[0] == "logging" or m in ("sys.stdout", "sys.stderr")
                           for m in modules), where


def test_no_environment_knobs():
    # the library's behaviour follows from its inputs alone (the sector
    # layout, for one, is read off the Hamiltonians alone): no module reads
    # or writes the process environment
    knobs = {"environ", "getenv", "putenv"}
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not (isinstance(node, ast.Attribute) and node.attr in knobs
                        and isinstance(node.value, ast.Name) and node.value.id == "os"), where
            assert not (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and any(a.name in knobs for a in node.names)), where


def test_numpy_is_the_only_dependency():
    # scipy is a test extra: no module of the package imports it
    tomllib = pytest.importorskip("tomllib")    # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                       [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(m.split(".")[0] == "scipy" for m in modules), \
                f"{path.name}:{node.lineno}"


def run_fresh(script, timeout, **env):
    """Run `script` in a fresh interpreter on this checkout's src."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


# run in a fresh interpreter: the test session has imported scipy already
NO_SCIPY_AT_RUN_TIME = textwrap.dedent("""
    import importlib, math, pkgutil, sys
    import medbound
    from medbound import bpdual, lattice, med, oracle

    for info in pkgutil.iter_modules(medbound.__path__, "medbound."):
        importlib.import_module(info.name)
    heis = lattice.ModelSpec("heisenberg")
    p = bpdual.bp_ti_problem(heis, 2, 1.0)
    bpdual.bp_free_energy(bpdual.bp_fixed_point(p), p)
    q = bpdual.bp_chain_problem(lattice.LatticeSpec("chain", 6), heis, 2, 1.0)
    bpdual.bp_free_energy(bpdual.bp_fixed_point(q), q)
    terms, sites = lattice.build_lattice(lattice.LatticeSpec("chain", 4), heis)
    oracle.exact_free_energy(lattice.total_hamiltonian(terms, sites), 1.0)
    prob = med.ti_problem(lattice.ti_chain_geometry(heis, 1))
    assert med.solve(prob, 1.0).converged
    assert math.isfinite(med.ground_energy_lower_bound(prob, [0.1, 0.3, 1.0]).bound)
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, loaded
""")


def test_no_scipy_module_loads_at_run_time():
    # importing medbound, a BP bound (both loop shapes: the TI pair and an
    # open chain; the bound reads the primal layout, `med._Compiled`), an
    # exact free energy, a primal solve and a ground-energy bound load no
    # scipy module: the primal solver's L-BFGS is `medbound.lbfgs`
    run = run_fresh(NO_SCIPY_AT_RUN_TIME, timeout=300)
    assert run.returncode == 0, run.stderr


# the limit is set before numpy is imported, so it holds the whole run
IN_256_MIB = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    from medbound import bpdual, lattice, med

    heis = lattice.ModelSpec("heisenberg")
    assert med.solve(med.ti_problem(lattice.ti_chain_geometry(heis, 2)), 1.0).converged
    p = bpdual.bp_ti_problem(heis, 2, 1.0)
    bpdual.bp_free_energy(bpdual.bp_fixed_point(p), p)
""")


def test_solves_run_in_256_mib_of_address_space():
    # a primal solve and a BP bound fit a memory-limited sandbox; a process
    # short of address space can spin in the BLAS's allocation retries, so
    # the run has a hard timeout
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is not available")
    run = run_fresh(IN_256_MIB, timeout=120, OPENBLAS_NUM_THREADS="1")
    assert run.returncode == 0, run.stderr


def test_only_layout_reads_the_sector_blocks():
    # the charge of each basis state, the sector blocks of each matrix and
    # their expansion onto mirror entries are the layout's decisions: every
    # other module reads a `_Flat` through its flat arrays and methods
    for path in sorted((ROOT / "src" / "medbound").glob("*.py")):
        if path.name == "layout.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("blocks", "charge", "expansion")), \
                f"{path.name}:{node.lineno} reads .{node.attr}"
