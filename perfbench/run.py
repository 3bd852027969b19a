"""Benchmark: certified free-energy bounds from medbound on fixed workloads.

    python3 perfbench/run.py --workload bp-chain --seed 1 --seconds 32 --trace 0

One process runs the workload's operations back to back (a closed loop with
one client) on one BLAS thread. It repeats the whole case list, in an order
drawn from ``--seed``, for about ``--seconds`` seconds (at least once),
checks every bound outside the timed region, and prints one JSON object as
its last line of output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one traced pass and reports the per-layer metrics. See
README.md beside this file for the workloads and metric definitions.
"""

import os

# one BLAS thread, fixed before numpy is imported; set-up probes inherit it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
EIGH_DIMS = (2, 4, 8, 16, 32, 64, 128)


def _load_cases():
    """Import the workload definitions, which import medbound from ``src/``."""
    if not (SRC / "medbound" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: medbound sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cases
    return cases


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    pass_iters: list = field(default_factory=list)

    def record(self, cases_, elapsed, outcomes, check):
        """Check one pass's bounds (outside the timed region) and count it."""
        self.pass_s.append(elapsed)
        self.pass_iters.append(sum(o.iterations for o in outcomes))
        for case, out in zip(cases_, outcomes):
            errors = check(case, out)
            self.errors.extend(errors)
            self.attempted += 1
            if errors or not out.converged:
                self.failed += 1


def build_all(cases_):
    return [c.build() for c in cases_]


def run_pass(cases_, problems, rng, tracer=None):
    """Every operation once, in a seeded order; returns (seconds, outcomes)."""
    order = list(range(len(cases_)))
    rng.shuffle(order)
    outcomes = [None] * len(cases_)
    t0 = perf_counter()
    for i in order:
        if tracer is None:
            outcomes[i] = cases_[i].run(problems[i])
        else:
            outcomes[i] = tracer.call("bench.op", cases_[i].run, problems[i])
    return perf_counter() - t0, outcomes


def measure(cases_, problems, seconds, rng, check) -> Tally:
    """Repeat passes while another one fits in `seconds` (at least one)."""
    tally = Tally()
    start = perf_counter()
    while True:
        elapsed, outcomes = run_pass(cases_, problems, rng)
        tally.record(cases_, elapsed, outcomes, check)
        if perf_counter() - start + statistics.median(tally.pass_s) > seconds:
            return tally


def setup_seconds(workload: str, probes: int = SETUP_PROBES) -> float:
    """Median wall time from starting a fresh process to having every problem
    built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload]
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    print("set-up probes, seconds each: " + " ".join(f"{s:.4f}" for s in times))
    return statistics.median(times)


def layer_metrics(tracer, overhead_frac: float) -> dict:
    """Per-layer numbers from one traced pass (set-up included)."""
    from tracing import OPALG_KERNELS
    calls, self_s = tracer.calls, tracer.self_s
    m = {
        "lattice.geometry.calls": (calls["lattice.geometry"], "count"),
        "lattice.geometry.s": (tracer.total_s["lattice.geometry"], "s"),
    }
    for k in OPALG_KERNELS:
        m[f"opalg.{k}.calls"] = (calls[f"opalg.{k}"], "count")
        m[f"opalg.{k}.self_s"] = (self_s[f"opalg.{k}"], "s")
    for d in EIGH_DIMS:
        m[f"lapack.eigh.d{d}.calls"] = (calls[f"lapack.eigh.d{d}"], "count")
        m[f"lapack.eigh.d{d}.self_s"] = (self_s[f"lapack.eigh.d{d}"], "s")
    m["lapack.eigh.gflop_computed"] = (tracer.counters["lapack.eigh.flop"] / 1e9, "GFLOP")
    m["lapack.eigvalsh.calls"] = (calls["lapack.eigvalsh"], "count")
    m["lapack.eigvalsh.self_s"] = (self_s["lapack.eigvalsh"], "s")
    inner = tracer.counters["med.inner_iters"]
    m.update({
        "med.solve.calls": (calls["med.solve"], "count"),
        "med.solve.s": (tracer.total_s["med.solve"], "s"),
        "med.minimize.calls": (calls["med.minimize"], "count"),
        "med.optimizer.self_s": (self_s["med.minimize"], "s"),
        "med.objective.calls": (calls["med.objective"], "count"),
        "med.objective.self_s": (self_s["med.objective"], "s"),
        "med.inner_iters": (int(inner), "count"),
        "med.evals_per_iter": (calls["med.objective"] / inner if inner else 0.0, "ratio"),
        "bpdual.fixed_point.calls": (calls["bpdual.fixed_point"], "count"),
        "bpdual.fixed_point.self_s": (self_s["bpdual.fixed_point"], "s"),
        "bpdual.bp_update.calls": (calls["bpdual.bp_update"], "count"),
        "bpdual.bp_update.self_s": (self_s["bpdual.bp_update"], "s"),
        "bpdual.sweeps": (int(tracer.counters["bpdual.sweeps"]), "count"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    })
    return m


def _report(correct, tally, metrics):
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cases = _load_cases()
    if args.workload not in cases.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(cases.WORKLOADS)}")
    case_list = cases.WORKLOADS[args.workload]()
    if args.setup_probe:
        build_all(case_list)
        print("ready", flush=True)
        return 0

    print("environment:", json.dumps(environment()))
    rng = random.Random(args.seed)
    setup_s = None if args.trace else setup_seconds(args.workload)
    problems = build_all(case_list)
    tally = measure(case_list, problems, args.seconds, rng, cases.check)
    print(f"passes: {len(tally.pass_s)}, seconds each: "
          + " ".join(f"{s:.4f}" for s in tally.pass_s))

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(tally.pass_s), "s"),
            "solver_iters": (int(statistics.median(tally.pass_iters)), "count"),
            "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        _report(not tally.errors, tally, metrics)
        return 0

    from tracing import Tracer, installed
    tracer = Tracer()
    with installed(tracer):
        traced_problems = tracer.call("bench.setup", build_all, case_list)
        traced_s, outcomes = run_pass(case_list, traced_problems, rng, tracer)
    untraced_s = statistics.median(tally.pass_s)
    untraced_iters = tally.pass_iters[-1]
    tally.record(case_list, traced_s, outcomes, cases.check)
    if tally.pass_iters[-1] != untraced_iters:
        tally.errors.append(f"traced solver_iters {tally.pass_iters[-1]} != "
                            f"untraced {untraced_iters}")
    for target in tracer.missing:
        print(f"trace target missing: {target}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    metrics = layer_metrics(tracer, traced_s / untraced_s - 1.0)
    _report(not tally.errors, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
