"""Tests of the benchmark's own code (not of medbound).

    python3 -m pytest -q perfbench
"""

import dataclasses
import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from medbound import bpdual, med  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(case_list):
    problems = run.build_all(case_list)
    return run.measure(case_list, problems, 0.0, random.Random(0), cases.check)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, group):
    out = _cli("--workload", "smoke", "--seed", "1", "--seconds", "0.2", "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_unconverged_operation_counts_as_failed():
    smoke = cases.WORKLOADS["smoke"]()
    stalled = cases.Case("bp heis n=2 T=1.0 max_iters=2", smoke[0].build,
                         cases.bp_op(bpdual.BPConfig(max_iters=2)))
    tally = _measure([stalled, smoke[1]])
    assert (tally.attempted, tally.failed, tally.errors) == (2, 1, [])


SOLVE_N1 = cases.REF["solve heis n=1 T=1.0"]
BP_N2 = cases.REF["bp heis n=2 T=1.0"]


@pytest.mark.parametrize("index, field, value", [
    (1, "ref", SOLVE_N1 + 5e-6),        # the smallest primal cluster-size gain
    (1, "ref", SOLVE_N1 - 1e-4),        # far below the bound
    (1, "agree", SOLVE_N1 - 1e-4),
    (1, "upper", lambda: SOLVE_N1 - 1e-3),
    (0, "ref", BP_N2 + 3e-8),           # BP TFIM n = 5 against n = 6 at T = 1.0
])
def test_check_fires_on_a_wrong_reference(index, field, value):
    good = cases.WORKLOADS["smoke"]()[index]
    bad = dataclasses.replace(good, **{field: value})
    tally = _measure([bad])
    assert tally.failed == 1 and len(tally.errors) == 1


def test_wrappers_leave_modules_as_found():
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    gone = ("medbound.med", "no_such_function", "med.gone", tracing._plain)
    case = cases.WORKLOADS["smoke"]()[1]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, tracing.TARGETS + [gone]):
            assert med.solve is not before[("medbound.med", "solve")]
            tracer.call("bench.op", case.run, case.build())
            raise RuntimeError("leave the block early")
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a in before}
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == ["medbound.med.no_such_function"]
    assert tracer.calls["med.solve"] == 1 and tracer.counters["med.inner_iters"] > 0


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    def mid():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("mid", mid))
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.total_s["root"], rel=1e-9)
    assert tracer.calls == {"root": 1, "mid": 1, "leaf": 2}
    assert list(tracer.parent) == [-1, 0, 1, 1]
