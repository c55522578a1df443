"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Workloads run on their first two inputs only, so the whole file takes
well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
vdtoda = workloads.load_vdtoda()


@pytest.fixture
def short(monkeypatch):
    """Shrink every workload to its first two inputs and one set-up probe."""
    for name, work in list(workloads.WORKLOADS.items()):
        full = work.make_inputs
        monkeypatch.setitem(
            workloads.WORKLOADS,
            name,
            dataclasses.replace(work, make_inputs=lambda seed, full=full: full(seed)[:2]),
        )
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def result(capsys, *args) -> dict:
    assert run.main([*args, "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    traced = {f"{span}.{stat}" for span, stat in tracing.METRICS}
    assert per_layer == traced | {"trace.overhead_frac"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean_and_counts_repeat(name, short, capsys):
    plain = result(capsys, "--workload", name, "--seed", "3", "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 3
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first = result(capsys, "--workload", name, "--seed", "3", "--trace", "1")
    second = result(capsys, "--workload", name, "--seed", "3", "--trace", "1")
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for count in ("hamiltonian.rhs.calls", "core.State.calls", "lax.build_bundle.calls"):
        assert first["metrics"][count] == second["metrics"][count]
    assert first["metrics"]["lax.build_bundle.calls"]["value"] > 0


def test_tail_is_p90_unless_that_leaves_fewer_than_ten_beyond():
    assert run.tail([float(i) for i in range(504)]) == (452.0, 100.0 * 453 / 504, 51)
    assert run.tail([float(i) for i in range(64)]) == (53.0, 100.0 * 54 / 64, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_trajectory_check_rejects_shifted_sample():
    case = workloads.dense_pool(5)[0]
    rk, algebraic = workloads.compare_op(case)
    assert workloads.compare_check(case, (rk, algebraic)) is None
    states = list(algebraic.states)
    k = len(states) // 2
    states[k] = vdtoda.State(states[k].xi + np.eye(case.n)[2] * 1e-3, states[k].eta)
    shifted = dataclasses.replace(algebraic, states=tuple(states))
    assert workloads.compare_check(case, (rk, shifted)) is not None


def test_suite_check_rejects_perturbed_report():
    cell = workloads.suite_inputs(5)[30]
    params = vdtoda.ModelParams(cell.n, cell.beta, cell.kappa)
    assert workloads.suite_check(cell, workloads.suite_op(cell)) is None
    perturbed = vdtoda.run_suite(
        params, workloads.SUITE_STATES, cell.seed, box=workloads.SUITE_BOX,
        perturb=("L", 1, 0, 1e-3),
    )
    assert workloads.suite_check(cell, perturbed) is not None


def test_tracer_restores_bindings_and_reports_absent_names():
    integrate_mod = sys.modules["vdtoda.integrate"]
    before = integrate_mod._eom_arrays
    init = vdtoda.State.__init__
    spans = tracing.SPANS + (("core.gone", "vdtoda.core", "no_such_name"),)
    with tracing.Tracer(spans) as tracer:
        assert integrate_mod._eom_arrays is not before
        vdtoda.State(np.zeros(3), np.zeros(3))
    assert tracer.absent == ["core.gone"]
    assert tracer.totals["core.State"][0] == 1
    assert integrate_mod._eom_arrays is before and vdtoda.State.__init__ is init


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "suite_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and "correct" not in out.stdout
