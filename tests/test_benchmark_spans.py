"""The benchmark's per-layer spans and workloads still fit the package.

``perfbench/tracing.py`` reports a span whose attribute is gone as
absent rather than failing, so a refactor that renames a traced
function would silently zero that layer in the benchmark.  This loads
the span table from that file, without installing the tracer, and
resolves every entry in the package.  The perfbench tests run outside
tier-1, so the output contract of ``perfbench/workloads.py`` (the fields
its checks read, ``Trajectory.states`` among them) is pinned here too.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import vdtoda

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_benchmark_span_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        name
        for name, module, attr in tracing.SPANS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def load_workloads(monkeypatch):
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_workloads_accept_the_package_outputs(monkeypatch):
    workloads = load_workloads(monkeypatch)
    case = workloads.dense_pool(7)[0]
    rk, algebraic = workloads.compare_op(case)
    assert workloads.compare_check(case, (rk, algebraic)) is None
    cell = workloads.suite_inputs(401)[0]
    assert workloads.suite_check(cell, workloads.suite_op(cell)) is None
    # the benchmark's own tests rebuild trajectories with other states
    shuffled = dataclasses.replace(algebraic, states=algebraic.states[::-1])
    assert workloads.compare_check(case, (rk, shuffled)) is not None


def test_trajectory_keeps_the_fields_the_benchmark_reads():
    # perfbench reads ``states[i]`` and replaces ``states``; a trajectory
    # built from stacks alone must wait for a benchmark change that reads them
    fields = [f.name for f in dataclasses.fields(vdtoda.Trajectory)]
    assert fields == ["params", "t", "states", "energy"]


def test_benchmark_counts_every_exported_error_as_a_failed_op(monkeypatch):
    # the benchmark catches ``library_errors()``; any other error stops its run
    caught = load_workloads(monkeypatch).library_errors()
    exported = [getattr(vdtoda, name) for name in vdtoda.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, BaseException)]
    assert errors
    assert [e.__name__ for e in errors if not issubclass(e, caught)] == []
