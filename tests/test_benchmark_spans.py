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

import numpy as np
from scipy.integrate import solve_ivp

import vdtoda
from vdtoda.hamiltonian import _eom_arrays
from vdtoda.integrate import sample_times

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


def test_integrate_calls_the_traced_rhs_once_per_evaluation(monkeypatch, count_calls):
    # the benchmark's hamiltonian.rhs span counts the calls through the
    # binding ``integrate._eom_arrays``; one per evaluation, as many as
    # scipy's DOP853 makes on the same problem
    state, params = load_workloads(monkeypatch).dense_pool(7)[0].args()
    traced = count_calls(sys.modules["vdtoda.integrate"], "_eom_arrays")
    vdtoda.integrate(state, params, 5.0)
    n = params.n
    sol = solve_ivp(
        lambda _t, y: _eom_arrays(y[:n], y[n:], params),
        (0.0, 5.0),
        np.concatenate([state.xi, state.eta]),
        method="DOP853",
        t_eval=sample_times(5.0, 0.05),
        rtol=1e-10,
        atol=1e-12,
    )
    assert traced.count == sol.nfev > 0


def test_each_route_enters_its_modules_binding_of_the_traced_energy(monkeypatch, count_calls):
    # the benchmark's hamiltonian.energy span wraps ``hamiltonian`` where a
    # module binds it; each route must take its energies through that name:
    # both trajectory routes in ``integrate._assemble``, the points and the
    # suite in their own modules
    state, params = load_workloads(monkeypatch).dense_pool(7)[0].args()
    runs = [
        ("vdtoda.integrate", lambda: vdtoda.integrate(state, params, 1.0)),
        ("vdtoda.integrate", lambda: vdtoda.solve_trajectory(state, params, 1.0)),
        ("vdtoda.solve", lambda: vdtoda.positions_at(state, params, 1.0)),
        ("vdtoda.verify", lambda: vdtoda.run_suite(params, 3, 0)),
    ]
    for module, run in runs:
        energy = count_calls(sys.modules[module], "hamiltonian")
        run()
        assert energy.count > 0, module


def test_solve_trajectory_builds_one_bundle(monkeypatch, count_calls):
    # the benchmark's own tests require lax.build_bundle calls on compare_dense
    state, params = load_workloads(monkeypatch).dense_pool(7)[0].args()
    built = count_calls(sys.modules["vdtoda.solve"], "build_bundle")
    vdtoda.solve_trajectory(state, params, 5.0)
    assert built.count == 1
