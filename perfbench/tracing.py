"""Outside-in per-layer tracing of ``vdtoda``.

Each span names a module-level attribute of one ``vdtoda`` module.  The
tracer wraps that object wherever any loaded ``vdtoda`` module binds it:
the defining module's own global (so calls inside the module are caught)
and every name another module imported it under (so calls across modules
are caught).  A class is traced by wrapping its ``__init__``.  A name that
no longer exists is reported as absent, not as an error, so the benchmark
keeps working when later changes remove or rename internals.

Spans nest through a stack: a span's self time is its duration minus the
time covered by the spans it caused directly.  The tracer keeps per-span
totals in memory; it never writes files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, defining module, attribute)
SPANS = (
    ("core.State", "vdtoda.core", "State"),
    ("hamiltonian.rhs", "vdtoda.hamiltonian", "_eom_arrays"),
    ("hamiltonian.derived_coords", "vdtoda.hamiltonian", "derived_coords"),
    ("hamiltonian.energy", "vdtoda.hamiltonian", "hamiltonian"),
    ("lax.build_bundle", "vdtoda.lax", "build_bundle"),
    ("integrate.solve_ivp", "vdtoda.integrate", "solve_ivp"),
    ("integrate.spectra", "vdtoda.integrate", "_matched_spectra"),
    ("integrate.check_bounds", "vdtoda.integrate", "_check_bounds"),
    ("solve.matrix_exp", "vdtoda.solve", "matrix_exp"),
    ("solve.leading_minors", "vdtoda.solve", "leading_minors"),
    ("solve.minor_rates", "vdtoda.solve", "_minor_log_rates"),
    ("solve.invert_velocity", "vdtoda.solve", "_invert_velocity"),
    ("solve.solve_trajectory", "vdtoda.solve", "solve_trajectory"),
    ("verify.lax_triad", "vdtoda.verify", "lax_triad_residual"),
    ("verify.lax_equation", "vdtoda.verify", "lax_equation_residual"),
    ("verify.omega_relations", "vdtoda.verify", "omega_relations_residual"),
    ("verify.band_relations", "vdtoda.verify", "band_relations_residual"),
    ("verify.scalar_identities", "vdtoda.verify", "scalar_identities"),
    ("verify.run_suite", "vdtoda.verify", "run_suite"),
)

# Reported per-layer metrics: (span, statistic).  ``calls`` and ``self_ms``
# are per op; ``us_per_call`` is the inclusive time of one call.
METRICS = (
    ("core.State", "calls"),
    ("hamiltonian.rhs", "calls"),
    ("hamiltonian.rhs", "us_per_call"),
    ("hamiltonian.rhs", "self_ms"),
    ("hamiltonian.derived_coords", "calls"),
    ("hamiltonian.derived_coords", "us_per_call"),
    ("hamiltonian.energy", "calls"),
    ("hamiltonian.energy", "self_ms"),
    ("lax.build_bundle", "calls"),
    ("lax.build_bundle", "us_per_call"),
    ("lax.build_bundle", "self_ms"),
    ("integrate.solve_ivp", "self_ms"),
    ("integrate.spectra", "self_ms"),
    ("integrate.check_bounds", "self_ms"),
    ("solve.matrix_exp", "calls"),
    ("solve.matrix_exp", "us_per_call"),
    ("solve.leading_minors", "us_per_call"),
    ("solve.minor_rates", "us_per_call"),
    ("solve.minor_rates", "self_ms"),
    ("solve.invert_velocity", "self_ms"),
    ("solve.solve_trajectory", "self_ms"),
    ("verify.lax_triad", "us_per_call"),
    ("verify.lax_equation", "us_per_call"),
    ("verify.omega_relations", "us_per_call"),
    ("verify.band_relations", "us_per_call"),
    ("verify.scalar_identities", "us_per_call"),
    ("verify.run_suite", "self_ms"),
)

UNITS = {"calls": "count", "us_per_call": "us", "self_ms": "ms"}


class Tracer:
    """Installs span wrappers on ``vdtoda`` and accumulates their totals.

    Use as a context manager; leaving it restores every original binding.
    Totals accumulate over every entry.  ``totals[span]`` is
    ``[calls, inclusive seconds, self seconds]``.
    """

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.totals = {name: [0, 0.0, 0.0] for name, _, _ in spans}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        totals = self.totals[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                totals[0] += 1
                totals[1] += took
                totals[2] += took - children
                if stack:
                    stack[-1] += took

        return span

    def __enter__(self) -> Tracer:
        importlib.import_module("vdtoda")
        self.absent = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "vdtoda"]
        for name, module_name, attr in self.spans:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if inspect.isclass(original):
                self._patch(original, "__init__", self._wrap(name, original.__init__))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def metrics(self, ops: int) -> dict[str, dict]:
        """Every entry of ``METRICS`` for ``ops`` traced ops.

        A span with no calls, absent or not exercised by the workload,
        reports 0 for each of its statistics.
        """
        out = {}
        for span, stat in METRICS:
            calls, inclusive, self_s = self.totals[span]
            if stat == "calls":
                value = calls / ops
            elif stat == "us_per_call":
                value = 1e6 * inclusive / calls if calls else 0.0
            else:
                value = 1e3 * self_s / ops
            out[f"{span}.{stat}"] = {"value": value, "unit": UNITS[stat]}
        return out
