"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every op reaches the library through ``importlib.import_module`` at call
time, so the wrappers that ``tracing`` installs on module attributes are
the ones that run.  Inputs are generated here with NumPy; the library
only ever sees the generated states, parameters and per-cell seeds.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Agreement bound between the RK and algebraic routes, as used by
# `vdtoda compare` and acceptance criterion 6.
ROUTE_TOL = 1e-5

# CLI defaults for the RK route.
RK_RTOL = 1e-10
RK_ATOL = 1e-12

# Library errors that count an op as failed instead of stopping the run.
LIBRARY_ERRORS = (
    "FactorizationBreakdownError",
    "TrajectoryCheckError",
    "CoordinateOverflowError",
    "CrossCheckError",
    "StepSizeUnderflowError",
)


def load_vdtoda():
    """Import ``vdtoda`` from this checkout's ``src``, never from elsewhere.

    Raises ``FileNotFoundError`` when the checkout holds no sources, so the
    benchmark cannot silently measure an installed copy.
    """
    src = ROOT / "src"
    if not (src / "vdtoda" / "__init__.py").is_file():
        raise FileNotFoundError(f"no vdtoda sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    vdtoda = importlib.import_module("vdtoda")
    if Path(vdtoda.__file__).resolve().parent != (src / "vdtoda").resolve():
        raise ImportError(f"vdtoda was imported from {vdtoda.__file__}, not {src}")
    return vdtoda


def library_errors() -> tuple[type[BaseException], ...]:
    vdtoda = importlib.import_module("vdtoda")
    return tuple(getattr(vdtoda, name) for name in LIBRARY_ERRORS if hasattr(vdtoda, name))


def _mod(name: str):
    # vdtoda.hamiltonian and vdtoda.integrate are shadowed on the package
    # by re-exported functions; import_module returns the submodule.
    return importlib.import_module(f"vdtoda.{name}")


@dataclass(frozen=True)
class Workload:
    """One named input set and the op run over it.

    ``check(item, output)`` returns ``None`` when the output is correct
    and a one-line reason otherwise.
    """

    name: str
    why: str
    make_inputs: Callable[[int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]


# --- suite_grid --------------------------------------------------------------

SUITE_N = range(3, 9)
SUITE_KAPPA = (0.0, 0.3, 1.0, 2.5)
SUITE_BETA = (0.1, 0.5, 1.0)
SUITE_STATES = 34
SUITE_BOX = 2.0


@dataclass(frozen=True)
class SuiteCell:
    n: int
    beta: float
    kappa: float
    seed: int


def suite_inputs(seed: int) -> list[SuiteCell]:
    rng = np.random.default_rng(seed)
    grid = list(itertools.product(SUITE_N, SUITE_KAPPA, SUITE_BETA))
    seeds = rng.integers(0, 2**31, size=len(grid))
    return [SuiteCell(n, beta, kappa, int(s)) for (n, kappa, beta), s in zip(grid, seeds)]


def suite_op(cell: SuiteCell):
    params = _mod("core").ModelParams(cell.n, cell.beta, cell.kappa)
    return _mod("verify").run_suite(params, SUITE_STATES, cell.seed, box=SUITE_BOX)


def suite_check(cell: SuiteCell, reports) -> str | None:
    indices = {r.state_index for r in reports}
    if indices != set(range(SUITE_STATES)):
        return f"reports cover states {sorted(indices)}, expected 0..{SUITE_STATES - 1}"
    failed = [r for r in reports if not r.passed]
    if failed:
        r = failed[0]
        return (
            f"{len(failed)} residual(s) failed, first {r.name} at state {r.state_index}: "
            f"{r.max_abs:.3e} > {r.tol:.0e} * max(1, {r.rel_scale:.3e})"
        )
    return None


# --- trajectory workloads ------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryCase:
    n: int
    beta: float
    kappa: float
    t_end: float
    sample_dt: float
    xi: np.ndarray
    eta: np.ndarray

    def args(self):
        params = _mod("core").ModelParams(self.n, self.beta, self.kappa)
        return _mod("core").State(self.xi, self.eta), params


DENSE_STATES = 16


def dense_pool(seed: int) -> list[TrajectoryCase]:
    """The ROADMAP baseline: ``DENSE_STATES`` states with |xi_a|, |eta_a| <= 1
    at n = 8, beta 0.5, kappa 1, sampled every 0.05 up to t = 5."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(DENSE_STATES):
        xi = rng.uniform(-1.0, 1.0, 8)
        eta = rng.uniform(-1.0, 1.0, 8)
        cases.append(TrajectoryCase(8, 0.5, 1.0, 5.0, 0.05, xi, eta))
    return cases


def rk_route(case: TrajectoryCase):
    state, params = case.args()
    return _mod("integrate").integrate(
        state, params, case.t_end, sample_dt=case.sample_dt, rtol=RK_RTOL, atol=RK_ATOL
    )


def algebraic_route(case: TrajectoryCase):
    state, params = case.args()
    return _mod("solve").solve_trajectory(state, params, case.t_end, sample_dt=case.sample_dt)


def compare_op(case: TrajectoryCase):
    """Both routes on one state, as ``vdtoda compare`` runs them."""
    return rk_route(case), algebraic_route(case)


def compare_check(_case, trajectories) -> str | None:
    """Both routes give the same samples to ``ROUTE_TOL`` in xi and eta.

    Spectral drift is deliberately not gated: ``eigvals`` of the non-normal
    Lcal drifts on both routes alike (by up to 1e-5 at n = 48).
    """
    rk, algebraic = trajectories
    if rk.t.shape != algebraic.t.shape or np.any(rk.t != algebraic.t):
        return f"sample times differ: {rk.t.shape[0]} vs {algebraic.t.shape[0]} samples"
    worst = 0.0
    for got, want in zip(rk.states, algebraic.states):
        worst = max(
            worst,
            float(np.max(np.abs(got.xi - want.xi))),
            float(np.max(np.abs(got.eta - want.eta))),
        )
    if not worst <= ROUTE_TOL:
        return f"routes disagree by {worst:.3e} > {ROUTE_TOL:.0e}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite_grid",
            why=(
                "Acceptance-sweep grid, one run_suite per (n, kappa, beta) cell: "
                "build_bundle and the five residual ops do the work, no RHS and no expm."
            ),
            make_inputs=suite_inputs,
            op=suite_op,
            check=suite_check,
        ),
        Workload(
            name="compare_dense",
            why=(
                "16 states at n = 8, each through RK45 and the algebraic route and checked "
                "against each other (vdtoda compare): RHS, spectra, expm and minor rates."
            ),
            make_inputs=dense_pool,
            op=compare_op,
            check=compare_check,
        ),
    )
}
