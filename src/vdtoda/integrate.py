"""Reference dynamics by adaptive Runge-Kutta integration.

The chain is integrated in natural coordinates with an embedded 5(4)
pair and dense output sampled on a uniform grid.  Each trajectory is
validated at construction: energy drift stays within the integration
tolerance budget, rapidities respect the a-priori bound
|theta_a| < ln(2 H) / beta, and no particle moves faster than beta H
between consecutive samples.  The eigenvalues of the Lax matrix are
recorded per sample with a consistent ordering, so isospectrality can
be measured as a drift number.  Only Lcal is built per sample, and one
eigvals call covers the whole stack; the construction cross-checks run
in ``build_bundle`` (and so in the verification suite), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from .core import ModelParams, State, time_reversal
from .hamiltonian import _eom_arrays, hamiltonian
from .lax import _lax_matrices

__all__ = [
    "Trajectory",
    "StepSizeUnderflowError",
    "TrajectoryCheckError",
    "integrate",
    "backward_via_reversal",
    "spectral_drift",
    "trajectory_to_csv",
    "spectrum_to_csv",
]

# Drift budget relative to the local error control, and the slack on the
# speed bound to absorb sampling rounding.
_DRIFT_FACTOR = 100.0
_SPEED_SLACK = 1.0 + 1e-6


class StepSizeUnderflowError(ArithmeticError):
    """The adaptive integrator could not proceed; carries the time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} (time reached: {t_reached})")
        self.t_reached = float(t_reached)


class TrajectoryCheckError(Exception):
    """A conservation law or a-priori bound failed along a trajectory."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution of the equations of motion.

    t[0] = 0 and t is strictly increasing; energy[i] is the energy at
    states[i]; spectrum[i] holds the eigenvalues of the Lax matrix at
    sample i, ordered consistently with sample i-1 by minimal-distance
    assignment.
    """

    params: ModelParams
    t: np.ndarray
    states: tuple[State, ...]
    energy: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        energy = np.array(self.energy, dtype=float)
        spectrum = np.array(self.spectrum, dtype=complex)
        k = t.shape[0]
        if k == 0 or t[0] != 0.0 or (k > 1 and np.any(np.diff(t) <= 0.0)):
            raise ValueError("sample times must start at 0 and increase strictly")
        if len(self.states) != k or energy.shape != (k,) or spectrum.shape[0] != k:
            raise ValueError("inconsistent sample counts across trajectory fields")
        for arr in (t, energy, spectrum):
            arr.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "states", tuple(self.states))


def sample_times(t_end: float, sample_dt: float) -> np.ndarray:
    """Multiples of sample_dt inside [0, t_end]; always includes 0.

    The sample count is floor(t_end / sample_dt) + 1, with a small
    relative fuzz so binary representation of the ratio (for example
    5 / 0.05) does not lose the final sample.
    """
    t_end, sample_dt = float(t_end), float(sample_dt)
    if t_end < 0.0 or sample_dt <= 0.0:
        raise ValueError("t_end must be >= 0 and sample_dt > 0")
    k = int(np.floor(t_end / sample_dt * (1.0 + 4.0 * np.finfo(float).eps) + 1e-12)) + 1
    times = sample_dt * np.arange(k)
    return np.minimum(times, t_end)


def _matched_spectra(states: tuple[State, ...], params: ModelParams) -> np.ndarray:
    # One stacked eigvals over (samples, 2n, 2n); only Lcal is built per sample.
    lams = np.linalg.eigvals(_lax_matrices(states, params))
    prev = lams[0][np.lexsort((lams[0].imag, lams[0].real))]
    rows = [prev]
    for lam in lams[1:]:
        cost = np.abs(prev[:, None] - lam[None, :])
        _, col = linear_sum_assignment(cost)
        prev = lam[col]
        rows.append(prev)
    return np.array(rows)


def _check_bounds(
    params: ModelParams,
    t: np.ndarray,
    states: tuple[State, ...],
    energy: np.ndarray,
    drift_tol: float,
) -> None:
    h0 = energy[0]
    drift = float(np.max(np.abs(energy - h0)))
    if drift > drift_tol:
        raise TrajectoryCheckError(
            f"energy drift {drift:.3e} exceeds tolerance {drift_tol:.3e}"
        )
    theta_cap = np.log(2.0 * h0) / params.beta
    for i, s in enumerate(states):
        worst = float(np.max(np.abs(s.eta)))
        if not worst < theta_cap:
            raise TrajectoryCheckError(
                f"rapidity bound violated at t={t[i]}: {worst} >= {theta_cap}"
            )
    speed_cap = params.beta * h0
    for i in range(1, len(states)):
        step = float(np.max(np.abs(states[i].xi - states[i - 1].xi)))
        allowed = speed_cap * (t[i] - t[i - 1]) * _SPEED_SLACK
        if step > allowed:
            raise TrajectoryCheckError(
                f"position moved {step:.6e} in [{t[i - 1]}, {t[i]}], bound {allowed:.6e}"
            )


def _assemble(
    params: ModelParams,
    t: np.ndarray,
    states: tuple[State, ...],
    drift_tol: float,
) -> Trajectory:
    energy = np.array([hamiltonian(s, params) for s in states])
    _check_bounds(params, t, states, energy, drift_tol)
    spectrum = _matched_spectra(states, params)
    return Trajectory(params=params, t=t, states=states, energy=energy, spectrum=spectrum)


def initial_only(state: State, params: ModelParams) -> Trajectory:
    """Degenerate single-sample trajectory at t = 0 (no integration)."""
    return _assemble(params, np.zeros(1), (state,), drift_tol=np.inf)


def integrate(
    state: State,
    params: ModelParams,
    t_end: float,
    sample_dt: float = 0.05,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the equations of motion over [0, t_end].

    Local error per step is controlled to atol + rtol * |y| by an
    embedded 5(4) pair; samples fall on multiples of sample_dt.  The
    accepted energy drift budget is 100 * rtol * |H(state)|.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if rtol <= 0.0 or atol <= 0.0:
        raise ValueError("tolerances must be positive")
    n = params.n
    if state.n != n:
        raise ValueError("state size does not match params.n")
    times = sample_times(t_end, sample_dt)
    y0 = np.concatenate([state.xi, state.eta])

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return _eom_arrays(y[:n], y[n:], params)

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        y0,
        method="RK45",
        t_eval=times,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        reached = float(sol.t[-1]) if sol.t.size else 0.0
        raise StepSizeUnderflowError(sol.message, reached)
    states = tuple(State(col[:n], col[n:]) for col in sol.y.T)
    h0 = hamiltonian(state, params)
    return _assemble(params, times, states, drift_tol=_DRIFT_FACTOR * rtol * abs(h0))


def backward_via_reversal(traj_forward: Trajectory, params: ModelParams) -> Trajectory:
    """Backward-flow samples obtained by reversing a forward trajectory.

    No integration happens: sample i is time_reversal applied to the
    forward sample i, which lies on the integral curve through
    time_reversal of the initial state at time -t[i].  The samples are
    presented on the forward grid; applying the construction twice
    returns the forward trajectory bitwise.
    """
    states = tuple(time_reversal(s) for s in traj_forward.states)
    # The energy is even in the rapidities, so the forward drift budget
    # is already spent; only a rounding allowance is added here.
    h0 = traj_forward.energy[0]
    forward_drift = float(np.max(np.abs(traj_forward.energy - h0)))
    drift_tol = forward_drift + 1e-12 * max(1.0, abs(h0))
    return _assemble(params, traj_forward.t.copy(), states, drift_tol=drift_tol)


def spectral_drift(traj: Trajectory) -> float:
    """Largest matched-eigenvalue deviation from the t = 0 spectrum."""
    base = traj.spectrum[0]
    drift = 0.0
    for row in traj.spectrum[1:]:
        cost = np.abs(base[:, None] - row[None, :])
        r, c = linear_sum_assignment(cost)
        drift = max(drift, float(cost[r, c].max()))
    return drift


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def trajectory_to_csv(traj: Trajectory, target, method: str | None = None) -> None:
    """Write `t,q1..qn,theta1..thetan,H` rows at 17 significant digits.

    ``target`` is a path or an open text file.  When ``method`` is
    given, a trailing tag column is appended to every row (used by the
    dual-method comparison output).
    """
    n = traj.params.n
    header = (
        ["t"]
        + [f"q{a}" for a in range(1, n + 1)]
        + [f"theta{a}" for a in range(1, n + 1)]
        + ["H"]
    )
    if method is not None:
        header.append("method")
    lines = [",".join(header)]
    for i, s in enumerate(traj.states):
        row = [_fmt(traj.t[i])]
        row += [_fmt(v) for v in s.xi]
        row += [_fmt(v) for v in s.eta]
        row.append(_fmt(traj.energy[i]))
        if method is not None:
            row.append(method)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def spectrum_to_csv(traj: Trajectory, target) -> None:
    """Write `t,re_1,im_1,...,re_N,im_N` rows at 17 significant digits."""
    N = traj.spectrum.shape[1]
    header = ["t"]
    for a in range(1, N + 1):
        header += [f"re_{a}", f"im_{a}"]
    lines = [",".join(header)]
    for i in range(traj.t.shape[0]):
        row = [_fmt(traj.t[i])]
        for lam in traj.spectrum[i]:
            row += [_fmt(lam.real), _fmt(lam.imag)]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
