"""Reference dynamics by adaptive Runge-Kutta integration.

The chain is integrated in natural coordinates by ``solve_ivp``, the
module's own Dormand-Prince 5(4) integrator with dense output sampled on a
uniform grid.  It takes the same steps and gives the same samples, bit
for bit, as scipy's RK45, without scipy's per-step Python layers: the
RHS kernel writes each stage straight into its row of the stage array,
and the samples of a step come from one interpolant evaluation.

Each trajectory is validated at construction: energy drift stays within
the integration tolerance budget, rapidities respect the a-priori bound
|theta_a| < ln(2 H) / beta, and no particle moves faster than beta H
between consecutive samples.  The eigenvalues of the Lax matrix are
recorded per sample with a consistent ordering, so isospectrality can
be measured as a drift number.  Only Lcal is built per sample, and one
eigvals call covers the whole stack; the construction cross-checks run
in ``build_bundle`` (and so in the verification suite), not here.

Both routes hand their samples over as stacked (samples, n) arrays of
positions and rapidities, the one form every per-sample quantity is
evaluated on: the energies in one call of the kernel behind
``hamiltonian``, the bounds on the whole stack, and the Lax coordinates
in one call of the kernel behind ``derived_coords``.  Each check still
applies per sample and reports the earliest sample that fails it; the
``State`` of each sample is built once, for ``Trajectory.states``.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ModelParams, State
from .hamiltonian import _energy_arrays, _eom_arrays, hamiltonian
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

# The Dormand-Prince 5(4) pair with scipy's RK45 coefficients: the
# weights A of stages 2-6 (stage 1 is the derivative at the start of
# the step), solution weights B, error weights E (fifth minus fourth
# order, last-stage row included) and the quartic dense-output matrix P.
_A = np.array([
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_RTOL_FLOOR = 100 * np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


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
    if not (0.0 <= t_end < np.inf and 0.0 < sample_dt < np.inf):
        raise ValueError("t_end must be finite and >= 0, sample_dt finite and > 0")
    k = int(np.floor(t_end / sample_dt * (1.0 + 4.0 * np.finfo(float).eps) + 1e-12)) + 1
    times = sample_dt * np.arange(k)
    return np.minimum(times, t_end)


def _rms(x: np.ndarray) -> np.float64:
    # np.linalg.norm(x) / sqrt(x.size), as the same operations
    return np.sqrt(x.dot(x)) / x.size**0.5


def _initial_step(fun, y0, f0, t_end, rtol, atol) -> np.float64:
    # Hairer, Norsett & Wanner, Sec. II.4, for an error estimator of order 4.
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = np.empty_like(y0)
    fun(y0 + h0 * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def solve_ivp(
    fun, t_end: float, y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float
) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) integration of y' = fun(y) over [0, t_end].

    Takes the same steps and returns the same samples, bit for bit, as
    ``scipy.integrate.solve_ivp(method="RK45", t_eval=t_eval)``: the
    same initial step, error norm and step-size rule (safety 0.9, factor
    within [0.2, 10]), the same minimum step of 10 ulp of t, and samples
    from the same quartic interpolant of each accepted step.  An rtol
    below 100 eps is raised to it with scipy's warning.

    ``fun(y, out)`` writes the derivative at y into ``out`` (the system
    is autonomous); each stage is written straight into its row of the
    stage array.  ``t_eval`` is an increasing array inside [0, t_end].
    Returns the samples as rows; a step shrinking under its minimum
    raises ``StepSizeUnderflowError`` with the time of the last sample
    reached (0.0 if none was).
    """
    if rtol < _RTOL_FLOOR:
        warnings.warn(
            "At least one element of `rtol` is too small. "
            f"Setting `rtol = np.maximum(rtol, {_RTOL_FLOOR})`.",
            stacklevel=2,
        )
        rtol = _RTOL_FLOOR
    y = np.array(y0, dtype=float)
    times = [float(t) for t in t_eval]
    out = np.empty((len(times), y.size))
    K = np.empty((7, y.size))
    KT, KT_B = K.T, K[:-1].T
    stages = [(K[:s].T, a[:s], K[s]) for s, a in enumerate(_A, start=1)]
    f, f_new = K[0], K[-1]
    fun(y, f)
    h_abs = _initial_step(fun, y, f, t_end, rtol, atol)
    abs_y = np.abs(y)
    t, i = 0.0, 0
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflowError(_TOO_SMALL_STEP, times[i - 1] if i else 0.0)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            for K_s, a, k in stages:
                fun(y + np.dot(K_s, a) * h, k)
            y_new = y + h * np.dot(KT_B, _B)
            fun(y_new, f_new)
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= rtol
            scale += atol
            err = np.dot(KT, _E)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        # the samples in (t, t_new], and t = 0 on the first step
        j = bisect_right(times, t_new, i)
        if j > i:
            x = (t_eval[i:j] - t) / h
            dense = h * np.dot(KT.dot(_P), np.cumprod([x, x, x, x], axis=0))
            dense += y[:, None]
            out[i:j] = dense.T
            i = j
        t, y, abs_y = t_new, y_new, abs_new
        f[:] = f_new
    return out


def _matched_spectra(xi: np.ndarray, eta: np.ndarray, params: ModelParams) -> np.ndarray:
    # One stacked eigvals over (samples, 2n, 2n); only Lcal is built per sample.
    lams = np.linalg.eigvals(_lax_matrices(xi, eta, params))
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
    xi: np.ndarray,
    eta: np.ndarray,
    energy: np.ndarray,
    drift_tol: float,
) -> None:
    # xi and eta are the stacked samples (S, n); each bound is checked on
    # the whole stack and reported at its first failing sample.
    h0 = energy[0]
    drift = float(np.max(np.abs(energy - h0)))
    if drift > drift_tol:
        raise TrajectoryCheckError(
            f"energy drift {drift:.3e} exceeds tolerance {drift_tol:.3e}"
        )
    theta_cap = np.log(2.0 * h0) / params.beta
    worst = np.max(np.abs(eta), axis=1)
    over = ~(worst < theta_cap)
    if over.any():
        i = int(np.argmax(over))
        raise TrajectoryCheckError(
            f"rapidity bound violated at t={t[i]}: {float(worst[i])} >= {theta_cap}"
        )
    step = np.max(np.abs(np.diff(xi, axis=0)), axis=1)
    allowed = params.beta * h0 * np.diff(t) * _SPEED_SLACK
    over = step > allowed
    if over.any():
        i = int(np.argmax(over))
        raise TrajectoryCheckError(
            f"position moved {step[i]:.6e} in [{t[i]}, {t[i + 1]}], bound {allowed[i]:.6e}"
        )


def _assemble(
    params: ModelParams,
    t: np.ndarray,
    xi: np.ndarray,
    eta: np.ndarray,
    drift_tol: float,
) -> Trajectory:
    # xi and eta are the stacked samples (S, n)
    states = tuple(State(a, b) for a, b in zip(xi, eta))
    energy = _energy_arrays(xi, eta, params)
    _check_bounds(params, t, xi, eta, energy, drift_tol)
    spectrum = _matched_spectra(xi, eta, params)
    return Trajectory(params=params, t=t, states=states, energy=energy, spectrum=spectrum)


def _sample_stacks(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Positions and rapidities of every sample, as (S, n) stacks."""
    return np.array([s.xi for s in traj.states]), np.array([s.eta for s in traj.states])


def initial_only(state: State, params: ModelParams) -> Trajectory:
    """Degenerate single-sample trajectory at t = 0 (no integration)."""
    return _assemble(params, np.zeros(1), state.xi[None], state.eta[None], drift_tol=np.inf)


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
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be finite and positive")
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):
        raise ValueError("rtol and atol must be finite and positive")
    n = params.n
    if state.n != n:
        raise ValueError("state size does not match params.n")
    times = sample_times(t_end, sample_dt)
    y0 = np.concatenate([state.xi, state.eta])

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _eom_arrays(y[:n], y[n:], params, out=out)

    samples = solve_ivp(rhs, float(t_end), y0, times, rtol, atol)
    h0 = hamiltonian(state, params)
    drift_tol = _DRIFT_FACTOR * rtol * abs(h0)
    return _assemble(params, times, samples[:, :n], samples[:, n:], drift_tol)


def backward_via_reversal(traj_forward: Trajectory, params: ModelParams) -> Trajectory:
    """Backward-flow samples obtained by reversing a forward trajectory.

    No integration happens: sample i is time_reversal applied to the
    forward sample i, which lies on the integral curve through
    time_reversal of the initial state at time -t[i].  The samples are
    presented on the forward grid; applying the construction twice
    returns the forward trajectory bitwise.
    """
    xi, eta = _sample_stacks(traj_forward)
    # The energy is even in the rapidities, so the forward drift budget
    # is already spent; only a rounding allowance is added here.
    h0 = traj_forward.energy[0]
    forward_drift = float(np.max(np.abs(traj_forward.energy - h0)))
    drift_tol = forward_drift + 1e-12 * max(1.0, abs(h0))
    return _assemble(params, traj_forward.t.copy(), xi, -eta, drift_tol)


def spectral_drift(traj: Trajectory) -> float:
    """Largest matched-eigenvalue deviation from the t = 0 spectrum."""
    base = traj.spectrum[0]
    drift = 0.0
    for row in traj.spectrum[1:]:
        cost = np.abs(base[:, None] - row[None, :])
        r, c = linear_sum_assignment(cost)
        drift = max(drift, float(cost[r, c].max()))
    return drift


@contextmanager
def _text_sink(target):
    """``target`` itself if it is an open text file, else the path opened for writing."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yield fh


def _write_table(target, rows, header: list[str] | None = None, tag: str | None = None) -> None:
    """Write number rows as comma-separated lines at 17 significant digits.

    ``target`` is a path or an open text file.  ``header`` is the first
    line's column names; ``tag`` is appended to every row as a last column.
    """
    lines = [] if header is None else [",".join(header)]
    tail = [] if tag is None else [tag]
    lines += [",".join([format(float(v), ".17g") for v in row] + tail) for row in rows]
    with _text_sink(target) as fh:
        fh.write("\n".join(lines) + "\n")


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
        + ([] if method is None else ["method"])
    )
    rows = np.column_stack([traj.t, *_sample_stacks(traj), traj.energy])
    _write_table(target, rows, header, method)


def spectrum_to_csv(traj: Trajectory, target) -> None:
    """Write `t,re_1,im_1,...,re_N,im_N` rows at 17 significant digits."""
    N = traj.spectrum.shape[1]
    header = ["t"] + [f"{part}_{a}" for a in range(1, N + 1) for part in ("re", "im")]
    _write_table(target, np.column_stack([traj.t, traj.spectrum.view(float)]), header)
