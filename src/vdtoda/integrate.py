"""Reference dynamics by adaptive Runge-Kutta integration.

The chain is integrated in natural coordinates by ``solve_ivp``, the
module's own Dormand-Prince 8(5,3) integrator on the tables of scipy's
own file, run from its path so that ``scipy.integrate`` stays unloaded;
it takes the same steps and gives the same samples, bit for bit, as
scipy's DOP853.  Both routes, this one and ``solve.solve_trajectory``,
take t_end >= 0 and hand their samples to one assembly step as stacked
(samples, n) arrays, which scales the drift budget by the first sample's
energy.  One check, ``_check_bounds``, serves their samples and the
algebraic route's points: energy drift within the budget, |theta_a| <
ln(2 H) / beta, and no particle faster than beta H over the interval
ending at a sample.  It reports the earliest failing sample, and within
it the first bound in that order.  The assembly runs each stage over all
samples: the energies (overflow), ``_check_bounds``, then the coordinate
guards.  The spectrum of Lcal is a cached property of the states,
computed on its first read.
README "Trajectories" describes the RHS kernel, the blocks and how the
spectrum rows are matched.
"""

from __future__ import annotations

import importlib.util
import math
import warnings
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from .core import ModelParams, State
from .hamiltonian import _check_size, _coord_arrays, _energy_arrays, _eom_arrays, _eom_work
from .hamiltonian import _first_failure
from .lax import _lax_chain

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
# Samples that ``solve_ivp`` collects before it evaluates their interpolants
# in one stack.
_DENSE_BLOCK = 128
_MAX_SAMPLES = 10**6  # most samples one trajectory may hold
# Samples per Lcal evaluation of the spectrum: the factor chain keeps about
# ten (block, N, N) stacks alive at once.
_CHAIN_BLOCK = 32


def _scipy_dop853_tables():
    # Row s of A weighs the earlier stages in stage s: rows 1-11 for the
    # step, row 12 the solution weights B, rows 13-15 the extra stages of
    # the dense output; E5 and E3 weigh the error estimators, D gives the
    # last four rows of the seventh-order interpolant.  The file imports
    # only numpy, and is registered under no module name.
    path = Path(scipy.__file__).parent / "integrate" / "_ivp" / "dop853_coefficients.py"
    spec = importlib.util.spec_from_file_location("vdtoda._dop853_tables", path)
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    return tables.A, tables.B, tables.E3, tables.E5, tables.D


_A, _B, _E3, _E5, _D = _scipy_dop853_tables()
_RTOL_FLOOR = 100 * np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class StepSizeUnderflowError(ArithmeticError):
    """The adaptive integrator could not proceed; carries the time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} (time reached: {t_reached})")
        self.t_reached = float(t_reached)


class TrajectoryCheckError(Exception):
    """A conservation law or a-priori bound failed along a trajectory."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled solution of the equations of motion.

    t[0] = 0 and t is finite and strictly increasing; states[i] has
    ``params.n`` particles and energy[i] is its energy.  ``spectrum[i]``
    holds the 2n real Lax eigenvalues at states[i] in increasing order,
    the n of largest modulus and their reciprocals (``_matched_spectra``);
    it is computed from ``states`` on its first read and kept read-only,
    so ``dataclasses.replace(traj, states=...)`` gets the spectrum of the
    new states.  Trajectories from this package hold states that are
    read-only row views of one stack per field (``State.from_stacks``),
    and every check on the samples has run before they are returned.
    Equality and hashing are by identity.
    """

    params: ModelParams
    t: np.ndarray
    states: tuple[State, ...]
    energy: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        energy = np.array(self.energy, dtype=float)
        states = tuple(self.states)
        k = t.shape[0]
        if k == 0 or t[0] != 0.0 or not np.isfinite(t).all() or np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must start at 0 and increase strictly")
        if len(states) != k or energy.shape != (k,):
            raise ValueError("inconsistent sample counts across trajectory fields")
        if any(s.n != self.params.n for s in states):
            raise ValueError("inconsistent state sizes across trajectory fields")
        t.flags.writeable = False
        energy.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "states", states)

    @cached_property
    def spectrum(self) -> np.ndarray:
        spectrum = _matched_spectra(*_sample_stacks(self), self.params)
        spectrum.flags.writeable = False
        return spectrum


def sample_times(t_end: float, sample_dt: float) -> np.ndarray:
    """Multiples of sample_dt inside [0, t_end]; always includes 0.

    The sample count is floor(t_end / sample_dt) + 1, with a small
    relative fuzz so binary representation of the ratio (for example
    5 / 0.05) does not lose the final sample.  A count above
    ``_MAX_SAMPLES`` raises ``ValueError`` before anything is allocated.
    """
    t_end, sample_dt = float(t_end), float(sample_dt)
    if not (0.0 <= t_end < np.inf and 0.0 < sample_dt < np.inf):
        raise ValueError("t_end must be finite and >= 0, sample_dt finite and > 0")
    k = np.floor(t_end / sample_dt * (1.0 + 4.0 * np.finfo(float).eps) + 1e-12) + 1
    if not k <= _MAX_SAMPLES:
        msg = f"sample_dt = {sample_dt} and t_end = {t_end} give more than {_MAX_SAMPLES}"
        raise ValueError(msg + " samples")
    times = sample_dt * np.arange(int(k))
    return np.minimum(times, t_end)


def _rms(x: np.ndarray) -> np.float64:
    # np.linalg.norm(x) / sqrt(x.size), as the same operations
    return np.sqrt(x.dot(x)) / x.size**0.5


def _norm_squared(e: np.ndarray) -> float:
    # np.linalg.norm(e) ** 2, as the same operations, in Python floats (the
    # same bits); numpy's power where Python's would raise on overflow
    d = e.dot(e)
    return math.sqrt(d) ** 2 if d < 1e300 else float(np.sqrt(d) ** 2)


def _dense_output(pending: list, t_eval: np.ndarray, out: np.ndarray) -> None:
    """Evaluate the interpolants of ``pending`` steps at their samples, as one stack.

    ``pending`` holds (F, y, t, h, count) per step, in time order, and its
    samples are ``t_eval``; the rows go into ``out``.  Each sample gets the
    elementwise operations of a one-step evaluation in the same order, so
    the same bits.
    """
    F, y, t, h, counts = zip(*pending)
    step = np.repeat(np.arange(len(counts)), counts)
    F = np.stack(F)
    x = ((t_eval - np.array(t)[step]) / np.array(h)[step])[:, None]
    factors = x, 1 - x
    out[:] = 0.0
    for p in range(7):
        out += F[step, 6 - p]
        out *= factors[p % 2]
    out += np.stack(y)[step]


def _initial_step(fun, y0, f0, t_end, rtol, atol) -> np.float64:
    # Hairer, Norsett & Wanner, Sec. II.4, for an error estimator of order 7.
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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def solve_ivp(
    fun, t_end: float, y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float
) -> np.ndarray:
    """Adaptive Dormand-Prince 8(5,3) integration of y' = fun(y) over [0, t_end].

    Takes the same steps, with as many ``fun`` calls, and returns the
    same samples, bit for bit, as ``scipy.integrate.solve_ivp(method=
    "DOP853", t_eval=t_eval)``: the same initial step, error norm
    |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) N) and step-size rule (safety 0.9,
    exponent -1/8, factor within [0.2, 10]), the same minimum step of
    10 ulp of t, and samples from the same seventh-order interpolant.  A
    step costs 12 evaluations, the last of which starts the next step;
    the interpolant's three extra stages are evaluated only for a step
    holding a sample.  Such a step keeps its seven interpolant rows, and
    the samples are evaluated in one stack (``_dense_output``) whenever
    ``_DENSE_BLOCK`` of them are pending, and at the end.  The error norm
    is taken in Python floats, which are IEEE doubles as numpy's scalars
    are.  An rtol below 100 eps is raised to it with scipy's warning.

    ``fun(y, out)`` writes the derivative at y into ``out`` (the system
    is autonomous); each stage is written straight into its row of the
    stage array.  The stage points are formed in one preallocated
    buffer, by the operations of ``y + np.dot(K_s, a) * h`` in the same
    order, so ``fun`` must not keep ``y`` past its call.  ``t_eval`` is
    a strictly increasing array inside [0, t_end], else ``ValueError``
    with scipy's message, before ``fun`` is first called.  A ``t_end``
    that is not finite and positive raises ``ValueError`` there too,
    where scipy returns a malformed result.
    Returns the samples as rows; a step shrinking under its minimum
    raises ``StepSizeUnderflowError`` with the time of the last sample
    reached (0.0 if none was).
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    if not (np.all(t_eval >= 0.0) and np.all(t_eval <= t_end)):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.any(np.diff(t_eval) <= 0.0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
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
    K = np.empty((16, y.size))
    KT, KT_B = K[:13].T, K[:12].T
    stages = [(K[:s].T, _A[s, :s], K[s]) for s in range(16)]
    f, f_new = K[0], K[12]
    ys, dys = np.empty(y.size), np.empty(y.size)
    fun(y, f)
    h_abs = float(_initial_step(fun, y, f, t_end, rtol, atol))
    abs_y = np.abs(y)
    t, i = 0.0, 0
    # steps holding samples not yet evaluated, and the samples evaluated
    pending, done = [], 0
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
            h_arr = np.array(h)  # a 0-d array is a faster ufunc operand, same bits
            for K_s, a, k in stages[1:12]:
                # ys = y + np.dot(K_s, a) * h, as the same operations
                np.dot(K_s, a, dys)
                np.multiply(dys, h_arr, dys)
                np.add(y, dys, ys)
                fun(ys, k)
            y_new = y + h * np.dot(KT_B, _B)
            fun(y_new, f_new)
            abs_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_new) * rtol
            e5, e3 = np.dot(KT, _E5) / scale, np.dot(KT, _E3) / scale
            n5, n3 = _norm_squared(e5), _norm_squared(e3)
            denom = math.sqrt((n5 + 0.01 * n3) * y.size)
            # numpy's 0 / 0 where Python's would raise
            error_norm = 0.0 if n5 == n3 == 0 else abs(h) * n5 / denom if denom else math.nan
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        # the samples in (t, t_new], and t = 0 on the first step
        j = bisect_right(times, t_new, i)
        if j > i:
            for K_s, a, k in stages[13:]:
                np.dot(K_s, a, dys)
                np.multiply(dys, h_arr, dys)
                np.add(y, dys, ys)
                fun(ys, k)
            dy = y_new - y
            F = np.empty((7, y.size))
            F[:3] = dy, h * f - dy, 2 * dy - h * (f_new + f)
            F[3:] = h * np.dot(_D, K)
            pending.append((F, y, t, h, j - i))
            i = j
            if i - done >= _DENSE_BLOCK:
                _dense_output(pending, t_eval[done:i], out[done:i])
                pending, done = [], i
        t, y, abs_y = t_new, y_new, abs_new
        f[:] = f_new
    if pending:
        _dense_output(pending, t_eval[done:i], out[done:i])
    return out


def _matched_spectra(xi: np.ndarray, eta: np.ndarray, params: ModelParams) -> np.ndarray:
    """Real spectrum of Lcal at every sample of the stacks (S, n), as sorted rows (S, 2n).

    The coordinates come from one stacked evaluation; then Lcal alone is
    built, bitwise the ``build_bundle`` one, and ``eigvals`` runs once per
    ``_CHAIN_BLOCK`` samples, so no (S, 2n, 2n) stack is held.  The
    eigenvalues pair as lambda <-> 1/lambda (``K Lcal K^-1 = Lcal^-1``)
    and are real and positive.  By Bauer-Fike an eigenvalue's error is
    about eps |Lcal| times its condition number, small relative only to
    the large ones, so a row keeps the real parts of the n eigenvalues of
    largest modulus and their reciprocals, which keep the relative error.
    ``eigvals`` acts matrix by matrix, so the rows are bitwise those of
    one stacked call.
    """
    n = params.n
    _, _, x, w, delta = _coord_arrays(xi, eta, params)
    spectrum = np.empty((xi.shape[0], 2 * n))
    for k in range(0, xi.shape[0], _CHAIN_BLOCK):
        rows = slice(k, k + _CHAIN_BLOCK)
        lams = np.linalg.eigvals(_lax_chain(x[rows], w[rows], delta[rows], params)[-1])
        large = np.abs(lams).argsort(axis=1)[:, n:]
        spectrum[rows, :n] = np.take_along_axis(lams, large, axis=1).real
        np.divide(1.0, spectrum[rows, :n], out=spectrum[rows, n:])
    spectrum.sort(axis=1)
    return spectrum


def _check_bounds(
    params: ModelParams,
    t: np.ndarray,
    xi: np.ndarray,
    eta: np.ndarray,
    energy: np.ndarray,
    drift_tol: float,
    h0: float,
) -> None:
    # xi and eta are the stacked samples (S, n), h0 the energy at t = 0.
    # The earliest failing sample is reported, and within it the energy
    # gate (with beta (H - n) t there), the rapidity bound, then the speed
    # over the interval that ends at it.
    drift = np.abs(energy - h0)
    theta_cap = np.log(2.0 * h0) / params.beta
    worst = np.max(np.abs(eta), axis=1)
    step = np.max(np.abs(np.diff(xi, axis=0)), axis=1)
    allowed = params.beta * h0 * np.diff(t) * _SPEED_SLACK
    first = _first_failure([
        (drift <= drift_tol, lambda i: f"energy drift {drift[i]:.3e} exceeds tolerance"
            f" {drift_tol:.3e} at t = {t[i]}"
            f" (beta (H - n) t = {params.beta * (h0 - params.n) * abs(t[i]):.3g})"),
        (worst < theta_cap, lambda i: "rapidity bound violated at"
            f" t={t[i]}: {float(worst[i])} >= {theta_cap}"),
        (np.concatenate(([True], ~(step > allowed))), lambda i: "position moved"
            f" {step[i - 1]:.6e} in [{t[i - 1]}, {t[i]}], bound {allowed[i - 1]:.6e}"),
    ])
    if first is not None:
        i, (_, message) = first
        raise TrajectoryCheckError(message(i))


def _assemble(
    params: ModelParams,
    t: np.ndarray,
    xi: np.ndarray,
    eta: np.ndarray,
    rel: float,
    slack: float = 0.0,
) -> Trajectory:
    # xi and eta are the stacked samples (S, n); the drift budget is
    # slack + rel |H(t = 0)|.  Every check runs here, stage by stage over all
    # samples, the coordinate guards of the spectrum last, so a first read
    # of the spectrum raises nothing.
    states = State.from_stacks(xi, eta)
    energy = _energy_arrays(xi, eta, params)
    _check_bounds(params, t, xi, eta, energy, slack + rel * abs(energy[0]), energy[0])
    _coord_arrays(xi, eta, params)
    return Trajectory(params=params, t=t, states=states, energy=energy)


def _sample_stacks(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Positions and rapidities of every sample, as (S, n) stacks."""
    return np.array([s.xi for s in traj.states]), np.array([s.eta for s in traj.states])


def integrate(
    state: State,
    params: ModelParams,
    t_end: float,
    sample_dt: float = 0.05,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the equations of motion over [0, t_end].

    Local error per step is controlled to atol + rtol * |y| by the
    embedded 8(5,3) pair; samples fall on multiples of sample_dt.  The
    accepted energy drift budget is 100 * rtol * |H(state)|.  t_end = 0
    gives the initial sample alone.

    Every RHS evaluation is one call of ``_eom_arrays`` with one kernel
    (``_eom_work``) built here, inside one ``np.errstate`` around the
    whole integration, so the calls allocate nothing and give the bits
    of the one-shot call.
    """
    if not 0.0 <= t_end < np.inf:
        raise ValueError("t_end must be finite and >= 0")
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):
        raise ValueError("rtol and atol must be finite and positive")
    n = params.n
    _check_size(state.n, params)
    times = sample_times(t_end, sample_dt)
    y0 = np.concatenate([state.xi, state.eta])

    kernel = _eom_work(params)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _eom_arrays(y[:n], y[n:], params, out, kernel)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples = solve_ivp(rhs, float(t_end), y0, times, rtol, atol) if t_end else y0[None]
    return _assemble(params, times, samples[:, :n], samples[:, n:], _DRIFT_FACTOR * rtol)


def backward_via_reversal(traj_forward: Trajectory) -> Trajectory:
    """Backward-flow samples obtained by reversing a forward trajectory.

    No integration happens: sample i is time_reversal applied to the
    forward sample i, which lies on the integral curve through
    time_reversal of the initial state at time -t[i].  The samples are
    presented on the forward grid, with the forward trajectory's params;
    applying the construction twice returns the forward trajectory bitwise.
    """
    xi, eta = _sample_stacks(traj_forward)
    # The energy is even in the rapidities, so the forward drift budget
    # is already spent; only a rounding allowance is added here.
    drift = float(np.max(np.abs(traj_forward.energy - traj_forward.energy[0])))
    return _assemble(traj_forward.params, traj_forward.t.copy(), xi, -eta, 1e-12, drift)


def spectral_drift(traj: Trajectory) -> float:
    """Largest eigenvalue deviation from the t = 0 spectrum.

    The rows of ``traj.spectrum`` are real and sorted, so the sorted
    order is the minimal-cost matching of each row to row 0.
    """
    return float(np.max(np.abs(traj.spectrum - traj.spectrum[0])))


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
    Rows are written one at a time (the file object buffers them), so
    the text is never held whole.
    """
    tail = [] if tag is None else [tag]
    with _text_sink(target) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([format(float(v), ".17g") for v in row] + tail) + "\n")


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
    # one row at a time from its sample, so no copy of the samples is made
    rows = ([t, *s.xi, *s.eta, h] for t, s, h in zip(traj.t, traj.states, traj.energy))
    _write_table(target, rows, header, method)


def spectrum_to_csv(traj: Trajectory, target) -> None:
    """Write `t,lambda_1,...,lambda_2n` rows at 17 significant digits."""
    header = ["t"] + [f"lambda_{a}" for a in range(1, 2 * traj.params.n + 1)]
    _write_table(target, ([t, *lam] for t, lam in zip(traj.t, traj.spectrum)), header)
