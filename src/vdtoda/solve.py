"""Algebraic solution of the flow by factorizing a matrix exponential.

The trajectory through a state is read off E(t) = exp(t Ycal): in the
unique LDU (Gauss) factorization E(t) = l(t) e^{Q(t) - Q(0)} u(t), the
diagonal factor carries the positions,

    q_c(t) = q_c(0) + ln m_c(E(t)),    c = 1..n,

where m_c, the ratio of consecutive leading principal minors, stays
strictly positive along the flow.  Differentiating E = l D u with
E' = Ycal E gives

    D'/D = diag(l^{-1} Ycal l),

because l^{-1} l' is strictly lower and u' u^{-1} strictly upper, so the
rates are the first n diagonal entries of one unit-lower triangular
solve.  Rapidities invert the velocity relation through arcsinh.

Samples are evaluated in stacks, and each gets the same bits as alone;
a point is checked as a trajectory sample (``integrate._check_bounds``).
Double precision limits the usable horizon, and past it a breakdown
raises instead of returning noise: ``CoordinateOverflowError`` for the
exponential, ``FactorizationBreakdownError`` for the elimination and
``TrajectoryCheckError`` for the energy gate (with ``beta (H - n) t``),
each at the earliest failing sample: a breakdown waits for the checks of
the samples before it.  README "Algebraic solver" gives the blocks and
the order of the checks, "Precision range" the measured error bound and
horizon.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import expm

try:  # scipy's own kernels of ``expm``; private, so checked by ``_kernels_reproduce_expm``
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
except ImportError:
    pade_UV_calc = pick_pade_structure = None

from .core import CoordinateOverflowError, ModelParams, State
from .hamiltonian import (
    _PAIR_OVERFLOW,
    _energy_arrays,
    _factor_arrays,
    _first_failure,
    _raise_first_failure,
    hamiltonian,
)
from .integrate import Trajectory, _assemble, _check_bounds, sample_times
from .lax import build_bundle

__all__ = [
    "FactorizationBreakdownError",
    "matrix_exp",
    "leading_minors",
    "positions_at",
    "position_rates_at",
    "rapidities_at",
    "solve_trajectory",
]

_PIVOT_FLOOR = 1e-300
_PIVOT_UNDERFLOW = "pivot underflow in minor chain"
# Samples per stacked exponential and elimination in ``solve_trajectory``: a
# 101-sample trajectory is one block.  With the sample axis innermost in the
# elimination, one block of 100 costs less than two of 64 and 36 (about 1.85
# against 2.0 ms per n = 8 trajectory).
_SAMPLE_BLOCK = 128
_ENERGY_DRIFT_TOL = 1e-9


class FactorizationBreakdownError(ArithmeticError):
    """A leading principal minor vanished (or lost its sign) numerically.

    Along the exact flow every minor is strictly positive, so this
    always signals a conditioning failure, never model behavior.  The
    minor index (1-based) and, when known, the sample time are attached.
    """

    def __init__(self, message: str, j: int | None = None, t: float | None = None):
        detail = message
        if j is not None:
            detail += f" (minor index {j})"
        if t is not None:
            detail += f" (t = {t})"
        super().__init__(detail)
        self.j = j
        self.t = t


def _pade_stack(M: np.ndarray) -> np.ndarray | None:
    """exp of each matrix of a stack (k, N, N) by scipy's scaling-and-squaring kernels.

    Each matrix gets the Pade approximant of ``scipy.linalg.expm``'s generic
    branch (Al-Mohy & Higham 2009), from the same two kernel calls into one
    scratch, so the same bits; then the squarings run stacked, for each s
    one ``E @ E`` over the matrices that still need it.  Returns None when
    a kernel reports a failure, which scipy's ``expm`` then raises.
    """
    E = np.empty_like(M)
    s = np.empty(len(M), dtype=np.intp)
    Am = np.empty((5,) + M.shape[1:])
    for j, A in enumerate(M):
        Am[0] = A
        m, s[j] = pick_pade_structure(Am)
        if m < 0 or pade_UV_calc(Am, m) != 0:
            return None
        E[j] = Am[0]
    for i in range(int(s.max(initial=0))):
        rows = s > i
        S = E[rows]
        E[rows] = S @ S
    return E


@functools.cache
def _kernels_reproduce_expm() -> bool:
    """Whether ``_pade_stack`` gives scipy's ``expm`` bits on a full matrix that needs squaring.

    The kernels' calling convention is not public, so it is checked on the
    first call; where it does not hold, ``matrix_exp`` calls ``expm``.
    """
    if pick_pade_structure is None:
        return False
    M = np.array([[[1.0, 2.0, 0.5], [-3.0, 4.0, 1.0], [0.25, -1.0, 2.0]]])
    try:
        return bool(np.array_equal(_pade_stack(M), expm(M)))
    except (TypeError, ValueError):
        return False


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Dense matrix exponential: ``scipy.linalg.expm``, bit for bit, over a stack.

    M is one N x N matrix or a stack (..., N, N); every matrix of a stack
    gets the same bits as alone.  A stack whose every matrix has nonzero
    (1, 0) and (0, 1) entries, such as every ``t Ycal`` stack, goes
    through ``_pade_stack``, which drops scipy's per-matrix work around
    its kernels and squares the stack at once.  Any other stack, which may
    hold the triangular and diagonal matrices that scipy treats apart,
    goes to ``expm`` whole.  A non-finite entry raises
    ``ValueError`` and an overflowing result ``CoordinateOverflowError``,
    for the stack as a whole.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    E = None
    with np.errstate(over="ignore", invalid="ignore"):
        # nonzero (1, 0) and (0, 1) entries rule out the triangular and
        # diagonal matrices that scipy treats apart
        if (
            M.ndim >= 2
            and M.shape[-1] == M.shape[-2] > 1
            and np.all(M[..., 1, 0] != 0.0)
            and np.all(M[..., 0, 1] != 0.0)
            and _kernels_reproduce_expm()
        ):
            E = _pade_stack(M.reshape((-1,) + M.shape[-2:]))
        E = expm(M) if E is None else E.reshape(M.shape)
    if not np.all(np.isfinite(E)):
        raise CoordinateOverflowError("matrix exponential overflowed")
    return E


def _gauss(M: np.ndarray) -> np.ndarray:
    """Gaussian elimination without pivoting, packed: M = l r, r = diag(d) u.

    M is one N x N matrix or a stack (..., N, N).  Returns r on and above
    the diagonal and the multipliers of the unit lower l below it,
    C-ordered in M's shape; the j-th pivot IS the minor ratio m_j, and a
    matrix gets the same bits alone or inside a stack.  Pivots are not
    checked: those up to the first one under the floor are exact.
    """
    M = np.asarray(M, dtype=float)
    N = M.shape[-1]
    if M.ndim < 2 or M.shape[-2] != N:
        raise ValueError("expected a square matrix")
    A = np.moveaxis(M.reshape(-1, N, N), 0, -1).copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(N):
            col = A[j + 1 :, j]
            col /= A[j, j]
            A[j + 1 :, j + 1 :] -= col[:, None] * A[j, None, j + 1 :]
    return np.ascontiguousarray(np.moveaxis(A, -1, 0)).reshape(M.shape)


def leading_minors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All leading principal minors pi_j and their ratios m_j = pi_j/pi_{j-1}.

    Computed from the pivots of an LU elimination without pivoting; the
    j-th pivot IS m_j, and pi is the running product (which can overflow
    to inf for strongly graded matrices even when every m_j is benign).
    The first pivot under the floor or not finite raises
    ``FactorizationBreakdownError``.
    """
    m = np.diag(_gauss(M)).copy()
    bad = (np.abs(m) < _PIVOT_FLOOR) | ~np.isfinite(m)
    if bad.any():
        j = int(np.argmax(bad))
        what = _PIVOT_UNDERFLOW if np.isfinite(m[j]) else "non-finite pivot in minor chain"
        raise FactorizationBreakdownError(what, j=j + 1)
    with np.errstate(over="ignore"):
        pi = np.cumprod(m)
    return pi, m


def _minor_log_rates(l: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """d/dt ln m_j for j = 1..n: the first n diagonal entries of l^{-1} Y l.

    l is a stack (m, N, k >= n) of the first k columns of unit lower
    triangular factors, so the leading n x n block of each l^{-1} is the
    inverse of the leading block of l, and one n x n forward substitution
    per sample suffices.  It runs on the stack transposed to (n, n, m), as
    ``_gauss`` does, so each step is one contiguous elementwise pass over
    the samples, and a sample gets the same bits alone or inside a stack.
    Returns the rates as (m, n) rows.
    """
    Z = np.moveaxis(Y[:n] @ l[..., :n], 0, -1).copy()
    L = np.moveaxis(l[:, :n, :n], 0, -1).copy()
    for j in range(n - 1):
        Z[j + 1 :] -= L[j + 1 :, j, None] * Z[j, None]
    return np.diagonal(Z, axis1=0, axis2=1).copy()


def _samples(
    xi: np.ndarray, Y: np.ndarray, n: int, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Exception | None]:
    """Positions and position rates at a block of times, one stacked exponential.

    Returns (q, qdot, error): the rows of the samples before the earliest
    failing one, and that sample's error (None if every sample passed).
    A sample fails on the first of its checks, in this order: the
    exponential is not finite, a pivot falls under the floor, a minor ratio
    is not positive, a rate is not finite (``_first_failure``).
    """
    with np.errstate(over="ignore"):  # an overflowing product fails the exponential
        tY = times[:, None, None] * Y
    error = None
    m = len(times)
    try:
        E = matrix_exp(tY)
    except (CoordinateOverflowError, ValueError):
        E = None  # retaken outside the handler, so no error chains onto this one
    if E is None:
        # the stack fails as a whole; find its earliest failing sample
        E = np.empty_like(tY)
        for k, M in enumerate(tY):
            try:
                E[k] = matrix_exp(M)
            except (CoordinateOverflowError, ValueError) as err:
                m, error = k, err
                break
    A = _gauss(E[:m])
    d = np.diagonal(A, axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        # the first n columns of l, all that the rates read
        rates = _minor_log_rates(np.tril(A[:, :, :n], -1) + np.eye(len(Y), n), Y, n)
    small, low = np.abs(d) < _PIVOT_FLOOR, d[:, :n] <= 0.0
    first = _first_failure([
        (~small.any(axis=1), _PIVOT_UNDERFLOW, small),
        (~low.any(axis=1), "non-positive minor ratio along the flow", low),
        (np.isfinite(rates).all(axis=1), "non-finite minor log-rates", None),
    ])
    if first is not None:
        m, (_, reason, bad) = first
        j = None if bad is None else int(np.argmax(bad[m])) + 1
        error = FactorizationBreakdownError(reason, j=j, t=float(times[m]))
    return xi + np.log(d[:m, :n]), rates[:m], error


def _point_at(
    zeta: State, params: ModelParams, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, position rates and rapidities at time t, checked as a trajectory sample.

    A breakdown raises as in ``solve_trajectory``, and so do the sample
    checks, whose energy gate names ``beta (H - n) t``, the indicator of
    the precision horizon.  A t that is not finite raises ``ValueError``.
    """
    times = np.array([float(t)])
    if not np.isfinite(times[0]):
        raise ValueError(f"t must be finite, got {times[0]}")
    q, qdot, error = _samples(zeta.xi, build_bundle(zeta, params).Ycal, params.n, times)
    if error is not None:
        raise error
    theta = _invert_velocity(q, qdot, params)
    h0 = hamiltonian(zeta, params)
    tol = _ENERGY_DRIFT_TOL * abs(h0)
    _check_bounds(params, times, q, theta, _energy_arrays(q, theta, params), tol, h0)
    return q[0], qdot[0], theta[0]


def positions_at(zeta: State, params: ModelParams, t: float) -> np.ndarray:
    """Positions at time t from the first n minor ratios of exp(t Ycal)."""
    return _point_at(zeta, params, t)[0]


def position_rates_at(zeta: State, params: ModelParams, t: float) -> np.ndarray:
    """Position velocities at time t: the log-rates of the minor ratios."""
    return _point_at(zeta, params, t)[1]


def rapidities_at(zeta: State, params: ModelParams, t: float) -> np.ndarray:
    """Rapidities at time t, inverting q̇_a = beta sinh(beta theta_a) F_a(q)."""
    return _point_at(zeta, params, t)[2]


def _invert_velocity(q: np.ndarray, qdot: np.ndarray, params: ModelParams) -> np.ndarray:
    """Rapidities of stacked samples (S, n), row by row from q and q̇.

    A row with non-finite positions raises ``ValueError`` and an
    overflowing F_a(q) raises ``CoordinateOverflowError``, whichever
    comes first in row order.
    """
    F, ok = _factor_arrays(q, params)
    _raise_first_failure(
        [
            (np.isfinite(q).all(axis=1), ValueError, "state entries must be finite"),
            (ok, CoordinateOverflowError, _PAIR_OVERFLOW),
        ]
    )
    return np.arcsinh(qdot / (params.beta * F)) / params.beta


def solve_trajectory(
    zeta: State, params: ModelParams, t_end: float, sample_dt: float = 0.05
) -> Trajectory:
    """Trajectory sampled purely algebraically (no ODE integration).

    Every sample recomputes exp(t Ycal) from scratch for uniform
    accuracy; samples are taken in time-ordered blocks of
    ``_SAMPLE_BLOCK`` (128), with one stacked exponential and one stacked
    elimination per block, and the block size changes no bit.  Energy
    constancy across samples (1e-9 relative), the rapidity bound, and
    the position speed bound are enforced as for integrated trajectories.
    The blocks stop at a breakdown, which is raised only after the
    samples before it pass their checks, so the earliest failing sample
    is reported; velocity inversion raises where it is met.
    """
    times = sample_times(t_end, sample_dt)
    Y = build_bundle(zeta, params).Ycal
    xi, eta, error = [zeta.xi[None]], [zeta.eta[None]], None
    for k in range(1, len(times), _SAMPLE_BLOCK):
        q, qdot, error = _samples(zeta.xi, Y, params.n, times[k : k + _SAMPLE_BLOCK])
        xi.append(q)
        eta.append(_invert_velocity(q, qdot, params))
        if error is not None:
            break
    xi, eta = np.concatenate(xi), np.concatenate(eta)
    traj = _assemble(params, times[: len(xi)], xi, eta, _ENERGY_DRIFT_TOL)
    if error is not None:
        raise error
    return traj
