"""Algebraic solution of the flow by factorizing a matrix exponential.

The trajectory through a state is read off the one-parameter family
E(t) = exp(t Ycal): writing E(t) = l(t) e^{Q(t) - Q(0)} u(t) as the
unique LDU (Gauss) factorization, the diagonal factor carries the
positions,

    q_c(t) = q_c(0) + ln m_c(E(t)),    c = 1..n,

where m_c is the ratio of consecutive leading principal minors.  The
minors of E(t) stay strictly positive along the flow, so positions need
no ODE solving at all.  Position rates come from the same elimination:
differentiating E = l D u and using E' = Ycal E gives

    D'/D = diag(l^{-1} Ycal l),

because l^{-1} l' is strictly lower and u' u^{-1} strictly upper.  So
the rates are the first n diagonal entries of one unit-lower triangular
solve.  Rapidities invert the defining relation between position
velocity and rapidity through arcsinh.

A trajectory is evaluated on time-ordered blocks of samples: one
stacked exponential and one Gauss elimination per block (each sample
gets the same bits as alone), and the rapidities, energies, bounds and
spectra are computed on the stacked (samples, n) arrays.  Every check still
applies per sample, and a failing trajectory raises the error of its
earliest failing sample, with the checks of one sample met in this
order: exponential overflow, pivot under the floor, non-positive minor
ratio, non-finite rate.

Conditioning caveat: entries of exp(t Ycal) grow exponentially in t, so
double precision limits the usable horizon; at the desk scales used
here (|t| up to about 10 at moderate energies) the method stays well
inside its budget, and any breakdown surfaces as a structured error
rather than silent noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dtrtrs

from .core import CoordinateOverflowError, CrossCheckError, ModelParams, State
from .hamiltonian import _PAIR_OVERFLOW, _factor_arrays, _raise_first_failure, hamiltonian
from .integrate import Trajectory, _assemble, sample_times
from .lax import LaxBundle, build_bundle

__all__ = [
    "FactorizationBreakdownError",
    "LduFactors",
    "matrix_exp",
    "leading_minors",
    "ldu",
    "positions_at",
    "position_rates_at",
    "rapidities_at",
    "solve_trajectory",
]

_PIVOT_FLOOR = 1e-300
_PIVOT_UNDERFLOW = "pivot underflow in minor chain"
# Samples per stacked elimination in ``solve_trajectory``.
_SAMPLE_BLOCK = 32
_RECONSTRUCTION_TOL = 1e-11
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


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Dense matrix exponential (scaling and squaring, Pade approximant).

    M is one N x N matrix or a stack (..., N, N); every matrix of a stack
    gets the same bits as alone.  A non-finite entry raises ``ValueError``
    and an overflowing result ``CoordinateOverflowError``, for the stack
    as a whole.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(M)
    if not np.all(np.isfinite(E)):
        raise CoordinateOverflowError("matrix exponential overflowed")
    return E


def _eliminate(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination without pivoting: M = l r, r = diag(d) u.

    M is one N x N matrix or a stack (..., N, N).  Returns the unit lower
    factors l and the upper factors r, whose diagonal holds the pivots;
    the j-th pivot IS the minor ratio m_j.  Every step is elementwise
    over the stack, so a matrix gives the same bits alone or inside a
    stack.  Pivots are not checked here (see ``_small_pivot``): a pivot
    under the floor leaves the steps after it meaningless, but the
    pivots before it, and so the first small one, are exact.
    """
    A = np.array(M, dtype=float)
    N = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != N:
        raise ValueError("expected a square matrix")
    # Packed in place: the multipliers of l overwrite the eliminated column.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(N):
            col = A[..., j + 1 :, j]
            col /= A[..., j, j, None]
            A[..., j + 1 :, j + 1 :] -= col[..., :, None] * A[..., j, None, j + 1 :]
    return np.tril(A, -1) + np.eye(N), np.triu(A)


def _small_pivot(d: np.ndarray) -> np.ndarray:
    """1-based index of the first pivot under the floor along the last axis, 0 if none."""
    small = np.abs(d) < _PIVOT_FLOOR
    return np.where(small.any(axis=-1), np.argmax(small, axis=-1) + 1, 0)


def _checked_pivots(r: np.ndarray) -> np.ndarray:
    """The pivots of one elimination; a pivot under the floor raises."""
    d = np.diag(r).copy()
    j = int(_small_pivot(d))
    if j:
        raise FactorizationBreakdownError(_PIVOT_UNDERFLOW, j=j)
    return d


def leading_minors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All leading principal minors pi_j and their ratios m_j = pi_j/pi_{j-1}.

    Computed from the pivots of an LU elimination without pivoting; the
    j-th pivot IS m_j, and pi is the running product (which can overflow
    to inf for strongly graded matrices even when every m_j is benign).
    """
    m = _checked_pivots(_eliminate(M)[1])
    with np.errstate(over="ignore"):
        pi = np.cumprod(m)
    return pi, m


@dataclass(frozen=True)
class LduFactors:
    """Unique Gauss factors M = l diag(d) u with unit triangular l, u."""

    l: np.ndarray
    d: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        l = np.array(self.l, dtype=float)
        d = np.array(self.d, dtype=float)
        u = np.array(self.u, dtype=float)
        N = d.shape[0]
        if l.shape != (N, N) or u.shape != (N, N):
            raise ValueError("factor shapes disagree")
        if np.any(np.diag(l) != 1.0) or np.any(np.diag(u) != 1.0):
            raise ValueError("l and u must be unit triangular")
        for arr in (l, d, u):
            arr.flags.writeable = False
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)


def ldu(M: np.ndarray) -> LduFactors:
    """LDU (Gauss) factorization without pivoting.

    Exists iff every leading principal minor is nonzero; d reproduces
    the minor ratios of ``leading_minors``.  The reconstruction
    l diag(d) u is checked against M to 1e-11 relative as a conditioning
    guard.
    """
    L, r = _eliminate(M)
    d = _checked_pivots(r)
    U = r / d[:, None]
    factors = LduFactors(l=L, d=d, u=U)
    rebuilt = (L * d[None, :]) @ U
    M0 = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.max(np.abs(M0))))
    gap = float(np.max(np.abs(rebuilt - M0)))
    if gap > _RECONSTRUCTION_TOL * scale:
        raise CrossCheckError(
            f"factor reconstruction off by {gap:.3e} (> {_RECONSTRUCTION_TOL * scale:.3e})"
        )
    return factors


def _generator(zeta: State, params: ModelParams, bundle: LaxBundle | None) -> np.ndarray:
    return (build_bundle(zeta, params) if bundle is None else bundle).Ycal


def _minor_log_rates(l: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """d/dt ln m_j for j = 1..n: the first n diagonal entries of l^{-1} Y l.

    l is unit lower triangular, so the leading n x n block of l^{-1} is
    the inverse of the leading block of l and one n x n triangular solve
    suffices.
    """
    Z, _ = dtrtrs(l[:n, :n], Y[:n] @ l[:, :n], lower=1, unitdiag=1)
    return np.diag(Z).copy()


def _samples(
    xi: np.ndarray, Y: np.ndarray, n: int, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Exception | None]:
    """Positions and position rates at a block of times, one stacked exponential.

    Returns (q, qdot, error): the rows of the samples before the earliest
    failing one, and that sample's error (None if every sample passed).
    A sample fails on the first of its checks, in this order: the
    exponential is not finite, a pivot falls under the floor, a minor ratio
    is not positive, a rate is not finite.  So the error is the one that
    evaluating the samples one by one, in time order, would raise first.
    """
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
    l, r = _eliminate(E[:m])
    d = np.diagonal(r, axis1=1, axis2=2)
    small = _small_pivot(d)
    if small.any():
        m = int(np.argmax(small > 0))
        error = FactorizationBreakdownError(
            _PIVOT_UNDERFLOW, j=int(small[m]), t=float(times[m])
        )
    head = d[:m, :n]
    low = head <= 0.0
    if low.any():
        m = int(np.argmax(low.any(axis=1)))
        error = FactorizationBreakdownError(
            "non-positive minor ratio along the flow",
            j=int(np.argmax(low[m])) + 1,
            t=float(times[m]),
        )
    rates = np.empty((m, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            rates[k] = _minor_log_rates(l[k], Y, n)
            if not np.isfinite(rates[k]).all():
                error = FactorizationBreakdownError(
                    "non-finite minor log-rates", t=float(times[k])
                )
                m = k
                break
    return xi + np.log(head[:m]), rates[:m], error


def _sample_at(
    zeta: State, Y: np.ndarray, n: int, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and position rates at time t: the block routine on one sample."""
    q, qdot, error = _samples(zeta.xi, Y, n, np.array([t]))
    if error is not None:
        raise error
    return q[0], qdot[0]


def positions_at(
    zeta: State, params: ModelParams, t: float, bundle: LaxBundle | None = None
) -> np.ndarray:
    """Positions at time t from the first n minor ratios of exp(t Ycal)."""
    return _sample_at(zeta, _generator(zeta, params, bundle), params.n, float(t))[0]


def position_rates_at(
    zeta: State, params: ModelParams, t: float, bundle: LaxBundle | None = None
) -> np.ndarray:
    """Position velocities at time t: the log-rates of the minor ratios."""
    return _sample_at(zeta, _generator(zeta, params, bundle), params.n, float(t))[1]


def rapidities_at(
    zeta: State, params: ModelParams, t: float, bundle: LaxBundle | None = None
) -> np.ndarray:
    """Rapidities at time t, inverting q̇_a = beta sinh(beta theta_a) F_a(q)."""
    q, qdot = _sample_at(zeta, _generator(zeta, params, bundle), params.n, float(t))
    return _invert_velocity(q[None], qdot[None], params)[0]


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
    ``_SAMPLE_BLOCK``, with one stacked exponential and one stacked
    elimination per block.  A
    breakdown raises the error of the earliest failing sample.  Energy
    constancy across samples (1e-9 relative), the rapidity bound, and
    the position speed bound are enforced exactly as for integrated
    trajectories.
    """
    times = sample_times(t_end, sample_dt)
    Y = build_bundle(zeta, params).Ycal
    xi, eta = [zeta.xi[None]], [zeta.eta[None]]
    for k in range(1, len(times), _SAMPLE_BLOCK):
        q, qdot, error = _samples(zeta.xi, Y, params.n, times[k : k + _SAMPLE_BLOCK])
        xi.append(q)
        eta.append(_invert_velocity(q, qdot, params))
        if error is not None:
            raise error
    h0 = hamiltonian(zeta, params)
    drift_tol = _ENERGY_DRIFT_TOL * max(1.0, abs(h0))
    return _assemble(params, times, np.concatenate(xi), np.concatenate(eta), drift_tol)
