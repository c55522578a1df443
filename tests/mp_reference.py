"""An extended-precision reference for the Lax chain and the algebraic route.

Every quantity is evaluated with mpmath from the float64 coordinates
(x, w, delta) of a state (``derived_coords``), which mpmath holds
exactly; what follows is rounded only at ``mp.dps`` digits.  So the
reference is the exact value for the coordinates the library computes
with, and an error against it is the error of the library's matrix
algebra alone, not of the coordinate map.

* ``hcal``: Hcal = L (Omega L Omega^{-1})^{-1} from its definition, with
  the inverse taken by ``mp.inverse``, not by any closed form;
* ``ycal``: Ycal = (beta / 2)(Lcal - Lcal^{-1}), Lcal = Hcal g, with
  ``mp.inverse`` for Lcal^{-1};
* ``positions``: q_c(t) = xi_c + ln m_c(exp(t Ycal)), c = 1..n, with
  ``mp.expm`` and the pivots m_c of elimination without pivoting;
  ``flow_positions`` does the same for any generator.

The digits the positions need grow with the spread of the exponential,
e^{beta (H - n) t}: ``positions`` works at
``40 + 2 beta (H - n) t / ln 10`` digits.  The reference starts from the
float64 coordinates, so it does not include how sensitive the positions
are to their rounding.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from vdtoda import ModelParams, State, derived_coords, hamiltonian

DPS = 40


def _chain(state: State, params: ModelParams) -> tuple:
    """L and g as mpmath matrices, from the float64 x, w and delta of state."""
    coords = derived_coords(state, params)
    n, N = params.n, 2 * params.n
    x = [mp.mpf(float(v)) for v in coords.x]
    w = [mp.mpf(float(v)) for v in coords.w]
    delta = mp.mpf(float(coords.delta))
    dn = [mp.sqrt(v) for v in x]
    dn[-1] *= delta ** mp.mpf(-0.25)
    d = dn + [1 / v for v in reversed(dn)]
    sw = [mp.sqrt(v) for v in w]
    s = sw + [-v for v in reversed(sw[:-1])]
    L = mp.zeros(N, N)
    for i in range(N):
        L[i, i] = d[i]
        if i:
            L[i, i - 1] = d[i] * s[i - 1]
    g = mp.eye(N)
    g[n - 1, n - 1] = g[n, n] = mp.sqrt(delta)
    g[n - 1, n] = g[n, n - 1] = mp.mpf(params.kappa) * sw[-1]
    return L, g


def _omega(n: int):
    """Omega = [[0, R], [-R, 0]] as an mpmath matrix."""
    Om = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        Om[i, 2 * n - 1 - i] = 1
        Om[n + i, n - 1 - i] = -1
    return Om


def _hcal(state: State, params: ModelParams) -> tuple:
    L, g = _chain(state, params)
    Om = _omega(params.n)
    return L * mp.inverse(Om * L * mp.inverse(Om)), g


def hcal(state: State, params: ModelParams):
    """Hcal at ``state`` from its definition, as an mpmath matrix."""
    with mp.workdps(DPS):
        return _hcal(state, params)[0]


def _ycal(state: State, params: ModelParams):
    H, g = _hcal(state, params)
    Lcal = H * g
    return (mp.mpf(params.beta) / 2) * (Lcal - mp.inverse(Lcal))


def ycal(state: State, params: ModelParams):
    """Ycal at ``state``, as an mpmath matrix."""
    with mp.workdps(DPS):
        return _ycal(state, params)


def pivots(M) -> list:
    """The pivots of elimination without pivoting of a square mpmath matrix."""
    A = M.copy()
    N = A.rows
    out = []
    for j in range(N):
        out.append(A[j, j])
        for i in range(j + 1, N):
            f = A[i, j] / A[j, j]
            for k in range(j + 1, N):
                A[i, k] -= f * A[j, k]
    return out


def digits(state: State, params: ModelParams, t: float) -> int:
    """The working digits of ``positions``: 40 + 2 beta (H - n) t / ln 10."""
    growth = params.beta * (hamiltonian(state, params) - params.n) * abs(t)
    return DPS + math.ceil(2.0 * growth / math.log(10.0))


def flow_positions(xi: np.ndarray, Y, t: float) -> np.ndarray:
    """xi + ln m_c(exp(t Y)), c = 1..len(xi), for any generator Y (an mpmath
    matrix), at the working digits of the caller, rounded to float64."""
    m = pivots(mp.expm(mp.mpf(float(t)) * Y))
    return np.array([float(mp.mpf(float(q)) + mp.log(p)) for q, p in zip(xi, m)])


def positions(state: State, params: ModelParams, t: float) -> np.ndarray:
    """The positions at time t, xi + ln m_c(exp(t Ycal)), rounded to float64."""
    with mp.workdps(digits(state, params, t)):
        return flow_positions(state.xi, _ycal(state, params), t)


def relative_error(got: np.ndarray, exact) -> float:
    """max |got - exact| / |exact| over the entries where exact is not 0.

    Where exact is 0 the entry of ``got`` must be 0 too, else the error is
    inf.
    """
    worst = 0.0
    with mp.workdps(DPS):
        for (i, j), value in np.ndenumerate(got):
            ref = exact[i, j]
            if ref == 0:
                if value != 0.0:
                    return math.inf
                continue
            worst = max(worst, float(abs(mp.mpf(float(value)) - ref) / abs(ref)))
    return worst
