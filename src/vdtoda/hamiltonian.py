"""Energy function and equations of motion for the deformed chain.

Everything here is a pure function of an immutable ``State`` and
``ModelParams``.  The module provides the pair interaction function
``f_mu``, the change to canonical coordinates (q, p) and to the
multiplicative variables (x, w), the energy in both coordinate systems,
its non-relativistic limit, the Hamiltonian vector field in each set of
variables, and the assembled first-order equations of motion.

Conventions.  A state stores natural coordinates: ``xi`` are the
positions q and ``eta`` the rapidities theta.  Nearest-neighbour
separations are d_c = q_c - q_{c+1} for c = 1..n-1, and the boundary
variable is 2 q_n.  The multiplicative variables are

    x_a = e^{beta p_a},
    w_a = beta^2 e^{-d_a} (a < n),    w_n = beta^2 e^{-2 q_n},

with the boundary shorthand delta = 1 + kappa^2 w_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoordinateOverflowError, CrossCheckError, ModelParams, State

__all__ = [
    "DerivedCoords",
    "f_mu",
    "derived_coords",
    "to_canonical",
    "from_canonical",
    "hamiltonian",
    "hamiltonian_xw",
    "nonrel_hamiltonian",
    "xh_q",
    "xh_p",
    "xh_x",
    "xh_w",
    "eom",
]

# Reusable guard tolerance for internal double evaluations.  Residuals are
# compared against tol * max(1, scale of the contributing terms); the
# floor of 1 keeps the comparison meaningful near exact zeros, where a
# plain relative error is undefined.
_XHQ_CROSS_TOL = 1e-11
_XHW_CROSS_TOL = 1e-12


def _exp_arg_checked(t: np.ndarray | float, what: str) -> np.ndarray:
    """exp(t) with overflow turned into a diagnostic error."""
    with np.errstate(over="ignore"):
        out = np.exp(t)
    if not np.all(np.isfinite(out)):
        raise CoordinateOverflowError(f"overflow while evaluating {what}")
    return out


def _z_of(mu: float, r: np.ndarray | float) -> np.ndarray:
    """mu^2 e^{-r}, evaluated in log space so the guard sees one exponent."""
    m2 = mu * mu
    if m2 == 0.0:
        return np.zeros_like(np.asarray(r, dtype=float))
    return _exp_arg_checked(np.log(m2) - np.asarray(r, dtype=float), "mu^2 e^{-r}")


def f_mu(mu: float, r: float) -> float:
    """Pair interaction factor sqrt(1 + mu^2 e^{-r}).

    Strictly greater than 1 for mu != 0 and identically 1 at mu = 0.
    Extremely negative r overflows the inner exponential; that raises
    ``CoordinateOverflowError`` instead of returning inf.
    """
    return float(np.sqrt(1.0 + _z_of(float(mu), float(r))))


def _log_f(mu: float, r: np.ndarray | float) -> np.ndarray:
    # log1p keeps full accuracy when mu^2 e^{-r} is tiny.
    return 0.5 * np.log1p(_z_of(mu, r))


def _dlog_f(mu: float, r: np.ndarray | float) -> np.ndarray:
    # d/dr ln f_mu(r) = -(f^2 - 1) / (2 f^2) = -z / (2 (1 + z)).
    z = _z_of(mu, r)
    return -z / (2.0 * (1.0 + z))


def _separations(q: np.ndarray) -> np.ndarray:
    return q[:-1] - q[1:]


def _s_vector(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Generating shift s(q) relating rapidities to canonical momenta."""
    beta, kappa, n = params.beta, params.kappa, params.n
    lf = _log_f(beta, _separations(q))
    s = np.empty(n)
    s[0] = lf[0]
    s[1:-1] = lf[1:] - lf[:-1]
    s[-1] = -lf[-1] + _log_f(beta, 2.0 * q[-1]) + _log_f(kappa * beta, 2.0 * q[-1])
    return s / beta


def _s_jacobian(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """J[a, b] = ds_a/dq_b; symmetric tridiagonal by construction."""
    beta, kappa, n = params.beta, params.kappa, params.n
    g1 = _dlog_f(beta, _separations(q))
    g2 = float(_dlog_f(beta, 2.0 * q[-1]))
    g3 = float(_dlog_f(kappa * beta, 2.0 * q[-1]))
    J = np.zeros((n, n))
    diag = np.empty(n)
    diag[0] = g1[0]
    diag[1:-1] = g1[:-1] + g1[1:]
    diag[-1] = g1[-1] + 2.0 * (g2 + g3)
    J[np.arange(n), np.arange(n)] = diag
    J[np.arange(n - 1), np.arange(1, n)] = -g1
    J[np.arange(1, n), np.arange(n - 1)] = -g1
    return J / beta


@dataclass(frozen=True)
class DerivedCoords:
    """Canonical and multiplicative variables derived from one state.

    s        : shift vector s(q)
    p        : canonical momenta p = theta + s
    x        : x_a = e^{beta p_a}, all positive
    w        : w_a as defined in the module docstring, all positive
    delta    : 1 + kappa^2 w_n, at least 1
    gamma    : x_n (1 + w_{n-1}) / delta + x_n^{-1} (1 + w_n)
    upsilon  : -x_n (1 + w_{n-1}) / delta + x_n^{-1} (1 + w_n)
    """

    s: np.ndarray
    p: np.ndarray
    x: np.ndarray
    w: np.ndarray
    delta: float
    gamma: float
    upsilon: float

    def __post_init__(self) -> None:
        for name in ("s", "p", "x", "w"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.x <= 0.0) or np.any(self.w <= 0.0):
            raise ValueError("x and w entries must be positive")
        if not self.delta >= 1.0:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        # gamma +/- upsilon must reproduce their two defining combinations.
        plus = self.gamma + self.upsilon
        minus = self.gamma - self.upsilon
        ref_plus = 2.0 / self.x[-1] * (1.0 + self.w[-1])
        ref_minus = 2.0 * self.x[-1] * (1.0 + self.w[-2]) / self.delta
        scale = max(1.0, abs(ref_plus), abs(ref_minus))
        if abs(plus - ref_plus) > 1e-12 * scale or abs(minus - ref_minus) > 1e-12 * scale:
            raise ValueError("gamma/upsilon inconsistent with x, w, delta")


def derived_coords(state: State, params: ModelParams) -> DerivedCoords:
    """Compute (s, p, x, w, delta, gamma, upsilon) at one state."""
    beta, kappa = params.beta, params.kappa
    q = state.xi
    s = _s_vector(q, params)
    p = state.eta + s
    x = _exp_arg_checked(beta * p, "x_a = e^{beta p_a}")
    w = np.empty(params.n)
    w[:-1] = beta * beta * _exp_arg_checked(-_separations(q), "e^{-(q_a - q_{a+1})}")
    w[-1] = beta * beta * _exp_arg_checked(-2.0 * q[-1], "e^{-2 q_n}")
    delta = 1.0 + kappa * kappa * w[-1]
    half_minus = x[-1] * (1.0 + w[-2]) / delta
    half_plus = (1.0 + w[-1]) / x[-1]
    return DerivedCoords(
        s=s,
        p=p,
        x=x,
        w=w,
        delta=delta,
        gamma=half_minus + half_plus,
        upsilon=-half_minus + half_plus,
    )


def to_canonical(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Map a state to canonical coordinates (q, p) with p = theta + s(q)."""
    q = state.xi.copy()
    return q, state.eta + _s_vector(q, params)


def from_canonical(q: np.ndarray, p: np.ndarray, params: ModelParams) -> State:
    """Inverse of ``to_canonical``: theta_a = p_a - s_a(q)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return State(q, p - _s_vector(q, params))


def _interaction_factors(state: State, params: ModelParams) -> np.ndarray:
    """F_a(q): the product of pair factors multiplying cosh(beta theta_a)."""
    beta, kappa, n = params.beta, params.kappa, params.n
    q = state.xi
    f = np.sqrt(1.0 + _z_of(beta, _separations(q)))
    F = np.empty(n)
    F[0] = f[0]
    F[1:-1] = f[:-1] * f[1:]
    fb = np.sqrt(1.0 + _z_of(beta, 2.0 * q[-1]))
    fk = np.sqrt(1.0 + _z_of(kappa * beta, 2.0 * q[-1]))
    F[-1] = f[-1] * fb * fk
    return F


def _boundary_tail(state: State, params: ModelParams) -> float:
    """kappa w_n + (1/2) kappa w_{n-1} w_n, straight from positions."""
    beta, kappa = params.beta, params.kappa
    q = state.xi
    wn = beta * beta * float(_exp_arg_checked(-2.0 * q[-1], "e^{-2 q_n}"))
    wn1 = beta * beta * float(_exp_arg_checked(-(q[-2] - q[-1]), "e^{-(q_{n-1} - q_n)}"))
    return kappa * wn + 0.5 * kappa * wn1 * wn


def hamiltonian(state: State, params: ModelParams) -> float:
    """Energy in natural coordinates (q, theta); strictly above n."""
    F = _interaction_factors(state, params)
    ch = np.cosh(params.beta * state.eta)
    H = float(ch @ F) + _boundary_tail(state, params)
    if not np.isfinite(H):
        raise CoordinateOverflowError("energy overflowed")
    return H


def hamiltonian_xw(coords: DerivedCoords, params: ModelParams) -> float:
    """Energy as a Laurent polynomial in the multiplicative variables."""
    kappa = params.kappa
    x, w = coords.x, coords.w
    chain = 0.5 * float(np.sum((1.0 / x[:-1] + x[1:]) * (1.0 + w[:-1])))
    boundary = 0.5 / x[-1] * (1.0 + w[-1]) * coords.delta
    tail = kappa * w[-1] + 0.5 * kappa * w[-2] * w[-1]
    return 0.5 * x[0] + chain + boundary + tail


def nonrel_hamiltonian(state: State, params: ModelParams) -> float:
    """Non-relativistic limit energy: (H - n)/beta^2 as beta -> 0."""
    kappa = params.kappa
    q, th = state.xi, state.eta
    kinetic = 0.5 * float(th @ th)
    pair = float(np.sum(_exp_arg_checked(-_separations(q), "e^{-(q_c - q_{c+1})}")))
    wall = 0.5 * (1.0 + kappa) ** 2 * float(_exp_arg_checked(-2.0 * q[-1], "e^{-2 q_n}"))
    return kinetic + pair + wall


def _xh_q_theta_form(state: State, params: ModelParams) -> np.ndarray:
    return params.beta * np.sinh(params.beta * state.eta) * _interaction_factors(state, params)


def _xh_q_xw_form(coords: DerivedCoords, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values, per-entry magnitude scale) for the guard."""
    beta, n = params.beta, params.n
    x, w, delta = coords.x, coords.w, coords.delta
    gain = np.empty(n)
    gain[0] = x[0]
    gain[1:] = x[1:] * (1.0 + w[:-1])
    loss = np.empty(n)
    loss[:-1] = (1.0 + w[:-1]) / x[:-1]
    loss[-1] = (1.0 + w[-1]) * delta / x[-1]
    return 0.5 * beta * (gain - loss), 0.5 * beta * (np.abs(gain) + np.abs(loss))


def xh_q(state: State, params: ModelParams) -> np.ndarray:
    """Position components of the Hamiltonian vector field.

    Both the hyperbolic form beta sinh(beta theta_a) F_a(q) and the
    Laurent form in (x, w, delta) are evaluated; they must agree to
    1e-11 relative to the larger term magnitude (floored at 1).  The
    hyperbolic form is returned because it vanishes exactly at rest.
    """
    primary = _xh_q_theta_form(state, params)
    coords = derived_coords(state, params)
    alt, scale = _xh_q_xw_form(coords, params)
    bound = _XHQ_CROSS_TOL * max(1.0, float(np.max(scale)))
    gap = float(np.max(np.abs(primary - alt)))
    if gap > bound:
        raise CrossCheckError(
            f"position velocity forms disagree: |diff| = {gap:.3e} > {bound:.3e}"
        )
    return primary


def xh_p(state: State, params: ModelParams) -> np.ndarray:
    """Canonical-momentum components of the Hamiltonian vector field."""
    coords = derived_coords(state, params)
    return _xh_p_from_coords(coords, params)


def _xh_p_from_coords(coords: DerivedCoords, params: ModelParams) -> np.ndarray:
    kappa, n = params.kappa, params.n
    x, w = coords.x, coords.w
    # u_c = (1/2)(x_c^{-1} + x_{c+1}) w_c carries the whole chain part.
    u = 0.5 * (1.0 / x[:-1] + x[1:]) * w[:-1]
    out = np.empty(n)
    out[0] = u[0]
    out[1:-1] = u[1:] - u[:-1]
    out[-1] = -u[-1] + w[-1] / x[-1] * (1.0 + kappa * kappa * (1.0 + 2.0 * w[-1])) + 2.0 * kappa * w[-1]
    corner = 0.5 * kappa * w[-2] * w[-1]
    out[-2] += corner
    out[-1] += corner
    return out


def xh_x(state: State, params: ModelParams) -> np.ndarray:
    """X_H[x_a] = beta x_a X_H[p_a]."""
    coords = derived_coords(state, params)
    return params.beta * coords.x * _xh_p_from_coords(coords, params)


def xh_w(state: State, params: ModelParams) -> np.ndarray:
    """Time derivatives of the w variables along the flow.

    Evaluated from the explicit Laurent expressions, then checked
    against the composition rule obtained by differentiating the
    definition of w_a through the positions:

        X_H[w_a] = w_a (X_H[q_{a+1}] - X_H[q_a])   for a < n,
        X_H[w_n] = -2 w_n X_H[q_n].

    The last entry uses X_H[w_n] = beta w_n delta upsilon, which also
    fixes X_H[delta] = beta kappa^2 w_n delta upsilon.
    """
    beta, n = params.beta, params.n
    coords = derived_coords(state, params)
    x, w, delta = coords.x, coords.w, coords.delta
    # lose[a] = x_a (1 + w_{a-1}), the leftward term; w_0 plays as 0.
    lose = np.empty(n - 1)
    lose[0] = x[0]
    lose[1:] = x[1:-1] * (1.0 + w[:-2])
    keep = (1.0 / x[:-1] + x[1:]) * (1.0 + w[:-1])
    push = np.empty(n - 1)
    push[:-1] = (1.0 + w[1:-1]) / x[1:-1]
    push[-1] = (1.0 + w[-1]) * delta / x[-1]
    out = np.empty(n)
    out[:-1] = 0.5 * beta * w[:-1] * (keep - lose - push)
    out[-1] = beta * w[-1] * delta * coords.upsilon
    qdot = _xh_q_theta_form(state, params)
    composed = np.empty(n)
    composed[:-1] = w[:-1] * (qdot[1:] - qdot[:-1])
    composed[-1] = -2.0 * w[-1] * qdot[-1]
    scale = max(1.0, float(np.max(np.abs(out))), float(np.max(np.abs(composed))))
    gap = float(np.max(np.abs(out - composed)))
    if gap > _XHW_CROSS_TOL * scale:
        raise CrossCheckError(
            f"w-velocity forms disagree: |diff| = {gap:.3e} > {_XHW_CROSS_TOL * scale:.3e}"
        )
    return out


def eom(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """First-order equations of motion in natural coordinates.

    xidot is X_H[q].  The rapidity rate follows by the chain rule
    through the canonical pair: etadot_a = X_H[p_a] - sum_b
    (ds_a/dq_b) X_H[q_b], with the analytic Jacobian of s.
    """
    qdot = xh_q(state, params)
    coords = derived_coords(state, params)
    pdot = _xh_p_from_coords(coords, params)
    J = _s_jacobian(state.xi, params)
    return qdot, pdot - J @ qdot


def _eom_arrays(q: np.ndarray, th: np.ndarray, params: ModelParams) -> np.ndarray:
    """Flat-vector right-hand side (xidot, etadot) for ODE integration.

    The same vector field as ``eom``, fused into one pass over flat
    arrays: no ``State``, no ``DerivedCoords``, no cross-check.  The
    tridiagonal product J @ qdot is applied edge by edge: chain edge c
    carries one flux, its X_H[p] term minus its (ds/dq) qdot term, and
    etadot is the difference of consecutive fluxes plus the boundary
    terms at site n.  Overflow anywhere surfaces as inf or nan in the
    output, which is checked once and raises ``CoordinateOverflowError``.
    """
    beta, kappa = params.beta, params.kappa
    n = q.shape[0]
    out = np.empty(2 * n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # w_a = beta^2 e^{-d_a} (a < n) and w_n = beta^2 e^{-2 q_n}
        arg = np.empty(n)
        arg[:-1] = q[1:] - q[:-1]
        arg[-1] = -2.0 * q[-1]
        w = beta * beta * np.exp(arg)
        wk = kappa * kappa * w[-1]
        one_w = 1.0 + w
        one_wk = 1.0 + wk
        # s_a = (ln f_a - ln f_{a-1}) / beta, with both boundary factors at n
        lf = 0.5 * np.log1p(w)
        s = np.empty(n)
        s[0] = lf[0]
        s[1:] = lf[1:] - lf[:-1]
        s[-1] += 0.5 * np.log1p(wk)
        x = np.exp(beta * th + s)
        # xidot_a = beta sinh(beta theta_a) F_a, F_a = f_{a-1} f_a (f_n with f_kappa)
        f = np.sqrt(one_w)
        F = f.copy()
        F[1:] *= f[:-1]
        F[-1] *= np.sqrt(one_wk)
        qdot = beta * np.sinh(beta * th) * F
        # edge flux: X_H[p] part (1/x_c + x_{c+1}) w_c / 2 minus the Jacobian
        # part g_c (qdot_c - qdot_{c+1}) / beta, g = d/dr ln f = -w / (2 (1 + w))
        g = -w / (2.0 * one_w)
        gk = -wk / (2.0 * one_wk)
        flux = 0.5 * (1.0 / x[:-1] + x[1:]) * w[:-1] - g[:-1] * (qdot[:-1] - qdot[1:]) / beta
        etadot = out[n:]
        etadot[0] = flux[0]
        etadot[1:-1] = flux[1:] - flux[:-1]
        wn = w[-1]
        corner = 0.5 * kappa * w[-2] * wn
        etadot[-1] = (
            -flux[-1]
            + wn / x[-1] * (1.0 + kappa * kappa * (1.0 + 2.0 * wn))
            + 2.0 * kappa * wn
            + corner
            - 2.0 * (g[-1] + gk) * qdot[-1] / beta
        )
        etadot[-2] += corner
        out[:n] = qdot
    if not np.isfinite(out).all():
        raise CoordinateOverflowError("overflow while evaluating the equations of motion")
    return out
