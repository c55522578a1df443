"""Energy function and equations of motion for the deformed chain.

Everything here is a pure function of an immutable ``State`` and
``ModelParams``.  The coordinates, the interaction factors, the energy
and the two cross-checked velocity fields X_H[q] and X_H[w] have one
evaluation route each, a kernel on (S, n) stacks of positions and
rapidities (``_coord_arrays``, ``_factor_arrays``, ``_energy_arrays``,
``_xh_q_check``, ``_xh_w_checked``) that trajectories and the
verification suite call once for all their states; ``derived_coords``,
``hamiltonian``, ``xh_q`` and ``xh_w`` are their S = 1 case.  The module
provides the pair interaction function ``f_mu``, the change to canonical
coordinates (q, p) and to the multiplicative variables (x, w), the
energy in both coordinate systems, its non-relativistic limit, the
Hamiltonian vector field in each set of variables, and the assembled
first-order equations of motion.

Conventions.  A state stores natural coordinates: ``xi`` are the
positions q and ``eta`` the rapidities theta.  Nearest-neighbour
separations are d_c = q_c - q_{c+1} for c = 1..n-1, and the boundary
variable is 2 q_n.  The multiplicative variables are

    x_a = e^{beta p_a},
    w_a = beta^2 e^{-d_a} (a < n),    w_n = beta^2 e^{-2 q_n},

with the boundary shorthand delta = 1 + kappa^2 w_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoordinateOverflowError,
    CoordinateUnderflowError,
    CrossCheckError,
    ModelParams,
    State,
)

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


_OVERFLOW = "overflow while evaluating "
_PAIR_OVERFLOW = _OVERFLOW + "mu^2 e^{-r}"


def _exp_arg_checked(t: np.ndarray | float, what: str) -> np.ndarray:
    """exp(t) with overflow turned into a diagnostic error."""
    with np.errstate(over="ignore"):
        out = np.exp(t)
    if not np.all(np.isfinite(out)):
        raise CoordinateOverflowError(_OVERFLOW + what)
    return out


def _raise_first_failure(checks) -> None:
    """Raise the error that evaluating the rows of a stack one by one would.

    ``checks`` holds (ok, error type, message, *values) in the order a
    single-state evaluation meets them, ``ok`` a boolean per row and each
    value an array over the rows.  The earliest row with a failed check
    wins, and within it the first failed check; its message is
    %-formatted with the values at that row.
    """
    first = None
    for ok, kind, message, *values in checks:
        if not ok.all():
            row = int(np.argmin(ok))
            if first is None or row < first[0]:
                first = (row, kind, message, values)
    if first is not None:
        row, kind, message, values = first
        raise kind(message % tuple(v[row] for v in values))


def _bound_check(gap: np.ndarray, bound: np.ndarray, what: str):
    """The check ``gap <= bound`` per row (a nan gap fails), raising ``CrossCheckError``."""
    return gap <= bound, CrossCheckError, what + ": |diff| = %.3e > %.3e", gap, bound


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


def _pair_terms(
    q: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """z = mu^2 e^{-r} of every pair factor for a stack of positions (S, n).

    Returns z at the chain separations (mu = beta, shape (S, n-1)), z at
    the wall 2 q_n for mu = beta and for mu = kappa beta (each (S,)), and
    per row whether all of them stayed finite.  Each z is evaluated as in
    ``_z_of``, all in one exponential; overflow is reported, not raised.
    """
    beta, kappa = params.beta, params.kappa
    n = q.shape[1]
    log_b2 = np.log(beta * beta)
    mu = kappa * beta
    arg = np.empty((q.shape[0], n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        wall = 2.0 * q[:, -1]
        arg[:, : n - 1] = log_b2 - (q[:, :-1] - q[:, 1:])
        arg[:, n - 1] = log_b2 - wall
        # mu = 0 makes the factor identically 1: exp(-inf) is exactly 0
        arg[:, n] = np.log(mu * mu) - wall if mu * mu != 0.0 else -np.inf
        z = np.exp(arg)
    return z[:, : n - 1], z[:, n - 1], z[:, n], np.isfinite(z).all(axis=1)


def _s_arrays(q: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rows of s(q) for a stack of positions, and the per-row finiteness."""
    zs, zb, zk, ok = _pair_terms(q, params)
    # ln f_mu(r) = (1/2) ln(1 + z); log1p keeps full accuracy for tiny z.
    s = np.empty_like(q)
    with np.errstate(over="ignore", invalid="ignore"):
        lf = 0.5 * np.log1p(zs)
        s[:, 0] = lf[:, 0]
        s[:, 1:-1] = lf[:, 1:] - lf[:, :-1]
        s[:, -1] = -lf[:, -1] + 0.5 * np.log1p(zb) + 0.5 * np.log1p(zk)
        s /= params.beta
    return s, ok


def _s_vector(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Generating shift s(q) relating rapidities to canonical momenta."""
    s, ok = _s_arrays(q[None], params)
    if not ok[0]:
        raise CoordinateOverflowError(_PAIR_OVERFLOW)
    return s[0]


@dataclass(frozen=True)
class DerivedCoords:
    """Canonical and multiplicative variables derived from one state.

    For a stack of S states every field carries a leading axis of
    length S: the vectors are (S, n) and the scalars (S,).

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
            if arr.ndim not in (1, 2):
                raise ValueError(f"{name} must be a finite vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        s, p, x, w, delta, gamma, upsilon = self.rows()
        # gamma +/- upsilon must reproduce their two defining combinations;
        # rows failing an earlier check may hold inf, nan or 0 there
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ref_plus = 2.0 / x[:, -1] * (1.0 + w[:, -1])
            ref_minus = 2.0 * x[:, -1] * (1.0 + w[:, -2]) / delta
            scale = np.maximum(1.0, np.maximum(np.abs(ref_plus), np.abs(ref_minus)))
            bad = (np.abs(gamma + upsilon - ref_plus) > 1e-12 * scale) | (
                np.abs(gamma - upsilon - ref_minus) > 1e-12 * scale
            )
        positive = (x > 0.0).all(axis=1) & (w > 0.0).all(axis=1)
        _raise_first_failure(
            [
                (np.isfinite(arr).all(axis=1), ValueError, f"{name} must be a finite vector")
                for name, arr in (("s", s), ("p", p), ("x", x), ("w", w))
            ]
            + [
                (positive, ValueError, "x and w entries must be positive"),
                (delta >= 1.0, ValueError, "delta must be >= 1, got %s", delta),
                (~bad, ValueError, "gamma/upsilon inconsistent with x, w, delta"),
            ]
        )

    def rows(self) -> tuple[np.ndarray, ...]:
        """(s, p, x, w, delta, gamma, upsilon) as a stack, S = 1 for one state."""
        n = self.x.shape[-1]
        vectors = (self.s, self.p, self.x, self.w)
        scalars = (self.delta, self.gamma, self.upsilon)
        return tuple(np.reshape(v, (-1, n)) for v in vectors) + tuple(
            np.reshape(c, -1) for c in scalars
        )


def _stack_of(state) -> tuple[np.ndarray, np.ndarray, bool]:
    """Positions and rapidities as (S, n) stacks, and whether ``state`` is one ``State``.

    ``state`` is a ``State``, or a pair (xi, eta) of (S, n) arrays.
    """
    if isinstance(state, State):
        return state.xi[None], state.eta[None], True
    q, th = (np.asarray(a, dtype=float) for a in state)
    if q.ndim != 2 or q.shape != th.shape:
        raise ValueError("a stack of states is a pair (xi, eta) of (S, n) arrays")
    return q, th, False


def _coord_arrays(
    q: np.ndarray, th: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s, p, x, w, delta) for a stack of states: q and th are (S, n).

    The one evaluation route of these coordinates; ``derived_coords`` is
    its S = 1 case.  Every exponential is checked for overflow once per
    stack, and positivity of x and w once per stack.  A failure raises
    the error of the earliest failing state, as evaluating the states
    one by one would: ``CoordinateOverflowError`` for an overflow,
    ``CoordinateUnderflowError`` for an x or w that underflowed to 0.
    """
    beta, kappa = params.beta, params.kappa
    n = q.shape[1]
    s, z_ok = _s_arrays(q, params)
    # One exponential for x_a = e^{beta p_a} and for the exponentials in
    # w, e^{-d_a} (a < n) and e^{-2 q_n}; then xw holds the rows (x, w).
    xw = np.empty((q.shape[0], 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        p = th + s
        np.multiply(beta, p, out=xw[:, :n])
        np.subtract(q[:, 1:], q[:, :-1], out=xw[:, n:-1])
        np.multiply(-2.0, q[:, -1], out=xw[:, -1])
        np.exp(xw, out=xw)
        finite = np.isfinite(xw)
        xw[:, n:] *= beta * beta
    positive = xw > 0.0
    if not (z_ok.all() and finite.all() and positive.all()):
        over = CoordinateOverflowError
        _raise_first_failure(
            [
                (z_ok, over, _PAIR_OVERFLOW),
                (finite[:, :n].all(axis=1), over, _OVERFLOW + "x_a = e^{beta p_a}"),
                (finite[:, n:-1].all(axis=1), over, _OVERFLOW + "e^{-(q_a - q_{a+1})}"),
                (finite[:, -1], over, _OVERFLOW + "e^{-2 q_n}"),
                (
                    positive.all(axis=1),
                    CoordinateUnderflowError,
                    "x and w entries must be positive",
                ),
            ]
        )
    x, w = xw[:, :n], xw[:, n:]
    return s, p, x, w, 1.0 + kappa * kappa * w[:, -1]


def derived_coords(
    state: State | tuple[np.ndarray, np.ndarray], params: ModelParams
) -> DerivedCoords:
    """Compute (s, p, x, w, delta, gamma, upsilon) at one state.

    ``state`` may also be a pair (xi, eta) of (S, n) arrays; the result
    then holds the stack of S states.
    """
    q, th, one = _stack_of(state)
    s, p, x, w, delta = _coord_arrays(q, th, params)
    half_minus = x[:, -1] * (1.0 + w[:, -2]) / delta
    half_plus = (1.0 + w[:, -1]) / x[:, -1]
    rows = (s, p, x, w, delta, half_minus + half_plus, -half_minus + half_plus)
    return DerivedCoords(*(r[0] if one else r for r in rows))


def to_canonical(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Map a state to canonical coordinates (q, p) with p = theta + s(q)."""
    q = state.xi.copy()
    return q, state.eta + _s_vector(q, params)


def from_canonical(q: np.ndarray, p: np.ndarray, params: ModelParams) -> State:
    """Inverse of ``to_canonical``: theta_a = p_a - s_a(q)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return State(q, p - _s_vector(q, params))


def _factor_arrays(q: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rows of F_a(q) for a stack of positions, and the per-row finiteness.

    F_a is the product of pair factors multiplying cosh(beta theta_a).

    Overflow is reported, not raised, so a caller can order it among
    its own checks.
    """
    zs, zb, zk, ok = _pair_terms(q, params)
    # z >= 0 or inf, so nothing here can warn
    f = np.sqrt(1.0 + zs)
    F = np.empty_like(q)
    F[:, 0] = f[:, 0]
    F[:, 1:-1] = f[:, :-1] * f[:, 1:]
    F[:, -1] = f[:, -1] * np.sqrt(1.0 + zb) * np.sqrt(1.0 + zk)
    return F, ok


def _energy_arrays(q: np.ndarray, th: np.ndarray, params: ModelParams) -> np.ndarray:
    """Energy of every state in a stack: q and th are (S, n).

    H = sum_a cosh(beta theta_a) F_a(q) + kappa w_n + (1/2) kappa w_{n-1} w_n,
    the tail taken straight from positions.  ``hamiltonian`` is the S = 1
    case.  Each exponential and the result are checked once per stack;
    a failure raises ``CoordinateOverflowError`` for the earliest failing
    state, as evaluating the states one by one would.
    """
    beta, kappa = params.beta, params.kappa
    F, z_ok = _factor_arrays(q, params)
    # e^{-2 q_n} and e^{-(q_{n-1} - q_n)} in one exponential
    e = np.empty((q.shape[0], 2))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(-2.0, q[:, -1], out=e[:, 0])
        np.subtract(q[:, -1], q[:, -2], out=e[:, 1])
        np.exp(e, out=e)
        wn = beta * beta * e[:, 0]
        wn1 = beta * beta * e[:, 1]
        H = np.vecdot(np.cosh(beta * th), F) + (kappa * wn + 0.5 * kappa * wn1 * wn)
    finite = np.isfinite(e)
    H_ok = np.isfinite(H)
    if not (z_ok.all() and finite.all() and H_ok.all()):
        over = CoordinateOverflowError
        _raise_first_failure(
            [
                (z_ok, over, _PAIR_OVERFLOW),
                (finite[:, 0], over, _OVERFLOW + "e^{-2 q_n}"),
                (finite[:, 1], over, _OVERFLOW + "e^{-(q_{n-1} - q_n)}"),
                (H_ok, over, "energy overflowed"),
            ]
        )
    return H


def hamiltonian(state: State, params: ModelParams) -> float:
    """Energy in natural coordinates (q, theta); strictly above n."""
    return float(_energy_arrays(state.xi[None], state.eta[None], params)[0])


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
    pair = float(np.sum(_exp_arg_checked(q[1:] - q[:-1], "e^{-(q_c - q_{c+1})}")))
    wall = 0.5 * (1.0 + kappa) ** 2 * float(_exp_arg_checked(-2.0 * q[-1], "e^{-2 q_n}"))
    return kinetic + pair + wall


def _xh_q_theta(q: np.ndarray, th: np.ndarray, params: ModelParams) -> np.ndarray:
    """beta sinh(beta theta_a) F_a(q) for a stack (S, n).

    F overflows exactly when the first check of the coordinates fails,
    so callers evaluate the coordinates first and the flag is not kept.
    """
    F, _ = _factor_arrays(q, params)
    return params.beta * np.sinh(params.beta * th) * F


def _xh_q_check(qdot, x, w, delta, params: ModelParams):
    """Cross-check of the theta form ``qdot`` against the Laurent form in (x, w, delta).

    The two must agree to 1e-11 relative to the largest term of the
    Laurent form (floored at 1); one check over a stack.
    """
    gain = np.empty_like(x)
    gain[:, 0] = x[:, 0]
    gain[:, 1:] = x[:, 1:] * (1.0 + w[:, :-1])
    loss = np.empty_like(x)
    loss[:, :-1] = (1.0 + w[:, :-1]) / x[:, :-1]
    loss[:, -1] = (1.0 + w[:, -1]) * delta / x[:, -1]
    half = 0.5 * params.beta
    alt = half * (gain - loss)
    scale = half * (np.abs(gain) + np.abs(loss))
    bound = _XHQ_CROSS_TOL * np.maximum(1.0, np.max(scale, axis=1))
    gap = np.max(np.abs(qdot - alt), axis=1)
    return _bound_check(gap, bound, "position velocity forms disagree")


def xh_q(state: State, params: ModelParams) -> np.ndarray:
    """Position components of the Hamiltonian vector field.

    Both the hyperbolic form beta sinh(beta theta_a) F_a(q) and the
    Laurent form in (x, w, delta) are evaluated; they must agree to
    1e-11 relative to the larger term magnitude (floored at 1).  The
    hyperbolic form is returned because it vanishes exactly at rest.
    """
    x, w, delta = derived_coords(state, params).rows()[2:5]
    primary = _xh_q_theta(state.xi[None], state.eta[None], params)
    _raise_first_failure([_xh_q_check(primary, x, w, delta, params)])
    return primary[0]


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


def _xh_w_checked(x, w, delta, gamma, upsilon, qdot, params: ModelParams):
    """X_H[w] for a stack from the Laurent expressions, and its cross-check.

    x, w and ``qdot`` (the theta form of X_H[q]) are (S, n); delta, gamma
    and upsilon are (S,).  ``xh_w`` is the S = 1 case.
    """
    beta, n = params.beta, params.n
    # lose[a] = x_a (1 + w_{a-1}), the leftward term; w_0 plays as 0.
    lose = np.empty_like(w[:, :-1])
    lose[:, 0] = x[:, 0]
    lose[:, 1:] = x[:, 1:-1] * (1.0 + w[:, :-2])
    keep = (1.0 / x[:, :-1] + x[:, 1:]) * (1.0 + w[:, :-1])
    push = np.empty_like(lose)
    push[:, :-1] = (1.0 + w[:, 1:-1]) / x[:, 1:-1]
    push[:, -1] = (1.0 + w[:, -1]) * delta / x[:, -1]
    out = np.empty_like(w)
    half_w = 0.5 * beta * w[:, :-1]
    out[:, :-1] = half_w * (keep - lose - push)
    out[:, -1] = beta * w[:, -1] * delta * upsilon
    composed = np.empty_like(w)
    composed[:, :-1] = w[:, :-1] * (qdot[:, 1:] - qdot[:, :-1])
    composed[:, -1] = -2.0 * w[:, -1] * qdot[:, -1]
    # Scale by the terms, not the results: the results cancel to 0 at
    # rest while the terms grow like e^{beta |p|}.  keep, lose, push and
    # both halves of gamma (upsilon is their difference) are positive, so
    # their sums are the term magnitudes.
    terms = np.empty((w.shape[0], 2 * n))
    terms[:, : n - 1] = half_w * (keep + lose + push)
    terms[:, n - 1] = beta * w[:, -1] * delta * gamma
    terms[:, n:-1] = w[:, :-1] * (np.abs(qdot[:, 1:]) + np.abs(qdot[:, :-1]))
    terms[:, -1] = 2.0 * w[:, -1] * np.abs(qdot[:, -1])
    bound = _XHW_CROSS_TOL * np.maximum(1.0, np.max(terms, axis=1))
    gap = np.max(np.abs(out - composed), axis=1)
    return out, _bound_check(gap, bound, "w-velocity forms disagree")


def xh_w(state: State, params: ModelParams) -> np.ndarray:
    """Time derivatives of the w variables along the flow.

    Evaluated from the explicit Laurent expressions, then checked
    against the composition rule obtained by differentiating the
    definition of w_a through the positions:

        X_H[w_a] = w_a (X_H[q_{a+1}] - X_H[q_a])   for a < n,
        X_H[w_n] = -2 w_n X_H[q_n].

    The two must agree to 1e-12 relative to the largest term of either
    side (floored at 1).  The last entry uses X_H[w_n] = beta w_n delta
    upsilon, which also fixes X_H[delta] = beta kappa^2 w_n delta upsilon.
    """
    coords = derived_coords(state, params)
    qdot = _xh_q_theta(state.xi[None], state.eta[None], params)
    out, check = _xh_w_checked(*coords.rows()[2:], qdot, params)
    _raise_first_failure([check])
    return out[0]


def _eom_arrays(
    q: np.ndarray, th: np.ndarray, params: ModelParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Flat-vector right-hand side (xidot, etadot) for ODE integration.

    The vector field in one pass over flat arrays: no ``State``, no
    ``DerivedCoords``, no cross-check; ``eom`` is its one-state form.
    The tridiagonal product J @ qdot (J = ds/dq) is applied edge by
    edge: chain edge c carries one flux, its X_H[p] term minus its
    (ds/dq) qdot term, and etadot is the difference of consecutive
    fluxes plus the boundary terms at site n, taken in scalars.  The
    result is written into ``out`` (a fresh array if None) and returned.
    Overflow anywhere surfaces as inf or nan in the output, which is
    checked once and raises ``CoordinateOverflowError``.
    """
    beta, kappa = params.beta, params.kappa
    n = q.shape[0]
    if out is None:
        out = np.empty(2 * n)
    qdot, etadot = out[:n], out[n:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # w_a = beta^2 e^{-d_a} (a < n) and w_n = beta^2 e^{-2 q_n}
        w = np.empty(n)
        np.subtract(q[1:], q[:-1], out=w[:-1])
        w[-1] = -2.0 * q[-1]
        np.exp(w, out=w)
        w *= beta * beta
        w_n1, w_n = w[-2:].tolist()
        wk = kappa * kappa * w_n
        # beta s_a = ln f_a - ln f_{a-1}, with both boundary factors at n;
        # x_a = e^{beta theta_a + beta s_a}
        lf = np.log1p(w)
        lf *= 0.5
        x = np.empty(n)
        x[0] = lf[0]
        np.subtract(lf[1:], lf[:-1], out=x[1:])
        x[-1] += 0.5 * np.log1p(wk)
        bt = beta * th
        x += bt
        np.exp(x, out=x)
        # xidot_a = beta sinh(beta theta_a) F_a, F_a = f_{a-1} f_a (f_n with f_kappa)
        one_w = 1.0 + w
        f = np.sqrt(one_w)
        F = np.empty(n)
        F[0] = f[0]
        np.multiply(f[1:], f[:-1], out=F[1:])
        F[-1] *= math.sqrt(1.0 + wk)
        np.sinh(bt, out=qdot)
        qdot *= beta
        qdot *= F
        # edge flux: X_H[p] part (1/x_c + x_{c+1}) w_c / 2 minus the Jacobian
        # part g_c (qdot_c - qdot_{c+1}) / beta, g = d/dr ln f = -w / (2 (1 + w))
        flux = np.divide(1.0, x[:-1])
        flux += x[1:]
        flux *= 0.5
        flux *= w[:-1]
        jac = np.subtract(qdot[:-1], qdot[1:])
        one_w *= 2.0
        jac *= np.divide(w[:-1], one_w[:-1], out=one_w[:-1])
        jac /= beta
        flux += jac
        etadot[0] = flux[0]
        np.subtract(flux[1:-1], flux[:-2], out=etadot[1:-2])
        flux_n2, flux_n1 = flux[-2:].tolist()
        g_n = -w_n / (2.0 * (1.0 + w_n))
        gk = -wk / (2.0 * (1.0 + wk))
        corner = 0.5 * kappa * w_n1 * w_n
        etadot[-2] = flux_n1 - flux_n2 + corner
        # divided as NumPy scalars: w_n / 0 is inf, not ZeroDivisionError
        etadot[-1] = (
            -flux_n1
            + (w_n / x[-1]).item() * (1.0 + kappa * kappa * (1.0 + 2.0 * w_n))
            + 2.0 * kappa * w_n
            + corner
            - 2.0 * (g_n + gk) * qdot[-1].item() / beta
        )
    if not np.isfinite(out).all():
        raise CoordinateOverflowError("overflow while evaluating the equations of motion")
    return out


def eom(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """First-order equations of motion in natural coordinates.

    xidot is X_H[q].  The rapidity rate follows by the chain rule
    through the canonical pair: etadot_a = X_H[p_a] - sum_b
    (ds_a/dq_b) X_H[q_b].  The one-state case of ``_eom_arrays``.
    """
    out = _eom_arrays(state.xi, state.eta, params)
    return out[: params.n], out[params.n :]
