"""Energy function and equations of motion for the deformed chain.

Each quantity has one kernel on (S, n) stacks of positions and
rapidities, and the public functions of one ``State`` are its S = 1
case; README "The model", "Verification suite" and "Trajectories" say
which routes exist and where their second routes are checked.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    CoordinateOverflowError,
    CoordinateUnderflowError,
    ModelParams,
    State,
)

__all__ = [
    "DerivedCoords",
    "derived_coords",
    "to_canonical",
    "from_canonical",
    "hamiltonian",
    "nonrel_hamiltonian",
    "xh_q",
    "xh_w",
    "eom",
]

_OVERFLOW = "overflow while evaluating "
_PAIR_OVERFLOW = _OVERFLOW + "mu^2 e^{-r}"


def _exp_arg_checked(t: np.ndarray | float, what: str) -> np.ndarray:
    """exp(t) with overflow turned into a diagnostic error."""
    with np.errstate(over="ignore"):
        out = np.exp(t)
    if not np.all(np.isfinite(out)):
        raise CoordinateOverflowError(_OVERFLOW + what)
    return out


def _first_failure(checks) -> tuple[int, tuple] | None:
    """(row, check): the earliest failing row of a stack and the first check it fails.

    ``checks`` holds tuples that start with a boolean per row, in the
    order a one-row evaluation meets them; None if every row passes.
    """
    first = None
    for check in checks:
        if not check[0].all():
            row = int(np.argmin(check[0]))
            if first is None or row < first[0]:
                first = (row, check)
    return first


def _raise_first_failure(checks) -> None:
    """Raise ``_first_failure`` of (ok, error type, message, *value arrays) checks.

    The message is %-formatted with the values at the failing row.
    """
    first = _first_failure(checks)
    if first is not None:
        row, (_, kind, message, *values) = first
        raise kind(message % tuple(v[row] for v in values))


def _pair_terms(
    q: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """z = mu^2 e^{-r} of every pair factor for a stack of positions (S, n).

    Returns z at the chain separations (mu = beta, shape (S, n-1)), z at
    the wall 2 q_n for mu = beta and for mu = kappa beta (each (S,)), and
    per row whether all of them stayed finite.  Each z is evaluated in log
    space, all in one exponential; overflow is reported, not raised.
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
    # ln sqrt(1 + z) = (1/2) ln(1 + z); log1p keeps full accuracy for tiny z.
    s = np.empty_like(q)
    with np.errstate(over="ignore", invalid="ignore"):
        lf = 0.5 * np.log1p(zs)
        s[:, 0] = lf[:, 0]
        s[:, 1:-1] = lf[:, 1:] - lf[:, :-1]
        s[:, -1] = -lf[:, -1] + 0.5 * np.log1p(zb) + 0.5 * np.log1p(zk)
        s /= params.beta
    return s, ok


def _check_size(n: int, params: ModelParams) -> None:
    if n != params.n:
        raise ValueError("state size does not match params.n")


def _s_vector(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Generating shift s(q) relating rapidities to canonical momenta."""
    _check_size(len(q), params)
    s, ok = _s_arrays(q[None], params)
    if not ok[0]:
        raise CoordinateOverflowError(_PAIR_OVERFLOW)
    return s[0]


@dataclass(frozen=True, eq=False)
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
        vectors = {name: np.array(getattr(self, name), dtype=float) for name in "spxw"}
        for name, arr in vectors.items():
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a finite vector")
        for name, arr in vectors.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a finite vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not ((self.x > 0.0).all() and (self.w > 0.0).all()):
            raise ValueError("x and w entries must be positive")
        if not self.delta >= 1.0:
            raise ValueError(f"delta must be >= 1, got {self.delta}")


def _coord_arrays(
    q: np.ndarray, th: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s, p, x, w, delta) for a stack of states: q and th are (S, n).

    The one evaluation route of these coordinates; ``derived_coords`` is
    its S = 1 case.  x and w (after the beta^2 factor) are checked for
    overflow once per stack, and for positivity.  A failure raises the
    error of the earliest failing state, as evaluating the states one by
    one would: ``CoordinateOverflowError`` for an overflow,
    ``CoordinateUnderflowError`` for an x or w that underflowed to 0.

    Past these guards the invariants of ``DerivedCoords`` hold: x and w
    are finite and positive; x = e^{beta p} finite and positive makes p,
    hence s = p - theta, finite; and delta = 1 + kappa^2 w_n >= 1.
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
        xw[:, n:] *= beta * beta
        finite = np.isfinite(xw)
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


def _gamma_upsilon(x, w, delta) -> tuple[np.ndarray, np.ndarray]:
    """gamma and upsilon (S,) of a stack, from x, w (S, n) and delta (S,).

    An overflow raises ``CoordinateOverflowError`` for the earliest such
    state.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half_minus = x[:, -1] * (1.0 + w[:, -2]) / delta
        half_plus = (1.0 + w[:, -1]) / x[:, -1]
        gamma, upsilon = half_minus + half_plus, -half_minus + half_plus
    ok = np.isfinite(gamma) & np.isfinite(upsilon)
    _raise_first_failure([(ok, CoordinateOverflowError, _OVERFLOW + "gamma and upsilon")])
    return gamma, upsilon


def derived_coords(state: State, params: ModelParams) -> DerivedCoords:
    """Compute (s, p, x, w, delta, gamma, upsilon) at one state.

    A gamma or upsilon that overflows raises ``CoordinateOverflowError``.
    """
    _check_size(state.n, params)
    s, p, x, w, delta = _coord_arrays(state.xi[None], state.eta[None], params)
    gamma, upsilon = _gamma_upsilon(x, w, delta)
    return DerivedCoords(s[0], p[0], x[0], w[0], delta[0], gamma[0], upsilon[0])


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
    case, and a state gets its bits in any stack, whatever its memory
    layout.  Each exponential and the result are checked once per stack;
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
        # the order of a row's sum follows the operands' strides; C rows give
        # every state the bits of the one-state call
        c = np.ascontiguousarray(np.cosh(beta * th))
        H = np.vecdot(c, np.ascontiguousarray(F)) + (kappa * wn + 0.5 * kappa * wn1 * wn)
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
    _check_size(state.n, params)
    return float(_energy_arrays(state.xi[None], state.eta[None], params)[0])


def nonrel_hamiltonian(state: State, params: ModelParams) -> float:
    """Non-relativistic limit energy: (H - n)/beta^2 as beta -> 0."""
    _check_size(state.n, params)
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


def xh_q(state: State, params: ModelParams) -> np.ndarray:
    """Position components of the Hamiltonian vector field.

    The hyperbolic form beta sinh(beta theta_a) F_a(q), which vanishes
    exactly at rest.  The coordinates are derived first, for their
    guards.  Its agreement with the Laurent form in (x, w, delta) is the
    ``xh_q_forms`` residual of the verification suite.
    """
    derived_coords(state, params)
    return _xh_q_theta(state.xi[None], state.eta[None], params)[0]


def _xh_w_arrays(x, w, delta, upsilon, params: ModelParams):
    """X_H[w] for a stack from the Laurent expressions, and its term magnitudes.

    x and w are (S, n), delta and upsilon (S,).  Returns the rates and,
    entry by entry, the sum of the magnitudes of the terms each rate is
    built from, both (S, n).  ``xh_w`` is the S = 1 case.
    """
    beta = params.beta
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
    # keep, lose, push and both halves of delta upsilon are positive, so
    # their sums are the term magnitudes
    terms = np.empty_like(w)
    terms[:, :-1] = half_w * (keep + lose + push)
    terms[:, -1] = beta * w[:, -1] * (x[:, -1] * (1.0 + w[:, -2]) + push[:, -1])
    return out, terms


def xh_w(state: State, params: ModelParams) -> np.ndarray:
    """Time derivatives of the w variables along the flow.

    Evaluated from the explicit Laurent expressions; the last entry is
    X_H[w_n] = beta w_n delta upsilon, which also fixes X_H[delta] =
    beta kappa^2 w_n delta upsilon.  The ``xh_w_composition`` residual of
    the verification suite checks them against the chain rule through
    the positions:

        X_H[w_a] = w_a (X_H[q_{a+1}] - X_H[q_a])   for a < n,
        X_H[w_n] = -2 w_n X_H[q_n].

    An entry that overflows raises ``CoordinateOverflowError``.
    """
    c = derived_coords(state, params)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = _xh_w_arrays(c.x[None], c.w[None], c.delta, c.upsilon, params)[0][0]
    if not np.isfinite(rates).all():
        raise CoordinateOverflowError(_OVERFLOW + "X_H[w]")
    return rates


def _eom_work(params: ModelParams) -> Callable[..., np.ndarray]:
    """The kernel ``rhs(q, th, out)`` of ``_eom_arrays`` for ``params``.

    It writes every intermediate into scratch arrays it closes over, each
    allocated on its own, and every entry before reading it, so no call
    sees another's values, not even one that raised.  Its constants are
    0-d arrays, which a ufunc takes faster than Python floats, with the
    same bits.

    x and beta F come from one exponential of the stacked logs

        beta theta_a + (l_a - l_{a-1}) / 2,    (l_a + l_{a-1}) / 2 + ln beta,

    with l = log1p(w), l_0 = 0 and the kappa-wall term log1p(kappa^2 w_n) / 2
    added to both at a = n; xidot is then sinh(beta theta) beta F, exactly 0
    at rest.
    """
    n, beta, kappa = params.n, params.beta, params.kappa
    w, bt = np.empty(n), np.empty(n)
    # l_0 = 0 stays in slot 0; the logs become (x, beta F) in place
    ell, logs = np.zeros(n + 1), np.empty(2 * n)
    flux, jac, coef, zeros = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1), np.zeros(2 * n)
    w_head, ell_a, ell_prev = w[:-1], ell[1:], ell[:-1]
    x, bF = logs[:n], logs[n:]
    x_head, x_tail = x[:-1], x[1:]
    flux_head, flux_mid = flux[:-2], flux[1:-1]
    beta_arr, beta2_arr, log_beta = map(np.array, (beta, beta * beta, math.log(beta)))
    half, one, two_beta = map(np.array, (0.5, 1.0, 2.0 * beta))
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    exp, log1p, sinh = np.exp, np.log1p, np.sinh

    def rhs(q: np.ndarray, th: np.ndarray, out: np.ndarray) -> np.ndarray:
        qdot, etadot = out[:n], out[n:]
        # w_a = beta^2 e^{-d_a} (a < n) and w_n = beta^2 e^{-2 q_n}
        subtract(q[1:], q[:-1], w_head)
        w[-1] = -2.0 * q[-1]
        exp(w, w)
        multiply(w, beta2_arr, w)
        ws = w.tolist()
        w_n1, w_n = ws[-2:]
        wk = kappa * kappa * w_n
        # l_a / 2 = ln f_a; beta s_a = ln f_a - ln f_{a-1} and
        # ln(beta F_a) = ln f_a + ln f_{a-1} + ln beta, both boundary factors at n
        log1p(w, ell_a)
        multiply(ell, half, ell)
        multiply(th, beta_arr, bt)
        subtract(ell_a, ell_prev, x)
        add(x, bt, x)
        add(ell_a, ell_prev, bF)
        add(bF, log_beta, bF)
        wall = 0.5 * math.log1p(wk)
        x[-1] += wall
        bF[-1] += wall
        exp(logs, logs)
        # xidot_a = beta sinh(beta theta_a) F_a
        sinh(bt, qdot)
        multiply(qdot, bF, qdot)
        # edge flux: X_H[p] part (1/x_c + x_{c+1}) w_c / 2 minus the Jacobian
        # part g_c (qdot_c - qdot_{c+1}) / beta, g = d/dr ln f = -w / (2 (1 + w))
        divide(one, x_head, flux)
        add(flux, x_tail, flux)
        multiply(flux, half, flux)
        multiply(flux, w_head, flux)
        add(w_head, one, coef)
        multiply(coef, two_beta, coef)
        divide(w_head, coef, coef)
        subtract(qdot[:-1], qdot[1:], jac)
        multiply(jac, coef, jac)
        add(flux, jac, flux)
        etadot[0] = flux[0]
        subtract(flux_mid, flux_head, etadot[1:-2])
        flux_n2, flux_n1 = flux[-2:].tolist()
        g_n = -w_n / (2.0 * (1.0 + w_n))
        gk = -wk / (2.0 * (1.0 + wk))
        corner = 0.5 * kappa * w_n1 * w_n
        etadot[-2] = flux_n1 - flux_n2 + corner
        # divided as NumPy scalars: w_n / 0 is inf, not ZeroDivisionError
        etadot[-1] = (
            -flux_n1
            + float(w_n / x[-1]) * (1.0 + kappa * kappa * (1.0 + 2.0 * w_n))
            + 2.0 * kappa * w_n
            + corner
            - 2.0 * (g_n + gk) * float(qdot[-1]) / beta
        )
        # 0 v is nan where v is inf or nan and 0 elsewhere, so this sum is 0
        # exactly when the output is finite; a weight that underflowed to 0
        # leaves the output finite
        if out.dot(zeros) != 0.0:
            raise CoordinateOverflowError("overflow while evaluating the equations of motion")
        if 0.0 in ws:
            raise CoordinateUnderflowError("x and w entries must be positive")
        return out

    return rhs


def _eom_arrays(
    q: np.ndarray,
    th: np.ndarray,
    params: ModelParams,
    out: np.ndarray | None = None,
    work: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """Flat-vector right-hand side (xidot, etadot) for ODE integration.

    ``eom`` is its one-state form.  The result is written into ``out`` (a
    fresh array if None) and returned.  ``work`` is a kernel from
    ``_eom_work(params)``, called as ``work(q, th, out)`` inside an
    ``np.errstate`` that ignores over, invalid and divide, so a caller
    that reuses one kernel allocates its scratch once; with ``work`` None
    the call builds one and enters that errstate itself, with the same
    bits.  An output that is not finite raises ``CoordinateOverflowError``,
    and a weight w_a that underflowed to 0 ``CoordinateUnderflowError``,
    after ``out`` is written in full.  README "Trajectories" describes
    the kernel.
    """
    if out is None:
        out = np.empty(2 * q.shape[0])
    if work is None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _eom_work(params)(q, th, out)
    return work(q, th, out)


def eom(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """First-order equations of motion in natural coordinates.

    xidot is X_H[q].  The rapidity rate follows by the chain rule
    through the canonical pair: etadot_a = X_H[p_a] - sum_b
    (ds_a/dq_b) X_H[q_b].  The one-state case of ``_eom_arrays``.
    """
    _check_size(state.n, params)
    out = _eom_arrays(state.xi, state.eta, params)
    return out[: params.n], out[params.n :]
