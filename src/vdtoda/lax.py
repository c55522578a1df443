"""Matrix constructions for the isospectral formulation of the chain.

All matrices live in dimension N = 2n.  Rows and columns 1..n form the
"+" block and n+1..2n the "-" block; the reversal matrix R (anti-diagonal
ones) embeds n x n data into the "-" block as R M R, which reverses both
index orders.  The grading by diagonals (band index k) is respected by
multiplication, conjugation by R flips the band sign, and conjugation by
the skew block matrix Omega = [[0, R], [-R, 0]] does the same on the big
space.  README "Matrix representation" lists what ``build_bundle``
assembles; every construction step acts matrix by matrix, so a state
gets the same bits alone or inside a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .core import CoordinateOverflowError, ModelParams, State
from .hamiltonian import (
    _check_size,
    _coord_arrays,
    _gamma_upsilon,
    _raise_first_failure,
    _xh_w_arrays,
)

__all__ = [
    "LaxBundle",
    "graded_part",
    "strict_lower",
    "strict_upper",
    "diag_part",
    "reversal",
    "build_omega",
    "omega_conjugate",
    "build_bundle",
    "hessenberg_parts",
]


def graded_part(M: np.ndarray, k: int) -> np.ndarray:
    """Band k of M (k = 0 diagonal, k > 0 above, k < 0 below).

    The bands partition the matrix: summing graded_part over all k
    reconstructs M exactly.  |k| >= dim yields the zero matrix.
    """
    M = np.asarray(M)
    dim = M.shape[0]
    if abs(int(k)) >= dim:
        return np.zeros_like(M)
    return np.diag(np.diag(M, int(k)), int(k))


def strict_lower(M: np.ndarray) -> np.ndarray:
    """Sum of all bands with k < 0."""
    return np.tril(np.asarray(M), -1)


def strict_upper(M: np.ndarray) -> np.ndarray:
    """Sum of all bands with k > 0."""
    return np.triu(np.asarray(M), 1)


def diag_part(M: np.ndarray) -> np.ndarray:
    """Band k = 0."""
    return np.diag(np.diag(np.asarray(M)))


def reversal(n: int) -> np.ndarray:
    """Anti-diagonal permutation matrix R; R = R^T = R^{-1}."""
    return np.eye(int(n))[::-1].copy()


def _rev(M: np.ndarray) -> np.ndarray:
    # R M R reverses both index orders; pure entry moves, bitwise exact.
    # A view: every caller assigns it into a block of an allocated array.
    return M[..., ::-1, ::-1]


def build_omega(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, R], [-R, 0]]; squares to -I."""
    n = int(n)
    R = reversal(n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = R
    out[n:, :n] = -R
    return out


def omega_conjugate(M: np.ndarray) -> np.ndarray:
    """Omega M Omega^{-1}, evaluated as exact entry moves and sign flips.

    For M = [[P, S], [T, V]] in n x n blocks the conjugate is
    [[R V R, -R T R], [-R S R, R P R]]; no floating arithmetic beyond
    negation is involved, so structural zeros are preserved bitwise.
    A stack of matrices (leading axes) is conjugated matrix by matrix.
    """
    M = np.asarray(M)
    N = M.shape[-1]
    if N % 2 or M.ndim < 2 or M.shape[-2] != N:
        raise ValueError("expected a square matrix of even dimension")
    n = N // 2
    out = np.empty_like(M)
    out[..., :n, :n] = _rev(M[..., n:, n:])
    out[..., :n, n:] = -_rev(M[..., n:, :n])
    out[..., n:, :n] = -_rev(M[..., :n, n:])
    out[..., n:, n:] = _rev(M[..., :n, :n])
    return out


@dataclass(frozen=True, eq=False)
class LaxBundle:
    """The arrays the residuals read, at one state or a stack of S.

    Every field is a read-only view of the array it was built from (no
    copies are made).  ``d`` and ``dcal`` are (2n,) vectors and the
    matrices (2n, 2n); ``xhw`` is X_H[W], with the subdiagonal pattern of
    W, and ``Lcal_inv`` the inverse Lax matrix through the exact Omega
    conjugation of Hcal.  The coordinates the matrices were built from
    follow: ``x`` and ``w`` (n,), ``delta``, ``gamma`` and ``upsilon``
    0-d, as in ``DerivedCoords``.  For a stack every field has a leading
    axis of length S.

    Construction checks that every field is finite (else
    ``CoordinateOverflowError``), then the invariants x, w > 0 and
    delta >= 1 of ``DerivedCoords`` (else ``ValueError``), raising for
    the earliest failing state its first failing check.
    """

    d: np.ndarray
    W: np.ndarray
    L: np.ndarray
    dcal: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Acal: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    Hcal: np.ndarray
    Lcal: np.ndarray
    Lcal_inv: np.ndarray
    Ycal: np.ndarray
    xhw: np.ndarray
    x: np.ndarray
    w: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    upsilon: np.ndarray

    def __post_init__(self) -> None:
        arrays = {name: np.asarray(getattr(self, name)).view() for name in _ARRAY_FIELDS}
        x, w, delta = arrays["x"], arrays["w"], arrays["delta"]
        finite = all(np.isfinite(a).all() for a in arrays.values())
        if not (finite and (x > 0.0).all() and (w > 0.0).all() and (delta >= 1.0).all()):

            def rows(ok):
                return ok.reshape(delta.size, -1).all(axis=1)

            checks = [
                (rows(np.isfinite(a)), CoordinateOverflowError, f"non-finite entries in {name}")
                for name, a in arrays.items()
            ]
            checks += [
                (rows(x > 0.0) & rows(w > 0.0), ValueError, "x and w entries must be positive"),
                (rows(delta >= 1.0), ValueError, "delta must be >= 1, got %s", delta.ravel()),
            ]
            _raise_first_failure(checks)
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


_ARRAY_FIELDS = tuple(f.name for f in fields(LaxBundle))


def _check_one_state(bundle: LaxBundle) -> None:
    # the functions of one state read its bundle as the S = 1 case
    if bundle.delta.ndim:
        raise ValueError(f"bundle holds a stack of {bundle.delta.size} states, not one state")


def _delta_power(delta: float | np.ndarray, c: float) -> float | np.ndarray:
    # delta >= 1 always; exp(c ln delta) keeps all fractional powers on
    # one evaluation route.
    return np.exp(c * np.log(delta))


def _w_subdiagonal(sw: np.ndarray) -> np.ndarray:
    # (sqrt(w_1) .. sqrt(w_{n-1}), sqrt(w_n), -sqrt(w_{n-1}) .. -sqrt(w_1))
    return np.concatenate([sw[..., :-1], sw[..., -1:], -sw[..., -2::-1]], axis=-1)


def _dcal_xhw(x, w, delta, gamma, xhw, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Flow derivatives of the factors of L, for a stack of states.

    dcal is the diagonal of Dcal = D^{-1} X_H[D]: the n entries beta d / 4
    of the "+" block, then their negated reversal.  XhW is
    X_H[W]: same subdiagonal pattern as W, populated with
    X_H[w_a^{1/2}] = X_H[w_a] / (2 w_a^{1/2}) from the rows ``xhw`` of X_H[w].
    """
    beta, kappa = params.beta, params.kappa
    v = (1.0 / x[:, :-1] + x[:, 1:]) * w[:, :-1]
    d = np.empty_like(x)
    d[:, 0] = v[:, 0]
    d[:, 1:-1] = v[:, 1:] - v[:, :-1]
    d[:, -2] += kappa * w[:, -2] * w[:, -1]
    d[:, -1] = (
        -v[:, -1]
        + 2.0 * w[:, -1] * delta / x[:, -1]
        + 4.0 * kappa * w[:, -1]
        + kappa * w[:, -2] * w[:, -1]
        + kappa * kappa * w[:, -1] * gamma
    )
    N = 2 * params.n
    XhW = np.zeros((x.shape[0], N, N))
    XhW[:, np.arange(1, N), np.arange(N - 1)] = _w_subdiagonal(0.5 * xhw / np.sqrt(w))
    plus = 0.25 * beta * d
    return np.concatenate([plus, -plus[:, ::-1]], axis=1), XhW


def _triad_blocks(x, w, delta, gamma, params: ModelParams):
    """phi, A, B and the corner bump of A for a stack of states."""
    beta, kappa, n = params.beta, params.kappa, params.n
    S, N = x.shape[0], 2 * n
    sw = np.sqrt(w)
    corner = kappa * w[:, -2] * w[:, -1]

    phi = np.empty_like(x)
    phi[:, 0] = x[:, 1] * w[:, 0] - x[:, 0] - 1.0 / x[:, 0]
    phi[:, 1:-1] = w[:, :-2] / x[:, :-2] + x[:, 2:] * w[:, 1:-1] - x[:, 1:-1] - 1.0 / x[:, 1:-1]
    phi[:, -2] += corner
    phi[:, -1] = w[:, -2] / x[:, -2] - x[:, -1] - (1.0 - w[:, -1]) * delta / x[:, -1] + corner
    phi *= 0.25 * beta

    psi = np.empty_like(x)
    psi[:, 0] = x[:, 0] + (1.0 - w[:, 0]) / x[:, 0]
    psi[:, 1:-1] = x[:, 1:-1] * (1.0 - w[:, :-2]) + (1.0 - w[:, 1:-1]) / x[:, 1:-1]
    psi[:, -1] = x[:, -1] * (1.0 - w[:, -2]) + (1.0 - w[:, -1]) * delta / x[:, -1] - 2.0 * corner
    psi *= -0.25 * beta

    # Corner correction shared by the diagonal blocks of A.
    bump = 0.5 * beta * kappa * w[:, -1] + 0.25 * beta * kappa * kappa * w[:, -1] * gamma
    half = 0.5 * beta
    i = np.arange(n - 1)
    j = np.arange(n - 2)

    A = np.zeros((S, N, N))
    App, Apm, Amp = A[:, :n, :n], A[:, :n, n:], A[:, n:, :n]
    App[:, i, i] = phi[:, :-1]
    App[:, -1, -1] = phi[:, -1] + bump
    App[:, i, i + 1] = half * sw[:, :-1] / x[:, :-1]
    App[:, i + 1, i] = -half * sw[:, :-1] * x[:, :-1]
    Amm = np.zeros((S, n, n))
    Amm[:, np.arange(n), np.arange(n)] = phi
    Amm[:, -1, -1] -= bump
    Amm[:, j, j + 1] = half * sw[:, :-2] / x[:, 1:-1]
    Amm[:, j + 1, j] = -half * sw[:, :-2] * x[:, 1:-1]
    Amm[:, -2, -1] = half * sw[:, -2] * delta / x[:, -1]
    Amm[:, -1, -2] = -half * sw[:, -2] * x[:, -1]
    A[:, n:, n:] = _rev(Amm)
    Apm[:, -1, 0] = half * sw[:, -1] * (delta / x[:, -1] + kappa * (1.0 + w[:, -2]))
    Apm[:, -1, 1] = half * kappa * sw[:, -2] * sw[:, -1]
    Amp[:, 0, -1] = -half * sw[:, -1] * (x[:, -1] + kappa * (1.0 + w[:, -1]))
    Amp[:, 1, -1] = half * kappa * sw[:, -2] * sw[:, -1]

    B = np.zeros((S, N, N))
    Bpp, Bpm = B[:, :n, :n], B[:, :n, n:]
    Bpp[:, np.arange(n), np.arange(n)] = psi
    Bpp[:, j, j + 1] = half * sw[:, :-2] / x[:, :-2]
    Bpp[:, j + 1, j] = -half * sw[:, :-2] * x[:, 1:-1]
    Bpp[:, -2, -1] = half * sw[:, -2] / x[:, -2]
    Bpp[:, -1, -2] = -half * sw[:, -2] * (x[:, -1] + kappa * w[:, -1])
    Bpm[:, -1, 0] = half * sw[:, -1] * (delta / x[:, -1] + kappa)
    Bpm[:, -1, 1] = half * kappa * sw[:, -2] * sw[:, -1]
    B[:, n:, :n] = -_rev(Bpm)
    B[:, n:, n:] = _rev(Bpp)

    return phi, A, B, bump


def _acal_explicit(x, w, delta, phi, bump, params: ModelParams) -> np.ndarray:
    """Acal from its displayed block entries (the D-conjugated triad blocks)."""
    beta, kappa, n = params.beta, params.kappa, params.n
    S, N = x.shape[0], 2 * n
    sx, sw = np.sqrt(x), np.sqrt(w)
    half = 0.5 * beta
    sup = half * sw[:, :-2] / (sx[:, :-2] * sx[:, 1:-1])
    sub = -half * sw[:, :-2] * sx[:, :-2] * sx[:, 1:-1]
    j = np.arange(n - 2)
    dp = {c: _delta_power(delta, c) for c in (-0.25, 0.25, 0.5, 0.75)}

    out = np.zeros((S, N, N))
    pp, pm, mp = out[:, :n, :n], out[:, :n, n:], out[:, n:, :n]
    pp[:, np.arange(n), np.arange(n)] = phi
    pp[:, -1, -1] += bump
    pp[:, j, j + 1] = sup
    pp[:, j + 1, j] = sub
    pp[:, -2, -1] = half * sw[:, -2] * dp[0.25] / (sx[:, -2] * sx[:, -1])
    pp[:, -1, -2] = -half * sw[:, -2] * sx[:, -2] * sx[:, -1] * dp[-0.25]

    mm = np.zeros((S, n, n))
    mm[:, np.arange(n), np.arange(n)] = phi
    mm[:, -1, -1] -= bump
    mm[:, j, j + 1] = sup
    mm[:, j + 1, j] = sub
    mm[:, -2, -1] = half * sw[:, -2] * dp[0.75] / (sx[:, -2] * sx[:, -1])
    mm[:, -1, -2] = -half * sw[:, -2] * sx[:, -2] * sx[:, -1] * dp[0.25]
    out[:, n:, n:] = _rev(mm)

    pm[:, -1, 0] = half * sw[:, -1] * dp[0.5] * (1.0 + kappa * x[:, -1] * (1.0 + w[:, -2]) / delta)
    pm[:, -1, 1] = half * kappa * sx[:, -2] * sx[:, -1] * sw[:, -2] * sw[:, -1] * dp[-0.25]
    mp[:, 0, -1] = -half * sw[:, -1] * dp[0.5] * (1.0 + kappa * (1.0 + w[:, -1]) / x[:, -1])
    mp[:, 1, -1] = half * kappa * sw[:, -2] * sw[:, -1] * dp[0.25] / (sx[:, -2] * sx[:, -1])
    return out


def _lax_chain(
    x: np.ndarray, w: np.ndarray, delta: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The factor chain d, W, L, g, Hcal, Lcal for a stack of S states.

    x and w are (S, n), delta is (S,).  Returns d, the diagonal of D, as
    (S, N) and the other five as (S, N, N).  Every step acts matrix by
    matrix, so a state gives the same bits alone or inside a stack.
    """
    kappa, n = params.kappa, params.n
    N = 2 * n
    S = x.shape[0]
    sw = np.sqrt(w)

    dn = np.sqrt(x)
    dn[:, -1] *= _delta_power(delta, -0.25)
    d = np.concatenate([dn, (1.0 / dn)[:, ::-1]], axis=1)

    W = np.zeros((S, N, N))
    W[:, np.arange(1, N), np.arange(N - 1)] = _w_subdiagonal(sw)
    L = d[:, :, None] * (np.eye(N) + W)

    g = np.zeros((S, N, N))
    g[:, np.arange(N), np.arange(N)] = 1.0
    g[:, n - 1, n - 1] = g[:, n, n] = _delta_power(delta, 0.5)
    g[:, n - 1, n] = g[:, n, n - 1] = kappa * sw[:, -1]

    # Omega L Omega^{-1} = D^{-1} (I - W^T) is upper bidiagonal, so Hcal
    # solves a triangular system; forward substitution leaves exact
    # zeros below the first subdiagonal.  LAPACK trtrs is called
    # directly: the scipy wrapper costs more than the solve.
    U = omega_conjugate(L)
    Hcal = np.empty_like(L)
    for k in range(S):
        HcalT, info = dtrtrs(U[k].T, L[k].T, lower=1)
        if info:
            raise np.linalg.LinAlgError(f"singular Omega conjugate of L at diagonal {info}")
        Hcal[k] = HcalT.T
    return d, W, L, g, Hcal, Hcal @ g


def build_bundle(
    state: State | tuple[np.ndarray, np.ndarray], params: ModelParams
) -> LaxBundle:
    """Assemble the Lax-side arrays at one state.

    ``state`` may also be a pair (xi, eta) of (S, n) arrays; the bundle
    then holds the stack of S states, each bitwise equal to its own
    one-state bundle.  The checks run once per stack, in the order one
    state meets them: the coordinate guards, the overflow of gamma and
    upsilon, then the checks of ``LaxBundle``.  A stack raises the error
    of the first check that fails, at its earliest failing state
    (``run_suite`` re-runs a failing block state by state).
    """
    one = isinstance(state, State)
    if one:
        q, th = state.xi[None], state.eta[None]
    else:
        q, th = (np.asarray(a, dtype=float) for a in state)
        if q.ndim != 2 or q.shape != th.shape:
            raise ValueError("a stack of states is a pair (xi, eta) of (S, n) arrays")
    _check_size(q.shape[1], params)
    _, _, x, w, delta = _coord_arrays(q, th, params)
    gamma, upsilon = _gamma_upsilon(x, w, delta)
    beta, n = params.beta, params.n

    # an inf or nan made here raises CoordinateOverflowError in LaxBundle
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, W, L, g, Hcal, Lcal = _lax_chain(x, w, delta, params)
        phi, A, B, bump = _triad_blocks(x, w, delta, gamma, params)
        Acal = _acal_explicit(x, w, delta, phi, bump, params)

        g_inv = g.copy()
        g_inv[:, n - 1, n] = g_inv[:, n, n - 1] = -g[:, n - 1, n]
        Lcal_inv = g_inv @ omega_conjugate(Hcal)

        xhw = _xh_w_arrays(x, w, delta, upsilon, params)[0]
        dcal, XhW = _dcal_xhw(x, w, delta, gamma, xhw, params)

        Ycal = 0.5 * beta * (Lcal - Lcal_inv)
    # positional, in the order of the fields
    arrays = (d, W, L, dcal, A, B, Acal, g, g_inv, Hcal, Lcal, Lcal_inv, Ycal, XhW)
    arrays += (x, w, delta, gamma, upsilon)
    return LaxBundle(*(a[0] if one else a for a in arrays))


def hessenberg_parts(
    state: State, params: ModelParams, bundle: LaxBundle | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form bands -1, 0, 1 of the Hessenberg factor Hcal.

    With T = I + W W^T (diagonal, entries 1 and 1 + w), the bands are
    D W D, D T D and D T W^T D: ``graded_part`` -1, 0 and 1 of Hcal.
    """
    _check_size(state.n, params)
    if bundle is None:
        bundle = build_bundle(state, params)
    _check_one_state(bundle)
    d = bundle.d
    sub = np.diag(bundle.W, -1)
    t = np.ones(d.shape[0])
    t[1:] += sub * sub

    H_m1 = d[:, None] * bundle.W * d[None, :]
    H_0 = np.diag(d * t * d)
    H_1 = np.diag(d[:-1] * t[:-1] * sub * d[1:], 1)
    return H_m1, H_0, H_1
