"""Matrix constructions for the isospectral formulation of the chain.

All matrices live in dimension N = 2n.  Rows and columns 1..n form the
"+" block and n+1..2n the "-" block; the reversal matrix R (anti-diagonal
ones) embeds n x n data into the "-" block as R M R, which reverses both
index orders.  The grading by diagonals (band index k) is respected by
multiplication, conjugation by R flips the band sign, and conjugation by
the skew block matrix Omega = [[0, R], [-R, 0]] does the same on the big
space.  README "Matrix representation" lists what ``build_bundle``
assembles; every construction step acts matrix by matrix, so a state
gets the same bits alone or inside a stack.  Hcal = L (Omega L
Omega^{-1})^{-1} is built from its closed form in NumPy: the module
calls no LAPACK routine and does not import ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from itertools import chain

import numpy as np

from .core import CoordinateOverflowError, ModelParams, State
from .hamiltonian import _coord_arrays, _gamma_upsilon, _raise_first_failure, _rows, _xh_w_arrays

__all__ = [
    "LaxBundle",
    "graded_part",
    "strict_lower",
    "strict_upper",
    "reversal",
    "build_omega",
    "omega_conjugate",
    "build_bundle",
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


# np.tri, made once per call signature: the masks of the strict parts
_tri = cache(np.tri)


def strict_lower(M: np.ndarray) -> np.ndarray:
    """Sum of all bands with k < 0: np.tril(M, -1)."""
    M = np.asarray(M)
    return np.where(_tri(*M.shape[-2:], k=-1, dtype=bool), M, M.dtype.type(0))


def strict_upper(M: np.ndarray) -> np.ndarray:
    """Sum of all bands with k > 0: np.triu(M, 1)."""
    M = np.asarray(M)
    return np.where(_tri(*M.shape[-2:], k=0, dtype=bool), M.dtype.type(0), M)


def reversal(n: int) -> np.ndarray:
    """Anti-diagonal permutation matrix R; R = R^T = R^{-1}."""
    return np.eye(int(n))[::-1].copy()


def _rev(M: np.ndarray) -> np.ndarray:
    # R M R reverses both index orders; pure entry moves, bitwise exact.
    # A view: every caller assigns it into a block of an allocated array.
    return M[..., ::-1, ::-1]


def _diagonal(M: np.ndarray, i: int, j: int, length: int) -> np.ndarray:
    """The writable view M[:, i + t, j + t], t < length, of a C-contiguous (S, N, N) M.

    A strided slice of the flattened matrices: writing through it costs
    less than a write through index arrays, and moves the same entries.
    """
    N = M.shape[-1]
    start = i * N + j
    return M.reshape(M.shape[0], -1)[:, start : start + length * (N + 1) : N + 1]


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
    np.negative(_rev(M[..., n:, :n]), out=out[..., :n, n:])
    np.negative(_rev(M[..., :n, n:]), out=out[..., n:, :n])
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
        # one pass per field, each mask freed before the next is made
        oks = chain(map(np.isfinite, arrays.values()), (x > 0.0, w > 0.0, delta >= 1.0))
        if not all(np.logical_and.reduce(ok, axis=None) for ok in oks):

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
    _diagonal(XhW, 1, 0, N - 1)[...] = _w_subdiagonal(0.5 * xhw / np.sqrt(w))
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

    A = np.zeros((S, N, N))
    App, Apm, Amp = A[:, :n, :n], A[:, :n, n:], A[:, n:, :n]
    _diagonal(A, 0, 0, n - 1)[...] = phi[:, :-1]
    App[:, -1, -1] = phi[:, -1] + bump
    _diagonal(A, 0, 1, n - 1)[...] = half * sw[:, :-1] / x[:, :-1]
    _diagonal(A, 1, 0, n - 1)[...] = -half * sw[:, :-1] * x[:, :-1]
    Amm = np.zeros((S, n, n))
    _diagonal(Amm, 0, 0, n)[...] = phi
    Amm[:, -1, -1] -= bump
    _diagonal(Amm, 0, 1, n - 2)[...] = half * sw[:, :-2] / x[:, 1:-1]
    _diagonal(Amm, 1, 0, n - 2)[...] = -half * sw[:, :-2] * x[:, 1:-1]
    Amm[:, -2, -1] = half * sw[:, -2] * delta / x[:, -1]
    Amm[:, -1, -2] = -half * sw[:, -2] * x[:, -1]
    A[:, n:, n:] = _rev(Amm)
    Apm[:, -1, 0] = half * sw[:, -1] * (delta / x[:, -1] + kappa * (1.0 + w[:, -2]))
    Apm[:, -1, 1] = half * kappa * sw[:, -2] * sw[:, -1]
    Amp[:, 0, -1] = -half * sw[:, -1] * (x[:, -1] + kappa * (1.0 + w[:, -1]))
    Amp[:, 1, -1] = half * kappa * sw[:, -2] * sw[:, -1]

    B = np.zeros((S, N, N))
    Bpp, Bpm = B[:, :n, :n], B[:, :n, n:]
    _diagonal(B, 0, 0, n)[...] = psi
    _diagonal(B, 0, 1, n - 2)[...] = half * sw[:, :-2] / x[:, :-2]
    _diagonal(B, 1, 0, n - 2)[...] = -half * sw[:, :-2] * x[:, 1:-1]
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
    dp = {c: _delta_power(delta, c) for c in (-0.25, 0.25, 0.5, 0.75)}

    out = np.zeros((S, N, N))
    pp, pm, mp = out[:, :n, :n], out[:, :n, n:], out[:, n:, :n]
    _diagonal(out, 0, 0, n)[...] = phi
    pp[:, -1, -1] += bump
    _diagonal(out, 0, 1, n - 2)[...] = sup
    _diagonal(out, 1, 0, n - 2)[...] = sub
    pp[:, -2, -1] = half * sw[:, -2] * dp[0.25] / (sx[:, -2] * sx[:, -1])
    pp[:, -1, -2] = -half * sw[:, -2] * sx[:, -2] * sx[:, -1] * dp[-0.25]

    mm = np.zeros((S, n, n))
    _diagonal(mm, 0, 0, n)[...] = phi
    mm[:, -1, -1] -= bump
    _diagonal(mm, 0, 1, n - 2)[...] = sup
    _diagonal(mm, 1, 0, n - 2)[...] = sub
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
    s = _w_subdiagonal(sw)
    _diagonal(W, 1, 0, N - 1)[...] = s
    L = d[:, :, None] * (np.eye(N) + W)

    g = np.zeros((S, N, N))
    _diagonal(g, 0, 0, N)[...] = 1.0
    g[:, n - 1, n - 1] = g[:, n, n] = _delta_power(delta, 0.5)
    g[:, n - 1, n] = g[:, n, n - 1] = kappa * sw[:, -1]

    # Hcal = L (Omega L Omega^{-1})^{-1} = D (I + W) (I - W^T)^{-1} D, in
    # closed form D (T P + W) D: T = I + W W^T is diagonal, (1, 1 + s^2) for
    # the subdiagonal s of W, and P = (I - W^T)^{-1} has the entries
    # s_i .. s_{j-1} for j >= i, one running product along each row.  T P
    # is upper and W strictly lower, so Hcal is exactly zero below its
    # first subdiagonal.  Nothing is divided, so no input is singular; an
    # overflow is left to the checks of LaxBundle.
    s = np.concatenate([np.zeros((S, 1)), s], axis=1)  # s_{j-1} in column j > 0
    Hcal = np.where(_tri(N, N, k=0, dtype=bool), 1.0, s[:, None, :])
    np.cumprod(Hcal, axis=-1, out=Hcal)
    t = s * s
    t += 1.0
    Hcal *= t[:, :, None]
    np.copyto(Hcal, W, where=_tri(N, N, k=-1, dtype=bool))
    Hcal *= d[:, :, None]
    Hcal *= d[:, None, :]
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
    q, th, one = _rows(state, params)
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

