"""Residual checks for the matrix identities satisfied along the flow.

Each operation evaluates one proven identity and reports the largest
absolute deviation together with the magnitude of the terms it was
built from.  A residual passes when

    max_abs <= tol * max(1, rel_scale),

which stays meaningful both near zero (the floor of 1) and where matrix
entries grow exponentially with the momenta (the scale).

Every identity is one kernel over a stack of states, and the public
functions are its S = 1 case: a state gives the same bits alone or
inside a stack, and ``run_suite`` raises what evaluating its states one
by one would.  A second route that disagrees is a failed report, not an
error.  ``perturb`` corrupts one matrix entry first, as an anti-vacuity
control: a residual that stays small under a 1e-3 corruption tests
nothing.  README "Verification suite" gives the blocks, the residuals
and the names that ``perturb`` takes.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .core import ModelParams, State
from .hamiltonian import _check_size, _xh_q_theta, _xh_w_arrays, hamiltonian
from .lax import (
    _ARRAY_FIELDS,
    LaxBundle,
    _delta_power,
    build_bundle,
    omega_conjugate,
    strict_lower,
    strict_upper,
)

__all__ = [
    "ResidualReport",
    "lax_triad_residual",
    "lax_equation_residual",
    "omega_relations_residual",
    "band_relations_residual",
    "scalar_identities",
    "run_suite",
    "reports_to_jsonl",
]

# Default tolerances per identity; scale-relative as described above.
TOL_TRIAD = 1e-10
TOL_LAX_EQUATION = 1e-9
TOL_OMEGA_GAUGE = 1e-10
TOL_OMEGA_B = 1e-13
TOL_BAND = 1e-11
TOL_TRACE = 1e-12
TOL_DIAGONAL = 1e-11
TOL_ACAL_ROUTES = 1e-12
TOL_XH_Q_FORMS = 1e-11
TOL_XH_W_COMPOSITION = 1e-12
TOL_GAMMA_UPSILON = 1e-12

# States per stacked evaluation in ``run_suite``: its working set, at peak
# about seventeen (2n, 2n) matrices per state, stays bounded for any num_states.
_SUITE_BLOCK = 64

# The matrices ``perturb`` names: those the residuals read.  D and Dcal
# are the bundle's diagonals d and dcal.
_MATRIX_FIELDS = ("D", "W", "L", "Dcal", "A", "B", "Acal", "g", "g_inv", "Hcal", "Lcal",
                  "Lcal_inv", "xhw")
_DIAGONALS = {"D": "d", "Dcal": "dcal"}
_READ_FIELDS = tuple(name for name in _ARRAY_FIELDS if name != "Ycal")


class ResidualReport(NamedTuple):
    """Outcome of one identity check at one state (an immutable record)."""

    name: str
    max_abs: float
    rel_scale: float
    tol: float
    n: int | None = None
    beta: float | None = None
    kappa: float | None = None
    seed: int | None = None
    state_index: int | None = None
    blocks: dict | None = None

    @property
    def passed(self) -> bool:
        return bool(self.max_abs <= self.tol * max(1.0, self.rel_scale))

    @property
    def margin(self) -> float:
        """max_abs over the bar it must stay under: at most 1 exactly when passed."""
        return self.max_abs / (self.tol * max(1.0, self.rel_scale))


_BLOCKS = ("pp", "pm", "mp", "mm")


def _inputs(bundle: LaxBundle, q, th, params: ModelParams, perturb) -> dict[str, np.ndarray]:
    """Everything the kernels read, stacked over S states, by name.

    The fields of ``bundle`` (one state or a stack) the residuals use,
    with ``perturb``'s entry corrupted in every state; and q, th and
    their position velocities qdot (S, n).
    """
    m = {name: getattr(bundle, name) for name in _READ_FIELDS}
    if bundle.L.ndim == 2:
        m = {name: M[None] for name, M in m.items()}
    if perturb is not None:
        name, i, j, amount = perturb
        if name not in _MATRIX_FIELDS:
            raise ValueError(f"unknown matrix {name!r}; choose from {_MATRIX_FIELDS}")
        # (i, j) indexes (and fails) as in one matrix
        N = m["L"].shape[-1]
        i, j = divmod(int(np.arange(N * N).reshape(N, N)[int(i), int(j)]), N)
        if name in _DIAGONALS:
            if i != j:
                raise ValueError(f"{name} is diagonal; entry ({i}, {j}) is off its diagonal")
            d = m[_DIAGONALS[name]] = m[_DIAGONALS[name]].copy()
            d[:, i] += float(amount)
        else:
            M = m[name] = m[name].copy()
            M[:, i, j] += float(amount)
    m.update(q=q, th=th, qdot=_xh_q_theta(q, th, params))
    return m


def _amax(M: np.ndarray) -> np.ndarray:
    """max |M| of each state: over every axis but the first."""
    return np.maximum.reduce(np.abs(M), axis=tuple(range(1, M.ndim)))


def _xh_of_L(m: dict[str, np.ndarray]) -> np.ndarray:
    # Leibniz rule on L = D (I + W):  X_H[L] = D (Dcal (I + W) + X_H[W]).
    eye = np.eye(m["L"].shape[-1])
    return m["d"][:, :, None] * (m["dcal"][:, :, None] * (eye + m["W"]) + m["xhw"])


def _block_maxima(M: np.ndarray) -> np.ndarray:
    """max |.| of the pp, pm, mp and mm blocks of each state, as (S, 4)."""
    S, n = M.shape[0], M.shape[-1] // 2
    return np.maximum.reduce(np.abs(M).reshape(S, 2, n, 2, n), axis=(2, 4)).reshape(S, 4)


def _gauge_rate(m: dict[str, np.ndarray], params: ModelParams) -> np.ndarray:
    """X_H[g] g^{-1}: two symmetric entries astride the block boundary."""
    n = params.n
    out = np.zeros((m["w"].shape[0], 2 * n, 2 * n))
    c = (
        0.5
        * params.beta
        * params.kappa
        * np.sqrt(m["w"][:, -1])
        * _delta_power(m["delta"], 0.5)
        * m["upsilon"]
    )
    out[:, n - 1, n] = out[:, n, n - 1] = c
    return out


# Each kernel takes the inputs of S states and returns its residuals as
# (name, tol, max_abs, rel_scale, blocks) columns: arrays over the
# states, blocks (S, 4) or None.  A kernel drops or overwrites each
# (S, N, N) temporary once it is read, since a block's peak memory is the
# bundle plus the live temporaries of one kernel.


def _residual(lhs, grow, shrink) -> tuple[np.ndarray, np.ndarray]:
    """lhs - grow + shrink, computed in place in lhs, and its term scale."""
    scale = np.maximum(np.maximum(_amax(lhs), _amax(grow)), _amax(shrink))
    lhs -= grow
    lhs += shrink
    return lhs, scale


def _triad(m, params: ModelParams) -> list:
    resid, scale = _residual(_xh_of_L(m), m["Acal"] @ m["L"], m["L"] @ m["B"])
    blocks = _block_maxima(resid / m["d"][:, :, None])
    return [("lax_triad", TOL_TRIAD, _amax(resid), scale, blocks)]


def _xh_hcal(m) -> np.ndarray:
    """X_H[Hcal] by the product rule through Hcal = L (Omega L Omega^{-1})^{-1}."""
    L = m["L"]
    xl = _xh_of_L(m)
    L_inv = np.linalg.solve(L, np.eye(L.shape[-1]))
    out = xl @ omega_conjugate(L_inv)
    inner = L_inv @ xl
    del xl
    inner = inner @ L_inv
    del L_inv
    out -= L @ omega_conjugate(inner)
    return out


def _lax_equation(m, params: ModelParams) -> list:
    g, Acal, Lcal = m["g"], m["Acal"], m["Lcal"]
    lhs = _xh_hcal(m) @ g
    lhs += m["Hcal"] @ (_gauge_rate(m, params) @ g)
    resid, scale = _residual(lhs, Acal @ Lcal, Lcal @ Acal)
    return [("lax_equation", TOL_LAX_EQUATION, _amax(resid), scale, None)]


def _omega(m, params: ModelParams) -> list:
    twisted = m["g"] @ m["Acal"] @ m["g_inv"]
    twisted += _gauge_rate(m, params)
    lam = omega_conjugate(m["Acal"])
    scale = np.maximum(_amax(lam), _amax(twisted))
    lam -= twisted
    del twisted
    diff = omega_conjugate(m["B"])
    diff -= m["B"]
    return [
        ("omega_acal_gauge", TOL_OMEGA_GAUGE, _amax(lam), scale, _block_maxima(lam)),
        ("omega_b_symmetry", TOL_OMEGA_B, _amax(diff), _amax(m["B"]), None),
    ]


def _band(m, params: ModelParams) -> list:
    half_beta = 0.5 * params.beta
    out = []
    acal_scale = _amax(m["Acal"])
    for name, inner, part in (
        ("band_lower", m["Lcal"], strict_lower),
        ("band_upper", m["Lcal_inv"], strict_upper),
    ):
        term = half_beta * inner
        scale = np.maximum(acal_scale, _amax(term))
        term += m["Acal"]
        out.append((name, TOL_BAND, _amax(part(term)), scale, None))
    return out


def _scalar(m, params: ModelParams) -> list:
    H = hamiltonian((m["q"], m["th"]), params)
    half_trace = 0.5 * np.trace(m["Lcal"], axis1=1, axis2=2)
    dvec = 0.5 * params.beta * np.diagonal(m["Lcal"] - m["Lcal_inv"], axis1=1, axis2=2)
    ref = np.concatenate([m["qdot"], -m["qdot"][:, ::-1]], axis=1)
    scale = np.maximum(_amax(dvec), _amax(ref))
    return [
        ("trace_energy", TOL_TRACE, np.abs(half_trace - H), np.abs(H), None),
        ("diagonal_velocity", TOL_DIAGONAL, _amax(dvec - ref), scale, None),
    ]


def _cross(m, params: ModelParams) -> list:
    x, w, delta, gamma, upsilon = (m[k] for k in ("x", "w", "delta", "gamma", "upsilon"))
    half = 0.5 * params.beta
    acal_gap = _amax(m["Acal"] - (m["d"][:, :, None] / m["d"][:, None, :]) * m["A"])
    # Laurent form X_H[q_a] = (beta/2)(gain_a - loss_a), gain and loss positive
    gain = x * (1.0 + np.concatenate([np.zeros_like(w[:, :1]), w[:, :-1]], axis=1))
    loss = (1.0 + w) / x
    loss[:, -1] *= delta
    xh_q_gap = _amax(m["qdot"] - half * (gain - loss))
    # X_H[w_a] = w_a (X_H[q_{a+1}] - X_H[q_a]) with the mirror image
    # q_{n+1} = -q_n, scaled by the terms: the rates cancel to 0 at rest
    ext = np.concatenate([m["qdot"], -m["qdot"][:, -1:]], axis=1)
    composed = w * (ext[:, 1:] - ext[:, :-1])
    spread = w * (np.abs(ext[:, 1:]) + np.abs(ext[:, :-1]))
    laurent = 2.0 * np.sqrt(w) * np.diagonal(m["xhw"], -1, axis1=1, axis2=2)[:, : params.n]
    terms = _xh_w_arrays(x, w, delta, upsilon, params)[1]
    xh_w_gap, xh_w_scale = _amax(laurent - composed), np.maximum(_amax(terms), _amax(spread))
    # gamma + upsilon and gamma - upsilon against their defining combinations
    plus = 2.0 / x[:, -1] * (1.0 + w[:, -1])
    minus = 2.0 * x[:, -1] * (1.0 + w[:, -2]) / delta
    gu_gap = np.maximum(np.abs(gamma + upsilon - plus), np.abs(gamma - upsilon - minus))
    return [
        ("acal_routes", TOL_ACAL_ROUTES, acal_gap, _amax(m["Acal"]), None),
        ("xh_q_forms", TOL_XH_Q_FORMS, xh_q_gap, half * np.maximum.reduce(gain + loss, axis=1), None),
        ("xh_w_composition", TOL_XH_W_COMPOSITION, xh_w_gap, xh_w_scale, None),
        ("gamma_upsilon", TOL_GAMMA_UPSILON, gu_gap, np.maximum(plus, minus), None),
    ]


_KERNELS = (_triad, _lax_equation, _omega, _band, _scalar, _cross)


def _reports(column, tags: tuple = (None,) * 4, start: int | None = None) -> list[ResidualReport]:
    """One report per state of a kernel column, built in one pass.

    ``tags`` are the reports' (n, beta, kappa, seed); with ``start``, each
    also gets its state index, counted from there.  Only the columns with
    block maxima build a ``blocks`` dict per state.  The records are
    built from the zipped columns by ``tuple.__new__``, which skips the
    Python-level ``__new__`` of the named tuple.
    """
    name, tol, max_abs, rel_scale, blocks = column
    index = repeat(None) if start is None else range(start, start + len(max_abs))
    rows = repeat(None) if blocks is None else map(dict, map(zip, repeat(_BLOCKS), blocks.tolist()))
    fields = repeat(name), max_abs.tolist(), rel_scale.tolist(), repeat(tol), *map(repeat, tags)
    return list(map(tuple.__new__, repeat(ResidualReport), zip(*fields, index, rows)))


def _single(kernel, state, params, bundle, perturb) -> list[ResidualReport]:
    """The reports of ``kernel`` at one state: its S = 1 case."""
    _check_size(state.n, params)
    if bundle is None:
        bundle = build_bundle(state, params)
    elif bundle.delta.ndim:
        raise ValueError(f"bundle holds a stack of {bundle.delta.size} states, not one state")
    m = _inputs(bundle, state.xi[None], state.eta[None], params, perturb)
    return [report for column in kernel(m, params) for report in _reports(column)]


def lax_triad_residual(
    state: State,
    params: ModelParams,
    bundle: LaxBundle | None = None,
    perturb: tuple[str, int, int, float] | None = None,
) -> ResidualReport:
    """Residual of X_H[L] = Acal L - L B.

    The left side is assembled analytically from the factor derivatives;
    per-block maxima of the D^{-1}-scaled residual are attached for
    debugging, mirroring how the identity splits over the four blocks.
    """
    return _single(_triad, state, params, bundle, perturb)[0]


def lax_equation_residual(
    state: State,
    params: ModelParams,
    bundle: LaxBundle | None = None,
    perturb: tuple[str, int, int, float] | None = None,
) -> ResidualReport:
    """Residual of X_H[Lcal] = [Acal, Lcal].

    X_H[Lcal] is assembled by the product rule through Lcal = Hcal g and
    Hcal = L (Omega L Omega^{-1})^{-1}, using X_H[L^{-1}] =
    -L^{-1} X_H[L] L^{-1} and the closed form of X_H[g] g^{-1}.
    """
    return _single(_lax_equation, state, params, bundle, perturb)[0]


def omega_relations_residual(
    state: State,
    params: ModelParams,
    bundle: LaxBundle | None = None,
    perturb: tuple[str, int, int, float] | None = None,
) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the Omega conjugation relations.

    First: Omega Acal Omega^{-1} = g Acal g^{-1} + X_H[g] g^{-1} (the
    gauge-twisted skew symmetry of Acal).  Second: Omega B Omega^{-1} = B,
    which is structural and holds to strict rounding.
    """
    return tuple(_single(_omega, state, params, bundle, perturb))


def band_relations_residual(
    state: State,
    params: ModelParams,
    bundle: LaxBundle | None = None,
    perturb: tuple[str, int, int, float] | None = None,
) -> tuple[ResidualReport, ResidualReport]:
    """Band cancellations tying Acal to the Lax matrix and its inverse.

    Strictly-lower part of Acal + (beta/2) Lcal and strictly-upper part
    of Acal + (beta/2) Lcal^{-1} must both vanish.
    """
    return tuple(_single(_band, state, params, bundle, perturb))


def scalar_identities(
    state: State,
    params: ModelParams,
    bundle: LaxBundle | None = None,
    perturb: tuple[str, int, int, float] | None = None,
) -> tuple[ResidualReport, ResidualReport]:
    """Scalar consequences of the band relations.

    The energy is half the trace of Lcal, and the diagonal of
    (beta/2)(Lcal - Lcal^{-1}) reproduces the position velocities as
    (X_H[q], -reversed(X_H[q])).
    """
    return tuple(_single(_scalar, state, params, bundle, perturb))


def _draw_states(n: int, num_states: int, seed: int, box: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and rapidities (num_states, n) of the seeded suite states.

    The same stream as drawing ``random_state(n, rng, box)`` state by state.
    """
    draws = np.random.default_rng(seed).uniform(-box, box, (num_states, 2, n))
    return draws[:, 0], draws[:, 1]


def _suite_columns(q, th, params: ModelParams, perturb) -> list:
    """Every residual column of a stack of states, checks in the order one state meets them."""
    m = _inputs(build_bundle((q, th), params), q, th, params, perturb)
    return [column for kernel in _KERNELS for column in kernel(m, params)]


def _block_columns(q, th, params: ModelParams, perturb) -> list:
    """``_suite_columns`` of a block, raising what a state-by-state run would.

    The stack checks every state before any residual, so a failing block
    is re-run state by state to raise the error of its earliest failing
    state, at that state's first failing check.
    """
    try:
        return _suite_columns(q, th, params, perturb)
    except (ArithmeticError, ValueError) as err:
        failure = err
    for k in range(q.shape[0]):
        _suite_columns(q[k : k + 1], th[k : k + 1], params, perturb)
    raise failure


def run_suite(
    params: ModelParams,
    num_states: int,
    seed: int,
    box: float = 2.0,
    perturb: tuple[str, int, int, float] | None = None,
) -> list[ResidualReport]:
    """All residuals over reproducibly seeded random states.

    States are drawn uniformly with |xi_a|, |eta_a| <= box (a finite box)
    and evaluated as stacks of up to ``_SUITE_BLOCK`` states.  Reports come back ordered
    by state index, then by the fixed operation order; the first k states
    give the same reports for any ``num_states`` >= k.  A failing state
    raises the error that evaluating the states one by one would.
    """
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    if not (np.isfinite(box) and box >= 0.0):
        raise ValueError("box must be finite and >= 0")
    q, th = _draw_states(params.n, num_states, seed, box)
    tags = (params.n, params.beta, params.kappa, seed)
    reports = []
    for start in range(0, num_states, _SUITE_BLOCK):
        block = slice(start, start + _SUITE_BLOCK)
        columns = _block_columns(q[block], th[block], params, perturb)
        by_column = [_reports(column, tags, start) for column in columns]
        reports.extend(chain.from_iterable(zip(*by_column)))
    return reports


_JSONL_FIELDS = ("name", "n", "beta", "kappa", "seed", "state_index", "max_abs", "rel_scale", "tol")


def _json_safe(value):
    # a non-finite float, also inside a dict, becomes None (JSON null)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def reports_to_jsonl(reports: list[ResidualReport]) -> str:
    """One JSON object per line; floats serialize round-trip safe.

    Keys: ``_JSONL_FIELDS``, then ``pass``, ``margin`` and ``blocks``
    (null for the residuals without block maxima).  A non-finite float
    (a nan or infinite residual, margin or block maximum) is written as
    null, so every line is strict JSON.
    """
    return "".join(
        json.dumps(
            {key: _json_safe(getattr(r, key)) for key in _JSONL_FIELDS}
            | {"pass": r.passed, "margin": _json_safe(r.margin), "blocks": _json_safe(r.blocks)},
            allow_nan=False,
        )
        + "\n"
        for r in reports
    )
