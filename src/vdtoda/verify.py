"""Residual checks for the matrix identities satisfied along the flow.

Each operation evaluates one proven identity and reports the largest
absolute deviation together with the magnitude of the terms it was
built from.  A residual passes when

    max_abs <= tol * max(1, rel_scale),

which keeps the comparison meaningful both near zero (the floor of 1)
and at states where matrix entries grow exponentially with the momenta
(the scale).

Every identity is one kernel over a stack of states: (S, 2n, 2n)
matrices, batched matmuls, and per-state maxima over the last two axes.
``run_suite`` takes its states in blocks of at most ``_SUITE_BLOCK``,
which bounds its working set; per block it builds the stacked Lax
bundle in one ``build_bundle`` call and runs each residual kernel once.
The public functions (``lax_triad_residual`` and the rest) are the S = 1
case of the same kernels; each accepts an optional prebuilt
``LaxBundle``.  Every state gives the same bits alone or inside a stack,
and a failing block is re-run state by state, so the suite raises what
evaluating its states one by one would: the error of the earliest
failing state, at its first failing check.

An optional ``perturb=(name, i, j, amount)`` corrupts entry (i, j) of
the named bundle matrix, in every state, before the residuals are
formed.  Perturbation exists purely as an anti-vacuity control: a
residual that stays small under a 1e-3 corruption is testing nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, State
from .hamiltonian import _energy_arrays, _raise_first_failure, _xh_q_check, _xh_q_theta
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

# States per stacked evaluation in ``run_suite``: its working set, about
# forty (2n, 2n) matrices per state, stays bounded for any num_states.
_SUITE_BLOCK = 64

# the bundle matrices, in field order: every array field but the vectors
_MATRIX_FIELDS = tuple(name for name in _ARRAY_FIELDS if name not in ("phi", "psi"))


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check at one state."""

    name: str
    max_abs: float
    rel_scale: float
    tol: float
    passed: bool = field(init=False)
    n: int | None = None
    beta: float | None = None
    kappa: float | None = None
    seed: int | None = None
    state_index: int | None = None
    blocks: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "passed", bool(self.max_abs <= self.tol * max(1.0, self.rel_scale))
        )


_BLOCKS = ("pp", "pm", "mp", "mm")
# the perturbable matrices some residual reads
_READ_FIELDS = tuple(name for name in _MATRIX_FIELDS if name not in ("A", "Omega", "Ycal", "Q"))


def _inputs(bundle: LaxBundle, q, th, perturb) -> dict[str, np.ndarray]:
    """Everything the kernels read, stacked over S states, by name.

    The matrices of ``bundle`` (one state or a stack) the residuals use,
    with entry (i, j) of ``perturb``'s matrix corrupted in every state;
    d, the diagonal of the unperturbed D (S, 2n); q and th (S, n); and
    x, w (S, n), delta and upsilon (S,) from its coordinates.  Perturbing
    a matrix no residual reads (A, Omega, Ycal, Q) is checked and then
    has no effect.
    """
    stack = {name: getattr(bundle, name) for name in _MATRIX_FIELDS}
    if bundle.L.ndim == 2:
        stack = {name: M[None] for name, M in stack.items()}
    m = {name: stack[name] for name in _READ_FIELDS}
    if perturb is not None:
        name, i, j, amount = perturb
        if name not in _MATRIX_FIELDS:
            raise ValueError(f"unknown matrix {name!r}; choose from {_MATRIX_FIELDS}")
        M = stack[name].copy()
        # entry (i, j) across the stack; indexes (and fails) as one matrix would
        M.transpose(1, 2, 0)[int(i), int(j)] += float(amount)
        if name in m:
            m[name] = M
    _, _, x, w, delta, _, upsilon = bundle.coords.rows()
    d = np.diagonal(stack["D"], axis1=1, axis2=2)
    m.update(d=d, q=q, th=th, x=x, w=w, delta=delta, upsilon=upsilon)
    return m


def _amax(M: np.ndarray) -> np.ndarray:
    """max |M| of each state: over every axis but the first."""
    return np.max(np.abs(M), axis=tuple(range(1, M.ndim)))


def _xh_of_L(m: dict[str, np.ndarray]) -> np.ndarray:
    # Leibniz rule on L = D (I + W):  X_H[L] = D (Dcal (I + W) + X_H[W]).
    eye = np.eye(m["L"].shape[-1])
    return m["D"] @ (m["Dcal"] @ (eye + m["W"]) + m["xhw"])


def _block_maxima(M: np.ndarray) -> np.ndarray:
    """max |.| of the pp, pm, mp and mm blocks of each state, as (S, 4)."""
    n = M.shape[-1] // 2
    blocks = (M[:, :n, :n], M[:, :n, n:], M[:, n:, :n], M[:, n:, n:])
    return np.stack([_amax(b) for b in blocks], axis=1)


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
# states, blocks (S, 4) or None.


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
    out -= L @ omega_conjugate(L_inv @ xl @ L_inv)
    return out


def _lax_equation(m, params: ModelParams) -> list:
    g, Acal, Lcal = m["g"], m["Acal"], m["Lcal"]
    lhs = _xh_hcal(m) @ g
    lhs += m["Hcal"] @ (_gauge_rate(m, params) @ g)
    resid, scale = _residual(lhs, Acal @ Lcal, Lcal @ Acal)
    return [("lax_equation", TOL_LAX_EQUATION, _amax(resid), scale, None)]


def _omega(m, params: ModelParams) -> list:
    twisted = m["g"] @ m["Acal"] @ m["g_inv"] + _gauge_rate(m, params)
    conj = omega_conjugate(m["Acal"])
    lam = conj - twisted
    diff = omega_conjugate(m["B"]) - m["B"]
    scale = np.maximum(_amax(conj), _amax(twisted))
    return [
        ("omega_acal_gauge", TOL_OMEGA_GAUGE, _amax(lam), scale, _block_maxima(lam)),
        ("omega_b_symmetry", TOL_OMEGA_B, _amax(diff), _amax(m["B"]), None),
    ]


def _band(m, params: ModelParams) -> list:
    half_beta = 0.5 * params.beta
    out = []
    for name, inner, part in (
        ("band_lower", m["Lcal"], strict_lower),
        ("band_upper", m["Lcal_inv"], strict_upper),
    ):
        terms = (m["Acal"], half_beta * inner)
        band = part(terms[0] + terms[1])
        out.append((name, TOL_BAND, _amax(band), np.maximum(*map(_amax, terms)), None))
    return out


def _scalar(m, params: ModelParams) -> list:
    H = _energy_arrays(m["q"], m["th"], params)
    qdot = _xh_q_theta(m["q"], m["th"], params)
    _raise_first_failure([_xh_q_check(qdot, m["x"], m["w"], m["delta"], params)])
    half_trace = 0.5 * np.trace(m["Lcal"], axis1=1, axis2=2)
    dvec = 0.5 * params.beta * np.diagonal(m["Lcal"] - m["Lcal_inv"], axis1=1, axis2=2)
    ref = np.concatenate([qdot, -qdot[:, ::-1]], axis=1)
    scale = np.maximum(_amax(dvec), _amax(ref))
    return [
        ("trace_energy", TOL_TRACE, np.abs(half_trace - H), np.abs(H), None),
        ("diagonal_velocity", TOL_DIAGONAL, _amax(dvec - ref), scale, None),
    ]


_KERNELS = (_triad, _lax_equation, _omega, _band, _scalar)


def _reports(column, tags: dict | None = None, start: int = 0) -> list[ResidualReport]:
    """One report per state of a kernel column.

    With ``tags``, each also gets its state index, counted from ``start``.
    """
    name, tol, max_abs, rel_scale, blocks = column
    blocks = [None] * len(max_abs) if blocks is None else blocks.tolist()
    return [
        ResidualReport(
            name=name,
            max_abs=value,
            rel_scale=scale,
            tol=tol,
            blocks=None if row is None else dict(zip(_BLOCKS, row)),
            **({} if tags is None else dict(tags, state_index=i)),
        )
        for i, (value, scale, row) in enumerate(
            zip(max_abs.tolist(), rel_scale.tolist(), blocks), start
        )
    ]


def _single(kernel, state, params, bundle, perturb) -> list[ResidualReport]:
    """The reports of ``kernel`` at one state: its S = 1 case."""
    if bundle is None:
        bundle = build_bundle(state, params)
    m = _inputs(bundle, state.xi[None], state.eta[None], perturb)
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
    (xh_q, -reversed(xh_q)).
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
    m = _inputs(build_bundle((q, th), params), q, th, perturb)
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
    if not np.isfinite(box):
        raise ValueError("box must be finite")
    q, th = _draw_states(params.n, num_states, seed, box)
    tags = dict(n=params.n, beta=params.beta, kappa=params.kappa, seed=seed)
    reports = []
    for start in range(0, num_states, _SUITE_BLOCK):
        block = slice(start, start + _SUITE_BLOCK)
        columns = _block_columns(q[block], th[block], params, perturb)
        by_column = [_reports(column, tags, start) for column in columns]
        reports.extend(report for state_reports in zip(*by_column) for report in state_reports)
    return reports


def reports_to_jsonl(reports: list[ResidualReport]) -> str:
    """One JSON object per line; floats serialize round-trip safe."""
    lines = []
    for r in reports:
        lines.append(
            json.dumps(
                {
                    "name": r.name,
                    "n": r.n,
                    "beta": r.beta,
                    "kappa": r.kappa,
                    "seed": r.seed,
                    "state_index": r.state_index,
                    "max_abs": r.max_abs,
                    "rel_scale": r.rel_scale,
                    "tol": r.tol,
                    "pass": r.passed,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
