"""The lean trajectory route against the guarded reference routes.

The fused RHS kernel, the stacked Lcal builder with its single eigvals
call, and the one-solve position rates each replace a slower route;
these tests pin the two to each other.  The reference for the RHS, the
chain rule through the canonical pair with the dense Jacobian of s,
lives here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linear_sum_assignment

from conftest import draw_states, moderate_params
from vdtoda import CoordinateOverflowError, ModelParams, State, integrate
from vdtoda.hamiltonian import (
    _eom_arrays,
    _xh_p_from_coords,
    _z_of,
    derived_coords,
    xh_p,
    xh_q,
)
from vdtoda.integrate import _matched_spectra
from vdtoda.lax import _lax_matrices, build_bundle
from vdtoda.solve import (
    _eliminate,
    ldu,
    leading_minors,
    matrix_exp,
    position_rates_at,
    positions_at,
)


@st.composite
def chain_states(draw):
    n = draw(st.integers(3, 12))
    kappa = draw(st.sampled_from([0.0, 0.3, 2.5]))
    beta = draw(st.floats(0.1, 1.0))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    xi = draw(st.lists(coord, min_size=n, max_size=n))
    eta = draw(st.lists(coord, min_size=n, max_size=n))
    return ModelParams(n, beta, kappa), State(np.array(xi), np.array(eta))


# ------------------------------------------------------------- RHS kernel


def _dlog_f(mu: float, r):
    # d/dr ln f_mu(r) = -(f^2 - 1) / (2 f^2) = -z / (2 (1 + z)).
    z = _z_of(mu, r)
    return -z / (2.0 * (1.0 + z))


def _s_jacobian(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """J[a, b] = ds_a/dq_b; symmetric tridiagonal by construction."""
    beta, kappa, n = params.beta, params.kappa, params.n
    g1 = _dlog_f(beta, q[:-1] - q[1:])
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


def _chain_rule_eom(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(xidot, etadot) from the guarded routes: etadot = X_H[p] - J X_H[q]."""
    qdot = xh_q(state, params)
    pdot = _xh_p_from_coords(derived_coords(state, params), params)
    return qdot, pdot - _s_jacobian(state.xi, params) @ qdot


def test_shift_jacobian_is_symmetric_and_matches_fd():
    params = ModelParams(5, 0.8, 1.1)
    q = np.random.default_rng(2).uniform(-1.0, 1.0, 5)
    J = _s_jacobian(q, params)
    assert np.array_equal(J, J.T)
    c = derived_coords(State(q, np.zeros(5)), params)
    h = 1e-6
    for b in range(5):
        e = np.zeros(5)
        e[b] = h
        sp = derived_coords(State(q + e, np.zeros(5)), params).s
        sm = derived_coords(State(q - e, np.zeros(5)), params).s
        assert np.max(np.abs((sp - sm) / (2 * h) - J[:, b])) < 1e-8
    assert np.allclose(np.exp(params.beta * c.s), c.x, rtol=1e-14, atol=0)


@settings(max_examples=200, deadline=None)
@given(chain_states())
def test_fused_rhs_matches_guarded_eom(case):
    params, state = case
    qdot, etadot = _chain_rule_eom(state, params)
    got = _eom_arrays(state.xi, state.eta, params)
    # scale of the terms etadot = X_H[p] - J qdot is built from
    scale = max(
        1.0,
        float(np.max(np.abs(qdot))),
        float(np.max(np.abs(etadot))),
        float(np.max(np.abs(xh_p(state, params)))),
    )
    n = params.n
    assert np.max(np.abs(got[:n] - qdot)) <= 1e-13 * scale
    assert np.max(np.abs(got[n:] - etadot)) <= 1e-13 * scale


@pytest.mark.parametrize("kappa", [0.0, 1.5])
@pytest.mark.parametrize("where", ["separation", "wall"])
def test_fused_rhs_raises_on_overflow(kappa, where):
    params = ModelParams(4, 0.5, kappa)
    xi = np.zeros(4)
    if where == "separation":
        xi[1] = 800.0  # q_1 - q_2 = -800: e^{-(q_1 - q_2)} overflows
    else:
        xi[-1] = -400.0  # e^{-2 q_n} overflows
    with pytest.raises(CoordinateOverflowError):
        _eom_arrays(xi, np.zeros(4), params)


# ---------------------------------------------------------------- spectra


def test_stacked_lcal_is_bitwise_bundle_lcal():
    # 19 states: more than one block of the chain, the last one partial
    for n, kappa in ((3, 0.0), (5, 0.3), (8, 2.5)):
        params = ModelParams(n, 0.7, kappa)
        states = draw_states(n, 19, seed=n)
        stack = _lax_matrices(
            np.array([s.xi for s in states]), np.array([s.eta for s in states]), params
        )
        assert stack.shape == (19, 2 * n, 2 * n)
        for s, Lcal in zip(states, stack):
            assert np.array_equal(Lcal, build_bundle(s, params).Lcal)


def test_stacked_spectra_equal_per_state_eigvals():
    # reference: one bundle and one eigvals per sample, matched in turn
    params = moderate_params(6)
    traj = integrate(draw_states(6, 1, seed=21)[0], params, 2.0, sample_dt=0.1)
    rows = []
    for s in traj.states:
        lam = np.linalg.eigvals(build_bundle(s, params).Lcal)
        if rows:
            _, col = linear_sum_assignment(np.abs(rows[-1][:, None] - lam[None, :]))
            lam = lam[col]
        else:
            lam = lam[np.lexsort((lam.imag, lam.real))]
        rows.append(lam)
    xi, eta = np.array([s.xi for s in traj.states]), np.array([s.eta for s in traj.states])
    assert np.array_equal(_matched_spectra(xi, eta, params), np.array(rows))


# ------------------------------------------------------------------ rates


def _jacobi_position_rates(E: np.ndarray, Edot: np.ndarray, n: int) -> np.ndarray:
    # d/dt ln pi_j = trace(E_j^{-1} Edot_j) over the leading j x j blocks;
    # position rates are the differences of consecutive log-minor rates.
    log_rates = np.array(
        [np.trace(lu_solve(lu_factor(E[:j, :j]), Edot[:j, :j])) for j in range(1, n + 1)]
    )
    return np.diff(log_rates, prepend=0.0)


@pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
def test_one_solve_rates_match_jacobi_formula(t):
    params = moderate_params(5)
    for state in draw_states(5, 4, seed=44, box=1.0):
        Y = build_bundle(state, params).Ycal
        E = matrix_exp(t * Y)
        ref = _jacobi_position_rates(E, Y @ E, params.n)
        got = position_rates_at(state, params, t)
        assert np.max(np.abs(got - ref)) <= 1e-11 * max(1.0, float(np.max(np.abs(ref))))


def test_minors_factors_and_positions_share_one_elimination():
    params = moderate_params(4)
    state = draw_states(4, 1, seed=5, box=1.0)[0]
    E = matrix_exp(1.5 * build_bundle(state, params).Ycal)
    l, r = _eliminate(E)
    _, m = leading_minors(E)
    assert np.array_equal(np.diag(r), m)
    factors = ldu(E)
    assert np.array_equal(factors.l, l)
    assert np.array_equal(factors.d, m)
    assert np.array_equal(positions_at(state, params, 1.5), state.xi + np.log(m[:4]))
