"""The lean trajectory route against the guarded reference routes.

The fused RHS kernel, the stacked Lcal builder with its blockwise eigvals
calls, and the one-solve position rates each replace a slower route;
these tests pin the two to each other.  The reference for the RHS, the
chain rule through the canonical pair with the dense Jacobian of s,
lives here; the X_H[p] it reads is ``conftest.xh_p_laurent``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from conftest import draw_states, large_half_spectrum, moderate_params, xh_p_laurent
from vdtoda import (
    CoordinateOverflowError,
    CoordinateUnderflowError,
    ModelParams,
    State,
    integrate,
)
from vdtoda.hamiltonian import (
    _eom_arrays,
    _eom_work,
    derived_coords,
    xh_q,
)
from vdtoda.integrate import _matched_spectra
from vdtoda.lax import build_bundle
from vdtoda.solve import (
    _gauss,
    leading_minors,
    matrix_exp,
    position_rates_at,
    positions_at,
)

integrate_module = sys.modules["vdtoda.integrate"]


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
    # d/dr ln f_mu(r) = -(f^2 - 1) / (2 f^2) = -z / (2 (1 + z)), z = mu^2 e^{-r}.
    z = mu * mu * np.exp(-np.asarray(r))
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
    return qdot, xh_p_laurent(state, params) - _s_jacobian(state.xi, params) @ qdot


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
        float(np.max(np.abs(xh_p_laurent(state, params)))),
    )
    n = params.n
    assert np.max(np.abs(got[:n] - qdot)) <= 1e-13 * scale
    assert np.max(np.abs(got[n:] - etadot)) <= 1e-13 * scale


@st.composite
def state_sequences(draw):
    # cool coordinates, and hot ones whose weights overflow or underflow
    # (|q_a - q_b| past ~745, |q_n| past ~372) or whose sinh overflows
    n = draw(st.integers(3, 12))
    kappa = draw(st.sampled_from([0.0, 0.3, 2.5]))
    beta = draw(st.floats(0.1, 1.0))
    coord = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False), st.floats(-1500.0, 1500.0, allow_nan=False)
    )
    vector = st.lists(coord, min_size=n, max_size=n).map(np.array)
    states = draw(st.lists(st.tuples(vector, vector), min_size=2, max_size=6))
    return ModelParams(n, beta, kappa), states


def _rhs_outcome(q, th, params, out, work=None):
    try:
        _eom_arrays(q, th, params, out, work)
    except (CoordinateOverflowError, CoordinateUnderflowError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(state_sequences())
def test_reused_workspace_gives_the_one_shot_bits(case):
    params, states = case
    work = _eom_work(params)
    for q, th in states:
        # different sentinels: an entry left unwritten by either call differs
        out, want = np.full(2 * params.n, 1.5), np.full(2 * params.n, -7.25)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = _rhs_outcome(q, th, params, out, work)
        assert got == _rhs_outcome(q, th, params, want)
        assert out.tobytes() == want.tobytes()  # written in full, also when raising


def _hot_positions(n, error):
    # gaps of 800: every w_a underflows to 0 and nothing overflows; one
    # gap of -800: w_1 overflows
    if error is CoordinateUnderflowError:
        return 800.0 * np.arange(n - 1, -1, -1)
    return np.concatenate([[-800.0], np.zeros(n - 1)])


def test_interleaved_kernels_give_the_one_shot_bits():
    rng = np.random.default_rng(19)
    kernels = [(p, _eom_work(p)) for p in (ModelParams(3, 0.5, 0.0), ModelParams(8, 0.9, 2.5))]
    seen = set()
    for k in range(30):
        for params, kernel in kernels:
            q, th = rng.uniform(-2.0, 2.0, (2, params.n))
            if k % 3:  # every third pair of calls is hot, alternating the error
                q = _hot_positions(params.n, (CoordinateOverflowError, CoordinateUnderflowError)[k % 2])
            out, want = np.full(2 * params.n, 1.5), np.full(2 * params.n, -7.25)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                got = _rhs_outcome(q, th, params, out, kernel)
            assert got == _rhs_outcome(q, th, params, want)
            assert out.tobytes() == want.tobytes()
            seen.add(got and got[0])
    assert seen == {None, CoordinateOverflowError, CoordinateUnderflowError}


@pytest.mark.parametrize("error", [CoordinateOverflowError, CoordinateUnderflowError])
def test_kernel_that_raised_gives_the_one_shot_bits(error):
    params = ModelParams(5, 0.7, 1.5)
    kernel = _eom_work(params)
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(error):
            kernel(_hot_positions(5, error), np.zeros(5), np.empty(10))
        for _ in range(5):
            q, th = rng.uniform(-2.0, 2.0, (2, 5))
            got = kernel(q, th, np.empty(10))
            assert got.tobytes() == _eom_arrays(q, th, params).tobytes()


@pytest.mark.parametrize("kappa", [0.0, 0.3, 2.5])
def test_fused_rhs_keeps_rest_exact(kappa):
    # xidot = sinh(beta theta) beta F is exactly 0 at theta = 0, for any positions
    rng = np.random.default_rng(5)
    for n in range(3, 13):
        for beta in (0.1, 0.5, 1.9):
            params = ModelParams(n, beta, kappa)
            for _ in range(5):
                xi = rng.uniform(-2.0, 2.0, n)
                assert np.array_equal(_eom_arrays(xi, np.zeros(n), params)[:n], np.zeros(n))


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


@pytest.mark.parametrize("kappa", [0.0, 1.5])
@pytest.mark.parametrize("where", ["separation", "wall"])
def test_fused_rhs_raises_on_underflow(kappa, where):
    params = ModelParams(4, 0.5, kappa)
    if where == "separation":
        xi = np.array([800.0, 0.0, -1.0, -2.0])  # w_1 = beta^2 e^{-800} is 0
    else:
        xi = np.array([1200.0, 800.0, 400.0, 400.0])  # w_n = beta^2 e^{-800} is 0
    message = "x and w entries must be positive"
    with pytest.raises(CoordinateUnderflowError, match=message):
        _eom_arrays(xi, np.zeros(4), params)
    with pytest.raises(CoordinateUnderflowError, match=message):
        derived_coords(State(xi, np.zeros(4)), params)  # the coordinate guard agrees


def test_integration_stops_where_a_weight_underflows(monkeypatch, count_calls):
    # particle 1 runs away: q_1 - q_2 grows past ~745 at t ~ 0.1, where the
    # weight w_1 = e^{-(q_1 - q_2)} underflows to 0
    state = State(np.array([1000.0, 256.0, 255.0]), np.array([3.0, 0.0, 0.0]))
    params = ModelParams(3, 1.0, 1.0)
    message = "x and w entries must be positive"
    guarded = count_calls(integrate_module, "_eom_arrays")
    with pytest.raises(CoordinateUnderflowError, match=message):
        integrate(state, params, 5.0)

    def unguarded(q, th, params, out, work):
        try:
            return _eom_arrays(q, th, params, out, work)
        except CoordinateUnderflowError:
            return out  # written in full before the guard

    # without the RHS guard the run steps to t_end, and integrate itself
    # still refuses it, through the coordinate guard of the assembly
    monkeypatch.setattr(integrate_module, "_eom_arrays", unguarded)
    stepped = count_calls(integrate_module, "_eom_arrays")
    with pytest.raises(CoordinateUnderflowError, match=message):
        integrate(state, params, 5.0)
    assert 0 < guarded.count < stepped.count / 5


# ---------------------------------------------------------------- spectra


def test_stacked_lcal_is_bitwise_bundle_lcal():
    # the stacked bundle is the reference Lcal of the spectrum tests
    for n, kappa in ((3, 0.0), (5, 0.3), (8, 2.5)):
        params = ModelParams(n, 0.7, kappa)
        states = draw_states(n, 19, seed=n)
        xi, eta = np.array([s.xi for s in states]), np.array([s.eta for s in states])
        stack = build_bundle((xi, eta), params).Lcal
        assert stack.shape == (19, 2 * n, 2 * n)
        for s, Lcal in zip(states, stack):
            assert np.array_equal(Lcal, build_bundle(s, params).Lcal)


def test_stacked_spectra_equal_per_state_eigvals():
    # reference: one bundle and one eigvals per sample, then the sorted
    # large half and its reciprocals
    params = moderate_params(6)
    traj = integrate(draw_states(6, 1, seed=21)[0], params, 2.0, sample_dt=0.1)
    rows = [large_half_spectrum(np.linalg.eigvals(build_bundle(s, params).Lcal)[None])[0]
            for s in traj.states]
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
    A = _gauss(E)
    _, m = leading_minors(E)
    assert np.array_equal(np.diag(A), m)
    assert np.array_equal(positions_at(state, params, 1.5), state.xi + np.log(m[:4]))
