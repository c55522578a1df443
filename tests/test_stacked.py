"""Stacked per-sample kernels against their single-state cases.

Trajectories evaluate coordinates, interaction factors, energies and the
Gauss elimination on whole stacks of samples; the per-state functions
are the S = 1 case of the same kernels.  These tests pin every row of a
stack to the single-state result, bit for bit, and pin the error a
failing stack raises to the one of its earliest failing row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vdtoda import CoordinateOverflowError, ModelParams, State
from vdtoda.hamiltonian import (
    _coord_arrays,
    _energy_arrays,
    _factor_arrays,
    derived_coords,
    hamiltonian,
)
from vdtoda.integrate import TrajectoryCheckError, _check_bounds
from vdtoda.solve import _gauss


@st.composite
def stacked_states(draw):
    n = draw(st.integers(3, 12))
    size = draw(st.integers(1, 40))
    kappa = draw(st.sampled_from([0.0, 0.3, 2.5]))
    beta = draw(st.floats(0.1, 1.0))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    q = draw(arrays(np.float64, (size, n), elements=coord))
    th = draw(arrays(np.float64, (size, n), elements=coord))
    return ModelParams(n, beta, kappa), q, th


@settings(max_examples=150, deadline=None)
@given(stacked_states())
def test_stacked_kernels_equal_single_state_functions(case):
    params, q, th = case
    s, p, x, w, delta = _coord_arrays(q, th, params)
    F, ok = _factor_arrays(q, params)
    H = _energy_arrays(q, th, params)
    assert ok.all()
    for i in range(q.shape[0]):
        state = State(q[i], th[i])
        c = derived_coords(state, params)
        ref = _per_state_reference(state, params)
        for got, want, by_formula in zip((s[i], p[i], x[i], w[i]), (c.s, c.p, c.x, c.w), ref):
            assert np.array_equal(got, want)
            assert np.array_equal(got, by_formula)
        assert delta[i] == c.delta == ref[4]
        assert np.array_equal(F[i], ref[5])
        assert H[i] == hamiltonian(state, params) == ref[6]


def _per_state_reference(state, params):
    # s, p, x, w, delta, F and H of one state, evaluated vector by vector
    # with scalar wall terms and one dot product for the energy
    beta, kappa, n = params.beta, params.kappa, params.n
    q = state.xi

    def z(mu, r):
        return np.exp(np.log(mu * mu) - r) if mu else np.zeros_like(r)

    sep = q[:-1] - q[1:]
    lf = 0.5 * np.log1p(z(beta, sep))
    s = np.empty(n)
    s[0] = lf[0]
    s[1:-1] = lf[1:] - lf[:-1]
    s[-1] = -lf[-1] + 0.5 * np.log1p(z(beta, 2.0 * q[-1])) + 0.5 * np.log1p(
        z(kappa * beta, 2.0 * q[-1])
    )
    s = s / beta
    p = state.eta + s
    x = np.exp(beta * p)
    w = np.empty(n)
    w[:-1] = beta * beta * np.exp(-sep)
    w[-1] = beta * beta * np.exp(-2.0 * q[-1])
    f = np.sqrt(1.0 + z(beta, sep))
    F = np.empty(n)
    F[0] = f[0]
    F[1:-1] = f[:-1] * f[1:]
    wall = 2.0 * q[-1]
    F[-1] = f[-1] * np.sqrt(1.0 + z(beta, wall)) * np.sqrt(1.0 + z(kappa * beta, wall))
    wn1 = beta * beta * np.exp(-(q[-2] - q[-1]))
    tail = kappa * w[-1] + 0.5 * kappa * wn1 * w[-1]
    H = float(np.cosh(beta * state.eta) @ F) + tail
    return s, p, x, w, 1.0 + kappa * kappa * w[-1], F, H


@settings(max_examples=60, deadline=None)
@given(stacked_states(), st.sampled_from(["C", "F", "strided"]))
def test_stack_layout_changes_no_energy_bit(case, layout):
    # the row sum of the energy once followed the strides: F-ordered rows
    # got other bits than the one-state call
    params, q, th = case
    if layout == "F":
        q, th = np.asfortranarray(q), np.asfortranarray(th)
    elif layout == "strided":
        q, th = (np.repeat(a, 2, axis=1)[:, ::2] for a in (q, th))
    H = _energy_arrays(q, th, params)
    for i in range(q.shape[0]):
        assert H[i] == hamiltonian(State(q[i], th[i]), params)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 24).flatmap(
        lambda N: arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(N), st.just(N)),
            elements=st.floats(-4.0, 4.0, allow_nan=False),
        )
    )
)
def test_stacked_elimination_equals_stack_of_one(stack):
    A = _gauss(stack)
    for k in range(stack.shape[0]):
        Ak = _gauss(stack[k : k + 1])
        assert np.array_equal(A[k], Ak[0], equal_nan=True)
        A2 = _gauss(stack[k])
        assert np.array_equal(A2, Ak[0], equal_nan=True)
        with np.errstate(all="ignore"):
            A1 = _eliminate_one_matrix(stack[k])
        assert np.array_equal(A2, A1, equal_nan=True)


def _eliminate_one_matrix(M):
    # the single-matrix loop: column by column, multipliers stored in place
    A = np.array(M, dtype=float)
    N = A.shape[0]
    for j in range(N):
        col = A[j + 1 :, j]
        col /= A[j, j]
        A[j + 1 :, j + 1 :] -= col[:, None] * A[j, j + 1 :]
    return A


def _overflow_stack(order):
    # Row "sep" has one huge separation, row "fast" one huge rapidity; the
    # other rows are tame.  Each fails a different check first.
    n = 5
    q = np.zeros((6, n))
    th = np.zeros((6, n))
    rows = {"sep": 2, "fast": 4} if order == "sep_first" else {"sep": 4, "fast": 2}
    q[rows["sep"], 1] = 800.0  # q_1 - q_2 = -800: e^{-(q_1 - q_2)} overflows
    th[rows["fast"], 3] = 1500.0  # e^{beta p} and cosh(beta theta) overflow
    return ModelParams(n, 1.0, 0.3), q, th, min(rows.values())


def _error_of(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("order", ["sep_first", "fast_first"])
def test_stack_overflow_raises_the_earliest_rows_error(order):
    params, q, th, first = _overflow_stack(order)
    state = State(q[first], th[first])
    coords_error = _error_of(lambda: _coord_arrays(q, th, params))
    assert coords_error == _error_of(lambda: derived_coords(state, params))
    energy_error = _error_of(lambda: _energy_arrays(q, th, params))
    assert energy_error == _error_of(lambda: hamiltonian(state, params))
    assert coords_error[0] is CoordinateOverflowError
    assert energy_error[0] is CoordinateOverflowError
    if order == "sep_first":
        assert coords_error[1] == "overflow while evaluating mu^2 e^{-r}"
    else:
        assert coords_error[1] == "overflow while evaluating x_a = e^{beta p_a}"
        assert energy_error[1] == "energy overflowed"


def test_one_huge_separation_in_one_row_is_reported():
    params = ModelParams(4, 0.5, 1.0)
    q = np.zeros((7, 4))
    q[5, 1] = 800.0
    _, ok = _factor_arrays(q, params)
    assert ok.tolist() == [True] * 5 + [False, True]
    with pytest.raises(CoordinateOverflowError):
        _coord_arrays(q, np.zeros_like(q), params)
    with pytest.raises(CoordinateOverflowError):
        _energy_arrays(q, np.zeros_like(q), params)


def test_bound_checks_name_the_first_failing_sample():
    params = ModelParams(3, 1.0, 0.0)
    t = 0.1 * np.arange(6)
    xi = np.zeros((6, 3))
    eta = np.zeros((6, 3))
    energy = np.full(6, 3.0)  # rapidity cap ln(6), speed cap 3 per unit time
    eta[4, 0] = eta[2, 1] = 5.0
    with pytest.raises(TrajectoryCheckError, match=r"rapidity bound violated at t=0\.2:"):
        _check_bounds(params, t, xi, eta, energy, np.inf, energy[0])
    eta[:] = 0.0
    xi[3:, 2] = 1.0  # a jump between samples 2 and 3, and one between 4 and 5
    xi[5:, 0] = 1.0
    with pytest.raises(TrajectoryCheckError, match=r"in \[0\.2, 0\.30000000000000004\]"):
        _check_bounds(params, t, xi, eta, energy, np.inf, energy[0])


def test_energy_gate_names_the_first_sample_past_its_budget():
    # samples 2 and 4 leave the budget, 4 by more; 2 is the one reported
    params = ModelParams(3, 1.0, 0.0)
    t = 0.1 * np.arange(6)
    xi = eta = np.zeros((6, 3))
    energy = np.full(6, 3.0)
    energy[2] += 2e-6
    energy[4] += 5e-6
    want = (r"^energy drift 2\.000e-06 exceeds tolerance 1\.000e-06 at t = 0\.2"
            r" \(beta \(H - n\) t = 0\)$")
    with pytest.raises(TrajectoryCheckError, match=want):
        _check_bounds(params, t, xi, eta, energy, 1e-6, 3.0)
    energy[2] = 3.0 + 5e-7  # within the budget
    with pytest.raises(TrajectoryCheckError, match=r"drift 5\.000e-06 .* at t = 0\.4 "):
        _check_bounds(params, t, xi, eta, energy, 1e-6, 3.0)
    energy[4] = np.nan  # a drift that is not a number fails
    with pytest.raises(TrajectoryCheckError, match=r"drift nan .* at t = 0\.4 "):
        _check_bounds(params, t, xi, eta, energy, 1e-6, 3.0)


@st.composite
def planted_bound_failures(draw):
    # a stack at rest on a 0.1 grid, energy 3 throughout, with energy,
    # rapidity and speed failures planted at drawn samples
    n = draw(st.integers(3, 6))
    size = draw(st.integers(2, 30))
    params = ModelParams(n, draw(st.floats(0.2, 2.0)), 1.0)
    t = 0.1 * np.arange(size)
    xi, eta = np.zeros((size, n)), np.zeros((size, n))
    energy = np.full(size, 3.0)
    theta_cap = np.log(6.0) / params.beta
    samples = st.lists(st.integers(0, size - 1), max_size=3)
    for i in draw(samples):
        energy[i] += draw(st.sampled_from([2e-6, -5e-6, np.nan]))
    for i in draw(samples):
        eta[i, draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -2.0])) * theta_cap
    for i in draw(st.lists(st.integers(1, size - 1), max_size=3)):
        # a jump between samples i - 1 and i; the later positions move with it
        xi[i:, draw(st.integers(0, n - 1))] += 10.0
    return params, t, xi, eta, energy


@settings(max_examples=200, deadline=None)
@given(planted_bound_failures())
def test_bound_checks_report_what_checking_in_time_order_meets_first(case):
    # the reference is the shortest prefix of samples that raises
    params, t, xi, eta, energy = case

    def outcome(r):
        try:
            _check_bounds(params, t[:r], xi[:r], eta[:r], energy[:r], 1e-6, 3.0)
        except TrajectoryCheckError as err:
            return str(err)
        return None

    first = next((m for r in range(1, len(t) + 1) if (m := outcome(r)) is not None), None)
    assert outcome(len(t)) == first


def test_stack_underflow_raises_before_a_later_overflow():
    # row 1: q_1 - q_2 = 800, so w_1 = beta^2 e^{-800} underflows to 0;
    # row 3 overflows; the earlier row's ValueError is the one raised
    params = ModelParams(4, 0.5, 1.0)
    q = np.zeros((5, 4))
    q[1, 0] = 800.0
    q[3, 1] = 800.0
    with pytest.raises(ValueError, match="x and w entries must be positive"):
        _coord_arrays(q, np.zeros_like(q), params)
    q[1, 0] = 0.0
    with pytest.raises(CoordinateOverflowError):
        _coord_arrays(q, np.zeros_like(q), params)
