"""Factorization-based solution: minors, Gauss factors, reconstruction."""

import numpy as np
import pytest

from vdtoda import (
    CoordinateOverflowError,
    ModelParams,
    State,
    integrate,
    random_state,
    solve_trajectory,
    time_reversal,
)
from vdtoda.hamiltonian import hamiltonian, xh_q
from vdtoda.integrate import TrajectoryCheckError, spectral_drift
from vdtoda.lax import build_bundle
from vdtoda.solve import (
    FactorizationBreakdownError,
    _sample_at,
    _samples,
    ldu,
    leading_minors,
    matrix_exp,
    position_rates_at,
    positions_at,
    rapidities_at,
)

PARAMS = ModelParams(5, 0.5, 1.0)
STATE = random_state(5, np.random.default_rng(33), box=1.0)

TOY = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


# ---------------------------------------------------------------- minors


def test_leading_minors_frozen_chain():
    pi, m = leading_minors(TOY)
    assert np.allclose(pi, [2.0, 3.0, 4.0], rtol=0, atol=1e-15)
    assert np.allclose(m, [2.0, 1.5, 4.0 / 3.0], rtol=0, atol=1e-15)


def test_leading_minors_identity():
    pi, m = leading_minors(np.eye(6))
    assert np.array_equal(pi, np.ones(6))
    assert np.array_equal(m, np.ones(6))


def test_leading_minors_breakdown():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])  # first pivot vanishes
    with pytest.raises(FactorizationBreakdownError) as info:
        leading_minors(M)
    assert "minor index 1" in str(info.value)


def test_leading_minors_requires_square():
    with pytest.raises(ValueError):
        leading_minors(np.ones((2, 3)))


# ------------------------------------------------------------------- ldu


def test_gauss_factors_reconstruct():
    out = ldu(TOY)
    assert np.array_equal(np.diag(out.l), np.ones(3))
    assert np.array_equal(np.diag(out.u), np.ones(3))
    assert np.array_equal(np.triu(out.l, 1), np.zeros((3, 3)))
    assert np.array_equal(np.tril(out.u, -1), np.zeros((3, 3)))
    assert np.allclose(out.d, [2.0, 1.5, 4.0 / 3.0], rtol=0, atol=1e-15)
    rebuilt = (out.l * out.d[None, :]) @ out.u
    assert np.max(np.abs(rebuilt - TOY)) < 1e-15


def test_gauss_factors_of_identity_are_trivial():
    out = ldu(np.eye(4))
    assert np.array_equal(out.l, np.eye(4))
    assert np.array_equal(out.u, np.eye(4))
    assert np.array_equal(out.d, np.ones(4))


def test_gauss_diagonal_matches_minor_ratios():
    rng = np.random.default_rng(14)
    M = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)  # comfortably factorizable
    _, m = leading_minors(M)
    out = ldu(M)
    assert np.max(np.abs(out.d - m)) <= 1e-12 * np.max(np.abs(m))


def test_gauss_factors_are_readonly():
    out = ldu(TOY)
    with pytest.raises(ValueError):
        out.d[0] = 5.0


# ---------------------------------------------------------- matrix_exp


def test_exponential_of_zero():
    assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))


def test_exponential_semigroup():
    b = build_bundle(STATE, PARAMS)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t, s = rng.uniform(-5.0, 5.0, size=2)
        lhs = matrix_exp(t * b.Ycal) @ matrix_exp(s * b.Ycal)
        rhs = matrix_exp((t + s) * b.Ycal)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_exponential_overflow_is_diagnosed():
    with pytest.raises(CoordinateOverflowError):
        matrix_exp(2000.0 * np.array([[1.0, 0.0], [0.0, 1.0]]))


# --------------------------------------------------------- reconstruction


def test_positions_at_zero_time_is_exact():
    assert np.array_equal(positions_at(STATE, PARAMS, 0.0), STATE.xi)


def test_positions_commute_with_time_reversal():
    for t in (0.7, 1.5, -2.0):
        a = positions_at(STATE, PARAMS, t)
        b = positions_at(time_reversal(STATE), PARAMS, -t)
        assert np.max(np.abs(a - b)) < 1e-8


def test_minor_chain_stays_positive_along_flow():
    b = build_bundle(STATE, PARAMS)
    for t in np.linspace(0.0, 10.0, 41):
        E = matrix_exp(t * b.Ycal)
        _, m = leading_minors(E)
        assert np.all(m[:5] > 0.0)  # factorization exists on the whole window


def test_rates_at_zero_match_velocity_field():
    rates = position_rates_at(STATE, PARAMS, 0.0)
    assert np.max(np.abs(rates - xh_q(STATE, PARAMS))) < 1e-10


def test_rates_match_position_differences():
    h = 1e-5
    fd = (positions_at(STATE, PARAMS, 1.0 + h) - positions_at(STATE, PARAMS, 1.0 - h)) / (
        2.0 * h
    )
    assert np.max(np.abs(fd - position_rates_at(STATE, PARAMS, 1.0))) < 1e-6


def test_rapidities_at_zero_match_state():
    assert np.max(np.abs(rapidities_at(STATE, PARAMS, 0.0) - STATE.eta)) < 1e-9


# ------------------------------------------------------- full trajectory


def test_algebraic_trajectory_matches_integration():
    tr_rk = integrate(STATE, PARAMS, 5.0, rtol=1e-10, atol=1e-12)
    tr_al = solve_trajectory(STATE, PARAMS, 5.0)
    assert np.array_equal(tr_rk.t, tr_al.t)
    for a, b in zip(tr_rk.states, tr_al.states):
        assert np.max(np.abs(a.xi - b.xi)) < 1e-5
        assert np.max(np.abs(a.eta - b.eta)) < 1e-5


def test_algebraic_trajectory_conserves_energy_tightly():
    tr = solve_trajectory(STATE, PARAMS, 5.0)
    h0 = hamiltonian(STATE, PARAMS)
    assert np.max(np.abs(tr.energy - h0)) <= 1e-9 * max(1.0, abs(h0))
    assert spectral_drift(tr) < 1e-7  # reconstructed states stay isospectral


def test_hot_state_exceeds_double_precision_horizon():
    # at beta = 1 with energy ~11.5 the flow exponential loses enough
    # digits by t = 5 that the drift guard must refuse the trajectory
    params = ModelParams(4, 1.0, 1.0)
    st = random_state(4, np.random.default_rng(3), box=1.0)
    with pytest.raises((TrajectoryCheckError, FactorizationBreakdownError)):
        solve_trajectory(st, params, 5.0)


def test_pivot_breakdown_names_minor_and_time_once():
    # exp(Y) has the first pivot e^{-800}, which underflows to zero
    Y = np.zeros((6, 6))
    Y[0, 0] = -800.0
    with pytest.raises(FactorizationBreakdownError) as info:
        _sample_at(State(np.zeros(3), np.zeros(3)), Y, 3, 1.0)
    assert str(info.value) == "pivot underflow in minor chain (minor index 1) (t = 1.0)"
    assert (info.value.j, info.value.t) == (1, 1.0)


NON_POSITIVE = "non-positive minor ratio along the flow"


@pytest.mark.parametrize(
    "n, box, seed, t_end, reason, j, t",
    [
        (8, 2.0, 1, 5.0, NON_POSITIVE, 8, 1.9),
        (6, 2.0, 2, 8.0, NON_POSITIVE, 6, 2.25),
        (5, 3.0, 4, 10.0, NON_POSITIVE, 5, 1.05),
        # an early sample breaks down while a later sample of the same
        # block overflows its exponential: the early breakdown is reported
        (8, 3.0, 5, 20.0, NON_POSITIVE, 6, 0.05),
        (3, 4.0, 6, 30.0, "pivot underflow in minor chain", 2, 0.7),
        # a non-positive ratio at t = 0.55 precedes a pivot underflow at
        # t = 1.15 in the same block: the earlier sample is reported
        (10, 2.5, 7, 12.0, NON_POSITIVE, 8, 0.55),
    ],
)
def test_hot_state_reports_earliest_failing_sample(n, box, seed, t_end, reason, j, t):
    st = random_state(n, np.random.default_rng(seed), box=box)
    with pytest.raises(FactorizationBreakdownError) as info:
        solve_trajectory(st, ModelParams(n, 1.0, 1.0), t_end)
    err = info.value
    assert str(err) == f"{reason} (minor index {j}) (t = {err.t})"
    assert err.j == j
    assert err.t == pytest.approx(t, abs=1e-12)


def test_hot_state_within_factorization_range_fails_energy_check():
    st = random_state(4, np.random.default_rng(3), box=1.0)
    with pytest.raises(TrajectoryCheckError, match="energy drift"):
        solve_trajectory(st, ModelParams(4, 1.0, 1.0), 5.0)


def test_block_stops_at_first_non_finite_rate():
    # pivot 1 of exp(t Y) is e^{-667 t}: at t = 1 the multiplier below it
    # overflows, so the rates of that sample are not finite
    Y = np.array([[-667.0, 0.0], [1000.0, 230.0]])
    q, qdot, error = _samples(np.zeros(1), Y, 1, np.array([0.5, 1.0, 1.5]))
    assert q.shape == qdot.shape == (1, 1)
    assert isinstance(error, FactorizationBreakdownError)
    assert str(error) == "non-finite minor log-rates (t = 1.0)"
