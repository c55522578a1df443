"""Factorization-based solution: minors, Gauss factors, reconstruction."""

import sys

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure
from scipy.linalg.lapack import dtrtrs

import mp_reference
from vdtoda import (
    CoordinateOverflowError,
    ModelParams,
    State,
    integrate,
    random_state,
    solve_trajectory,
    time_reversal,
)
from vdtoda.hamiltonian import _xh_q_theta, hamiltonian
from vdtoda.integrate import TrajectoryCheckError, sample_times, spectral_drift
from vdtoda.lax import build_bundle
from vdtoda.solve import (
    FactorizationBreakdownError,
    _gauss,
    _minor_log_rates,
    _samples,
    leading_minors,
    matrix_exp,
    position_rates_at,
    positions_at,
    rapidities_at,
)

PARAMS = ModelParams(5, 0.5, 1.0)
STATE = random_state(5, np.random.default_rng(33), box=1.0)

solve_module = sys.modules["vdtoda.solve"]

TOY = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])


# ---------------------------------------------------------------- minors


def test_leading_minors_frozen_chain():
    pi, m = leading_minors(TOY)
    assert np.allclose(pi, [2.0, 3.0, 4.0], rtol=0, atol=1e-15)
    assert np.allclose(m, [2.0, 1.5, 4.0 / 3.0], rtol=0, atol=1e-15)
    # the 1e20 pivot swamps the lower-right 1; the ratios are still returned
    assert np.array_equal(leading_minors(np.array([[1e-20, 1.0], [1.0, 1.0]]))[1], [1e-20, -1e20])


def test_leading_minors_identity():
    pi, m = leading_minors(np.eye(6))
    assert np.array_equal(pi, np.ones(6))
    assert np.array_equal(m, np.ones(6))


def test_leading_minors_breakdown():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])  # first pivot vanishes
    with pytest.raises(FactorizationBreakdownError) as info:
        leading_minors(M)
    assert "minor index 1" in str(info.value)


NON_FINITE = "non-finite pivot in minor chain"


@pytest.mark.parametrize(
    "M, message, j",
    [
        # the second pivot is -inf
        ([[1e-200, 1e200], [1e200, 1.0]], NON_FINITE, 2),
        # ... and the third nan
        ([[1e-200, 1e200, 1.0], [1e200, 1.0, 1.0], [1.0, 1.0, 1.0]], NON_FINITE, 2),
        ([[np.inf, 1.0], [1.0, 1.0]], NON_FINITE, 1),
        # a pivot under the floor before an infinite one
        ([[1e-310, 1.0], [1.0, 1.0]], "pivot underflow in minor chain", 1),
    ],
)
def test_first_bad_pivot_is_a_breakdown(M, message, j):
    # tier-1 turns RuntimeWarnings into errors: none may escape on the way
    with pytest.raises(FactorizationBreakdownError) as info:
        leading_minors(np.array(M))
    assert str(info.value) == f"{message} (minor index {j})"
    assert info.value.j == j


def test_leading_minors_requires_square():
    with pytest.raises(ValueError):
        leading_minors(np.ones((2, 3)))


# ------------------------------------------------------- Gauss factors


def test_gauss_factors_reconstruct():
    # packed: the multipliers of the unit lower l below the diagonal,
    # r = diag(d) u on and above it
    A = _gauss(TOY)
    l, r = np.tril(A, -1) + np.eye(3), np.triu(A)
    assert np.allclose(np.diag(r), [2.0, 1.5, 4.0 / 3.0], rtol=0, atol=1e-15)
    assert np.max(np.abs(l @ r - TOY)) < 1e-15


def test_gauss_factors_of_identity_are_trivial():
    assert np.array_equal(_gauss(np.eye(4)), np.eye(4))


def test_gauss_diagonal_matches_minor_ratios():
    rng = np.random.default_rng(14)
    M = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)  # comfortably factorizable
    minors = np.array([np.linalg.det(M[:j, :j]) for j in range(1, 7)])
    ratios = minors / np.concatenate([[1.0], minors[:-1]])
    d = np.diag(_gauss(M))
    assert np.max(np.abs(d - ratios)) <= 1e-12 * np.max(np.abs(ratios))


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


def _pade_structure(M):
    # the Pade order m and the number of squarings s that scipy picks for M
    Am = np.empty((5,) + M.shape)
    Am[0] = M
    return pick_pade_structure(Am)


def _assert_expm_bitwise(stack):
    got = matrix_exp(stack)
    assert got.shape == stack.shape
    N = stack.shape[-1]
    for E, M in zip(got.reshape(-1, N, N), stack.reshape(-1, N, N)):
        assert np.array_equal(E, expm(M))


@pytest.mark.parametrize("seed", [7, 811])
def test_exponential_of_trajectory_stacks_is_scipy_expm_bitwise(seed, count_calls):
    # t Ycal stacks of dense-pool states (n = 8, beta 0.5, kappa 1).  The
    # kernels are private to scipy: matrix_exp checks their convention on
    # its first call, and would fall back to expm if it had changed.
    assert solve_module._kernels_reproduce_expm()
    stacked = count_calls(solve_module, "_pade_stack")
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    times = sample_times(5.0, 0.05)[1:]
    structures = set()
    for _ in range(4):
        state = State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8))
        stack = times[:, None, None] * build_bundle(state, params).Ycal
        _assert_expm_bitwise(stack)
        structures.update(_pade_structure(M) for M in stack)
    assert stacked.count == 4
    assert {m for m, _ in structures} == {5, 7, 9, 13}
    assert {0, 1} <= {s for _, s in structures}


def test_exponential_of_crafted_inputs_is_scipy_expm_bitwise(count_calls):
    Y = build_bundle(STATE, ModelParams(5, 1.0, 1.0)).Ycal
    scaled = np.array([4.0, 8.0, 16.0])[:, None, None] * Y
    assert min(_pade_structure(M)[1] for M in scaled) >= 3
    _assert_expm_bitwise(scaled)
    _assert_expm_bitwise(1.5 * Y)
    _assert_expm_bitwise(np.stack([scaled[:2], 0.25 * scaled[:2]]))
    _assert_expm_bitwise(np.zeros((6, 6)))
    # scipy treats triangular and diagonal matrices apart; a stack holding
    # one goes to expm whole
    stacked = count_calls(solve_module, "_pade_stack")
    for special in (np.triu, np.tril, lambda M: np.diag(np.diag(M))):
        mixed = np.array([0.5, 1.0, 2.0])[:, None, None] * Y
        mixed[1] = special(mixed[1])
        _assert_expm_bitwise(mixed)
    assert stacked.count == 0


def _am_unchanged(Am, m):
    # a pade_UV_calc that reports success and leaves the scratch as it was
    return 0


@pytest.mark.parametrize("mutant", ["missing", "am_unchanged"])
def test_kernels_that_fail_the_convention_check_fall_back_to_expm(
    mutant, monkeypatch, count_calls
):
    pick_pade_structure, _ = solve_module._pade_kernels()
    kernels = {"missing": None, "am_unchanged": (pick_pade_structure, _am_unchanged)}[mutant]
    monkeypatch.setattr(solve_module, "_pade_kernels", lambda: kernels)
    solve_module._kernels_reproduce_expm.cache_clear()
    try:
        assert not solve_module._kernels_reproduce_expm()
        stacked = count_calls(solve_module, "_pade_stack")
        Y = build_bundle(STATE, ModelParams(5, 1.0, 1.0)).Ycal
        _assert_expm_bitwise(sample_times(5.0, 0.05)[1:, None, None] * Y)
        assert stacked.count == 0
    finally:
        # the next check runs on the real kernels
        solve_module._kernels_reproduce_expm.cache_clear()


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
    assert np.max(np.abs(rates - _xh_q_theta(STATE.xi[None], STATE.eta[None], PARAMS)[0])) < 1e-10


def test_rates_match_position_differences():
    h = 1e-5
    fd = (positions_at(STATE, PARAMS, 1.0 + h) - positions_at(STATE, PARAMS, 1.0 - h)) / (
        2.0 * h
    )
    assert np.max(np.abs(fd - position_rates_at(STATE, PARAMS, 1.0))) < 1e-6


def test_rapidities_at_zero_match_state():
    assert np.max(np.abs(rapidities_at(STATE, PARAMS, 0.0) - STATE.eta)) < 1e-9


def _horizon_draws() -> list[State]:
    rng = np.random.default_rng(11)
    return [random_state(n, rng, box=box) for n, box in ((3, 1), (4, 1), (4, 2), (5, 1.5))]


@pytest.mark.parametrize("evaluate", [positions_at, position_rates_at, rapidities_at])
@pytest.mark.parametrize(
    "draw, params, t, horizon",
    [
        # positions off by 12.7 and 48.4 against DOP853 at rtol 1e-13, where
        # solve_trajectory meets a non-positive minor at an earlier sample
        (1, ModelParams(4, 0.5, 0.3), 60.0, "51.3"),
        (3, ModelParams(5, 1.0, 0.0), 20.0, "183"),
        # off by 9.4e-7, where solve_trajectory refuses through its energy gate
        (3, ModelParams(5, 1.0, 0.0), 5.0, "45.8"),
    ],
)
def test_point_evaluators_refuse_samples_past_the_horizon(evaluate, draw, params, t, horizon):
    state = _horizon_draws()[draw]
    message = rf"energy drift .* at t = {t} \(beta \(H - n\) t = {horizon}\)"
    with pytest.raises(TrajectoryCheckError, match=message):
        evaluate(state, params, t)


@pytest.mark.parametrize("evaluate", [positions_at, position_rates_at, rapidities_at])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_point_evaluators_refuse_a_time_that_is_not_finite(evaluate, t):
    with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
        evaluate(STATE, PARAMS, t)


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_point_at_an_overflowing_time_fails_the_exponential_without_a_warning(t):
    state, params = random_state(4, np.random.default_rng(3), box=1.0), ModelParams(4, 1.0, 1.0)
    assert np.abs(build_bundle(state, params).Ycal).max() > 2.0  # so t Ycal overflows
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        positions_at(state, params, t)


def test_point_evaluators_agree_with_trajectory_samples():
    # the energy gate passes every sample solve_trajectory accepts (sample 0
    # is the state itself, not a point evaluation)
    traj = solve_trajectory(STATE, PARAMS, 5.0, sample_dt=1.25)
    for t, sample in zip(traj.t[1:], traj.states[1:]):
        assert np.array_equal(positions_at(STATE, PARAMS, t), sample.xi)
        assert np.array_equal(rapidities_at(STATE, PARAMS, t), sample.eta)


# n = 5, beta = 0.5, kappa = 0.3, t = 30: beta (H - n) t = 19.8, the point
# of a seeded 120-point sweep with the largest error the energy gate passes
EDGE = State(
    np.array([0.37714971824646837, 0.22763456294954076, -0.029965454425319504,
              -0.02565191123574695, -0.31570915141605016]),
    np.array([0.4847235458253851, -0.25644303326926865, -0.26483172317211967,
              0.30527334229469705, 0.0865449967909877]),
)


def test_positions_near_the_edge_of_the_range_stay_within_the_documented_bound():
    params, t = ModelParams(5, 0.5, 0.3), 30.0
    growth = params.beta * (hamiltonian(EDGE, params) - params.n) * t
    assert 19.7 < growth < 19.8
    reference = integrate(EDGE, params, t, sample_dt=t, rtol=1e-13, atol=1e-15).states[-1].xi
    err = np.max(np.abs(positions_at(EDGE, params, t) - reference))
    # README "Precision range" bounds returned points by 100 eps e^(beta (H - n) t);
    # this one stays under 30 eps e^(beta (H - n) t), 2.6e-6 here
    assert err <= 30 * 2.2e-16 * np.exp(growth)


# n = 3, beta = 0.5, kappa = 0: off by 3.6e-12 and 3.5e-10 at the two
# times below, 0.02 and 0.72 times 100 eps e^(beta (H - n) t); the seeded
# sweep of demos/precision_range.py peaks at 0.70 times it
COOL = State(
    np.array([-0.03279118617465904, -0.23579456005953148, 0.3889420380314923]),
    np.array([-0.21368168745738525, 0.2737669316985375, -0.012755138947714628]),
)


@pytest.mark.parametrize("t, nominal", [(25.0, 9.05), (27.627479032378567, 10.0)])
def test_returned_positions_stay_within_the_documented_bound(t, nominal):
    params = ModelParams(3, 0.5, 0.0)
    growth = params.beta * (hamiltonian(COOL, params) - params.n) * t
    assert growth == pytest.approx(nominal, abs=5e-3)
    reference = integrate(COOL, params, t, sample_dt=t, rtol=1e-13, atol=1e-15).states[-1].xi
    err = np.max(np.abs(positions_at(COOL, params, t) - reference))
    # README "Precision range": under 100 eps e^(beta (H - n) t)
    assert err <= 100 * 2.2e-16 * np.exp(growth)


# cool states at n <= 4, with beta (H - n) t from 6.2 to 10.0; the first is
# COOL, off by 3.5e-10 = 72 eps e^(beta (H - n) t) against the exact positions
EXACT_CASES = [
    (COOL, ModelParams(3, 0.5, 0.0), 27.627479032378567),
    ((4, 1, 1.0), ModelParams(4, 0.5, 1.0), 8.0),
    ((3, 4, 1.0), ModelParams(3, 1.0, 0.3), 2.0),
    ((4, 11, 1.0), ModelParams(4, 0.5, 0.3), 7.0),
]


@pytest.mark.parametrize(
    "state, params, t", EXACT_CASES, ids=["COOL", "n4_seed1", "n3_seed4", "n4_seed11"]
)
def test_positions_stay_within_the_documented_bound_of_the_exact_positions(state, params, t):
    # the positions of exp(t Ycal) in extended precision, from the same
    # float64 coordinates (tests/mp_reference.py), without DOP853's own error
    if not isinstance(state, State):
        n, seed, box = state
        state = random_state(n, np.random.default_rng(seed), box=box)
    growth = params.beta * (hamiltonian(state, params) - params.n) * t
    assert growth <= 10.0
    err = np.max(np.abs(positions_at(state, params, t) - mp_reference.positions(state, params, t)))
    # README "Precision range": under 100 eps e^(beta (H - n) t)
    assert err <= 100 * 2.2e-16 * np.exp(growth)


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
    q, _, error = _samples(np.zeros(3), Y, 3, np.array([1.0]))
    assert q.shape == (0, 3)
    assert isinstance(error, FactorizationBreakdownError)
    assert str(error) == "pivot underflow in minor chain (minor index 1) (t = 1.0)"
    assert (error.j, error.t) == (1, 1.0)


NON_POSITIVE = "non-positive minor ratio along the flow"

# (n, box, seed, t_end) of hot states at beta = kappa = 1 whose trajectory an
# energy-gate failure refuses, with the message; it names a sample earlier
# than any breakdown of the state
ENERGY_REFUSALS = {
    (4, 1.0, 3, 5.0): "energy drift 1.464e-08 exceeds tolerance 1.148e-08"
    " at t = 2.85 (beta (H - n) t = 21.3)",
    (8, 2.0, 1, 5.0): "energy drift 9.503e-08 exceeds tolerance 4.324e-08"
    " at t = 1.1500000000000001 (beta (H - n) t = 40.5)",
    (6, 2.0, 2, 8.0): "energy drift 3.957e-08 exceeds tolerance 3.346e-08"
    " at t = 0.9500000000000001 (beta (H - n) t = 26.1)",
    (5, 3.0, 4, 10.0): "energy drift 2.226e-07 exceeds tolerance 6.327e-08"
    " at t = 0.55 (beta (H - n) t = 32)",
    (3, 3.0, 3, 30.0): "energy drift 2.301e-06 exceeds tolerance 6.797e-08"
    " at t = 0.35000000000000003 (beta (H - n) t = 22.7)",
    (3, 4.0, 6, 30.0): "energy drift 5.159e-07 exceeds tolerance 7.745e-08"
    " at t = 0.45 (beta (H - n) t = 33.5)",
    (10, 2.5, 7, 12.0): "energy drift 1.585e-07 exceeds tolerance 1.127e-07"
    " at t = 0.30000000000000004 (beta (H - n) t = 30.8)",
}


@pytest.mark.parametrize(
    "n, box, seed, t_end, reason, j, t",
    [
        (8, 2.0, 1, 5.0, NON_POSITIVE, 8, 1.95),
        (6, 2.0, 2, 8.0, NON_POSITIVE, 6, 2.3),
        (5, 3.0, 4, 10.0, NON_POSITIVE, 4, 1.15),
        # an early sample breaks down while a later sample of the same
        # block overflows its exponential: the early breakdown is reported
        (8, 3.0, 5, 20.0, NON_POSITIVE, 2, 0.05),
        # a pivot underflows where a ratio is non-positive too: the
        # underflow, checked first, is reported
        (3, 3.0, 3, 30.0, "pivot underflow in minor chain", 2, 0.8),
        # a non-positive ratio at t = 0.55 precedes a pivot underflow at
        # t = 1.05 in the same block: the earlier sample is reported
        (10, 2.5, 7, 12.0, NON_POSITIVE, 10, 0.55),
    ],
)
def test_hot_state_reports_earliest_failing_sample(n, box, seed, t_end, reason, j, t):
    # the first block breaks down at (reason, j, t); the trajectory raises
    # that breakdown only if no earlier sample fails its checks, and else
    # the energy gate at the earlier sample
    st = random_state(n, np.random.default_rng(seed), box=box)
    params = ModelParams(n, 1.0, 1.0)
    block = sample_times(t_end, 0.05)[1 : 1 + solve_module._SAMPLE_BLOCK]
    _, _, err = _samples(st.xi, build_bundle(st, params).Ycal, n, block)
    assert isinstance(err, FactorizationBreakdownError)
    assert str(err) == f"{reason} (minor index {j}) (t = {err.t})"
    assert err.j == j
    assert err.t == pytest.approx(t, abs=1e-12)
    with pytest.raises((TrajectoryCheckError, FactorizationBreakdownError)) as info:
        solve_trajectory(st, params, t_end)
    refusal = ENERGY_REFUSALS.get((n, box, seed, t_end))
    if refusal is None:
        assert type(info.value) is FactorizationBreakdownError
        assert str(info.value) == str(err)
    else:
        assert type(info.value) is TrajectoryCheckError
        assert str(info.value) == refusal


@pytest.mark.parametrize("block", [1, 7, 32, 64, 128])
def test_sample_block_size_changes_no_trajectory_bit(monkeypatch, block):
    want = solve_trajectory(STATE, PARAMS, 8.0)
    monkeypatch.setattr(solve_module, "_SAMPLE_BLOCK", block)
    got = solve_trajectory(STATE, PARAMS, 8.0)
    assert np.array_equal(got.t, want.t) and np.array_equal(got.energy, want.energy)
    for a, b in zip(got.states, want.states):
        assert np.array_equal(a.xi, b.xi) and np.array_equal(a.eta, b.eta)


@pytest.mark.parametrize(
    "n, box, seed, t_end",
    [(4, 1.0, 3, 5.0), (8, 3.0, 5, 20.0), (3, 4.0, 6, 30.0), (10, 2.5, 7, 12.0)],
)
def test_sample_block_size_changes_no_hot_state_error(monkeypatch, n, box, seed, t_end):
    # the energy gate, breakdowns both early and late in a block, and an
    # overflowing exponential later in the block of a breakdown
    st = random_state(n, np.random.default_rng(seed), box=box)
    outcomes = set()
    for block in (1, 7, 32, 64, 128):
        monkeypatch.setattr(solve_module, "_SAMPLE_BLOCK", block)
        with pytest.raises((TrajectoryCheckError, FactorizationBreakdownError)) as info:
            solve_trajectory(st, ModelParams(n, 1.0, 1.0), t_end)
        outcomes.add((type(info.value), str(info.value)))
    assert len(outcomes) == 1


def test_hot_state_within_factorization_range_fails_energy_check():
    st = random_state(4, np.random.default_rng(3), box=1.0)
    with pytest.raises(TrajectoryCheckError, match="energy drift"):
        solve_trajectory(st, ModelParams(4, 1.0, 1.0), 5.0)


@pytest.mark.parametrize(
    "n, box, seed, t_end, first",
    [(4, 1.0, 3, 5.0, 57), (8, 2.0, 1, 5.0, 23), (3, 4.0, 6, 30.0, 9)],
)
def test_refused_trajectory_and_refused_point_raise_one_message(n, box, seed, t_end, first):
    # one sample check for both: the trajectory names its first failing
    # sample, before any breakdown of a later one, and that sample alone,
    # as a point, raises the same string
    st = random_state(n, np.random.default_rng(seed), box=box)
    params = ModelParams(n, 1.0, 1.0)
    with pytest.raises(TrajectoryCheckError) as traj_info:
        solve_trajectory(st, params, t_end)
    times = sample_times(t_end, 0.05)
    with pytest.raises(TrajectoryCheckError) as point_info:
        positions_at(st, params, times[first])
    want = ENERGY_REFUSALS[(n, box, seed, t_end)]
    assert f" at t = {times[first]} " in want
    assert str(traj_info.value) == str(point_info.value) == want
    for t in times[1:first]:
        positions_at(st, params, t)


def test_block_stops_at_first_non_finite_rate():
    # pivot 1 of exp(t Y) is e^{-667 t}: at t = 1 the multiplier below it
    # overflows, so the rates of that sample are not finite
    Y = np.array([[-667.0, 0.0], [1000.0, 230.0]])
    q, qdot, error = _samples(np.zeros(1), Y, 1, np.array([0.5, 1.0, 1.5]))
    assert q.shape == qdot.shape == (1, 1)
    assert isinstance(error, FactorizationBreakdownError)
    assert str(error) == "non-finite minor log-rates (t = 1.0)"


# ---------------------------------------------------------- stacked blocks


@pytest.mark.parametrize("n", [3, 8, 12])
def test_stacked_rates_match_per_sample_triangular_solves(n):
    # dense-pool-like states: beta 0.5, kappa 1, |xi_a|, |eta_a| <= 1
    params = ModelParams(n, 0.5, 1.0)
    rng = np.random.default_rng(7)
    times = 0.05 * np.arange(1, 101)
    for _ in range(4):
        st = State(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
        Y = build_bundle(st, params).Ycal
        A = _gauss(matrix_exp(times[:, None, None] * Y))
        l = np.tril(A, -1) + np.eye(2 * n)
        rates = _minor_log_rates(l, Y, n)
        assert rates.shape == (100, n)
        for k, l_k in enumerate(l):
            Z, info = dtrtrs(l_k[:n, :n], Y[:n] @ l_k[:, :n], lower=1, unitdiag=1)
            assert info == 0
            ref = np.diag(Z)
            assert np.max(np.abs(rates[k] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(_minor_log_rates(l[k : k + 1], Y, n)[0], rates[k])


def test_trajectory_stacks_are_c_ordered_with_one_state_energies():
    # the stacks behind the sample states are C-ordered, so each energy has
    # the bits of the one-state call on its sample
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(811)
    for _ in range(4):
        state = State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8))
        traj = solve_trajectory(state, params, 5.0)
        assert traj.states[0].xi.base.flags.c_contiguous
        assert traj.states[0].eta.base.flags.c_contiguous
        for s, h in zip(traj.states, traj.energy):
            assert h == hamiltonian(s, params)


def test_stacked_exponential_is_bitwise_per_matrix():
    Y = build_bundle(STATE, PARAMS).Ycal
    times = 0.05 * np.arange(1, 33)
    stack = matrix_exp(times[:, None, None] * Y)
    assert stack.shape == (32,) + Y.shape
    for t, E in zip(times, stack):
        assert np.array_equal(E, matrix_exp(t * Y))


def test_block_with_overflowing_sample_keeps_earlier_samples():
    # exp(t Y) has the entry e^{300 t}, which overflows from t = 2.37 on:
    # the stacked exponential fails, and the block is retaken sample by
    # sample up to its first overflowing one
    Y = np.array([[300.0, 0.0], [1.0, -1.0]])
    times = np.array([0.5, 1.0, 2.0, 2.5, 3.0])
    q, qdot, error = _samples(np.zeros(1), Y, 1, times)
    assert q.shape == qdot.shape == (3, 1)
    assert type(error) is CoordinateOverflowError
    assert str(error) == "matrix exponential overflowed"
    assert error.__context__ is None
    for k, t in enumerate(times[:3]):
        q_k, qdot_k, error_k = _samples(np.zeros(1), Y, 1, np.array([t]))
        assert error_k is None
        assert np.array_equal(q[k], q_k[0]) and np.array_equal(qdot[k], qdot_k[0])
    _, _, error = _samples(np.zeros(1), Y, 1, np.array([2.5]))
    assert type(error) is CoordinateOverflowError
    assert str(error) == "matrix exponential overflowed"
