"""Adaptive integration, trajectory containers, and CSV emission."""

import dataclasses
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import vdtoda
from vdtoda import (
    ModelParams,
    State,
    integrate,
    random_state,
    solve_trajectory,
    time_reversal,
)
from vdtoda.hamiltonian import _eom_arrays, hamiltonian
from vdtoda.integrate import (
    _A,
    _B,
    _D,
    _E3,
    _E5,
    StepSizeUnderflowError,
    Trajectory,
    _sample_stacks,
    backward_via_reversal,
    sample_times,
    spectral_drift,
    spectrum_to_csv,
    trajectory_to_csv,
)
from vdtoda.integrate import solve_ivp as dop853

PARAMS = ModelParams(4, 0.5, 1.0)

integrate_module = sys.modules["vdtoda.integrate"]


def _state(seed: int, n: int = 4, box: float = 1.0) -> State:
    return random_state(n, np.random.default_rng(seed), box=box)


# ------------------------------------------------------------ sample grid


def test_sample_grid_counts():
    assert np.array_equal(sample_times(0.0, 0.05), [0.0])
    assert len(sample_times(1.0, 0.1)) == 11  # floor(1.0 / 0.1) + 1
    assert len(sample_times(0.95, 0.1)) == 10
    t = sample_times(5.0, 0.05)
    assert len(t) == 101
    assert t[0] == 0.0 and t[-1] <= 5.0
    assert np.all(np.diff(t) > 0)


def test_sample_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_times(-1.0, 0.1)
    with pytest.raises(ValueError):
        sample_times(1.0, 0.0)


def test_sample_grid_caps_its_size():
    assert len(sample_times(999_999.0, 1.0)) == 10**6
    for t_end, sample_dt in [(1e6, 1.0), (1.0, 1e-300), (1e10, 5e-324)]:
        with pytest.raises(ValueError, match="sample_dt = .* and t_end = .* give more"):
            sample_times(t_end, sample_dt)


@pytest.mark.parametrize(
    "t_end, sample_dt", [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)]
)
def test_sample_grid_rejects_non_finite_input(t_end, sample_dt):
    with pytest.raises(ValueError, match="t_end must be finite and >= 0, sample_dt finite"):
        sample_times(t_end, sample_dt)


# ------------------------------------------------------------- integrator


def _counted(fun):
    calls = []

    def counted(*args):
        calls.append(None)
        return fun(*args)

    return counted, calls


def _chain_rhs(params):
    n = params.n
    return lambda y, out: _eom_arrays(y[:n], y[n:], params, out=out)


def _ours_and_scipy(fun, scipy_fun, t_end, y0, times, rtol, atol):
    ours, our_calls = _counted(fun)
    theirs, their_calls = _counted(scipy_fun)
    got = dop853(ours, t_end, y0, times, rtol, atol)
    sol = solve_ivp(
        theirs, (0.0, t_end), y0, method="DOP853", t_eval=times, rtol=rtol, atol=atol
    )
    return got, our_calls, sol, their_calls


# dense-pool states: n = 8, beta 0.5, kappa 1, |xi_a|, |eta_a| <= 1
@pytest.mark.parametrize(
    "seed, t_end, rtol, atol",
    [(7, 5.0, 1e-10, 1e-12), (601, 5.0, 1e-10, 1e-12), (4242, 2.0, 1e-12, 1e-14)],
)
def test_integrator_takes_scipy_dop853_steps_bitwise(seed, t_end, rtol, atol):
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    y0 = np.concatenate([rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)])
    times = sample_times(t_end, 0.05)
    rhs = _chain_rhs(params)
    got, calls, sol, scipy_calls = _ours_and_scipy(
        rhs, lambda _t, y: rhs(y, np.empty(16)), t_end, y0, times, rtol, atol
    )
    assert sol.success
    assert np.array_equal(sol.t, times)
    assert np.array_equal(got, sol.y.T)
    assert len(calls) == len(scipy_calls) == sol.nfev


# (t_end, sample times) that put the samples of a dense-pool state in
# different places among the steps
SAMPLE_GRIDS = {
    "one_sample": (0.5, np.array([0.5])),
    "many_per_step": (0.5, sample_times(0.5, 0.0005)),
    "most_steps_without": (20.0, sample_times(20.0, 2.5)),
    "over_three_blocks": (25.0, sample_times(25.0, 0.05)),
}


@pytest.mark.parametrize("grid", SAMPLE_GRIDS)
def test_integrator_samples_any_grid_as_scipy_dop853_bitwise(grid, count_calls):
    # the interpolants of pending steps are evaluated in stacks of
    # _DENSE_BLOCK samples and at the end, each sample as alone
    t_end, times = SAMPLE_GRIDS[grid]
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(2718)
    y0 = np.concatenate([rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)])
    rhs = _chain_rhs(params)
    flushes = count_calls(integrate_module, "_dense_output")
    got, calls, sol, scipy_calls = _ours_and_scipy(
        rhs, lambda _t, y: rhs(y, np.empty(16)), t_end, y0, times, 1e-10, 1e-12
    )
    assert sol.success and np.array_equal(sol.t, times)
    assert np.array_equal(got, sol.y.T)
    assert len(calls) == len(scipy_calls) == sol.nfev
    steps = sol.nfev // 12
    if grid == "many_per_step":
        assert len(times) == 1001 and len(times) > 4 * steps
    if grid == "most_steps_without":
        assert steps > 2 * len(times)
    # every evaluation but the last holds a block or more
    block = integrate_module._DENSE_BLOCK
    assert 1 <= flushes.count <= 1 + (len(times) - 1) // block
    if grid in ("one_sample", "most_steps_without"):
        assert flushes.count == 1
    if grid == "over_three_blocks":
        assert len(times) > 3 * block and flushes.count > 3


@pytest.mark.parametrize("seed", [7, 601, 4242])
def test_integrate_samples_are_scipy_dop853_bitwise(seed):
    # integrate's own RHS (one kernel from _eom_work, one errstate, stage
    # points in one buffer) against scipy with the one-shot RHS, on a
    # dense-pool state
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    state = State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8))
    traj = integrate(state, params, 5.0)
    rhs = _chain_rhs(params)
    y0 = np.concatenate([state.xi, state.eta])
    sol = solve_ivp(
        lambda _t, y: rhs(y, np.empty(16)),
        (0.0, 5.0),
        y0,
        method="DOP853",
        t_eval=traj.t,
        rtol=1e-10,
        atol=1e-12,
    )
    assert sol.success and np.array_equal(sol.t, traj.t)
    assert np.array_equal(np.hstack(_sample_stacks(traj)), sol.y.T)


def test_integrator_fails_like_scipy_at_a_blow_up():
    # y' = y^2, y(0) = 1 blows up at t = 1
    times = np.linspace(0.0, 2.0, 9)
    with pytest.raises(StepSizeUnderflowError) as info:
        dop853(
            lambda y, out: np.multiply(y, y, out=out), 2.0, np.ones(1), times, 1e-6, 1e-9
        )
    sol = solve_ivp(
        lambda _t, y: y * y,
        (0.0, 2.0),
        np.ones(1),
        method="DOP853",
        t_eval=times,
        rtol=1e-6,
        atol=1e-9,
    )
    assert not sol.success
    assert str(info.value) == f"{sol.message} (time reached: {sol.t[-1]})"
    assert info.value.t_reached == sol.t[-1]
    assert 0.0 < sol.t[-1] < 2.0


@pytest.mark.parametrize(
    "times, message",
    [
        ([0.0, 0.5, 2.0], "Values in `t_eval` are not within `t_span`."),
        ([-0.5, 0.0, 0.5], "Values in `t_eval` are not within `t_span`."),
        ([0.0, 0.5, 0.25], "Values in `t_eval` are not properly sorted."),
        ([0.0, 0.5, 0.5], "Values in `t_eval` are not properly sorted."),
    ],
    ids=["past_end", "negative", "decreasing", "repeated"],
)
def test_integrator_refuses_a_grid_outside_its_span_or_unsorted_as_scipy(times, message):
    calls = []

    def fun(y, out):
        calls.append(1)
        return np.negative(y, out=out)

    times = np.array(times)
    with pytest.raises(ValueError) as ours:
        dop853(fun, 1.0, np.ones(2), times, 1e-8, 1e-10)
    with pytest.raises(ValueError) as theirs:
        solve_ivp(lambda _t, y: -y, (0.0, 1.0), np.ones(2), method="DOP853", t_eval=times)
    assert str(ours.value) == str(theirs.value) == message
    assert not calls


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
def test_integrator_refuses_an_end_time_that_is_not_finite_and_positive(t_end):
    # scipy returns a malformed result for t_end = 0; this integrator refuses it
    # before the first call, so no row is left unwritten
    calls = []

    def fun(y, out):
        calls.append(1)
        return np.negative(y, out=out)

    with pytest.raises(ValueError, match="^t_end must be finite and positive$"):
        dop853(fun, t_end, np.ones(2), np.array([0.0]), 1e-8, 1e-10)
    assert not calls


def test_integrator_clamps_rtol_with_scipy_warning():
    times = np.linspace(0.0, 1.0, 5)
    y0 = np.array([1.0, 0.5])
    with pytest.warns(UserWarning) as ours:
        got = dop853(
            lambda y, out: np.negative(y, out=out), 1.0, y0, times, 1e-16, 1e-14
        )
    with pytest.warns(UserWarning) as theirs:
        sol = solve_ivp(
            lambda _t, y: -y,
            (0.0, 1.0),
            y0,
            method="DOP853",
            t_eval=times,
            rtol=1e-16,
            atol=1e-14,
        )
    assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]
    assert "rtol" in str(ours[0].message)
    assert np.array_equal(got, sol.y.T)


def test_tables_are_scipy_dop853():
    c = dop853_coefficients
    for ours, theirs in [(_A, c.A), (_B, c.B), (_E3, c.E3), (_E5, c.E5), (_D, c.D)]:
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


def modules_after_import() -> list[str]:
    # the keys of sys.modules in a fresh interpreter after ``import vdtoda``
    root = str(Path(vdtoda.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {root!r}); import vdtoda; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_import_leaves_scipy_integrate_unloaded():
    # the DOP853 tables are run from scipy's file, under a name registered nowhere
    loaded = modules_after_import()
    assert not [m for m in loaded if m.startswith("scipy.integrate") or "dop853" in m]


def test_import_leaves_scipy_optimize_unloaded():
    assert "scipy.optimize" not in modules_after_import()


# ------------------------------------------------------------- container


def test_initial_only_holds_one_sample():
    st = _state(1)
    traj = integrate(st, PARAMS, 0.0)
    assert traj.t.shape == (1,)
    assert traj.t[0] == 0.0
    assert np.array_equal(traj.states[0].xi, st.xi)
    assert traj.energy[0] == hamiltonian(st, PARAMS)
    assert traj.spectrum.shape == (1, 8)
    assert spectral_drift(traj) == 0.0


def test_trajectory_arrays_are_readonly():
    traj = integrate(_state(2), PARAMS, 0.0)
    with pytest.raises(ValueError):
        traj.t[0] = 3.0
    with pytest.raises(ValueError):
        traj.energy[0] = 0.0


@pytest.mark.parametrize("t", [[0.0, np.nan, 0.1], [0.0, np.inf, np.inf], [0.0, 0.05, np.inf]])
def test_trajectory_refuses_sample_times_that_are_not_finite(t):
    traj = integrate(_state(2), PARAMS, 0.1)
    with pytest.raises(ValueError, match="^sample times must start at 0 and increase strictly$"):
        dataclasses.replace(traj, t=np.array(t))


def test_integrate_validates_arguments():
    st = _state(3)
    with pytest.raises(ValueError, match="^t_end must be finite and >= 0$"):
        integrate(st, PARAMS, -2.0)
    with pytest.raises(ValueError):
        integrate(st, PARAMS, 1.0, rtol=0.0)
    with pytest.raises(ValueError):
        integrate(st, ModelParams(5, 0.5, 1.0), 1.0)  # size mismatch


def test_zero_horizon_is_the_initial_sample_on_both_routes():
    st = _state(3)
    rk, algebraic = integrate(st, PARAMS, 0.0), solve_trajectory(st, PARAMS, 0.0)
    for field in ("t", "energy", "spectrum"):
        assert np.array_equal(getattr(rk, field), getattr(algebraic, field)), field
    for a, b in zip(_sample_stacks(rk), _sample_stacks(algebraic)):
        assert a.shape == (1, PARAMS.n) and np.array_equal(a, b)
    # the arguments are checked before the zero horizon returns
    with pytest.raises(ValueError, match="^rtol and atol must be finite and positive$"):
        integrate(st, PARAMS, 0.0, rtol=0.0)
    with pytest.raises(ValueError, match="sample_dt finite and > 0"):
        integrate(st, PARAMS, 0.0, sample_dt=0.0)
    with pytest.raises(ValueError, match="^state size does not match params.n$"):
        integrate(st, ModelParams(5, 0.5, 1.0), 0.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(t_end=np.nan), "t_end"),
        (dict(t_end=np.inf), "t_end"),
        (dict(rtol=np.nan), "rtol and atol"),
        (dict(atol=np.inf), "rtol and atol"),
    ],
)
def test_integrate_rejects_non_finite_input(kwargs, field):
    args = dict(t_end=1.0) | kwargs
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        integrate(_state(3), PARAMS, **args)


# ---------------------------------------------------------------- physics


def test_energy_and_spectrum_stay_flat():
    st = _state(4)
    traj = integrate(st, PARAMS, 10.0, rtol=1e-10, atol=1e-12)
    h0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - h0)) <= 1e-8 * abs(h0)
    assert spectral_drift(traj) <= 1e-7


def test_forward_then_reversed_forward_returns_home():
    st = _state(5)
    t_end = 5.0
    out = integrate(st, PARAMS, t_end, sample_dt=t_end).states[-1]
    back = integrate(time_reversal(out), PARAMS, t_end, sample_dt=t_end).states[-1]
    home = time_reversal(back)
    assert np.max(np.abs(home.xi - st.xi)) < 1e-7
    assert np.max(np.abs(home.eta - st.eta)) < 1e-7


def test_rk_route_matches_algebraic_route_on_dense_pool():
    # 16 dense-pool states at the CLI tolerances (rtol 1e-10, atol 1e-12)
    params = ModelParams(8, 0.5, 1.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(16):
        st = State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8))
        rk = _sample_stacks(integrate(st, params, 5.0, sample_dt=0.05))
        ref = _sample_stacks(solve_trajectory(st, params, 5.0, sample_dt=0.05))
        worst = max(worst, *(float(np.max(np.abs(a - b))) for a, b in zip(rk, ref)))
    assert worst <= 1e-8


def test_rk_error_decreases_with_tolerance():
    st = _state(6)
    ref = solve_trajectory(st, PARAMS, 2.0, sample_dt=0.5)
    errs = []
    for rtol in (1e-4, 1e-7, 1e-10):
        tr = integrate(st, PARAMS, 2.0, sample_dt=0.5, rtol=rtol, atol=rtol * 1e-2)
        errs.append(
            max(
                np.max(np.abs(a.xi - b.xi))
                for a, b in zip(tr.states, ref.states)
            )
        )
    assert errs[0] > errs[1] > errs[2]


# ------------------------------------------------------- backward samples


def test_backward_samples_match_negated_field():
    st = _state(7)
    fwd = integrate(st, PARAMS, 3.0, sample_dt=0.5, rtol=1e-10, atol=1e-12)
    bwd = backward_via_reversal(fwd)
    assert np.array_equal(bwd.t, fwd.t)

    n = PARAMS.n
    start = time_reversal(st)

    def negated(_t, y):
        return -_eom_arrays(y[:n], y[n:], PARAMS)

    sol = solve_ivp(
        negated,
        (0.0, 3.0),
        np.concatenate([start.xi, start.eta]),
        t_eval=bwd.t,
        rtol=1e-12,
        atol=1e-14,
    )
    for i in range(len(bwd.t)):
        assert np.max(np.abs(bwd.states[i].xi - sol.y[:n, i])) < 1e-6
        assert np.max(np.abs(bwd.states[i].eta - sol.y[n:, i])) < 1e-6


def test_double_reversal_is_bitwise_identity():
    fwd = integrate(_state(8), PARAMS, 2.0, sample_dt=0.5)
    twice = backward_via_reversal(backward_via_reversal(fwd))
    assert np.array_equal(twice.t, fwd.t)
    assert np.array_equal(twice.energy, fwd.energy)
    for a, b in zip(twice.states, fwd.states):
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.eta, b.eta)


# ----------------------------------------------------------- drift budget


@pytest.fixture
def budgets(monkeypatch):
    # the drift budget of every ``_check_bounds`` call, in call order
    seen = []
    check = integrate_module._check_bounds

    def spy(params, t, xi, eta, energy, drift_tol, h0):
        seen.append(drift_tol)
        return check(params, t, xi, eta, energy, drift_tol, h0)

    monkeypatch.setattr(integrate_module, "_check_bounds", spy)
    return seen


@pytest.mark.parametrize("seed, n, box", [(0, 3, 1.0), (1, 4, 2.0), (2, 8, 1.0)])
def test_drift_budget_of_every_route_scales_the_initial_energy(budgets, seed, n, box):
    params = ModelParams(n, 0.5, 1.0)
    st = _state(seed, n, box)
    h0 = hamiltonian(st, params)
    for rtol in (1e-10, 1e-8):
        integrate(st, params, 1.0, rtol=rtol, atol=1e-12)
        assert budgets.pop() == 100.0 * rtol * abs(h0)
    solve_trajectory(st, params, 1.0)
    assert budgets.pop() == 1e-9 * max(1.0, abs(h0))
    fwd = integrate(st, params, 1.0)
    backward_via_reversal(fwd)
    drift = float(np.max(np.abs(fwd.energy - fwd.energy[0])))
    assert budgets.pop() == drift + 1e-12 * max(1.0, abs(h0))


# ------------------------------------------------------------ CSV output


def test_trajectory_csv_round_trips_exactly():
    traj = integrate(_state(9), PARAMS, 1.0, sample_dt=0.25)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,q4,theta1,theta2,theta3,theta4,H"
    assert len(lines) == 1 + 5  # header + floor(1.0/0.25) + 1 samples
    for i, line in enumerate(lines[1:]):
        vals = [float(v) for v in line.split(",")]
        assert vals[0] == traj.t[i]  # %.17g reproduces doubles exactly
        assert np.array_equal(vals[1:5], traj.states[i].xi)
        assert np.array_equal(vals[5:9], traj.states[i].eta)
        assert vals[9] == traj.energy[i]


def test_trajectory_csv_method_column():
    traj = integrate(_state(10), PARAMS, 0.0)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf, method="rk")
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].endswith(",method")
    assert lines[1].endswith(",rk")


def test_spectrum_csv_shape():
    traj = integrate(_state(11), PARAMS, 1.0, sample_dt=0.5)
    buf = io.StringIO()
    spectrum_to_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t," + ",".join(f"lambda_{a}" for a in range(1, 9))
    assert len(lines) == 1 + 3
    for i, line in enumerate(lines[1:]):
        vals = [float(v) for v in line.split(",")]
        assert len(vals) == 1 + 2 * 4  # t and a 2n = 8 spectrum
        assert vals[0] == traj.t[i] and np.array_equal(vals[1:], traj.spectrum[i])


def test_csv_accepts_paths(tmp_path):
    traj = integrate(_state(12), PARAMS, 0.0)
    target = tmp_path / "out.csv"
    trajectory_to_csv(traj, str(target))
    assert target.read_text().startswith("t,q1")


def test_csv_text_is_never_held_whole():
    # at n = 12 a row is about 570 characters of text; holding the whole
    # text peaks near 1.8 KB per sample, and copying the samples into one
    # number table near 400 B; written row by row from the samples, the
    # peak does not grow with the sample count
    n, samples = 12, 10001
    rng = np.random.default_rng(0)
    states = State.from_stacks(rng.normal(size=(samples, n)), rng.normal(size=(samples, n)))
    params = ModelParams(n, 0.5, 1.0)
    traj = Trajectory(params, 0.05 * np.arange(samples), states, rng.normal(size=samples))

    class Discard:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        trajectory_to_csv(traj, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / samples < 40


def test_spectrum_csv_is_written_row_by_row():
    # copying the spectrum into one number table costs about 390 B per
    # sample at n = 12; written row by row, the peak does not grow with
    # the sample count
    n = 12
    params = ModelParams(n, 0.5, 1.0)
    rng = np.random.default_rng(0)

    def peak(samples: int) -> int:
        xi, eta = rng.uniform(-1.0, 1.0, (2, samples, n))
        traj = Trajectory(params, 0.05 * np.arange(samples), State.from_stacks(xi, eta),
                          np.ones(samples))
        traj.spectrum  # computed before tracing starts

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            spectrum_to_csv(traj, Discard())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(10001) - peak(1001)) / 9000 < 8
