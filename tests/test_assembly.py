"""Stacked trajectory assembly: the real spectrum, sample states, lazy spectrum.

The spectrum of a sample is the n Lcal eigenvalues of largest modulus
and their reciprocals, real and sorted; these tests pin it, bit for bit,
to that reduction of one stacked ``eigvals`` call, and check that
sorting is the minimal-cost matching it stands in for.
``State.from_stacks`` builds the sample states as read-only row views of
one checked copy.  The spectrum is computed from the trajectory's
states, blockwise on first read, while every check still runs in
``_assemble``.
"""

import dataclasses
import itertools
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import large_half_spectrum, moderate_params
from vdtoda import (
    CoordinateUnderflowError,
    ModelParams,
    State,
    integrate,
    random_state,
    solve_trajectory,
    time_reversal,
)
from vdtoda.hamiltonian import hamiltonian
from vdtoda.integrate import (
    Trajectory,
    _assemble,
    _matched_spectra,
    _sample_stacks,
    backward_via_reversal,
    spectral_drift,
)
from vdtoda.lax import build_bundle

integrate_module = sys.modules["vdtoda.integrate"]


def per_row_drift(spectrum: np.ndarray) -> float:
    # the reference: one minimal-cost assignment per row against row 0
    drift = 0.0
    for row in spectrum[1:]:
        cost = np.abs(spectrum[0][:, None] - row[None, :])
        r, c = linear_sum_assignment(cost)
        drift = max(drift, float(cost[r, c].max()))
    return drift


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def sorted_spectra(draw):
    """(samples, N) real spectra, sorted per row as ``Trajectory.spectrum`` is.

    "grid" rows sit on a coarse lattice (repeated values, equal-distance
    ties, crossings); "drift" rows move by a drawn step per sample, from
    well separated to crossing.
    """
    samples = draw(st.integers(1, 20))
    size = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["grid", "drift"])) == "grid":
        rows = rng.integers(-3, 4, (samples, size)) / 2
    else:
        step = draw(st.sampled_from([1e-3, 0.05, 0.5]))
        rows = rng.normal(size=size) + np.cumsum(step * rng.normal(size=(samples, size)), axis=0)
    return np.sort(rows, axis=1)


@settings(max_examples=200, deadline=None)
@given(sorted_spectra())
def test_spectral_drift_equals_per_row_assignment(spectrum):
    # sorted real rows are matched at minimal cost: the largest matched
    # distance is the least any pairing of the two rows reaches
    perms = np.array(list(itertools.permutations(range(spectrum.shape[1]))))
    paired = np.abs(spectrum[0][perms] - spectrum[:, None, :])  # (samples, perms, N)
    best = float(paired.max(axis=2).min(axis=1).max())
    assert spectral_drift(SimpleNamespace(spectrum=spectrum)) == best


@pytest.mark.parametrize(
    "row",
    [
        np.array([0.4, 2.0]),  # both nearest to base 0: only the assignment is optimal
        np.array([-1.0, 1.0]),  # base 0 is equally far from both
    ],
)
def test_spectral_drift_falls_back_at_a_constructed_tie(row):
    # where nearest entries are no matching, the sorted order still is the
    # minimal-cost assignment
    spectrum = np.array([[0.0, 1.0], [0.0, 1.0], row, [0.1, 0.9]])
    assert spectral_drift(SimpleNamespace(spectrum=spectrum)) == per_row_drift(spectrum)
    if row[0] == 0.4:
        assert per_row_drift(spectrum) == 1.0  # row minima alone would give 0.6


@pytest.mark.parametrize("block", [1, 4, 128])
@pytest.mark.parametrize("where", [0, 1, 4, 9])
@pytest.mark.parametrize("bad, column", [(np.nan, 6), (np.nan, 1), (np.inf, 6)])
def test_non_finite_spectrum_raises_as_the_per_sample_loop(block, where, bad, column):
    # a sample whose Lcal would not be finite raises the error of the
    # earliest such sample, as a per-sample loop would, in any block size;
    # a later sample fails with another error
    params = ModelParams(7, 0.5, 1.0)
    rng = np.random.default_rng(where)
    xi, eta = rng.uniform(-1.0, 1.0, (2, 10, 7))
    eta[where, column] = bad
    eta[where + 1 :, 0] = -np.inf
    with pytest.raises(ArithmeticError) as expected:
        for k in range(10):
            _matched_spectra(xi[k : k + 1], eta[k : k + 1], params)
    with mock.patch.object(integrate_module, "_CHAIN_BLOCK", block):
        with pytest.raises(ArithmeticError) as got:
            _matched_spectra(xi, eta, params)
    assert (got.type, str(got.value)) == (expected.type, str(expected.value))
    assert "x_a = e^{beta p_a}" in str(got.value)


# ------------------------------------------------------------ sample states


def dense_case(seed: int = 7) -> tuple[State, ModelParams]:
    # one state as in the n = 8 dense benchmark pool
    rng = np.random.default_rng(seed)
    return State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)), ModelParams(8, 0.5, 1.0)


@pytest.fixture(scope="module")
def dense_traj():
    state, params = dense_case()
    return integrate(state, params, 5.0, sample_dt=0.05)


def test_assembly_and_first_read_call_no_state_init(dense_traj, count_calls):
    xi, eta = _sample_stacks(dense_traj)
    inits = count_calls(State, "__init__")
    traj = _assemble(dense_traj.params, dense_traj.t, xi, eta, np.inf)
    spectrum = traj.spectrum  # computed on this first read
    assert inits.count == 0
    assert same_bits(spectrum, dense_traj.spectrum)


def test_sample_states_are_readonly_views_of_the_stacks(dense_traj):
    xi, eta = _sample_stacks(dense_traj)
    traj = _assemble(dense_traj.params, dense_traj.t, xi, eta, np.inf)
    assert all(type(s) is State for s in traj.states)
    assert same_bits(np.array([s.xi for s in traj.states]), xi)
    assert same_bits(np.array([s.eta for s in traj.states]), eta)
    for s in traj.states[:3]:
        assert not s.xi.flags.writeable and not s.eta.flags.writeable
        with pytest.raises(ValueError):
            s.xi[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.xi = np.zeros(8)
        assert s.n == 8
    first = traj.states[0].xi.copy()
    xi[0] += 1.0  # the states hold a copy of the stack
    assert same_bits(traj.states[0].xi, first)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["xi", "eta"])
def test_non_finite_sample_raises_state_error(dense_traj, bad, field):
    stacks = dict(zip(("xi", "eta"), _sample_stacks(dense_traj)))
    stacks[field][37, 3] = bad
    with pytest.raises(ValueError, match="state entries must be finite"):
        _assemble(dense_traj.params, dense_traj.t, stacks["xi"], stacks["eta"], np.inf)
    with pytest.raises(ValueError, match="state entries must be finite"):
        State(stacks["xi"][37], stacks["eta"][37])


def test_from_stacks_checks_shapes_and_copies_once():
    xi = np.arange(12.0).reshape(3, 4)
    states = State.from_stacks(xi, -xi)
    assert len(states) == 3 and states[1].xi.base is states[2].xi.base
    assert states[1].xi.base is not xi
    assert State.from_stacks(np.zeros((0, 4)), np.zeros((0, 4))) == ()
    for a, b in ((xi, xi[:2]), (xi[0], xi[0]), (xi[None], xi[None])):
        with pytest.raises(ValueError):
            State.from_stacks(a, b)


def test_replacing_states_keeps_working():
    params = moderate_params(4)
    traj = integrate(State(np.array([0.3, -0.2, 0.1, 0.5]), np.zeros(4)), params, 1.0, sample_dt=0.25)
    reversed_states = tuple(time_reversal(s) for s in traj.states)
    swapped = dataclasses.replace(traj, states=reversed_states)
    assert swapped.states == reversed_states
    assert same_bits(swapped.spectrum, _matched_spectra(*_sample_stacks(swapped), params))
    with pytest.raises(ValueError, match="inconsistent sample counts"):
        dataclasses.replace(traj, states=traj.states[1:])
    smaller = State.from_stacks(*(stack[:, :3] for stack in _sample_stacks(traj)))
    for states in (smaller, (*traj.states[:-1], smaller[-1])):
        with pytest.raises(ValueError, match="inconsistent state sizes"):
            dataclasses.replace(traj, states=states)


# ---------------------------------------------------------- lazy spectrum


def eager_spectrum(traj: Trajectory) -> np.ndarray:
    # the reference: one stacked eigvals over every Lcal, then the sorted
    # large half and its reciprocals
    return large_half_spectrum(np.linalg.eigvals(build_bundle(_sample_stacks(traj), traj.params).Lcal))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("route", ["integrate", "solve_trajectory", "backward_via_reversal"])
def test_read_spectrum_equals_one_stacked_eigvals_bitwise(route, kappa):
    state = State(np.array([0.3, -0.2, 0.1, 0.5]), np.array([0.2, -0.4, 0.0, 0.1]))
    params = moderate_params(4, kappa)
    if route == "solve_trajectory":
        traj = solve_trajectory(state, params, 2.0, sample_dt=0.05)
    else:
        traj = integrate(state, params, 2.0, sample_dt=0.05)
        if route == "backward_via_reversal":
            traj = backward_via_reversal(traj)
    if kappa == 0.0:  # every eigenvalue real: eigvals returns a real array
        assert np.linalg.eigvals(build_bundle(_sample_stacks(traj), params).Lcal).dtype == float
    assert same_bits(traj.spectrum, eager_spectrum(traj))


@pytest.mark.parametrize("block", [1, 4, 32])
def test_blockwise_eigvals_keep_the_bits_of_one_stacked_call(block):
    # at beta 1.9, n = 10 some of these states have complex eigenvalues and
    # some only real ones; with blocks of 4, rows 20-23 form an all-real block
    params = ModelParams(10, 1.9, 0.0)
    states = [random_state(10, np.random.default_rng(seed), box=1.0) for seed in range(40)]
    xi, eta = np.array([s.xi for s in states]), np.array([s.eta for s in states])
    kinds = {np.linalg.eigvals(build_bundle((xi[k : k + 4], eta[k : k + 4]), params).Lcal).dtype
             for k in range(0, 40, 4)}
    assert kinds == {np.dtype(float), np.dtype(complex)}
    want = large_half_spectrum(np.linalg.eigvals(build_bundle((xi, eta), params).Lcal))
    with mock.patch.object(integrate_module, "_CHAIN_BLOCK", block):
        assert same_bits(_matched_spectra(xi, eta, params), want)


def test_spectrum_is_computed_once_on_first_read(dense_traj, count_calls):
    xi, eta = _sample_stacks(dense_traj)
    calls = count_calls(integrate_module, "_matched_spectra")
    traj = _assemble(dense_traj.params, dense_traj.t, xi, eta, np.inf)
    assert calls.count == 0
    first = traj.spectrum
    assert calls.count == 1
    assert traj.spectrum is first and spectral_drift(traj) == spectral_drift(dense_traj)
    assert calls.count == 1
    assert first.dtype == float and first.shape == (101, 16) and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.spectrum = first
    with pytest.raises(dataclasses.FrozenInstanceError):
        del traj.spectrum
    assert traj.spectrum is first and calls.count == 1


@pytest.mark.parametrize("read_first", [False, True])
def test_replaced_states_get_their_own_spectrum(dense_traj, count_calls, read_first):
    xi, eta = _sample_stacks(dense_traj)
    traj = _assemble(dense_traj.params, dense_traj.t, xi, eta, np.inf)
    if read_first:
        assert same_bits(traj.spectrum, dense_traj.spectrum)
    calls = count_calls(integrate_module, "_matched_spectra")
    swapped = dataclasses.replace(traj, states=State.from_stacks(xi + 0.5, eta))
    assert calls.count == 0  # replacing computes nothing until a read
    want = _matched_spectra(xi + 0.5, eta, traj.params)
    assert same_bits(swapped.spectrum, want) and not swapped.spectrum.flags.writeable
    assert not np.array_equal(want, dense_traj.spectrum)


def test_spectrum_is_not_a_constructor_input(dense_traj):
    fields = dict(params=dense_traj.params, t=dense_traj.t, states=dense_traj.states,
                  energy=dense_traj.energy)
    with pytest.raises(TypeError):
        Trajectory(**fields, spectrum=dense_traj.spectrum)
    with pytest.raises(TypeError):
        Trajectory(*fields.values(), dense_traj.spectrum)
    assert same_bits(Trajectory(**fields).spectrum, dense_traj.spectrum)


def test_underflowing_sample_raises_from_assembly_not_from_a_read(dense_traj):
    # samples at rest 1000 apart, which pass every check but the coordinate
    # guard: e^{-(q_a - q_{a+1})} underflows to 0
    xi = np.tile(np.linspace(7000.0, 0.0, 8), (101, 1))
    with pytest.raises(CoordinateUnderflowError, match="x and w entries must be positive"):
        _assemble(dense_traj.params, dense_traj.t, xi, np.zeros_like(xi), np.inf)


def spectrum_peak(traj: Trajectory) -> int:
    # peak traced memory of the computation a first read of the spectrum runs
    xi, eta = _sample_stacks(traj)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _matched_spectra(xi, eta, traj.params)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_spectrum_memory_per_sample_is_bounded():
    # one (S, 2n, 2n) stack of Lcal alone would be 4.6 KB per sample at n = 12
    params = ModelParams(12, 0.5, 1.0)
    rng = np.random.default_rng(0)
    state = State(rng.uniform(-1.0, 1.0, 12), rng.uniform(-1.0, 1.0, 12))
    short, long = (integrate(state, params, 1.0, sample_dt=dt) for dt in (1e-3, 2.5e-4))
    per_sample = (spectrum_peak(long) - spectrum_peak(short)) / (len(long.t) - len(short.t))
    assert per_sample < 2048


# ----------------------------------------------------------- real spectrum


@pytest.mark.parametrize("seed", range(8))
def test_cool_state_spectrum_is_real_and_flat(seed):
    # the n eigenvalues of largest modulus are well conditioned here;
    # eigvals' small half is off by up to 0.18 on these states
    params = ModelParams(10, 1.9, 0.0)
    traj = integrate(random_state(10, np.random.default_rng(seed), box=0.1), params, 1.0)
    assert traj.spectrum.dtype == np.float64
    assert spectral_drift(traj) <= 1e-7


def assert_trace_and_pairing(spectrum: np.ndarray, energy: np.ndarray) -> None:
    # trace Lcal = 2 H, and the sorted rows pair lambda with 1 / lambda;
    # the tolerance is fixed ahead of any measurement
    assert np.all(np.diff(spectrum, axis=1) >= 0.0)
    assert np.max(np.abs(spectrum.sum(axis=1) - 2.0 * energy) / (2.0 * energy)) <= 1e-10
    assert np.max(np.abs(spectrum * spectrum[:, ::-1] - 1.0)) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 12),
    st.sampled_from([0.1, 0.5, 1.0, 1.9]),
    st.sampled_from([0.0, 0.3, 1.0, 2.5]),
    st.floats(0.1, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_spectrum_rows_sum_to_twice_the_energy(n, beta, kappa, box, seed):
    # four drawn states as the samples of one (unchecked) trajectory
    params = ModelParams(n, beta, kappa)
    xi, eta = np.random.default_rng(seed).uniform(-box, box, (2, 4, n))
    traj = Trajectory(params, np.arange(4.0), State.from_stacks(xi, eta),
                      hamiltonian((xi, eta), params))
    assert traj.spectrum.shape == (4, 2 * n)
    assert_trace_and_pairing(traj.spectrum, traj.energy)


def test_near_unit_pair_keeps_trace_and_pairing():
    # an asymptotic rapidity near 0 puts a pair lambda, 1 / lambda near 1;
    # draw 115 of default_rng(11) has the smallest |ln lambda| of 200 draws,
    # and a shift of its rapidities by -0.004 brings it to 1.7e-4
    params = ModelParams(12, 0.1, 0.0)
    rng = np.random.default_rng(11)
    state = [random_state(12, rng, box=1.0) for _ in range(116)][-1]
    state = State(state.xi, state.eta - 0.004)
    traj = integrate(state, params, 2.0, sample_dt=0.1)
    assert np.min(np.abs(np.log(traj.spectrum[0]))) <= 1e-3
    assert_trace_and_pairing(traj.spectrum, traj.energy)
    assert spectral_drift(traj) <= 1e-7
