"""Stacked trajectory assembly: spectrum matching, sample states, lazy spectrum.

``_match_rows`` orders each sample's eigenvalues by nearest entries where
they are the unique optimal assignment and falls back to
``linear_sum_assignment`` elsewhere; these tests pin it, bit for bit, to
the per-sample assignment loop it replaces.  ``State.from_stacks`` builds
the sample states as read-only row views of one checked copy.  The
spectrum is computed from the trajectory's states, blockwise on first
read, with the bits of one stacked ``eigvals`` call, while every check
still runs in ``_assemble``.
"""

import dataclasses
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import moderate_params
from vdtoda import (
    CoordinateUnderflowError,
    ModelParams,
    State,
    integrate,
    random_state,
    solve_trajectory,
    time_reversal,
)
from vdtoda.integrate import (
    Trajectory,
    _assemble,
    _match_rows,
    _matched_spectra,
    _sample_stacks,
    backward_via_reversal,
    spectral_drift,
)
from vdtoda.lax import build_bundle

integrate_module = sys.modules["vdtoda.integrate"]


def per_sample_match(lams: np.ndarray) -> np.ndarray:
    # the reference: one assignment per sample against the matched row before
    prev = lams[0][np.lexsort((lams[0].imag, lams[0].real))]
    rows = [prev]
    for lam in lams[1:]:
        _, col = linear_sum_assignment(np.abs(prev[:, None] - lam[None, :]))
        prev = lam[col]
        rows.append(prev)
    return np.array(rows)


def per_row_drift(spectrum: np.ndarray) -> float:
    # the reference: one assignment per row against row 0
    drift = 0.0
    for row in spectrum[1:]:
        cost = np.abs(spectrum[0][:, None] - row[None, :])
        r, c = linear_sum_assignment(cost)
        drift = max(drift, float(cost[r, c].max()))
    return drift


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def spectra(draw):
    """(samples, N) eigenvalue stacks in arbitrary per-row order.

    Half the entries are the conjugates of the other half, so real entries
    come as exact duplicates.  "grid" spectra sit on a coarse lattice
    (repeated values, equal-distance ties, crossings); "drift" spectra
    move by a drawn step per sample, from well separated to crossing.
    """
    samples = draw(st.integers(1, 40))
    half = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["grid", "drift"])) == "grid":
        values = rng.integers(-3, 4, (samples, half)) / 2 + 0.5j * rng.integers(0, 3, (samples, half))
    else:
        step = draw(st.sampled_from([1e-3, 0.05, 0.5]))
        start = rng.normal(size=half) + 1j * rng.normal(size=half)
        values = start + np.cumsum(step * rng.normal(size=(samples, half, 2)) @ [1, 1j], axis=0)
        if draw(st.booleans()):
            values = values.real + 0j
    lams = rng.permuted(np.concatenate([values, values.conj()], axis=1), axis=1)
    if samples > 1 and draw(st.booleans()):
        k = draw(st.integers(1, samples - 1))
        lams[k] = rng.permuted(lams[k - 1])  # a repeated spectrum
    if not lams.imag.any() and draw(st.booleans()):
        lams = lams.real  # eigvals returns a real array when every eigenvalue is real
    return lams


@settings(max_examples=300, deadline=None)
@given(spectra(), st.sampled_from([1, 2, 3, 7, 128]))
def test_matching_equals_per_sample_assignment_bitwise(lams, block):
    with mock.patch.object(integrate_module, "_MATCH_BLOCK", block):
        assert same_bits(_match_rows(lams), per_sample_match(lams))


@settings(max_examples=200, deadline=None)
@given(spectra(), st.sampled_from([1, 3, 128]))
def test_spectral_drift_equals_per_row_assignment(lams, block):
    traj = SimpleNamespace(spectrum=lams)
    with mock.patch.object(integrate_module, "_MATCH_BLOCK", block):
        assert spectral_drift(traj) == per_row_drift(lams)


@pytest.mark.parametrize(
    "row",
    [
        np.array([0.4, 2.0]),  # both nearest to base 0: only the assignment is optimal
        np.array([-1.0, 1.0]),  # base 0 is equally far from both
    ],
)
def test_spectral_drift_falls_back_at_a_constructed_tie(row):
    spectrum = np.array([[0.0, 1.0], [0.0, 1.0], row, [0.1, 0.9]]) + 0j
    assert spectral_drift(SimpleNamespace(spectrum=spectrum)) == per_row_drift(spectrum)
    if row[0] == 0.4:
        assert per_row_drift(spectrum) == 1.0  # row minima alone would give 0.6


@pytest.mark.parametrize("block", [1, 4, 128])
@pytest.mark.parametrize("where", [0, 1, 4, 9])
@pytest.mark.parametrize("bad, width", [(np.nan, 6), (np.nan, 1), (np.inf, 6)])
def test_non_finite_spectrum_raises_as_the_per_sample_loop(block, where, bad, width):
    rng = np.random.default_rng(where)
    lams = np.cumsum(rng.normal(size=(10, width)) * 0.01, axis=0) + np.arange(width) + 0j
    lams[where, width // 2] = bad
    with pytest.raises(ValueError) as expected:
        per_sample_match(lams)
    with mock.patch.object(integrate_module, "_MATCH_BLOCK", block):
        with pytest.raises(ValueError) as got:
            _match_rows(lams)
        with pytest.raises(ValueError) as drift:
            spectral_drift(SimpleNamespace(spectrum=lams))
    assert str(got.value) == str(expected.value) == str(drift.value)


# ------------------------------------------------------------ sample states


def dense_case(seed: int = 7) -> tuple[State, ModelParams]:
    # one state as in the n = 8 dense benchmark pool
    rng = np.random.default_rng(seed)
    return State(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)), ModelParams(8, 0.5, 1.0)


@pytest.fixture(scope="module")
def dense_traj():
    state, params = dense_case()
    return integrate(state, params, 5.0, sample_dt=0.05)


def test_assembly_calls_no_assignment_and_no_state_init(dense_traj, count_calls):
    xi, eta = _sample_stacks(dense_traj)
    assignments = count_calls(integrate_module, "linear_sum_assignment")
    inits = count_calls(State, "__init__")
    traj = _assemble(dense_traj.params, dense_traj.t, xi, eta, np.inf)
    spectrum = traj.spectrum  # the matching runs on this first read
    assert (assignments.count, inits.count) == (0, 0)
    assert same_bits(spectrum, dense_traj.spectrum)


def test_assembled_spectrum_equals_per_sample_assignment(dense_traj):
    xi, eta = _sample_stacks(dense_traj)
    lams = np.linalg.eigvals(build_bundle((xi, eta), dense_traj.params).Lcal)
    assert same_bits(dense_traj.spectrum, per_sample_match(lams).astype(complex))


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
    # the reference: one stacked eigvals over every Lcal, then the matching
    lams = np.linalg.eigvals(build_bundle(_sample_stacks(traj), traj.params).Lcal)
    return _match_rows(lams).astype(complex)


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
            traj = backward_via_reversal(traj, params)
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
    want = _match_rows(np.linalg.eigvals(build_bundle((xi, eta), params).Lcal)).astype(complex)
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
    assert first.dtype == complex and first.shape == (101, 16) and not first.flags.writeable
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
