"""Stacked trajectory assembly: spectrum matching and sample states.

``_match_rows`` orders each sample's eigenvalues by nearest entries where
they are the unique optimal assignment and falls back to
``linear_sum_assignment`` elsewhere; these tests pin it, bit for bit, to
the per-sample assignment loop it replaces.  ``State.from_stacks`` builds
the sample states as read-only row views of one checked copy.
"""

import dataclasses
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import moderate_params
from vdtoda import ModelParams, State, integrate, time_reversal
from vdtoda.integrate import _assemble, _match_rows, _sample_stacks, spectral_drift
from vdtoda.lax import _lax_matrices

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
    assert (assignments.count, inits.count) == (0, 0)
    assert same_bits(traj.spectrum, dense_traj.spectrum)


def test_assembled_spectrum_equals_per_sample_assignment(dense_traj):
    xi, eta = _sample_stacks(dense_traj)
    lams = np.linalg.eigvals(_lax_matrices(xi, eta, dense_traj.params))
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
    assert same_bits(swapped.spectrum, traj.spectrum)
    with pytest.raises(ValueError, match="inconsistent sample counts"):
        dataclasses.replace(traj, states=traj.states[1:])
