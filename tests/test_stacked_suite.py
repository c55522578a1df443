"""The verification suite as stacks: same reports and errors as state by state.

``run_suite`` evaluates its states in blocks through the stacked bundle
and residual kernels; ``build_bundle`` and the public residual functions
are the S = 1 case of the same kernels.  These tests pin that every
stacked report equals the single-state call at that state, bit for bit,
with and without a perturbed entry, whatever the block size, and that a
failing suite raises what a state-by-state loop raises: the earliest
failing state's error, at its first check.
"""

from dataclasses import replace

import numpy as np
import pytest

import vdtoda.verify as verify
from vdtoda import CoordinateOverflowError, CrossCheckError, ModelParams, State, random_state
from vdtoda.hamiltonian import (
    DerivedCoords,
    _raise_first_failure,
    _xh_q_check,
    _xh_q_theta,
    _xh_w_checked,
    derived_coords,
)
from vdtoda.lax import _ARRAY_FIELDS, LaxBundle, build_bundle
from vdtoda.verify import (
    _MATRIX_FIELDS,
    band_relations_residual,
    lax_equation_residual,
    lax_triad_residual,
    omega_relations_residual,
    run_suite,
    scalar_identities,
)

STATES = 2


def one_by_one(state, params, perturb=None):
    """The eight reports of one state from the public single-state functions."""
    bundle = build_bundle(state, params)
    reports = [
        lax_triad_residual(state, params, bundle, perturb),
        lax_equation_residual(state, params, bundle, perturb),
    ]
    reports.extend(omega_relations_residual(state, params, bundle, perturb))
    reports.extend(band_relations_residual(state, params, bundle, perturb))
    reports.extend(scalar_identities(state, params, bundle, perturb))
    return reports


@pytest.mark.parametrize("kappa", [0.0, 0.3, 2.5])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
def test_stacked_reports_equal_single_state_calls(kappa, beta):
    for n in range(3, 13):
        params = ModelParams(n, beta, kappa)
        seed = 1000 * n + int(10 * beta) + int(10 * kappa)
        rng = np.random.default_rng(seed)
        states = [random_state(n, rng, box=2.0) for _ in range(STATES)]
        # clean, then two perturbed fields per size; every field is hit
        # by several (beta, kappa) pairs
        specs = [None] + [
            (_MATRIX_FIELDS[(2 * n + k) % len(_MATRIX_FIELDS)], 1, 0, 1e-3) for k in range(2)
        ]
        for perturb in specs:
            stacked = run_suite(params, STATES, seed, perturb=perturb)
            expect = [
                replace(r, n=n, beta=beta, kappa=kappa, seed=seed, state_index=i)
                for i, st in enumerate(states)
                for r in one_by_one(st, params, perturb)
            ]
            # repr spells every float exactly, so this compares bits
            assert repr(stacked) == repr(expect), (n, perturb)


def test_every_field_perturbs_every_state_alike():
    params = ModelParams(4, 0.6, 1.2)
    rng = np.random.default_rng(77)
    states = [random_state(4, rng, box=2.0) for _ in range(3)]
    for name in _MATRIX_FIELDS:
        perturb = (name, 0, 2, 1e-3)
        stacked = run_suite(params, 3, 77, perturb=perturb)
        singles = [r for st in states for r in one_by_one(st, params, perturb)]
        assert repr([(r.max_abs, r.rel_scale, r.blocks) for r in stacked]) == repr(
            [(r.max_abs, r.rel_scale, r.blocks) for r in singles]
        ), name


def test_blocks_give_the_bits_of_one_stack(monkeypatch):
    params = ModelParams(5, 0.7, 1.3)
    whole = run_suite(params, 11, 31, perturb=("Lcal", 2, 1, 1e-3))
    for block in (1, 3, 4):
        monkeypatch.setattr(verify, "_SUITE_BLOCK", block)
        assert repr(run_suite(params, 11, 31, perturb=("Lcal", 2, 1, 1e-3))) == repr(whole)


def test_stacked_bundle_rows_equal_one_state_bundles():
    params = ModelParams(6, 0.8, 1.1)
    rng = np.random.default_rng(12)
    states = [random_state(6, rng, box=2.0) for _ in range(4)]
    stack = build_bundle(
        (np.array([st.xi for st in states]), np.array([st.eta for st in states])), params
    )
    stack_coords = stack.coords.rows()
    for k, st in enumerate(states):
        one = build_bundle(st, params)
        for name in _ARRAY_FIELDS:
            assert getattr(one, name).shape == getattr(stack, name).shape[1:]
            assert getattr(one, name).tobytes() == getattr(stack, name)[k].tobytes(), name
        for row, stacked in zip(one.coords.rows(), stack_coords):
            assert row[0].tobytes() == stacked[k].tobytes()
    with pytest.raises(ValueError, match=r"pair \(xi, eta\) of \(S, n\) arrays"):
        build_bundle((np.zeros((2, 6)), np.zeros((3, 6))), params)


def test_one_state_bundle_runs_each_check_once(monkeypatch):
    calls = {"coords": 0, "bundle": 0}
    for cls, key in ((DerivedCoords, "coords"), (LaxBundle, "bundle")):

        def counted(self, original=cls.__post_init__, key=key):
            calls[key] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    build_bundle(GOOD, PARAMS3)
    assert calls == {"coords": 1, "bundle": 1}


def test_perturbation_index_fails_as_for_one_matrix():
    params = ModelParams(4, 0.6, 1.2)
    with pytest.raises(IndexError, match="index 8 is out of bounds for axis 0 with size 8"):
        run_suite(params, 3, 5, perturb=("L", 8, 0, 1.0))
    with pytest.raises(IndexError, match="axis 1 with size 8"):
        run_suite(params, 3, 5, perturb=("L", 0, 9, 1.0))
    with pytest.raises(ValueError, match="unknown matrix 'nope'"):
        run_suite(params, 3, 5, perturb=("nope", 0, 0, 1.0))


# --------------------------------------------------------- error contract

PARAMS3 = ModelParams(3, 1.0, 1.0)
GOOD = State(np.array([0.2, -0.1, 0.3]), np.array([0.1, 0.0, -0.2]))
# e^{-(q_1 - q_2)} overflows: the very first coordinate check fails
OVERFLOW = State(np.array([-800.0, 0.0, 0.0]), np.zeros(3))
# coordinates are fine, the two Acal routes are not (inf entries)
CROSS = State(np.array([0.0, 0.0, -120.0]), np.array([0.0, 0.0, 360.0]))
# coordinates pass, the bundle holds an inf (Dcal): the Acal routes' gap is nan
NONFINITE = State(np.array([0.0, 0.0, -220.0]), np.zeros(3))


def _error(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def _suite_on(monkeypatch, states):
    q = np.array([st.xi for st in states])
    th = np.array([st.eta for st in states])
    monkeypatch.setattr(verify, "_draw_states", lambda n, num_states, seed, box: (q, th))
    with pytest.raises(Exception) as info:
        run_suite(PARAMS3, len(states), 0)
    # the discarded error of a failing block is not chained to the one raised
    assert info.value.__context__ is None and info.value.__cause__ is None
    return type(info.value), str(info.value)


def _loop_error(states):
    def loop():
        for st in states:
            one_by_one(st, PARAMS3)

    return _error(loop)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 2, 64])
@pytest.mark.parametrize(
    "states",
    [
        [GOOD, OVERFLOW, GOOD, CROSS],
        [GOOD, CROSS, OVERFLOW],
        [GOOD, NONFINITE, CROSS, OVERFLOW],
        [CROSS, NONFINITE],
        [NONFINITE, GOOD, OVERFLOW],
        [OVERFLOW],
    ],
)
def test_stack_raises_the_earliest_failing_states_error(monkeypatch, states, block):
    monkeypatch.setattr(verify, "_SUITE_BLOCK", block)
    expect = _loop_error(states)
    assert _suite_on(monkeypatch, states) == expect
    first_bad = next(st for st in states if st is not GOOD)
    assert expect == _loop_error([first_bad])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_crafted_states_fail_where_intended():
    assert _loop_error([OVERFLOW])[0] is CoordinateOverflowError
    assert _loop_error([CROSS])[0] is CrossCheckError
    assert _loop_error([NONFINITE]) == (
        CrossCheckError,
        "Acal construction routes disagree: |diff| = nan > inf",
    )
    one_by_one(GOOD, PARAMS3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_gap_fails_each_cross_check():
    _, _, x, w, delta, gamma, upsilon = derived_coords(GOOD, PARAMS3).rows()
    qdot = _xh_q_theta(GOOD.xi[None], GOOD.eta[None], PARAMS3)
    qdot[0, 1] = np.nan
    checks = {
        "position velocity": _xh_q_check(qdot, x, w, delta, PARAMS3),
        "w-velocity": _xh_w_checked(x, w, delta, gamma, upsilon, qdot, PARAMS3)[1],
    }
    for what, check in checks.items():
        with pytest.raises(CrossCheckError, match=rf"{what} forms disagree: \|diff\| = nan"):
            _raise_first_failure([check])
    acal = r"Acal construction routes disagree: \|diff\| = nan"
    with pytest.raises(CrossCheckError, match=acal):
        build_bundle(NONFINITE, PARAMS3)


def test_bundle_rejects_a_non_finite_field():
    # no state reaches this guard past the cross-checks; build one directly
    bundle = build_bundle(GOOD, PARAMS3)
    Dcal = bundle.Dcal.copy()
    Dcal[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite entries in Dcal"):
        replace(bundle, Dcal=Dcal)
