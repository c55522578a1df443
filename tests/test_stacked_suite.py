"""The verification suite as stacks: same reports and errors as state by state.

``run_suite`` evaluates its states in blocks through the stacked bundle
and residual kernels; ``build_bundle`` and the public residual functions
are the S = 1 case of the same kernels.  These tests pin that every
stacked report equals the single-state call at that state, bit for bit,
with and without a perturbed entry, whatever the block size, and that a
failing suite raises what a state-by-state loop raises: the earliest
failing state's error, at its first check.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import vdtoda.verify as verify
from vdtoda import CoordinateOverflowError, ModelParams, State, random_state
from vdtoda.hamiltonian import DerivedCoords, derived_coords
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
# the matrices stored as their diagonals: only (i, i) can be perturbed
DIAGONAL = ("D", "Dcal")


def one_by_one(state, params, perturb=None, bundle=None):
    """The twelve reports of one state from the public single-state functions."""
    if bundle is None:
        bundle = build_bundle(state, params)
    reports = [
        lax_triad_residual(state, params, bundle, perturb),
        lax_equation_residual(state, params, bundle, perturb),
    ]
    reports.extend(omega_relations_residual(state, params, bundle, perturb))
    reports.extend(band_relations_residual(state, params, bundle, perturb))
    reports.extend(scalar_identities(state, params, bundle, perturb))
    reports.extend(verify._single(verify._cross, state, params, bundle, perturb))
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
        names = [_MATRIX_FIELDS[(2 * n + k) % len(_MATRIX_FIELDS)] for k in range(2)]
        specs = [None] + [(name, 1, 1 if name in DIAGONAL else 0, 1e-3) for name in names]
        for perturb in specs:
            stacked = run_suite(params, STATES, seed, perturb=perturb)
            expect = [
                r._replace(n=n, beta=beta, kappa=kappa, seed=seed, state_index=i)
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
        perturb = (name, 2 if name in DIAGONAL else 0, 2, 1e-3)
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
    for k, st in enumerate(states):
        one = build_bundle(st, params)
        for name in _ARRAY_FIELDS:
            assert getattr(one, name).shape == getattr(stack, name).shape[1:]
            assert getattr(one, name).tobytes() == getattr(stack, name)[k].tobytes(), name
    with pytest.raises(ValueError, match=r"pair \(xi, eta\) of \(S, n\) arrays"):
        build_bundle((np.zeros((2, 6)), np.zeros((3, 6))), params)


@pytest.mark.parametrize("kappa", [0.0, 1.1])
def test_bundle_coordinates_are_those_of_derived_coords(kappa):
    params = ModelParams(6, 0.8, kappa)
    for st in [random_state(6, np.random.default_rng(seed), box=2.0) for seed in range(4)]:
        bundle, coords = build_bundle(st, params), derived_coords(st, params)
        for name in ("x", "w", "delta", "gamma", "upsilon"):
            field = getattr(bundle, name)
            assert field.shape == np.shape(getattr(coords, name)), name
            assert field.tobytes() == np.asarray(getattr(coords, name)).tobytes(), name
            assert not field.flags.writeable


def test_bundle_keeps_the_invariants_of_derived_coords():
    bundle = build_bundle(GOOD, PARAMS3)
    w = bundle.w.copy()
    w[1] = 0.0
    with pytest.raises(ValueError, match="^x and w entries must be positive$"):
        replace(bundle, w=w)
    with pytest.raises(ValueError, match="^x and w entries must be positive$"):
        replace(bundle, x=-bundle.x)
    with pytest.raises(ValueError, match="^delta must be >= 1, got 0.5$"):
        replace(bundle, delta=0.5)
    with pytest.raises(CoordinateOverflowError, match="^non-finite entries in gamma$"):
        replace(bundle, gamma=np.nan)
    # a stack raises for its earliest failing state
    q, th = (np.stack([GOOD.xi] * 3), np.stack([GOOD.eta] * 3))
    stack = build_bundle((q, th), PARAMS3)
    delta = stack.delta.copy()
    delta[1:] = (0.25, 0.5)
    with pytest.raises(ValueError, match="^delta must be >= 1, got 0.25$"):
        replace(stack, delta=delta)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", _ARRAY_FIELDS)
def test_bundle_names_the_first_non_finite_field_of_the_earliest_state(name, bad):
    # bad planted in one entry of state 2 of name, and in state 4 of the
    # first field: the earliest state, 2, fails first, at name
    q, th = verify._draw_states(5, 6, 8, 2.0)
    stack = build_bundle((q, th), ModelParams(5, 0.7, 1.3))
    planted = {}
    for field, k in ((_ARRAY_FIELDS[0], 4), (name, 2)):
        a = planted.get(field, getattr(stack, field)).copy()
        a.reshape(a.shape[0], -1)[k, -1] = bad
        planted[field] = a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoordinateOverflowError) as info:
            replace(stack, **planted)
    assert str(info.value) == f"non-finite entries in {name}"


def test_one_state_bundle_runs_each_check_once(monkeypatch):
    calls = {"coords": 0, "bundle": 0}
    for cls, key in ((DerivedCoords, "coords"), (LaxBundle, "bundle")):

        def counted(self, original=cls.__post_init__, key=key):
            calls[key] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    # the bundle carries the coordinates itself: no DerivedCoords is built
    build_bundle(GOOD, PARAMS3)
    assert calls == {"coords": 0, "bundle": 1}
    build_bundle((np.stack([GOOD.xi] * 2), np.stack([GOOD.eta] * 2)), PARAMS3)
    assert calls == {"coords": 0, "bundle": 2}


def test_perturbation_index_fails_as_for_one_matrix():
    params = ModelParams(4, 0.6, 1.2)
    with pytest.raises(IndexError, match="index 8 is out of bounds for axis 0 with size 8"):
        run_suite(params, 3, 5, perturb=("L", 8, 0, 1.0))
    with pytest.raises(IndexError, match="axis 1 with size 8"):
        run_suite(params, 3, 5, perturb=("L", 0, 9, 1.0))
    with pytest.raises(ValueError, match="unknown matrix 'nope'"):
        run_suite(params, 3, 5, perturb=("nope", 0, 0, 1.0))
    for name in ("D", "Dcal"):
        with pytest.raises(IndexError, match="index 8 is out of bounds for axis 0 with size 8"):
            run_suite(params, 3, 5, perturb=(name, 8, 8, 1.0))
        with pytest.raises(IndexError, match="index -9 is out of bounds for axis 1 with size 8"):
            run_suite(params, 3, 5, perturb=(name, 0, -9, 1.0))


@pytest.mark.parametrize("name, field", [("D", "d"), ("Dcal", "dcal")])
def test_a_diagonal_factor_is_perturbed_on_its_stored_diagonal(name, field):
    params = ModelParams(4, 0.6, 1.2)
    state = random_state(4, np.random.default_rng(77), box=2.0)
    bundle = build_bundle(state, params)
    corrupted = getattr(bundle, field).copy()
    corrupted[2] += 1e-3
    expect = one_by_one(state, params, bundle=replace(bundle, **{field: corrupted}))
    for i, j in ((2, 2), (-6, 2)):
        reports = one_by_one(state, params, perturb=(name, i, j, 1e-3))
        assert repr(reports) == repr(expect)
    assert not reports[0].passed and reports[0].name == "lax_triad"
    with pytest.raises(ValueError, match=rf"{name} is diagonal; entry \(0, 1\) is off"):
        run_suite(params, 3, 5, perturb=(name, 0, 1, 1e-3))


def test_perturb_names_exactly_the_matrices_the_residuals_read():
    # a corruption of a matrix no residual reads could not fail a report,
    # so such a name is refused like any unknown one
    assert set(_MATRIX_FIELDS) - set(DIAGONAL) <= set(_ARRAY_FIELDS)
    assert len(_MATRIX_FIELDS) == 13
    params = ModelParams(4, 0.6, 1.2)
    for name in ("Omega", "Ycal", "Q"):
        with pytest.raises(ValueError, match=f"^unknown matrix '{name}'; choose from"):
            run_suite(params, 3, 5, perturb=(name, 1, 0, 1e-3))
    # every name it takes fails some report under a 1e-3 corruption of
    # its entry (3, 3), which the gauge rate does not zero out in Hcal
    for name in _MATRIX_FIELDS:
        reports = run_suite(params, 3, 5, perturb=(name, 3, 3, 1e-3))
        assert not all(r.passed for r in reports), name


# --------------------------------------------------------- error contract

PARAMS3 = ModelParams(3, 1.0, 1.0)
GOOD = State(np.array([0.2, -0.1, 0.3]), np.array([0.1, 0.0, -0.2]))
# e^{-(q_1 - q_2)} overflows: the very first coordinate check fails
OVERFLOW = State(np.array([-800.0, 0.0, 0.0]), np.zeros(3))
# coordinates are fine, the bundle is not (inf entries); this state
# failed the two Acal routes when they were checked in build_bundle
CROSS = State(np.array([0.0, 0.0, -120.0]), np.array([0.0, 0.0, 360.0]))
# coordinates pass, the bundle holds an inf (dcal)
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


def test_crafted_states_fail_where_intended():
    assert _loop_error([OVERFLOW])[0] is CoordinateOverflowError
    assert _loop_error([CROSS])[0] is CoordinateOverflowError
    assert _loop_error([NONFINITE]) == (CoordinateOverflowError, "non-finite entries in dcal")
    one_by_one(GOOD, PARAMS3)


def test_a_nan_gap_fails_each_cross_check(monkeypatch):
    theta_form = verify._xh_q_theta

    def with_nan(q, th, params):
        qdot = theta_form(q, th, params)
        qdot[:, 1] = np.nan
        return qdot

    monkeypatch.setattr(verify, "_xh_q_theta", with_nan)
    reports = {r.name: r for r in verify._single(verify._cross, GOOD, PARAMS3, None, None)}
    monkeypatch.undo()
    # the bundle refuses a nan gamma, so it goes in where the kernel reads it
    inputs = verify._inputs

    def with_nan_gamma(*args):
        m = inputs(*args)
        m["gamma"] = np.full_like(m["gamma"], np.nan)
        return m

    monkeypatch.setattr(verify, "_inputs", with_nan_gamma)
    reports["gamma_upsilon"] = verify._single(verify._cross, GOOD, PARAMS3, None, None)[3]
    monkeypatch.undo()
    perturb = ("A", 0, 0, np.nan)
    reports["acal_routes"] = verify._single(verify._cross, GOOD, PARAMS3, None, perturb)[0]
    assert len(reports) == 4
    for name, report in reports.items():
        assert np.isnan(report.max_abs) and not report.passed, name
    with pytest.raises(CoordinateOverflowError, match="non-finite entries in dcal"):
        build_bundle(NONFINITE, PARAMS3)


def test_bundle_rejects_a_non_finite_field():
    bundle = build_bundle(GOOD, PARAMS3)
    dcal = bundle.dcal.copy()
    dcal[1] = np.inf
    with pytest.raises(CoordinateOverflowError, match="non-finite entries in dcal"):
        replace(bundle, dcal=dcal)
