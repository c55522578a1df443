"""Phase-space points: construction and point maps."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import vdtoda
import vdtoda.verify as verify
from vdtoda import (
    ModelParams,
    State,
    build_bundle,
    derived_coords,
    integrate,
    random_state,
    shift,
    time_reversal,
)


@pytest.mark.parametrize("name", ["hamiltonian", "integrate"])
def test_package_binds_the_function_that_shares_its_modules_name(name):
    module = importlib.import_module(f"vdtoda.{name}")
    assert module.__name__ == f"vdtoda.{name}"
    assert getattr(vdtoda, name) is getattr(module, name)
    assert callable(getattr(vdtoda, name))


def test_readme_names_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    named = {word for span in re.findall(r"`([^`]+)`", prose) for word in re.findall(r"\w+", span)}
    assert [name for name in vdtoda.__all__ if name not in named] == ["__version__"]


def test_params_accepts_valid_ranges():
    p = ModelParams(3, 0.5, 0.0)
    assert (p.n, p.beta, p.kappa) == (3, 0.5, 0.0)
    ModelParams(12, 1e-3, 7.5)


@pytest.mark.parametrize(
    "n, beta, kappa",
    [(2, 1.0, 1.0), (0, 1.0, 1.0), (3, 0.0, 1.0), (3, -0.5, 1.0), (3, 1.0, -0.1)],
)
def test_params_rejects_out_of_range(n, beta, kappa):
    with pytest.raises(ValueError):
        ModelParams(n, beta, kappa)


def test_params_is_frozen():
    p = ModelParams(3, 1.0, 1.0)
    with pytest.raises(AttributeError):
        p.beta = 2.0


# every frozen dataclass that holds arrays, built from one fixed input
ARRAY_HOLDERS = {
    "State": lambda: State(np.zeros(3), np.ones(3)),
    "Trajectory": lambda: integrate(State(np.zeros(3), np.ones(3)), ModelParams(3, 1.0, 1.0), 0.1),
    "LaxBundle": lambda: build_bundle(State(np.zeros(3), np.ones(3)), ModelParams(3, 1.0, 1.0)),
    "DerivedCoords": lambda: derived_coords(State(np.zeros(3), np.ones(3)), ModelParams(3, 1.0, 1.0)),
}


@pytest.mark.parametrize("kind", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(kind):
    a, b = ARRAY_HOLDERS[kind](), ARRAY_HOLDERS[kind]()
    assert type(a).__name__ == kind
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_state_copies_input_and_is_readonly():
    xi = np.zeros(3)
    st = State(xi, np.zeros(3))
    xi[0] = 99.0
    assert st.xi[0] == 0.0  # detached from the caller's buffer
    with pytest.raises(ValueError):
        st.xi[0] = 1.0
    with pytest.raises(ValueError):
        st.eta[1] = 1.0


def test_state_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        State(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        State(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        State(np.array([0.0, np.nan, 0.0]), np.zeros(3))
    with pytest.raises(ValueError):
        State(np.zeros(3), np.array([0.0, np.inf, 0.0]))


def test_time_reversal_flips_rapidities_only():
    st = State(np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.5, 1.5]))
    rev = time_reversal(st)
    assert np.array_equal(rev.xi, st.xi)
    assert np.array_equal(rev.eta, -st.eta)
    twice = time_reversal(rev)
    assert np.array_equal(twice.xi, st.xi)
    assert np.array_equal(twice.eta, st.eta)


def test_shift_adds_logarithms_to_positions():
    st = State(np.array([0.0, 1.0, -1.0]), np.array([0.2, 0.0, -0.2]))
    chi = np.array([2.0, 0.5, np.e])
    out = shift(st, chi)
    assert np.allclose(out.xi, st.xi + np.log(chi), rtol=0, atol=0)
    assert np.array_equal(out.eta, st.eta)


def test_shift_rejects_bad_multipliers():
    st = State(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        shift(st, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        shift(st, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        shift(st, np.array([1.0, 1.0]))  # wrong length
    with pytest.raises(ValueError):
        shift(st, np.array([1.0, np.inf, 1.0]))


def test_random_state_is_reproducible_and_box_bounded():
    a = random_state(5, np.random.default_rng(7), box=1.5)
    b = random_state(5, np.random.default_rng(7), box=1.5)
    c = random_state(5, np.random.default_rng(8), box=1.5)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.eta, b.eta)
    assert not np.array_equal(a.xi, c.xi)
    for _ in range(50):
        st = random_state(4, np.random.default_rng(_), box=0.75)
        assert np.max(np.abs(st.xi)) <= 0.75
        assert np.max(np.abs(st.eta)) <= 0.75


# these also take a prebuilt bundle
BUNDLED = (
    "lax_triad_residual lax_equation_residual omega_relations_residual band_relations_residual"
    " scalar_identities cross_check_residuals"
).split()
SIZE_CHECKED = (
    "hamiltonian nonrel_hamiltonian to_canonical derived_coords xh_q xh_w eom build_bundle"
).split() + BUNDLED
# these also take a time
TIMED = ["integrate", "solve_trajectory", "positions_at", "position_rates_at", "rapidities_at"]


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("name", SIZE_CHECKED + TIMED)
def test_state_of_another_size_than_params_is_refused(name, size):
    state = random_state(size, np.random.default_rng(5), box=0.5)
    args = (1.0,) if name in TIMED else ()
    with pytest.raises(ValueError, match="^state size does not match params.n$"):
        getattr(vdtoda, name)(state, ModelParams(3, 1.0, 1.0), *args)


@pytest.mark.parametrize("name", BUNDLED)
def test_state_of_another_size_than_its_prebuilt_bundle_is_refused(name):
    params = ModelParams(3, 1.0, 1.0)
    bundle = build_bundle(random_state(3, np.random.default_rng(5), box=0.5), params)
    state = random_state(4, np.random.default_rng(5), box=0.5)
    with pytest.raises(ValueError, match="^state size does not match params.n$"):
        getattr(vdtoda, name)(state, params, bundle)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundle_of_a_stack_is_refused_by_the_one_state_functions(name, monkeypatch):
    params = ModelParams(4, 0.7, 1.0)
    bundle = build_bundle(verify._draw_states(4, 3, 5, 1.5), params)
    state = random_state(4, np.random.default_rng(5), box=1.5)
    # the refusal comes before any kernel runs
    for kernel in ("_inputs", "_triad", "_lax_equation", "_omega", "_band", "_scalar", "_cross"):
        monkeypatch.setattr(verify, kernel, None)
    with pytest.raises(ValueError, match="^bundle holds a stack of 3 states, not one state$"):
        getattr(vdtoda, name)(state, params, bundle)
