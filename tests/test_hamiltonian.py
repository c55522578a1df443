"""Energy function, derived coordinates, and the analytic vector field."""

import math

import numpy as np
import pytest

import vdtoda.verify as verify
from conftest import draw_states, xh_p_laurent
from vdtoda import (
    CoordinateOverflowError,
    ModelParams,
    State,
    hamiltonian,
    integrate,
    nonrel_hamiltonian,
    random_state,
    shift,
    time_reversal,
)
from vdtoda.hamiltonian import (
    _coord_arrays,
    _eom_arrays,
    _factor_arrays,
    _xh_q_theta,
    _xh_w_arrays,
    derived_coords,
    from_canonical,
    to_canonical,
)
from vdtoda.lax import build_bundle
from vdtoda.verify import run_suite

SQRT2 = math.sqrt(2.0)


def _xh_w_at(state, params):
    # the Laurent rates of X_H[w] at one state, from its guarded coordinates
    c = derived_coords(state, params)
    return _xh_w_arrays(c.x[None], c.w[None], c.delta, c.upsilon, params)[0][0]


# ------------------------------------------------------ pair factors
#
# F_a(q) multiplies the pair factors f_mu(r) = sqrt(1 + mu^2 e^{-r}) at the
# edges of particle a: f_beta(d_1) for a = 1, and at a = n also the wall
# factors f_beta(2 q_n) and f_{kappa beta}(2 q_n).


def _pair_factor(mu: float, r: float) -> float:
    return math.sqrt(1.0 + mu * mu * math.exp(-r))


def test_interaction_factor_spot_values():
    F, ok = _factor_arrays(np.zeros((1, 3)), ModelParams(3, 1.0, 1.0))
    assert ok[0] and abs(F[0, 0] - SQRT2) < 1e-15
    F, _ = _factor_arrays(np.array([[math.log(4.0), 0.0, 0.0]]), ModelParams(3, 2.0, 1.0))
    assert abs(F[0, 0] - SQRT2) < 1e-15
    # mu = kappa beta = 0: the kappa wall factor is exactly 1 at any r, as
    # is one whose mu^2 e^{-r} (under 1e-297 here) vanishes next to 1
    for r in (-3.7, 12.0):
        q = np.array([[0.0, 0.0, 0.5 * r]])
        at_zero, ok = _factor_arrays(q, ModelParams(3, 1.0, 0.0))
        negligible, _ = _factor_arrays(q, ModelParams(3, 1.0, 1e-150))
        assert ok[0] and np.array_equal(at_zero, negligible)


def test_interaction_factor_limits():
    # underflow side is exact: every z = mu^2 e^{-800} rounds to 0
    F, ok = _factor_arrays(np.array([[1600.0, 800.0, 400.0]]), ModelParams(3, 1.0, 1.0))
    assert ok[0] and np.array_equal(F, np.ones((1, 3)))
    # f_{0.5}(30) is about 1 + 1.2e-14, still above 1
    F, _ = _factor_arrays(np.array([[30.0, 0.0, 0.0]]), ModelParams(3, 0.5, 1.0))
    assert F[0, 0] > 1.0
    # e^{1500} overflows: reported by the kernel, raised by the energy
    hot = np.array([[0.0, 1500.0, 0.0]])
    assert not _factor_arrays(hot, ModelParams(3, 1.0, 1.0))[1][0]
    with pytest.raises(CoordinateOverflowError, match=r"mu\^2 e\^\{-r\}$"):
        hamiltonian(State(hot[0], np.zeros(3)), ModelParams(3, 1.0, 1.0))


# ------------------------------------------------- frozen reference point


def test_energy_at_origin_kappa_zero(zero3):
    params = ModelParams(3, 1.0, 0.0)
    assert abs(hamiltonian(zero3, params) - (4.0 + SQRT2)) < 1e-14


def test_energy_at_origin_kappa_one(zero3):
    params = ModelParams(3, 1.0, 1.0)
    assert abs(hamiltonian(zero3, params) - (3.5 + 3.0 * SQRT2)) < 1e-14


def test_derived_coordinates_at_origin(zero3):
    c0 = derived_coords(zero3, ModelParams(3, 1.0, 0.0))
    assert np.allclose(c0.s, [0.5 * math.log(2.0), 0.0, 0.0], atol=1e-15)
    assert np.allclose(c0.x, [SQRT2, 1.0, 1.0], atol=1e-15)
    assert np.allclose(c0.w, [1.0, 1.0, 1.0], atol=0)
    assert c0.delta == 1.0

    c1 = derived_coords(zero3, ModelParams(3, 1.0, 1.0))
    assert abs(c1.s[-1] - 0.5 * math.log(2.0)) < 1e-15
    assert abs(c1.x[-1] - SQRT2) < 1e-15
    assert c1.delta == 2.0
    assert abs(c1.gamma - 2.0 * SQRT2) < 1e-14
    assert abs(c1.upsilon) < 1e-15  # boundary terms balance at the origin


def test_vector_field_at_origin(zero3):
    p0 = ModelParams(3, 1.0, 0.0)
    p1 = ModelParams(3, 1.0, 1.0)
    assert np.array_equal(_xh_q_theta(zero3.xi[None], zero3.eta[None], p0)[0], np.zeros(3))
    expected0 = [0.5 * (1.0 + 1.0 / SQRT2), 1.0 - 0.5 * (1.0 + 1.0 / SQRT2), 0.0]
    assert np.allclose(xh_p_laurent(zero3, p0), expected0, atol=1e-14)
    expected1 = [0.5 * (1.0 + 1.0 / SQRT2), 0.5 * (1.0 + 1.0 / SQRT2), 2.0 + 3.0 / SQRT2]
    assert np.allclose(xh_p_laurent(zero3, p1), expected1, atol=1e-14)


# ------------------------------------------------------------- invariants


def test_energy_exceeds_particle_count():
    # strict lower bound H > n, swept over 10^4 random states
    kappas = (0.0, 0.3, 1.0, 2.5)
    worst = np.inf
    for i in range(10_000):
        n = 3 + (i % 5)
        params = ModelParams(n, 0.25 + 0.25 * (i % 4), kappas[i % 4])
        st = random_state(n, np.random.default_rng(i), box=2.0)
        worst = min(worst, hamiltonian(st, params) - n)
    assert worst > 0.0


def test_energy_is_time_reversal_invariant():
    params = ModelParams(5, 0.7, 1.3)
    for st in draw_states(5, 100, seed=21):
        assert hamiltonian(st, params) == hamiltonian(time_reversal(st), params)


def test_boundary_duality():
    # inverting the boundary coupling is a uniform position shift
    for kappa in (0.3, 2.5):
        for st in draw_states(4, 250, seed=5):
            h_inv = hamiltonian(st, ModelParams(4, 0.7, 1.0 / kappa))
            h_shift = hamiltonian(
                shift(st, np.full(4, kappa)), ModelParams(4, 0.7, kappa)
            )
            assert abs(h_inv - h_shift) <= 1e-12 * abs(h_inv)


def _shifted_energy_explicit(st: State, params: ModelParams, chi: np.ndarray) -> float:
    """Closed form for the energy after the position shift q -> q + ln chi."""
    n, beta, kappa = params.n, params.beta, params.kappa
    q, th = st.xi, st.eta
    total = math.cosh(beta * th[0]) * _pair_factor(
        beta * math.sqrt(chi[1] / chi[0]), q[0] - q[1]
    )
    for c in range(1, n - 1):
        total += (
            math.cosh(beta * th[c])
            * _pair_factor(beta * math.sqrt(chi[c] / chi[c - 1]), q[c - 1] - q[c])
            * _pair_factor(beta * math.sqrt(chi[c + 1] / chi[c]), q[c] - q[c + 1])
        )
    total += (
        math.cosh(beta * th[n - 1])
        * _pair_factor(beta * math.sqrt(chi[n - 1] / chi[n - 2]), q[n - 2] - q[n - 1])
        * _pair_factor(beta / chi[n - 1], 2.0 * q[n - 1])
        * _pair_factor(kappa * beta / chi[n - 1], 2.0 * q[n - 1])
    )
    total += kappa * beta**2 * chi[n - 1] ** -2 * math.exp(-2.0 * q[n - 1])
    total += (
        0.5
        * kappa
        * beta**4
        / (chi[n - 2] * chi[n - 1])
        * math.exp(-(q[n - 2] + q[n - 1]))
    )
    return total


def test_shifted_energy_matches_explicit_expression():
    params = ModelParams(5, 0.8, 1.7)
    rng = np.random.default_rng(99)
    for st in draw_states(5, 100, seed=17):
        chi = np.exp(rng.uniform(-1.0, 1.0, size=5))
        lhs = hamiltonian(shift(st, chi), params)
        rhs = _shifted_energy_explicit(st, params, chi)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def _hamiltonian_xw(st: State, params: ModelParams) -> float:
    """The energy as a Laurent polynomial in the multiplicative variables."""
    kappa = params.kappa
    coords = derived_coords(st, params)
    x, w = coords.x, coords.w
    chain = 0.5 * float(np.sum((1.0 / x[:-1] + x[1:]) * (1.0 + w[:-1])))
    boundary = 0.5 / x[-1] * (1.0 + w[-1]) * coords.delta
    tail = kappa * w[-1] + 0.5 * kappa * w[-2] * w[-1]
    return 0.5 * x[0] + chain + boundary + tail


def test_two_energy_expressions_agree():
    # theta-form versus the (x, w) trace-side form
    for kappa in (0.0, 0.4, 2.0):
        params = ModelParams(6, 0.9, kappa)
        for st in draw_states(6, 50, seed=3):
            h = hamiltonian(st, params)
            assert abs(h - _hamiltonian_xw(st, params)) <= 1e-12 * abs(h)


# ---------------------------------------------------- nonrelativistic limit


def test_nonrel_energy_at_origin(zero3):
    assert nonrel_hamiltonian(zero3, ModelParams(3, 1.0, 0.0)) == 2.5
    assert nonrel_hamiltonian(zero3, ModelParams(3, 1.0, 1.0)) == 4.0


def test_nonrel_limit_is_second_order():
    st = random_state(4, np.random.default_rng(9), box=1.0)
    errs = []
    for beta in (0.2, 0.1, 0.05):
        p = ModelParams(4, beta, 0.7)
        errs.append((hamiltonian(st, p) - 4.0) / beta**2 - nonrel_hamiltonian(st, p))
    order_a = math.log2(abs(errs[0] / errs[1]))
    order_b = math.log2(abs(errs[1] / errs[2]))
    assert 1.8 < order_a < 2.2
    assert 1.8 < order_b < 2.2


# ------------------------------------------------------------ derivatives


def test_gradients_match_finite_differences():
    params = ModelParams(4, 0.8, 1.2)
    st = random_state(4, np.random.default_rng(31), box=1.0)
    qdot, thdot = np.split(_eom_arrays(st.xi, st.eta, params), 2)
    h = 1e-6
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        fd_q = (
            hamiltonian(State(st.xi, st.eta + e), params)
            - hamiltonian(State(st.xi, st.eta - e), params)
        ) / (2 * h)
        fd_p = -(
            hamiltonian(State(st.xi + e, st.eta), params)
            - hamiltonian(State(st.xi - e, st.eta), params)
        ) / (2 * h)
        assert abs(fd_q - qdot[a]) < 1e-6
        assert abs(fd_p - thdot[a]) < 1e-6


def test_flow_finite_difference_matches_field():
    # central difference along the actual flow; the backward leg comes
    # from integrating the time-reversed point forward
    params = ModelParams(4, 0.6, 0.9)
    st = random_state(4, np.random.default_rng(12), box=1.0)
    h = 1e-4
    fwd = integrate(st, params, h, sample_dt=h, rtol=1e-12, atol=1e-14).states[-1]
    bwd_raw = integrate(
        time_reversal(st), params, h, sample_dt=h, rtol=1e-12, atol=1e-14
    ).states[-1]
    bwd = time_reversal(bwd_raw)
    qdot, thdot = np.split(_eom_arrays(st.xi, st.eta, params), 2)
    assert np.max(np.abs((fwd.xi - bwd.xi) / (2 * h) - qdot)) < 1e-6
    assert np.max(np.abs((fwd.eta - bwd.eta) / (2 * h) - thdot)) < 1e-6
    # the exponential weights follow the same flow
    w_f = derived_coords(fwd, params).w
    w_b = derived_coords(bwd, params).w
    assert np.max(np.abs((w_f - w_b) / (2 * h) - _xh_w_at(st, params))) < 1e-6


def test_xh_x_matches_the_flow_of_x():
    # central difference of x = e^{beta p} over one tightly integrated
    # step either side of the middle sample
    params = ModelParams(5, 0.7, 1.3)
    st = random_state(5, np.random.default_rng(8), box=1.0)
    h = 1e-4
    traj = integrate(st, params, 2 * h, sample_dt=h, rtol=1e-12, atol=1e-14)
    start, mid, end = traj.states
    fd = (derived_coords(end, params).x - derived_coords(start, params).x) / (2 * h)
    # X_H[x] = beta x X_H[p]
    xh_x = params.beta * derived_coords(mid, params).x * xh_p_laurent(mid, params)
    assert np.max(np.abs(fd - xh_x)) < 1e-6


# alternating +-3 at rest: the w-velocity terms reach ~1e6 and cancel to 0
HOT_REST = State(np.array([3.0, -3.0] * 4), np.zeros(8))


def test_xh_w_check_scales_with_its_terms():
    # the composition rule agrees to ~1e-16 of its terms here; a bound
    # scaled by the (zero) results instead rejected this valid state
    params = ModelParams(8, 1.0, 1.0)
    assert np.all(np.isfinite(_xh_w_at(HOT_REST, params)))
    report = verify._single(verify._cross, HOT_REST, params, None, None)[2]
    assert report.name == "xh_w_composition" and report.passed


def test_xh_w_check_catches_a_relative_1e9_corruption(monkeypatch):
    # scaling by the terms must not blunt the check: corrupt X_H[q_a], and
    # so the composed terms w_a X_H[q_a] next to it, by a relative 1e-9
    theta_form = verify._xh_q_theta
    params = ModelParams(6, 0.7, 1.1)
    assert all(r.passed for r in run_suite(params, 1, 5, box=1.5))
    for a in range(params.n):

        def corrupted(q, th, p, a=a):
            qdot = theta_form(q, th, p)
            qdot[:, a] *= 1.0 + 1e-9
            return qdot

        monkeypatch.setattr(verify, "_xh_q_theta", corrupted)
        failed = {r.name for r in run_suite(params, 1, 5, box=1.5) if not r.passed}
        assert {"xh_w_composition", "xh_q_forms"} <= failed, a


def test_rapidity_flow_reduces_at_zero_rapidity():
    # eta = 0 kills the Jacobian correction, so both momentum rates agree
    params = ModelParams(5, 0.7, 1.4)
    rng = np.random.default_rng(44)
    for _ in range(25):
        st = State(rng.uniform(-1.5, 1.5, 5), np.zeros(5))
        _, thdot = np.split(_eom_arrays(st.xi, st.eta, params), 2)
        assert np.allclose(thdot, xh_p_laurent(st, params), rtol=0, atol=1e-14)


# --------------------------------------------------------- canonical maps


def test_canonical_round_trip():
    params = ModelParams(6, 0.5, 2.0)
    for st in draw_states(6, 40, seed=8):
        q, p = to_canonical(st, params)
        back = from_canonical(q, p, params)
        assert np.array_equal(back.xi, st.xi)
        assert np.max(np.abs(back.eta - st.eta)) < 1e-13


def test_extreme_positions_raise_instead_of_overflowing():
    params = ModelParams(3, 1.0, 1.0)
    st = State(np.array([0.0, 0.0, -400.0]), np.zeros(3))
    with pytest.raises(CoordinateOverflowError):
        hamiltonian(st, params)


def test_a_weight_that_overflows_by_its_beta_factor_fails_the_coordinate_guard():
    # e^{-(q_1 - q_2)} and beta^2 e^{-(q_1 - q_2)} taken through its log are
    # finite, but the product beta^2 * e^{-(q_1 - q_2)} rounds to inf
    params = ModelParams(4, 3.5, 1.0)
    hot = State(np.array([-708.2771869563933, -1.0, -0.5, 0.0]), np.zeros(4))
    with np.errstate(over="ignore"):
        assert np.isfinite(np.exp(hot.xi[1] - hot.xi[0]))
        assert np.isfinite(np.exp(np.log(params.beta**2) - (hot.xi[0] - hot.xi[1])))
        assert not np.isfinite(params.beta**2 * np.exp(hot.xi[1] - hot.xi[0]))
    for fn in (derived_coords, build_bundle):
        with pytest.raises(CoordinateOverflowError, match=r"^overflow while evaluating e\^\{-\(q_a"):
            fn(hot, params)
    with pytest.raises(CoordinateOverflowError, match="equations of motion"):
        _eom_arrays(hot.xi, hot.eta, params)


def test_overflowing_gamma_raises_typed_error():
    # w_2 = e^{700} and x_3 about e^{48} are finite, x_3 (1 + w_2) is not
    params = ModelParams(3, 1.0, 1.0)
    hot = State(np.array([0.0, -350.0, 350.0]), np.array([0.0, 0.0, 400.0]))
    _, _, x, w, _ = _coord_arrays(hot.xi[None], hot.eta[None], params)
    assert np.isfinite(x).all() and np.isfinite(w).all()
    with pytest.raises(CoordinateOverflowError, match="gamma and upsilon"):
        derived_coords(hot, params)
    stack = (np.stack([np.zeros(3), hot.xi]), np.stack([np.zeros(3), hot.eta]))
    with pytest.raises(CoordinateOverflowError, match="gamma and upsilon"):
        build_bundle(stack, params)


def test_overflowing_rates_of_x_and_w_raise_typed_errors():
    # the coordinates pass every guard, but w_3 delta upsilon overflows, and
    # so does beta x_3 X_H[p_3]; build_bundle refuses the state at dcal,
    # which holds X_H[x] / (2 x)
    params = ModelParams(3, 1.0, 1.0)
    hot = State(np.array([0.0, 0.0, -220.0]), np.zeros(3))
    derived_coords(hot, params)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_xh_w_at(hot, params)).all()
    with pytest.raises(CoordinateOverflowError, match="non-finite entries in dcal"):
        build_bundle(hot, params)
