"""Acceptance sweep: the full set of release criteria in one module.

Each test prints a single summary line so `pytest -v -s` reads as a
pass/fail checklist.  The shared residual sweep (criteria 2-4) runs once
per session; criterion 1 times its own dedicated pass.
"""

import math
import time

import numpy as np
import pytest

from vdtoda import (
    ModelParams,
    integrate,
    random_state,
    shift,
    solve_trajectory,
)
from vdtoda.hamiltonian import hamiltonian, nonrel_hamiltonian
from vdtoda.integrate import spectral_drift
from vdtoda.lax import build_bundle
from vdtoda.verify import lax_triad_residual, run_suite

N_GRID = (3, 4, 5, 6, 7, 8)
KAPPA_GRID = (0.0, 0.3, 1.0, 2.5)
BETA_CYCLE = (0.1, 0.5, 1.0)
STATES_PER_CELL = 102  # >= 100 per (n, kappa), beta cycled via 3 x 34


def _sweep_seed(n: int, kappa: float, beta: float) -> int:
    return hash((n, kappa, beta)) % (2**31)


@pytest.fixture(scope="session")
def residual_sweep():
    """All twelve residuals across the full (n, kappa, beta) grid."""
    reports = []
    for n in N_GRID:
        for kappa in KAPPA_GRID:
            for beta in BETA_CYCLE:
                params = ModelParams(n, beta, kappa)
                reports.extend(
                    run_suite(params, STATES_PER_CELL // 3, _sweep_seed(n, kappa, beta))
                )
    return reports


def _worst(reports, name):
    rows = [r for r in reports if r.name == name]
    assert rows
    return max(r.max_abs / max(1.0, r.rel_scale) for r in rows), len(rows)


def test_criterion_01_triad_residual_under_time_budget():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in N_GRID:
        for kappa in KAPPA_GRID:
            for beta in BETA_CYCLE:
                params = ModelParams(n, beta, kappa)
                rng = np.random.default_rng(_sweep_seed(n, kappa, beta))
                for _ in range(STATES_PER_CELL // 3):
                    st = random_state(n, rng, box=2.0)
                    r = lax_triad_residual(st, params, build_bundle(st, params))
                    worst = max(worst, r.max_abs / max(1.0, r.rel_scale))
                    count += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"criterion 1 PASS: triad residual {worst:.3e} over {count} states "
          f"({elapsed:.1f}s)")


def test_criterion_02_lax_equation(residual_sweep):
    worst, count = _worst(residual_sweep, "lax_equation")
    assert worst <= 1e-9
    print(f"criterion 2 PASS: evolution-equation residual {worst:.3e} "
          f"over {count} states")


def test_criterion_03_omega_relations(residual_sweep):
    worst_gauge, count = _worst(residual_sweep, "omega_acal_gauge")
    worst_b, _ = _worst(residual_sweep, "omega_b_symmetry")
    assert worst_gauge <= 1e-10
    assert worst_b <= 1e-13
    print(f"criterion 3 PASS: order-two conjugation residuals "
          f"{worst_gauge:.3e} / {worst_b:.3e} over {count} states")


def test_criterion_04_band_and_scalar_identities(residual_sweep):
    worst_lower, count = _worst(residual_sweep, "band_lower")
    worst_upper, _ = _worst(residual_sweep, "band_upper")
    worst_trace, _ = _worst(residual_sweep, "trace_energy")
    worst_diag, _ = _worst(residual_sweep, "diagonal_velocity")
    assert worst_lower <= 1e-11 and worst_upper <= 1e-11
    assert worst_trace <= 1e-12
    assert worst_diag <= 1e-11
    print(f"criterion 4 PASS: band {max(worst_lower, worst_upper):.3e}, "
          f"trace {worst_trace:.3e}, diagonal {worst_diag:.3e} "
          f"over {count} states")


def test_criterion_04_cross_check_residuals(residual_sweep):
    # second evaluation routes of Acal, X_H[q], X_H[w] and gamma/upsilon
    names = ("acal_routes", "xh_q_forms", "xh_w_composition", "gamma_upsilon")
    rows = [r for r in residual_sweep if r.name in names]
    assert len(rows) == len(names) * 2448  # every state of the sweep
    assert all(r.passed for r in rows)
    worst = {name: _worst(residual_sweep, name)[0] for name in names}
    print("criterion 4 PASS: cross-checks "
          + ", ".join(f"{name} {value:.3e}" for name, value in worst.items()))


def test_criterion_05_exact_zero_patterns():
    checked = 0
    for i in range(1000):
        n = N_GRID[i % len(N_GRID)]
        kappa = KAPPA_GRID[i % len(KAPPA_GRID)]
        params = ModelParams(n, 0.3 + 0.35 * (i % 3), kappa)
        st = random_state(n, np.random.default_rng(7000 + i), box=2.0)
        b = build_bundle(st, params)
        N = 2 * n
        zero = np.zeros((N, N))
        assert np.array_equal(np.triu(b.L, 1), zero)
        assert np.array_equal(np.tril(b.L, -2), zero)
        assert np.array_equal(np.tril(b.Hcal, -2), zero)
        assert np.all(np.diag(b.Hcal, -1) != 0)  # unreduced
        assert np.array_equal(np.tril(b.Lcal, -3), zero)
        for M in (b.A, b.B):
            assert np.array_equal(M - np.tril(np.triu(M, -2), 2), zero)
        checked += 1
    assert checked == 1000
    print(f"criterion 5 PASS: exact band patterns at {checked} states")


def test_criterion_06_methods_agree():
    t0 = time.perf_counter()
    worst_q = worst_th = 0.0
    for n in (3, 4, 5):
        for kappa in (0.0, 1.0):
            params = ModelParams(n, 0.5, kappa)
            st = random_state(n, np.random.default_rng(20 + n), box=1.0)
            tr_rk = integrate(st, params, 5.0, rtol=1e-10, atol=1e-12)
            tr_al = solve_trajectory(st, params, 5.0)
            for a, b in zip(tr_rk.states, tr_al.states):
                worst_q = max(worst_q, float(np.max(np.abs(a.xi - b.xi))))
                worst_th = max(worst_th, float(np.max(np.abs(a.eta - b.eta))))
    elapsed = time.perf_counter() - t0
    assert worst_q <= 1e-5 and worst_th <= 1e-5
    assert elapsed < 60.0
    print(f"criterion 6 PASS: dual-method agreement dq {worst_q:.3e}, "
          f"dtheta {worst_th:.3e} ({elapsed:.1f}s)")


def test_criterion_07_conserved_quantities_under_integration():
    worst_energy = worst_spectrum = 0.0
    cases = [(4, 0.5, 0.0, 31), (4, 1.0, 1.0, 32), (5, 0.5, 1.0, 33), (5, 1.0, 0.0, 34)]
    for n, beta, kappa, seed in cases:
        params = ModelParams(n, beta, kappa)
        st = random_state(n, np.random.default_rng(seed), box=1.0)
        traj = integrate(st, params, 10.0, rtol=1e-10, atol=1e-12)
        drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
        worst_energy = max(worst_energy, drift / abs(traj.energy[0]))
        worst_spectrum = max(worst_spectrum, spectral_drift(traj))
    assert worst_energy <= 1e-8
    assert worst_spectrum <= 1e-7
    print(f"criterion 7 PASS: energy drift {worst_energy:.3e}, "
          f"eigenvalue drift {worst_spectrum:.3e} over t in [0, 10]")


def test_criterion_08_boundary_duality():
    worst = 0.0
    for kappa in (0.3, 2.5):
        for i in range(1000):
            n = 3 + (i % 4)
            st = random_state(n, np.random.default_rng(i), box=2.0)
            h_inv = hamiltonian(st, ModelParams(n, 0.7, 1.0 / kappa))
            h_shift = hamiltonian(
                shift(st, np.full(n, kappa)), ModelParams(n, 0.7, kappa)
            )
            worst = max(worst, abs(h_inv - h_shift) / abs(h_inv))
    assert worst <= 1e-12
    print(f"criterion 8 PASS: duality residual {worst:.3e} over 2000 states")


def test_criterion_09_nonrelativistic_order():
    orders = []
    # generic states; a state sitting near a zero of the quartic error
    # coefficient would make the observed order meaningless
    for seed in (9, 29, 39):
        st = random_state(4, np.random.default_rng(seed), box=1.0)
        errs = []
        for beta in (0.2, 0.1, 0.05):
            p = ModelParams(4, beta, 0.7)
            errs.append(
                (hamiltonian(st, p) - 4.0) / beta**2 - nonrel_hamiltonian(st, p)
            )
        orders.append(math.log2(abs(errs[0] / errs[1])))
        orders.append(math.log2(abs(errs[1] / errs[2])))
    assert all(1.8 <= o <= 2.2 for o in orders)
    print(f"criterion 9 PASS: observed orders "
          f"{min(orders):.3f} .. {max(orders):.3f} (target 2 +- 0.2)")


def test_criterion_10_kinematic_bounds_along_flow():
    checked = 0
    for n, beta, kappa, seed in [(4, 0.5, 1.0, 3), (5, 1.0, 0.3, 4), (4, 1.0, 0.0, 5)]:
        params = ModelParams(n, beta, kappa)
        st = random_state(n, np.random.default_rng(seed), box=1.0)
        traj = integrate(st, params, 10.0, sample_dt=0.05, rtol=1e-10, atol=1e-12)
        h0 = traj.energy[0]
        rap_cap = math.log(2.0 * h0) / beta
        speed_cap = beta * h0
        for i, s in enumerate(traj.states):
            assert np.max(np.abs(s.eta)) < rap_cap
            if i:
                dt = traj.t[i] - traj.t[i - 1]
                dq = np.max(np.abs(s.xi - traj.states[i - 1].xi))
                assert dq <= speed_cap * dt * (1.0 + 1e-6)
            checked += 1
    print(f"criterion 10 PASS: rapidity and speed bounds at {checked} samples")


PERTURBATIONS = {
    "lax_triad": ("L", 1, 0),
    "lax_equation": ("Hcal", 0, 3),
    "omega_acal_gauge": ("Acal", 0, 0),
    "omega_b_symmetry": ("B", 0, 0),
    "band_lower": ("Lcal", 7, 0),
    "band_upper": ("Lcal_inv", 0, 7),
    "trace_energy": ("Lcal", 0, 0),
    "diagonal_velocity": ("Lcal", 1, 1),
    "acal_routes": ("A", 0, 0),
    "xh_w_composition": ("xhw", 1, 0),
}


def test_criterion_11_perturbation_sensitivity():
    params = ModelParams(4, 0.6, 1.2)
    clean = run_suite(params, 2, seed=500)
    assert all(r.passed for r in clean)
    for name, (target, i, j) in PERTURBATIONS.items():
        reports = run_suite(params, 2, seed=500, perturb=(target, i, j, 1e-3))
        hits = [r for r in reports if r.name == name]
        assert hits and all(not r.passed for r in hits), name
    print(f"criterion 11 PASS: all {len(PERTURBATIONS)} residuals detect "
          f"a 1e-3 single-entry perturbation")
