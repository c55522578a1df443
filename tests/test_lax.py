"""Matrix scaffolding: gradings, the order-two symmetry, band structure."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from conftest import draw_states
from vdtoda import CoordinateOverflowError, ModelParams, State, integrate, random_state
from vdtoda.hamiltonian import derived_coords
from vdtoda.lax import (
    LaxBundle,
    _diagonal,
    build_bundle,
    build_omega,
    graded_part,
    omega_conjugate,
    reversal,
    strict_lower,
    strict_upper,
)

README = Path(__file__).resolve().parent.parent / "README.md"
EPS = np.finfo(float).eps
QUART2 = 2.0 ** 0.25
SQRT2 = math.sqrt(2.0)

KAPPA_GRID = (0.0, 0.3, 1.0, 2.5)


# ----------------------------------------------------------- gradings


def test_graded_parts_partition_the_matrix():
    M = np.random.default_rng(0).normal(size=(6, 6))
    total = sum(graded_part(M, k) for k in range(-5, 6))
    assert np.array_equal(total, M)
    assert np.array_equal(graded_part(M, 6), np.zeros((6, 6)))
    assert np.array_equal(graded_part(M, -7), np.zeros((6, 6)))


def test_triangular_splitters():
    M = np.random.default_rng(1).normal(size=(5, 5))
    assert np.array_equal(strict_lower(M) + graded_part(M, 0) + strict_upper(M), M)
    assert np.all(np.triu(strict_lower(M)) == 0)
    assert np.all(np.tril(strict_upper(M)) == 0)


@pytest.mark.parametrize("shape", [(6, 6), (3, 8, 8), (4, 7), (2, 7, 4)])
@pytest.mark.parametrize("dtype", [float, int, complex])
def test_triangular_splitters_give_the_bytes_of_tril_and_triu(shape, dtype):
    rng = np.random.default_rng(2)
    for _ in range(2):  # a second call reads the cached masks
        M = (rng.normal(size=shape) * 10).astype(dtype)
        for ours, theirs in ((strict_lower(M), np.tril(M, -1)), (strict_upper(M), np.triu(M, 1))):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()


# ----------------------------------------------------- reversal and Omega


def test_reversal_swaps_basis_indices():
    n = 5
    R = reversal(n)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.integers(0, n, size=2)
        E = np.zeros((n, n))
        E[a, b] = 1.0
        out = R @ E @ R
        expect = np.zeros((n, n))
        expect[n - 1 - a, n - 1 - b] = 1.0
        assert np.array_equal(out, expect)


def test_reversal_exchanges_bands():
    n = 6
    R = reversal(n)
    L = np.tril(np.random.default_rng(4).normal(size=(n, n)), -1)
    assert np.all(np.tril(R @ L @ R, 0) == 0)  # strictly lower -> strictly upper


@pytest.mark.parametrize("S", [1, 5])
@pytest.mark.parametrize("n", range(3, 13))
def test_diagonal_view_writes_the_entries_of_index_arrays(n, S):
    # every (size, row, column, length) that build_bundle writes through _diagonal
    N = 2 * n
    uses = [(N, 1, 0, N - 1), (N, 0, 0, N)]
    uses += [(N, 0, 0, n - 1), (N, 0, 1, n - 1), (N, 1, 0, n - 1)]
    uses += [(N, 0, 0, n), (N, 0, 1, n - 2), (N, 1, 0, n - 2)]
    uses += [(n, 0, 0, n), (n, 0, 1, n - 2), (n, 1, 0, n - 2)]
    rng = np.random.default_rng(100 * n + S)
    for size, i, j, length in uses:
        M = rng.normal(size=(S, size, size))
        v = rng.normal(size=(S, length))
        want, got = M.copy(), M.copy()
        t = np.arange(length)
        want[:, i + t, j + t] = v
        _diagonal(got, i, j, length)[...] = v
        assert got.tobytes() == want.tobytes(), (size, i, j, length)


def test_omega_squares_to_minus_identity():
    for n in (3, 5, 8):
        Om = build_omega(n)
        assert np.array_equal(Om @ Om, -np.eye(2 * n))


def test_omega_conjugation_is_block_exact():
    n = 4
    Om = build_omega(n)
    M = np.random.default_rng(5).normal(size=(2 * n, 2 * n))
    direct = Om @ M @ np.linalg.inv(Om)
    assert np.max(np.abs(omega_conjugate(M) - direct)) < 1e-14
    # applying it twice restores the matrix bitwise
    assert np.array_equal(omega_conjugate(omega_conjugate(M)), M)


def test_omega_conjugation_flips_grading():
    n = 4
    M = np.random.default_rng(6).normal(size=(2 * n, 2 * n))
    for k in range(-3, 4):
        out = omega_conjugate(graded_part(M, k))
        assert np.array_equal(out, graded_part(out, -k))


def test_omega_conjugation_rejects_odd_dimension():
    with pytest.raises(ValueError):
        omega_conjugate(np.eye(5))


# ------------------------------------------------------- frozen entries


def test_diagonal_factor_at_origin(zero3):
    for kappa in (0.0, 1.0):
        b = build_bundle(zero3, ModelParams(3, 1.0, kappa))
        expect = [QUART2, 1.0, 1.0, 1.0, 1.0, 1.0 / QUART2]
        assert b.d.shape == (6,)
        assert np.allclose(b.d, expect, rtol=0, atol=1e-15)
        assert np.array_equal(np.diag(b.L), b.d)


def test_hessenberg_diagonal_at_origin(zero3):
    for kappa in (0.0, 1.0):
        params = ModelParams(3, 1.0, kappa)
        b = build_bundle(zero3, params)
        got = np.diag(graded_part(b.Hcal, 0))
        assert np.allclose(got, [SQRT2, 2, 2, 2, 2, SQRT2], rtol=0, atol=1e-14)


# -------------------------------------------------------- band structure


def _pattern_checks(bundle, n):
    N = 2 * n
    # lower bidiagonal: nothing above the diagonal, nothing below the
    # first subdiagonal, and both bands fully populated
    L = bundle.L
    assert np.array_equal(np.triu(L, 1), np.zeros((N, N)))
    assert np.array_equal(np.tril(L, -2), np.zeros((N, N)))
    assert np.all(np.diag(L) != 0) and np.all(np.diag(L, -1) != 0)
    # unreduced upper Hessenberg
    H = bundle.Hcal
    assert np.array_equal(np.tril(H, -2), np.zeros((N, N)))
    assert np.all(np.diag(H, -1) != 0)
    # monodromy-side operator: lower bandwidth 2, arbitrary upper part
    assert np.array_equal(np.tril(bundle.Lcal, -3), np.zeros((N, N)))
    # both connection matrices live inside |i - j| <= 2
    for M in (bundle.A, bundle.B, bundle.Acal):
        assert np.array_equal(M - np.tril(np.triu(M, -2), 2), np.zeros((N, N)))
    # single populated subdiagonal, nilpotent of full order
    W = bundle.W
    assert np.array_equal(W - np.diag(np.diag(W, -1), -1), np.zeros((N, N)))
    assert np.any(np.linalg.matrix_power(W, N - 1) != 0)
    assert not np.any(np.linalg.matrix_power(W, N) != 0)


def test_exact_zero_patterns_across_states():
    # 1000 random states, mixed sizes and boundary couplings
    count = 0
    for i in range(1000):
        n = 3 + (i % 6)
        kappa = KAPPA_GRID[i % 4]
        params = ModelParams(n, 0.4 + 0.2 * (i % 3), kappa)
        st = random_state(n, np.random.default_rng(i), box=2.0)
        _pattern_checks(build_bundle(st, params), n)
        count += 1
    assert count == 1000


def test_zero_coupling_drops_corner_entries():
    st = random_state(4, np.random.default_rng(77), box=1.5)
    b = build_bundle(st, ModelParams(4, 0.8, 0.0))
    n = 4
    # with no boundary coupling the off-tridiagonal corner entries vanish
    for M in (b.A, b.B, b.Acal):
        assert np.array_equal(M - np.tril(np.triu(M, -1), 1), np.zeros((8, 8)))
    assert b.g[n - 1, n] == 0.0 and b.g[n, n - 1] == 0.0


# ----------------------------------------------------- bundle identities


def test_gauge_factor_inverts_exactly():
    for kappa in KAPPA_GRID:
        st = random_state(5, np.random.default_rng(13), box=1.5)
        b = build_bundle(st, ModelParams(5, 0.7, kappa))
        assert np.max(np.abs(b.g @ b.g_inv - np.eye(10))) < 1e-14


def test_hessenberg_inverse_via_omega():
    # Omega-conjugation inverts the Hessenberg operator; checked through
    # the product residual because the explicit inverse is full
    for st in draw_states(5, 20, seed=41, box=1.5):
        b = build_bundle(st, ModelParams(5, 0.6, 1.2))
        inv = omega_conjugate(b.Hcal)
        resid = b.Hcal @ inv - np.eye(10)
        scale = np.max(np.abs(b.Hcal)) * np.max(np.abs(inv))
        assert np.max(np.abs(resid)) <= 1e-11 * max(1.0, scale)


def test_monodromy_inverse_is_omega_conjugate():
    st = random_state(4, np.random.default_rng(55), box=1.0)
    b = build_bundle(st, ModelParams(4, 0.9, 0.8))
    resid = b.Lcal @ b.Lcal_inv - np.eye(8)
    scale = np.max(np.abs(b.Lcal)) * np.max(np.abs(b.Lcal_inv))
    assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, scale)


def test_half_trace_equals_energy(zero3):
    from vdtoda.hamiltonian import hamiltonian

    params = ModelParams(3, 1.0, 0.0)
    b = build_bundle(zero3, params)
    assert abs(0.5 * np.trace(b.Lcal) - hamiltonian(zero3, params)) < 1e-13


# --------------------------------------------------- Hessenberg gradings


def _hessenberg_parts(bundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form bands -1, 0, 1 of Hcal: D W D, D T D and D T W^T D.

    T = I + W W^T is diagonal, with entries 1 and 1 + w.
    """
    d = bundle.d
    sub = np.diag(bundle.W, -1)
    t = np.ones(d.shape[0])
    t[1:] += sub * sub
    H_m1 = d[:, None] * bundle.W * d[None, :]
    H_0 = np.diag(d * t * d)
    H_1 = np.diag(d[:-1] * t[:-1] * sub * d[1:], 1)
    return H_m1, H_0, H_1


def test_hessenberg_parts_match_gradings():
    # the closed-form bands against Hcal, at kappa 0 and > 0
    for n, kappa in ((5, 1.1), (3, 0.0), (12, 0.0), (12, 2.5)):
        st = random_state(n, np.random.default_rng(23), box=1.5)
        params = ModelParams(n, 0.7, kappa)
        b = build_bundle(st, params)
        for k, part in zip((-1, 0, 1), _hessenberg_parts(b)):
            assert np.max(np.abs(part - graded_part(b.Hcal, k))) <= 1e-12 * max(
                1.0, np.max(np.abs(b.Hcal))
            )
        assert np.array_equal(graded_part(b.Hcal, -2), np.zeros((2 * n, 2 * n)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 12),
    st.sampled_from([0.0, 0.3, 2.5]),
    st.floats(0.1, 1.0),
    st.floats(0.0, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_hessenberg_solves_its_definition(n, kappa, beta, box, seed):
    # Hcal = L (Omega L Omega^{-1})^{-1}: multiplied back, it gives L entry
    # by entry within a few eps of the terms |Hcal| |Omega L Omega^{-1}|,
    # whatever route built it
    state = random_state(n, np.random.default_rng(seed), box=box)
    b = build_bundle(state, ModelParams(n, beta, kappa))
    U = omega_conjugate(b.L)
    resid = np.abs(b.Hcal @ U - b.L)
    assert np.all(resid <= 4 * EPS * (np.abs(b.Hcal) @ np.abs(U)))
    assert np.array_equal(np.tril(b.Hcal, -2), np.zeros((2 * n, 2 * n)))


@pytest.mark.parametrize("n, kappa", [(3, 0.0), (4, 2.5), (6, 0.3), (8, 1.0)])
def test_hessenberg_matches_the_extended_precision_definition(n, kappa):
    # every entry within 8 eps of Hcal evaluated from its definition in
    # 40 digits, from the same float64 coordinates; its zeros exact
    params = ModelParams(n, 0.8, kappa)
    for state in draw_states(n, 3, seed=60 + n, box=3.0):
        exact = mp_reference.hcal(state, params)
        assert mp_reference.relative_error(build_bundle(state, params).Hcal, exact) <= 8 * EPS


def test_overflowing_delta_is_a_coordinate_overflow(zero3):
    # kappa^2 overflows, so delta = 1 + kappa^2 w_n is inf: the coordinate
    # guard names delta before any matrix is built from it
    params = ModelParams(3, 1e-150, 1e160)
    message = r"^overflow while evaluating delta = 1 \+ kappa\^2 w_n$"
    for fn in (derived_coords, build_bundle, lambda s, p: integrate(s, p, 0.0)):
        with pytest.raises(CoordinateOverflowError, match=message):
            fn(zero3, params)


def test_squared_factor_diagonal():
    # I + W W^T is diagonal: (1, 1 + w_1 .. 1 + w_{n-1} | 1 + w_n, .. 1 + w_1)
    st = random_state(4, np.random.default_rng(29), box=1.5)
    params = ModelParams(4, 0.8, 1.3)
    b = build_bundle(st, params)
    w = derived_coords(st, params).w
    T = np.eye(8) + b.W @ b.W.T
    expect = np.concatenate(
        [[1.0], 1.0 + w[:-1], [1.0 + w[-1]], (1.0 + w[:-1])[::-1]]
    )
    assert np.array_equal(T, np.diag(np.diag(T)))
    assert np.max(np.abs(np.diag(T) - expect)) < 1e-15


def test_readme_table_lists_every_bundle_field():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Matrix representation\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)`\s*\|", section, re.MULTILINE)
    assert listed == [f.name for f in fields(LaxBundle)]
