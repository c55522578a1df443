"""Residual suite: determinism, reporting, and sensitivity to damage."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import vdtoda.verify as verify
from vdtoda import ModelParams, random_state
from vdtoda.lax import build_bundle
from vdtoda.verify import (
    ResidualReport,
    lax_triad_residual,
    reports_to_jsonl,
    run_suite,
)

README = Path(__file__).resolve().parent.parent / "README.md"

PARAMS = ModelParams(5, 0.6, 1.2)

RESIDUAL_NAMES = (
    "lax_triad",
    "lax_equation",
    "omega_acal_gauge",
    "omega_b_symmetry",
    "band_lower",
    "band_upper",
    "trace_energy",
    "diagonal_velocity",
    "acal_routes",
    "xh_q_forms",
    "xh_w_composition",
    "gamma_upsilon",
)


def test_clean_suite_passes_everywhere():
    reports = run_suite(PARAMS, 20, seed=101)
    assert len(reports) == 20 * len(RESIDUAL_NAMES)
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == set(RESIDUAL_NAMES)


def test_reports_are_ordered_and_tagged():
    reports = run_suite(PARAMS, 4, seed=11)
    for i, r in enumerate(reports):
        assert r.state_index == i // len(RESIDUAL_NAMES)
        assert (r.n, r.beta, r.kappa, r.seed) == (5, 0.6, 1.2, 11)


def test_pass_rule_uses_relative_scale_floor():
    r = ResidualReport(name="x", max_abs=5e-11, rel_scale=0.01, tol=1e-10)
    assert r.passed  # floor at 1 keeps tiny scales from tightening the bar
    r2 = ResidualReport(name="x", max_abs=5e-9, rel_scale=100.0, tol=1e-10)
    assert r2.passed  # 5e-9 <= 1e-10 * 100
    r3 = ResidualReport(name="x", max_abs=5e-8, rel_scale=100.0, tol=1e-10)
    assert not r3.passed


def test_reports_are_immutable_and_keep_keyword_defaults():
    r = ResidualReport(name="x", max_abs=5e-11, rel_scale=0.01, tol=1e-10)
    assert (r.n, r.beta, r.kappa, r.seed, r.state_index, r.blocks) == (None,) * 6
    assert r.margin == 5e-11 / 1e-10
    for report in (r, run_suite(PARAMS, 1, seed=3)[0]):
        for field in ResidualReport._fields:
            with pytest.raises(AttributeError):
                setattr(report, field, 0.0)


def test_jsonl_schema_and_round_trip():
    reports = run_suite(PARAMS, 3, seed=6)
    text = reports_to_jsonl(reports)
    lines = text.strip().split("\n")
    assert len(lines) == len(reports)
    for line, r in zip(lines, reports):
        row = json.loads(line)
        assert set(row) == {
            "name", "n", "beta", "kappa", "seed", "state_index",
            "max_abs", "rel_scale", "tol", "pass", "margin", "blocks",
        }
        assert row["max_abs"] == r.max_abs  # repr round-trip, no rounding
        assert row["pass"] is True
        assert row["margin"] == r.margin and (row["margin"] <= 1.0) is row["pass"]
        assert row["blocks"] == r.blocks
    perturbed = run_suite(PARAMS, 3, seed=6, perturb=("L", 1, 0, 1e-3))
    assert not all(r.passed for r in perturbed)
    for r in perturbed:
        assert (r.margin <= 1.0) is r.passed


def test_suite_reports_equal_records_built_by_keyword():
    reports = run_suite(PARAMS, 4, seed=9, perturb=("Acal", 0, 0, 1e-3))
    rebuilt = [ResidualReport(**r._asdict()) for r in reports]
    for r, want in zip(reports, rebuilt):
        assert type(r) is ResidualReport
        assert r == want and r._fields == want._fields
        assert [repr(v) for v in r] == [repr(v) for v in want]
        assert (r.passed, r.margin) == (want.passed, want.margin)
        assert r._replace(tol=1.0) == want._replace(tol=1.0)
        assert type(r._replace(tol=1.0)) is ResidualReport
    assert not all(r.passed for r in reports)
    assert reports_to_jsonl(reports) == reports_to_jsonl(rebuilt)


def test_jsonl_writes_non_finite_floats_as_null():
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    blocks = {"pp": np.nan, "pm": 0.0, "mp": np.inf, "mm": 2.5e-17}
    reports = [
        ResidualReport("x", np.nan, 1.0, 1e-10, n=3, beta=1.0, kappa=0.0, blocks=blocks),
        ResidualReport("y", 0.0, np.inf, 1e-10),
        ResidualReport("z", np.inf, 1.0, 1e-10),
    ]
    rows = [json.loads(line, parse_constant=reject) for line in reports_to_jsonl(reports).splitlines()]
    assert rows[0]["max_abs"] is None and rows[0]["margin"] is None
    assert rows[0]["blocks"] == {"pp": None, "pm": 0.0, "mp": None, "mm": 2.5e-17}
    assert (rows[1]["max_abs"], rows[1]["rel_scale"], rows[1]["margin"]) == (0.0, None, 0.0)
    assert (rows[2]["max_abs"], rows[2]["margin"], rows[2]["blocks"]) == (None, None, None)
    assert [row["pass"] for row in rows] == [False, True, False]


def test_suite_is_deterministic_per_seed():
    a = reports_to_jsonl(run_suite(PARAMS, 5, seed=42))
    b = reports_to_jsonl(run_suite(PARAMS, 5, seed=42))
    c = reports_to_jsonl(run_suite(PARAMS, 5, seed=43))
    assert a == b
    assert a != c


def test_state_count_does_not_change_a_prefix():
    # states are evaluated as one stack; the first k states must give the
    # same bits whatever else is in the stack
    full = run_suite(PARAMS, 9, seed=9)
    lines = reports_to_jsonl(full).splitlines()
    for k in (1, 2, 5, 8):
        prefix = run_suite(PARAMS, k, seed=9)
        size = k * len(RESIDUAL_NAMES)
        assert reports_to_jsonl(prefix).splitlines() == lines[:size]
        assert repr([r.blocks for r in prefix]) == repr([r.blocks for r in full[:size]])


def test_matrix_residuals_report_block_maxima():
    reports = run_suite(PARAMS, 1, seed=4)
    by_name = {r.name: r for r in reports}
    for name in ("lax_triad", "omega_acal_gauge"):
        blocks = by_name[name].blocks
        assert blocks is not None
        assert set(blocks) == {"pp", "pm", "mp", "mm"}
        assert all(v >= 0.0 for v in blocks.values())


# ------------------------------------------------------------ sensitivity

# a single 1e-3 entry change that each residual must notice
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


# xh_q_forms and gamma_upsilon read no matrix; tests in test_hamiltonian
# and test_stacked_suite corrupt their inputs instead
@pytest.mark.parametrize("name", PERTURBATIONS)
def test_each_residual_detects_a_perturbed_entry(name):
    params = ModelParams(4, 0.6, 1.2)
    target, i, j = PERTURBATIONS[name]
    reports = run_suite(params, 3, seed=77, perturb=(target, i, j, 1e-3))
    hits = [r for r in reports if r.name == name]
    assert hits and all(not r.passed for r in hits)
    clean = [r for r in run_suite(params, 3, seed=77) if r.name == name]
    assert all(r.passed for r in clean)


@pytest.mark.parametrize("n, kappa, box", [(3, 0.0, 2.0), (8, 1.0, 10.0), (12, 2.5, 50.0)])
def test_diagonal_factors_act_as_their_dense_matrices(n, kappa, box):
    # X_H[L] = D (Dcal (I + W) + X_H[W]) through the stored diagonals gives
    # the bits of the dense matrix products: their other terms are exact zeros
    q, th = verify._draw_states(n, 16, n, box)
    params = ModelParams(n, 0.5, kappa)
    bundle = build_bundle((q, th), params)
    D, Dcal = (np.stack([np.diag(v) for v in diagonals]) for diagonals in (bundle.d, bundle.dcal))
    dense = D @ (Dcal @ (np.eye(2 * n) + bundle.W) + bundle.xhw)
    assert np.array_equal(verify._xh_of_L(verify._inputs(bundle, q, th, params, None)), dense)


def test_triad_residual_direct_call():
    st = random_state(5, np.random.default_rng(15), box=1.5)
    bundle = build_bundle(st, PARAMS)
    report = lax_triad_residual(st, PARAMS, bundle)
    assert report.name == "lax_triad"
    assert report.passed
    assert report.max_abs <= 1e-10 * max(1.0, report.rel_scale)


@pytest.mark.parametrize("box", [np.nan, np.inf, -1.0])
def test_suite_rejects_a_non_finite_box(box):
    with pytest.raises(ValueError, match="box must be finite and >= 0"):
        run_suite(PARAMS, 2, 0, box=box)
    with pytest.raises(ValueError, match="box must be finite and >= 0"):
        random_state(5, np.random.default_rng(0), box=box)


def test_readme_table_lists_the_emitted_residuals():
    readme = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)`\s*\|.*\| `([0-9.e+-]+)`\s*\|$", readme, re.MULTILINE)
    emitted = [(r.name, r.tol) for r in run_suite(PARAMS, 1, seed=3)]
    assert [(name, float(tol)) for name, tol in rows] == emitted
    tols = {getattr(verify, key) for key in dir(verify) if key.startswith("TOL_")}
    assert {tol for _, tol in emitted} <= tols
