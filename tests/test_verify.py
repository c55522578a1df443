"""Residual suite: determinism, reporting, and sensitivity to damage."""

import json

import numpy as np
import pytest

from vdtoda import ModelParams, random_state
from vdtoda.lax import build_bundle
from vdtoda.verify import (
    ResidualReport,
    lax_triad_residual,
    reports_to_jsonl,
    run_suite,
)

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


def test_jsonl_schema_and_round_trip():
    reports = run_suite(PARAMS, 3, seed=6)
    text = reports_to_jsonl(reports)
    lines = text.strip().split("\n")
    assert len(lines) == len(reports)
    for line, r in zip(lines, reports):
        row = json.loads(line)
        assert set(row) == {
            "name", "n", "beta", "kappa", "seed", "state_index",
            "max_abs", "rel_scale", "tol", "pass",
        }
        assert row["max_abs"] == r.max_abs  # repr round-trip, no rounding
        assert row["pass"] is True


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
}


@pytest.mark.parametrize("name", RESIDUAL_NAMES)
def test_each_residual_detects_a_perturbed_entry(name):
    params = ModelParams(4, 0.6, 1.2)
    target, i, j = PERTURBATIONS[name]
    reports = run_suite(params, 3, seed=77, perturb=(target, i, j, 1e-3))
    hits = [r for r in reports if r.name == name]
    assert hits and all(not r.passed for r in hits)
    clean = [r for r in run_suite(params, 3, seed=77) if r.name == name]
    assert all(r.passed for r in clean)


def test_triad_residual_direct_call():
    st = random_state(5, np.random.default_rng(15), box=1.5)
    bundle = build_bundle(st, PARAMS)
    report = lax_triad_residual(st, PARAMS, bundle)
    assert report.name == "lax_triad"
    assert report.passed
    assert report.max_abs <= 1e-10 * max(1.0, report.rel_scale)


@pytest.mark.parametrize("box", [np.nan, np.inf])
def test_suite_rejects_a_non_finite_box(box):
    with pytest.raises(ValueError, match="box must be finite"):
        run_suite(PARAMS, 2, 0, box=box)
