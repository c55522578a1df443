"""Command-line interface: exit codes, file outputs, config precedence."""

import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vdtoda import integrate, random_state, solve_trajectory
from vdtoda.cli import RunConfig, main
from vdtoda.verify import _MATRIX_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


BASE = dict(n=4, beta=0.5, kappa=1.0, t_end=1.0, sample_dt=0.25, seed=7, num_states=4)


# ---------------------------------------------------------------- config


def test_run_config_defaults_and_validation():
    cfg = RunConfig()
    assert (cfg.n, cfg.beta, cfg.kappa) == (3, 1.0, 1.0)
    assert cfg.params.n == 3
    assert cfg.state.n == 3
    with pytest.raises(ValueError):
        RunConfig(n=2)
    with pytest.raises(ValueError):
        RunConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        RunConfig(n=3, xi=(0.0, 0.0))  # wrong length


def _documented_pairs(text: str) -> dict[str, str]:
    pairs = (item.strip() for item in " ".join(text.split()).split(","))
    return dict(item.split("=") for item in pairs if "=" in item)


def test_readme_states_the_code_defaults():
    readme = README.read_text(encoding="utf-8")
    cli = re.search(r"defaults fill the\s+rest \(`([^`]*)`\)", readme)
    documented = _documented_pairs(cli.group(1))
    defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not None}
    assert set(documented) == set(defaults)
    for key, value in defaults.items():
        assert type(value)(documented[key]) == value, key
    for fn in (integrate, solve_trajectory):
        signature = re.search(rf"`{fn.__name__}\(([^`]*)\)`", readme)
        documented = _documented_pairs(signature.group(1))
        assert documented, fn.__name__
        for key, text in documented.items():
            assert float(text) == inspect.signature(fn).parameters[key].default, key


def test_flags_override_config_file(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    out = tmp_path / "r.jsonl"
    rc = main(["verify", "--config", cfg, "--beta", "0.7", "-o", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert all(row["beta"] == 0.7 for row in rows)
    assert all(row["n"] == 4 for row in rows)  # file value survives


# ---------------------------------------------------------------- verify


def test_verify_writes_jsonl_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, **BASE)
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--config", cfg, "-o", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(rows) == 4 * 8  # num_states x residual count
    assert all(row["pass"] for row in rows)
    summary = capsys.readouterr().err
    assert "0 failed" in summary


def test_verify_perturbation_fails(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--config", cfg, "--perturb", "L,1,0,1e-3", "-o", str(out)])
    assert rc == 1
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert any(not row["pass"] for row in rows)


def test_verify_dumps_matrices(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    mats = tmp_path / "mats"
    rc = main(["verify", "--config", cfg, "--dump-matrices", str(mats),
               "-o", str(tmp_path / "r.jsonl")])
    assert rc == 0
    files = sorted(p.name for p in mats.iterdir())
    assert len(files) == 15
    assert "Lcal.csv" in files and "Omega.csv" in files
    # every perturbable matrix of the suite but X_H[W]
    assert set(files) == {f"{name}.csv" for name in _MATRIX_FIELDS if name != "xhw"}


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, oops')
    assert main(["verify", "--config", str(bad)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, n=4, betta=0.5)
    assert main(["verify", "--config", cfg]) == 2


def test_bad_perturb_spec_exits_2(tmp_path):
    # malformed flag values are rejected by the parser itself
    cfg = write_config(tmp_path, **BASE)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--config", cfg, "--perturb", "L,1,0"])
    assert info.value.code == 2


# -------------------------------------------------------------- simulate


def test_simulate_row_count(tmp_path, capsys):
    cfg = write_config(tmp_path, **BASE)
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", cfg, "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 5  # header + floor(1.0/0.25) + 1
    assert lines[0] == "t,q1,q2,q3,q4,theta1,theta2,theta3,theta4,H"
    assert "energy drift" in capsys.readouterr().err


def test_simulate_zero_horizon_single_row(tmp_path):
    cfg = write_config(tmp_path, n=3, t_end=0.0)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_simulate_writes_spectrum(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    spec = tmp_path / "spec.csv"
    rc = main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv"),
               "--spectrum-output", str(spec)])
    assert rc == 0
    header = spec.read_text().split("\n", 1)[0].split(",")
    assert len(header) == 1 + 2 * 8


def test_overflowing_start_exits_3(tmp_path):
    cfg = write_config(tmp_path, n=3, beta=1.0, xi=[0.0, 0.0, -400.0], t_end=1.0)
    assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 3


def test_underflowing_coordinates_exit_3(tmp_path, capsys):
    # a hot state whose particles drift more than ~745 apart: w_a underflows
    # to 0 in the spectrum's coordinates, a numerical breakdown, not a usage error
    state = random_state(8, np.random.default_rng(21), box=5.0)
    cfg = write_config(
        tmp_path, n=8, beta=1.0, kappa=1.0, xi=state.xi.tolist(), eta=state.eta.tolist(), t_end=3.0
    )
    assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 3
    assert "x and w entries must be positive" in capsys.readouterr().err


# ----------------------------------------------------------------- solve


def test_solve_matches_simulate(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    a, b = tmp_path / "rk.csv", tmp_path / "alg.csv"
    assert main(["simulate", "--config", cfg, "-o", str(a)]) == 0
    assert main(["solve", "--config", cfg, "-o", str(b)]) == 0
    rows_a = a.read_text().strip().split("\n")[1:]
    rows_b = b.read_text().strip().split("\n")[1:]
    for ra, rb in zip(rows_a, rows_b):
        va = [float(x) for x in ra.split(",")]
        vb = [float(x) for x in rb.split(",")]
        assert max(abs(x - y) for x, y in zip(va, vb)) < 1e-5


def test_solve_beyond_horizon_exits_1(tmp_path):
    # hot state: the drift guard rejects the ill-conditioned reconstruction
    cfg = write_config(
        tmp_path,
        n=4,
        beta=1.0,
        xi=[-0.8287016657127512, -0.5263789868078006,
            0.6025489304127938, 0.16432407212873557],
        eta=[-0.8117427155192016, -0.1337461195270524,
             -0.04189740371833195, -0.6805221707258429],
        t_end=5.0,
    )
    assert main(["solve", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 1


# --------------------------------------------------------------- compare


def test_compare_methods(tmp_path, capsys):
    cfg = write_config(tmp_path, **BASE)
    out = tmp_path / "diff.csv"
    rc = main(["compare", "--config", cfg, "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,max_dq,max_dtheta"
    assert len(lines) == 1 + 5
    assert "max |dq|" in capsys.readouterr().err


def test_compare_dumps_both_trajectories(tmp_path):
    cfg = write_config(tmp_path, **BASE)
    rc = main(["compare", "--config", cfg, "-o", str(tmp_path / "d.csv"),
               "--dump-trajectories", str(tmp_path / "dump")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "dump").iterdir())
    assert names == ["trajectory_algebraic.csv", "trajectory_rk.csv"]


@pytest.mark.parametrize(
    "args, field",
    [
        (["simulate", "--rtol", "nan", "--t-end", "0.5"], "rtol"),
        (["simulate", "--atol", "inf", "--t-end", "0.5"], "atol"),
        (["solve", "--t-end", "inf"], "t_end"),
        (["solve", "--t-end", "nan"], "t_end"),
        (["solve", "--sample-dt", "nan"], "sample_dt"),
        (["verify", "--box", "nan"], "box"),
    ],
)
def test_non_finite_inputs_are_usage_errors(args, field, capsys):
    assert main(args) == 2
    assert f"error: {field} must be finite" in capsys.readouterr().err
