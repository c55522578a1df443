"""Command-line interface: exit codes, file outputs, config precedence."""

import inspect
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import vdtoda
import vdtoda.cli as cli
from vdtoda import integrate, random_state, solve_trajectory
from vdtoda.cli import RunConfig, main
from vdtoda.lax import build_bundle, build_omega
from vdtoda.verify import _MATRIX_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"
# the exit code the README documents for each error the package exports
EXIT_CODES = {
    "TrajectoryCheckError": 1,
    "CoordinateOverflowError": 3,
    "CoordinateUnderflowError": 3,
    "FactorizationBreakdownError": 3,
    "StepSizeUnderflowError": 3,
}


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


MODEL = dict(n=4, beta=0.5, kappa=1.0)
# a config file holds only keys its command reads
VERIFY = dict(MODEL, seed=7, num_states=4)
TRAJECTORY = dict(MODEL, t_end=1.0, sample_dt=0.25)
# the keys that each command does not read
UNREAD = [
    ("verify", "t_end"), ("verify", "sample_dt"), ("verify", "rtol"), ("verify", "atol"),
    ("simulate", "seed"), ("simulate", "num_states"),
    ("solve", "rtol"), ("solve", "atol"), ("solve", "seed"), ("solve", "num_states"),
    ("compare", "seed"), ("compare", "num_states"),
]


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
    cfg = write_config(tmp_path, **VERIFY)
    out = tmp_path / "r.jsonl"
    rc = main(["verify", "--config", cfg, "--beta", "0.7", "-o", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert all(row["beta"] == 0.7 for row in rows)
    assert all(row["n"] == 4 for row in rows)  # file value survives


# ---------------------------------------------------------------- verify


def test_verify_writes_jsonl_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, **VERIFY)
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--config", cfg, "-o", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(rows) == 4 * 12  # num_states x residual count
    assert all(row["pass"] for row in rows)
    summary = capsys.readouterr().err
    assert "0 failed" in summary
    worst = max(rows, key=lambda row: row["margin"])
    assert summary.strip() == (
        f"48 residual reports, 0 failed, worst margin {worst['margin']:.1e}"
        f" ({worst['name']}, state {worst['state_index']})"
    )


def test_verify_perturbation_fails(tmp_path):
    cfg = write_config(tmp_path, **VERIFY)
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--config", cfg, "--perturb", "L,1,0,1e-3", "-o", str(out)])
    assert rc == 1
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert any(not row["pass"] for row in rows)


@pytest.mark.parametrize(
    "spec, failing",
    [("A,0,0,nan", {"acal_routes"}), ("L,0,0,nan", {"lax_triad", "lax_equation"})],
)
def test_verify_jsonl_is_strict_json_with_non_finite_residuals(tmp_path, spec, failing):
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--n", "3", "--num-states", "1", "--perturb", spec, "-o", str(out)])
    assert rc == 1
    rows = [json.loads(line, parse_constant=reject) for line in out.read_text().splitlines()]
    assert len(rows) == 12
    assert {row["name"] for row in rows if not row["pass"]} == failing
    for row in rows:
        if not row["pass"]:
            assert row["max_abs"] is None and row["margin"] is None
    if "lax_triad" in failing:
        assert None in rows[0]["blocks"].values()


def test_verify_dumps_matrices(tmp_path):
    cfg = write_config(tmp_path, **VERIFY)
    mats = tmp_path / "mats"
    rc = main(["verify", "--config", cfg, "--dump-matrices", str(mats),
               "-o", str(tmp_path / "r.jsonl")])
    assert rc == 0
    files = sorted(p.name for p in mats.iterdir())
    assert len(files) == 15
    assert "Lcal.csv" in files and "Omega.csv" in files
    # every perturbable matrix of the suite but X_H[W]
    assert set(files) == {f"{name}.csv" for name in _MATRIX_FIELDS if name != "xhw"}


def test_dumped_matrices_are_the_bundle_at_the_configured_state(tmp_path):
    xi, eta = (0.3, -0.1, 0.7, 0.2), (0.1, -0.4, 0.2, 0.5)
    cfg = RunConfig(n=4, beta=0.5, kappa=1.0, xi=xi, eta=eta)
    mats = tmp_path / "mats"
    rc = main(["verify", "--n", "4", "--beta", "0.5", "--kappa", "1", "--xi", "0.3,-0.1,0.7,0.2",
               "--eta", "0.1,-0.4,0.2,0.5", "--num-states", "1", "--dump-matrices", str(mats),
               "-o", str(tmp_path / "r.jsonl")])
    assert rc == 0
    dumped = {p.stem: np.loadtxt(p, delimiter=",") for p in mats.iterdir()}
    bundle = build_bundle(cfg.state, cfg.params)
    for name in ("W", "L", "A", "B", "Acal", "g", "g_inv", "Hcal", "Lcal", "Lcal_inv", "Ycal"):
        assert np.array_equal(dumped[name], getattr(bundle, name)), name
    # L = D (I + W) carries the diagonal of D on its own diagonal
    assert np.array_equal(dumped["D"], np.diag(np.diag(bundle.L)))
    assert np.array_equal(dumped["Omega"], build_omega(4))
    assert np.array_equal(dumped["Q"], np.diag(np.concatenate([xi, np.negative(xi[::-1])])))
    # Dcal = D^{-1} X_H[D] is the diagonal of X_H[L] = Acal L - L B over that of D
    dcal = np.diag(dumped["Dcal"])
    assert np.array_equal(dumped["Dcal"], np.diag(dcal))
    xh_l = dumped["Acal"] @ dumped["L"] - dumped["L"] @ dumped["B"]
    assert np.allclose(dcal, np.diag(xh_l) / np.diag(dumped["D"]), rtol=1e-12, atol=1e-14)
    assert np.array_equal(dcal[4:], -dcal[3::-1])


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, oops')
    assert main(["verify", "--config", str(bad)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, n=4, betta=0.5)
    assert main(["verify", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"xi": 5},
        {"beta": [1]},
        {"t_end": "5"},
        {"num_states": 2.5},
        {"seed": "a"},
        {"num_states": True},  # a bool is no integer here
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, doc):
    (key,) = doc
    command = next(name for name, keys in cli._COMMAND_KEYS.items() if key in keys)
    cfg = write_config(tmp_path, **doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "simulate", "solve", "compare"])
def test_every_config_key_is_a_flag(command, capsys):
    # ... of the commands that read it, and of no other
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    offered = {key for key in (f.name for f in fields(RunConfig))
               if f"--{key.replace('_', '-')} {key.upper()}" in text}
    assert offered == set(cli._COMMAND_KEYS[command])
    assert "--method" not in text  # compare always runs RK against the algebraic route


@pytest.mark.parametrize("command, key", UNREAD)
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, key, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, f"--{key.replace('_', '-')}", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", UNREAD)
def test_a_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, n=3, **{key: 3})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {command} does not read config keys ['{key}']\n"


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", ["xi", "eta"])
def test_verify_reads_xi_and_eta_only_with_dump_matrices(tmp_path, capsys, source, key):
    out = tmp_path / "r.jsonl"
    if source == "flag":
        args = [f"--{key}=1,2,3"]
    else:
        args = ["--config", write_config(tmp_path, **{key: [1, 2, 3]})]
    assert main(["verify", *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: verify reads xi and eta only with --dump-matrices\n"
    assert not out.exists()


def test_readme_lists_the_keys_each_command_reads():
    section = README.read_text(encoding="utf-8").split("## Command line")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (`\w+`(?: and `\w+`)*) \| `([^`]*)` \|$", section, re.MULTILINE)
    documented = {
        command: tuple(key.strip() for key in keys.split(","))
        for commands, keys in rows
        for command in re.findall(r"`(\w+)`", commands)
    }
    assert documented == cli._COMMAND_KEYS


# a tiny run of each command: the key values it sets and the files it adds
# to its output; CHANGED holds a second value of every key
TINY = {
    "verify": (dict(num_states=1), ["--dump-matrices", "{dir}/mats"]),
    "simulate": (dict(t_end=0.5, sample_dt=0.25), ["--spectrum-output", "{dir}/spec.csv"]),
    "solve": (dict(t_end=0.5, sample_dt=0.25), ["--spectrum-output", "{dir}/spec.csv"]),
    "compare": (dict(t_end=0.5, sample_dt=0.25), ["--dump-trajectories", "{dir}/dump"]),
}
CHANGED = dict(n=4, beta=0.7, kappa=0.3, xi="0.1,-0.2,0.3", eta="0.2,0.0,-0.1", t_end=0.75,
               sample_dt=0.125, rtol=1e-6, atol=1e-9, seed=8, num_states=2)


def _tiny_run(tmp_path, command: str, **changed) -> tuple[int, dict[str, bytes]]:
    values, extra = TINY[command]
    directory = tmp_path / "-".join([command, *changed])
    directory.mkdir()
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in {**values, **changed}.items()]
    argv = [command, *flags, "-o", "{dir}/out", *extra]
    code = main([arg.format(dir=directory) for arg in argv])
    return code, {str(p.relative_to(directory)): p.read_bytes()
                  for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "command, key", [(name, key) for name, keys in cli._COMMAND_KEYS.items() for key in keys]
)
def test_each_key_a_command_reads_changes_its_output_or_exit_code(tmp_path, command, key):
    base = _tiny_run(tmp_path, command)
    assert base[0] in (0, 1) and base[1]
    assert _tiny_run(tmp_path, command, **{key: CHANGED[key]}) != base


@pytest.mark.parametrize("command", ["verify", "simulate", "solve", "compare"])
def test_every_command_runs_at_its_defaults(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "-o", str(out)]) == 0
    assert out.read_text()


def test_bad_perturb_spec_exits_2(tmp_path):
    # malformed flag values are rejected by the parser itself
    cfg = write_config(tmp_path, **VERIFY)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--config", cfg, "--perturb", "L,1,0"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "spec, axis", [("L,99,0,1", 0), ("Hcal,0,-7,1", 1), ("Q,99,0,1", 0), ("Dcal,0,-7,1", 1)]
)
def test_perturb_entry_outside_the_matrix_exits_2(tmp_path, capsys, spec, axis):
    out = tmp_path / "reports.jsonl"
    assert main(["verify", "--n", "3", "--perturb", spec, "-o", str(out)]) == 2
    index = spec.split(",")[axis + 1]
    want = f"error: --perturb index {index} is out of bounds for axis {axis} with size 6\n"
    assert capsys.readouterr().err == want


def test_perturbing_off_the_diagonal_of_d_exits_2(capsys):
    assert main(["verify", "--n", "3", "--perturb", "D,0,1,1e-3", "-o", "-"]) == 2
    err = capsys.readouterr().err
    assert err == "error: D is diagonal; entry (0, 1) is off its diagonal\n"


# -------------------------------------------------------------- simulate


def test_simulate_row_count(tmp_path, capsys):
    cfg = write_config(tmp_path, **TRAJECTORY)
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
    cfg = write_config(tmp_path, **TRAJECTORY)
    spec = tmp_path / "spec.csv"
    rc = main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv"),
               "--spectrum-output", str(spec)])
    assert rc == 0
    lines = spec.read_text().strip().split("\n")
    assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5,lambda_6,lambda_7,lambda_8"
    assert len(lines) == 1 + 5 and all(len(line.split(",")) == 1 + 2 * 4 for line in lines)


def test_spectrum_output_dash_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--t-end", "0.5", "--sample-dt", "0.25", "-o", "traj.csv",
               "--spectrum-output", "-"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5,lambda_6"
    assert len(lines) == 1 + 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_vector_flags_match_config_file(tmp_path):
    xi, eta = [0.5, 0.1, -0.2, -0.6], [-0.3, 0.2, 0.0, 0.4]
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    cfg = write_config(tmp_path, **TRAJECTORY, xi=xi, eta=eta)
    assert main(["simulate", "--config", cfg, "-o", str(from_file)]) == 0
    cfg = write_config(tmp_path, **TRAJECTORY)
    flags = [f"--{name}={','.join(map(repr, vec))}" for name, vec in (("xi", xi), ("eta", eta))]
    assert main(["simulate", "--config", cfg, *flags, "-o", str(from_flags)]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()
    first = from_file.read_text().split("\n")[1].split(",")
    assert [float(v) for v in first[1:9]] == xi + eta


def test_overflowing_start_exits_3(tmp_path):
    cfg = write_config(tmp_path, n=3, beta=1.0, xi=[0.0, 0.0, -400.0], t_end=1.0)
    assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 3


def test_underflowing_coordinates_exit_3(tmp_path, capsys):
    # a hot state whose particles drift more than ~745 apart: w_a underflows
    # to 0 in the equations of motion, a numerical breakdown, not a usage error
    state = random_state(8, np.random.default_rng(21), box=5.0)
    cfg = write_config(
        tmp_path, n=8, beta=1.0, kappa=1.0, xi=state.xi.tolist(), eta=state.eta.tolist(), t_end=3.0
    )
    assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "t.csv")]) == 3
    assert "x and w entries must be positive" in capsys.readouterr().err


def test_every_exported_error_exits_with_its_documented_code(monkeypatch, capsys):
    exported = {name: getattr(vdtoda, name) for name in vdtoda.__all__}
    errors = {
        name: e
        for name, e in exported.items()
        if isinstance(e, type) and issubclass(e, BaseException)
    }
    assert set(errors) == set(EXIT_CODES)
    assert not hasattr(vdtoda, "CrossCheckError")
    documented = README.read_text(encoding="utf-8").split("Exit codes:")[1].split("\n\n")[0]
    for name, error in errors.items():
        assert f"`{name}`" in documented, name
        args = ("boom", 1.0) if error is vdtoda.StepSizeUnderflowError else ("boom",)

        def handler(*_, **__):
            raise error(*args)

        monkeypatch.setattr(cli, "cmd_verify", handler)
        assert main(["verify"]) == EXIT_CODES[name], name
        assert "boom" in capsys.readouterr().err


# ----------------------------------------------------------------- solve


def test_solve_matches_simulate(tmp_path):
    cfg = write_config(tmp_path, **TRAJECTORY)
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
    cfg = write_config(tmp_path, **TRAJECTORY)
    out = tmp_path / "diff.csv"
    rc = main(["compare", "--config", cfg, "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,max_dq,max_dtheta"
    assert len(lines) == 1 + 5
    assert "max |dq|" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, spectra",
    [
        ("compare", ["--dump-trajectories", "dump"], 0),  # reads no spectrum
        ("simulate", ["--spectrum-output", "spec.csv"], 1),  # CSV and drift share one
        ("solve", [], 1),  # prints the spectral drift
    ],
)
def test_spectrum_is_computed_only_where_a_command_reads_it(
    tmp_path, count_calls, command, extra, spectra
):
    cfg = write_config(tmp_path, **TRAJECTORY)
    calls = count_calls(sys.modules["vdtoda.integrate"], "_matched_spectra")
    extra = [str(tmp_path / e) if e in ("dump", "spec.csv") else e for e in extra]
    assert main([command, "--config", cfg, "-o", str(tmp_path / "out.csv"), *extra]) == 0
    assert calls.count == spectra


def test_compare_dumps_both_trajectories(tmp_path):
    cfg = write_config(tmp_path, **TRAJECTORY)
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


def test_negative_box_is_a_usage_error(capsys):
    assert main(["verify", "--box", "-1"]) == 2
    assert "error: box must be finite and >= 0" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "solve", "compare"])
def test_oversized_sample_grid_is_a_usage_error(command, tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert main([command, "--sample-dt", "1e-300", "--t-end", "1", "-o", out]) == 2
    err = capsys.readouterr().err
    assert "error: sample_dt = 1e-300 and t_end = 1.0 give more than 1000000" in err
