"""The scripts in tools/: the line counter's four classes add up to wc -l,
a capture diffs as equal to itself and as different from an edited copy
(its largest gap taken over the elements finite on both sides),
and the reach tool lists the functions that its runs never enter."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_classes_add_up_to_wc_l_of_the_package():
    src_lines = _tool("src_lines")
    package = ROOT / "src" / "vdtoda"
    rows = src_lines.table([package])
    files = sorted(package.glob("*.py"))
    assert len(rows) == len(files) + 1
    for path in files:
        row = rows[next(name for name in rows if name.endswith(path.name))]
        # wc -l counts newlines
        assert row["wc"] == path.read_bytes().count(b"\n"), path.name
        assert sum(row[c] for c in src_lines.CLASSES) == row["wc"], path.name
    total = rows["total"]
    assert sum(total[c] for c in src_lines.CLASSES) == total["wc"]
    assert min(total[c] for c in src_lines.CLASSES) > 0


def test_blank_lines_inside_a_docstring_count_as_docstring(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Doc.\n\nMore."""\n\n# note\nx = """a\n\nb"""\n', encoding="utf-8")
    row = _tool("src_lines").count(module)
    assert row == {"code": 3, "docstring": 3, "comment": 1, "blank": 1, "wc": 8}


def test_capture_diffs_equal_to_itself_and_names_an_edited_key(tmp_path, capsys):
    capture = _tool("capture")
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    assert capture.main([str(a)]) == 0
    with np.load(a) as data:
        arrays = dict(data)
    prefixes = {key.split("/")[0] for key in arrays}
    assert prefixes == {
        "traj", "backward", "expm", "suite", "bundle", "error", "refusal", "cli"
    }
    assert str(arrays["error/blow_up"]).startswith("StepSizeUnderflowError: ")
    # reversals of the n = 3 and n = 8 pools, and one refused by its budget
    assert len([key for key in arrays if key.startswith("backward/n")]) == 30
    assert str(arrays["backward/forged/error"]).startswith(
        "TrajectoryCheckError: energy drift 5.664e-11 exceeds tolerance 1.150e-11"
    )
    # the refusal sweep: 16 states, each a type, a message and (j, t)
    assert len([key for key in arrays if key.startswith("refusal/")]) == 48
    key = "refusal/n3_box3_seed0"
    assert str(arrays[f"{key}/type"]) == "FactorizationBreakdownError"
    assert arrays[f"{key}/j_t"].tolist() == [6.0, 0.05]
    key = "refusal/n3_box1_seed0"
    assert str(arrays[f"{key}/message"]).startswith("energy drift ")
    assert np.isnan(arrays[f"{key}/j_t"]).all()
    # the suite: 12 reports per state, 4 states, a clean and a perturbed run
    for run in ("clean", "Acal_0_0"):
        key = f"suite/n8_kappa1_box10/{run}"
        assert arrays[f"{key}/names"].shape == (48,)
        assert arrays[f"{key}/values"].shape == (48, 8)
        assert arrays[f"{key}/blocks"].shape == (8, 4)
    assert str(arrays["suite/n3_kappa0_box2/Lcal_7_0/error"]).startswith("IndexError: ")
    assert str(arrays["suite/n3_box500/error"]) == (
        "CoordinateOverflowError: non-finite entries in dcal"
    )
    for field in ("d", "Hcal", "Ycal", "xhw", "upsilon"):
        assert arrays[f"bundle/stack/{field}"].shape[0] == 5
        assert arrays[f"bundle/state/{field}"].ndim == arrays[f"bundle/stack/{field}"].ndim - 1
    capsys.readouterr()
    assert capture.main(["--diff", str(a), str(a)]) == 0
    assert capsys.readouterr().out.endswith(f"{len(arrays)} keys, 0 differ\n")
    key = "traj/rk/n8/0/xi"
    arrays[key] = arrays[key].copy()
    arrays[key][3, 2] += 1e-12
    del arrays["expm/zero"]
    np.savez(b, **arrays)
    assert capture.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{key}: 1/{arrays[key].size} differ, largest 1.0") for line in out)
    assert "expm/zero: only in A" in out
    assert out[-1] == f"{len(arrays) + 1} keys, 2 differ"


def test_capture_diff_reports_the_finite_gap_beside_a_nan():
    a, b = {"x": np.array([1.0, np.nan])}, {"x": np.array([1.5, 2.0])}
    lines, differ = _tool("capture").diff(a, b)
    assert lines == ["x: 2/2 differ, largest 5.000e-01, 1 non-finite"] and differ == 1


def test_reach_lists_the_functions_no_run_enters(tmp_path):
    reach = _tool("reach")
    package = tmp_path / "pkg"
    package.mkdir()
    source = "def used():\n    return 1\n\n\ndef unused():\n    return 2\n"
    (package / "m.py").write_text(source, encoding="utf-8")

    def run():
        spec = importlib.util.spec_from_file_location("m", package / "m.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.used() == 1

    assert set(reach.functions(package).values()) == {"used", "unused"}
    missed = reach.unentered(package, [run])
    assert [(Path(path).name, line, name) for path, line, name in missed] == [("m.py", 5, "unused")]
