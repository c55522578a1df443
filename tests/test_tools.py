"""The scripts in tools/: the line counter's four classes add up to wc -l,
and a capture diffs as equal to itself and as different from an edited copy."""

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
    assert prefixes == {"traj", "expm", "error", "cli"}
    assert str(arrays["error/blow_up"]).startswith("StepSizeUnderflowError: ")
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
