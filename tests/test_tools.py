"""The line counter in tools/: its four classes add up to wc -l."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_classes_add_up_to_wc_l_of_the_package():
    src_lines = _src_lines()
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
    row = _src_lines().count(module)
    assert row == {"code": 3, "docstring": 3, "comment": 1, "blank": 1, "wc": 8}
