"""Line counts of Python modules: ``wc -l`` and its code/docstring/comment/blank split.

Usage: ``python tools/src_lines.py [PATH ...]`` (default ``src/vdtoda``).
A directory stands for the ``*.py`` files directly inside it.

Every physical line falls in exactly one class, by the first rule that
applies:

* docstring: the line lies between the first and last line of a
  docstring (a string literal that is the first statement of a module,
  class or function), blank lines inside the docstring included;
* code: the line holds part of any other token, such as a line of a
  multi-line string that is not a docstring;
* comment: the line holds a comment and nothing else;
* blank: the line is empty or whitespace.

So the four classes add up to the number of lines, which is ``wc -l``
for a file that ends with a newline.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """``wc`` (newline count) and the line count of each class for one file."""
    text = path.read_text(encoding="utf-8")
    docstring = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstring:
            out["docstring"] += 1
        elif number in code:
            out["code"] += 1
        elif number in comment:
            out["comment"] += 1
        else:
            out["blank"] += 1
    out["wc"] = text.count("\n")
    return out


def modules(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return files


def table(paths: list[Path]) -> dict[str, dict[str, int]]:
    """Counts per module and, under ``"total"``, summed over them."""
    rows = {os.path.relpath(path): count(path) for path in modules(paths)}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("wc", *CLASSES)}
    return rows


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "vdtoda"
    rows = table([Path(a) for a in argv] or [default])
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}" + "".join(f"  {c:>9}" for c in CLASSES))
    for name, row in rows.items():
        print(f"{name:<{width}}  {row['wc']:>6}" + "".join(f"  {row[c]:>9}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
