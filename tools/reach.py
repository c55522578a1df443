"""List the functions of ``src/vdtoda`` that the command line and the demos never enter.

Usage: ``python tools/reach.py``

Runs a fixed set of ``vdtoda`` invocations in process, each writing its
files into one temporary directory: ``verify`` (plain, ``--box 10``,
``--dump-matrices`` at a given ``--xi``/``--eta``, ``--perturb``),
``simulate --spectrum-output``, ``solve`` (to ``--t-end 5``, past the
algebraic route's horizon at the default state, where it exits 1, at
``--beta 0.5``, and to ``--t-end 0``) and ``compare --beta 0.5
--dump-trajectories``.  Then it
runs every ``demos/*.py`` through ``runpy``.  Their printed output is
discarded.  A profile hook (``sys.setprofile``) records the code object
of every call.

Prints one line ``path:line name`` per function (a ``def`` at any depth:
module function, method or nested function) whose code object none of
the runs entered, in source order, and then a count.  Such a function is
reached only from tests, or is an error path that no run takes.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vdtoda"

# ``{dir}`` is the temporary output directory
CLI_RUNS = (
    ["verify", "--output", "{dir}/plain.jsonl"],
    ["verify", "--box", "10", "--output", "{dir}/box.jsonl"],
    ["verify", "--xi=0.5,0.1,-0.2", "--eta=-0.3,0.2,0.4", "--dump-matrices", "{dir}/dump"],
    ["verify", "--perturb", "A,0,0,1e-3", "--output", "{dir}/perturb.jsonl"],
    ["simulate", "--output", "{dir}/rk.csv", "--spectrum-output", "{dir}/spectrum.csv"],
    ["solve", "--t-end", "5", "--output", "{dir}/refused.csv"],
    ["solve", "--beta", "0.5", "--output", "{dir}/algebraic.csv"],
    ["solve", "--t-end", "0", "--output", "{dir}/initial.csv"],
    ["compare", "--beta", "0.5", "-o", "{dir}/compare.csv", "--dump-trajectories", "{dir}/dumps"],
)


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def functions(package: Path) -> dict[tuple[str, int, str], str]:
    """The functions defined in ``package/*.py``: (file, line, name) -> qualified name."""
    found = {}
    for path in sorted(package.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path.resolve()), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # lambdas, comprehensions and generator expressions are <...>
                    if not const.co_name.startswith("<"):
                        found[_key(const)] = getattr(const, "co_qualname", const.co_name)
    return found


def unentered(package: Path, runs) -> list[tuple[str, int, str]]:
    """(file, line, qualified name) of each function of ``package`` that no run entered."""
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
    entered = {_key(code) for code in codes.values()}
    defined = functions(package)
    missed = defined.keys() - entered
    return sorted((path, line, defined[path, line, name]) for path, line, name in missed)


def _cli(argv: list[str]):
    def run():
        # imported under the hook, so calls made at import count as entered
        from vdtoda import cli

        cli.main(argv)

    return run


def _demo(path: Path):
    return lambda: runpy.run_path(str(path), run_name="__main__")


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_cli([a.format(dir=tmp) for a in args]) for args in CLI_RUNS]
        runs += [_demo(path) for path in sorted((ROOT / "demos").glob("*.py"))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            missed = unentered(PACKAGE, runs)
    for path, line, name in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(missed)} of {len(functions(PACKAGE))} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
