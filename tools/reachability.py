"""List the ``src/monofield`` functions that no command reaches.

    python tools/reachability.py [TREE]

TREE defaults to the checkout this script sits in.  The script imports
``monofield`` from ``TREE/src`` under ``sys.setprofile``, then runs each
of the five commands on each of the six ``TREE/tests/data/config_*.json``
in process, through ``monofield.cli.main``, with its output captured and
written under a temporary directory.  Every function ``ast`` finds in
``TREE/src/monofield/*.py`` (methods and nested functions included, not
lambdas) that none of those 30 runs called, import included, is printed
as ``module.qualname (line N)``, in file and line order, and the last
line is ``N unreached of M``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("verify-algebra", "vacuum-energy", "field-sweep", "emission", "compare-standard")


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every function defined
    in the package.  The first line is that of the first decorator, as in
    the function's code object."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = f"{prefix}.{child.name}"
                visit(path, child, f"{prefix}.{child.name}.<locals>")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}.{child.name}")
            else:
                visit(path, child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tree = Path(argv[0] if argv else ROOT).resolve()
    package = tree / "src" / "monofield"
    functions = defined_functions(package)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(tree / "src"))

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        from monofield import cli

        with tempfile.TemporaryDirectory() as tmp:
            for config in sorted((tree / "tests" / "data").glob("config_*.json")):
                for command in COMMANDS:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main([command, "--config", str(config),
                                  "--out", str(Path(tmp) / "out")])
    finally:
        sys.setprofile(None)
    if Path(cli.__file__).resolve().parent != package:
        raise SystemExit(f"reachability.py: imported {cli.__file__}, not the tree's {package}")

    reached = {(os.path.realpath(name), line) for name, line in called}
    unreached = [(key, name) for key, name in sorted(functions.items()) if key not in reached]
    for (_, line), name in unreached:
        print(f"{name} (line {line})")
    print(f"{len(unreached)} unreached of {len(functions)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
