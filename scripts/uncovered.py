#!/usr/bin/env python3
"""List the statements of ``src/nmzi`` that a pytest run never executes.

It runs pytest in this process, on ``tests/`` or on the pytest arguments
given, under a ``sys.settrace`` line tracer that records only the frames of
``src/nmzi``.  Then it prints one ``<module>:<line>: <source>`` line per
statement that never ran, and a count line, and exits with pytest's status.
Only the standard library and pytest are used::

    python3 scripts/uncovered.py -q
    python3 scripts/uncovered.py tests/test_cli.py -q

A statement ran when any of its own lines ran: its lines minus those of the
statements nested in it, plus its decorators.  Docstrings are not
statements.  Code that runs only in a child process, such as a test that
starts ``python -m nmzi.cli``, is not traced and is listed.
"""

import ast
import collections
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nmzi"


def statements(source: str) -> dict:
    """Each statement's first line, mapped to the set of lines it owns."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node) is not None
    }
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        lines = set(range(first, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                lines -= set(range(inner.lineno, inner.end_lineno + 1))
        owned[first] = lines or {node.lineno}
    return owned


def main(argv: list) -> int:
    ran = collections.defaultdict(set)
    in_package = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in in_package:
            in_package[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
        return trace_lines if in_package[filename] else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    executed = collections.defaultdict(set)
    for filename, lines in ran.items():
        executed[os.path.realpath(filename)] |= lines
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        hit = executed[os.path.realpath(path)]
        for first, lines in sorted(statements(source).items()):
            total += 1
            if not lines & hit:
                missed += 1
                print(f"{path.name}:{first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
