"""Which `raise` statements of the package the tier-1 tests reach.

Runs the test suite in this process under a sys.settrace line tracer
limited to the files of src/arraylight, then prints each module's raise
statements that no test executed, and the count reached out of all of
them.  A raise under a `pragma: no cover` (on its own line, or on the
first line of a statement or handler around it, as coverage.py reads
the mark) is counted and listed like any other, marked "(pragma)".  The
exit code is pytest's when the tests fail, else 1 when a raise without
the pragma is unreached, else 0.  pytest does not collect this file (its
name has no test_ prefix).

    python tests/_raise_tracer.py [pytest arguments]

The arguments default to the tier-1 run, -q -p no:cacheprovider over the
tests directory.  Tracing slows the suite about threefold.
"""

import ast
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "arraylight")
PRAGMA = "pragma: no cover"


def raise_lines() -> dict:
    """{path: {line number of each raise statement: whether a pragma: no
    cover excludes it}} for every module of the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                source = fh.read()
            text = source.splitlines()
            nodes = list(ast.walk(ast.parse(source, path)))
            marked = [node for node in nodes
                      if isinstance(node, (ast.stmt, ast.excepthandler))
                      and PRAGMA in text[node.lineno - 1]]
            excluded = {n for node in marked
                        for n in range(node.lineno, node.end_lineno + 1)}
            raises = sorted(node.lineno for node in nodes
                            if isinstance(node, ast.Raise))
            out[path] = {n: n in excluded for n in raises}
    return out


def run(pytest_args) -> tuple:
    """(pytest's exit code, {path: set of executed lines}) of one traced
    run of the tests."""
    import pytest

    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None  # no line events outside the package
        executed.setdefault(path, set())
        return local(frame, event, arg)

    sys.path[:0] = [HERE, os.path.dirname(PACKAGE)]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main(argv) -> int:
    code, executed = run(argv or ["-q", "-p", "no:cacheprovider", HERE])
    reached = total = unexcused = 0
    for path, lines in raise_lines().items():
        missed = [n for n in lines if n not in executed.get(path, ())]
        reached += len(lines) - len(missed)
        total += len(lines)
        unexcused += sum(not lines[n] for n in missed)
        if missed:
            print(f"{os.path.basename(path)} ({len(missed)}): "
                  + ", ".join(f"{n} (pragma)" if lines[n] else str(n)
                              for n in missed))
    print(f"raise statements reached: {reached} of {total}")
    return int(code) or int(unexcused > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
