"""Which `raise` statements of the package the tier-1 tests reach.

Runs the test suite in this process under a sys.settrace line tracer
limited to the files of src/arraylight, then prints each module's raise
statements that no test executed, and the count reached out of all of
them.  A raise marked `pragma: no cover` is counted and listed like any
other.  pytest does not collect this file (its name has no test_ prefix).

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


def raise_lines() -> dict:
    """{path: sorted line numbers of its raise statements} for every module
    of the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            out[path] = sorted(node.lineno for node in ast.walk(tree)
                               if isinstance(node, ast.Raise))
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
    reached = total = 0
    for path, lines in raise_lines().items():
        missed = [n for n in lines if n not in executed.get(path, ())]
        reached += len(lines) - len(missed)
        total += len(lines)
        if missed:
            print(f"{os.path.basename(path)} ({len(missed)}): "
                  + ", ".join(map(str, missed)))
    print(f"raise statements reached: {reached} of {total}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
