"""List the executable lines of ``src/semistab`` that a pytest run never executes.

Usage (from the repository root)::

    PYTHONPATH=src python tools/unexecuted_lines.py [pytest arguments ...]

The script runs ``pytest.main(args)`` in its own process under
``sys.settrace`` and ``threading.settrace``; besides pytest it uses only
the standard library.  The executable lines of a module are the line numbers that
``co_lines()`` gives for its compiled code objects, nested ones included.
A line counts as executed when the tracer sees a call or line event on it.
Code run only in subprocesses (tests that start ``python -m semistab.cli``,
say) is not counted, so such lines are reported as not executed.

The report prints each unexecuted line with its text, module by module,
then one total; pytest's exit status is the script's.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "semistab"


def executable_lines(path):
    """The line numbers of ``path``'s compiled code objects, nested ones included."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args, files):
    """Run ``pytest.main(args)`` and return (exit status, {file: executed lines})
    for the files named in ``files``."""
    seen = {name: set() for name in files}
    by_code_file = {}  # co_filename -> its set in ``seen``, or None

    def hits(filename):
        if filename not in by_code_file:
            by_code_file[filename] = seen.get(os.path.realpath(filename))
        return by_code_file[filename]

    def local(frame, event, arg):
        if event == "line":
            hits(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        lines = hits(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for code outside the package
        lines.add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, seen


def main(argv):
    modules = sorted(SRC.glob("*.py"))
    status, seen = run_traced(argv, [os.path.realpath(p) for p in modules])
    total = 0
    for path in modules:
        missed = sorted(executable_lines(path) - seen[os.path.realpath(path)])
        total += len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(SRC.parents[1])}:{line}: {text[line - 1].strip()}")
    print(f"{total} executable lines of src/semistab never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
