"""List the statement lines of each src/bvlsc module that the tests never run.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

Runs pytest in this process under sys.settrace (standard library only; no
coverage package) and records each line executed in a frame of a
src/bvlsc file.  A statement line is a line the compiler gives bytecode,
less a function's own first line, which the enclosing code runs when it
defines the function.  With no arguments pytest runs as pyproject.toml
configures it (tests/ and benchmarks/).

Tests that run bvlsc in a subprocess (the CLI, demo and benchmark-runner
tests) are not traced: the lines only they reach are listed as missed.
The tracer slows the suite several times over, so a timing test can fail
here that passes untraced.

Prints one line per module, its missed count over its statement count and
the missed lines as ranges, then the total and pytest's exit code, and
exits with pytest's exit code.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bvlsc"


def statement_lines(path):
    """The lines of the file that its code objects give bytecode."""
    module = compile(path.read_text(), str(path), "exec")
    lines, todo = set(), [module]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run, files):
    """run() under a tracer; returns its result and, per file in files,
    the set of lines executed in it."""
    hits = {f: set() for f in files}
    tracers = {}  # code object -> its line tracer, None outside files

    def tracer_for(code):
        seen = hits.get(os.path.realpath(code.co_filename))
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            tracers[code] = tracer_for(code)
        return tracers[code]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def ranges(lines):
    """Sorted line numbers as "a-b" runs of consecutive numbers."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(args):
    modules = sorted(SRC.glob("*.py"))
    files = [os.path.realpath(p) for p in modules]
    code, hits = traced(lambda: pytest.main(args), files)
    total = 0
    print("\nstatement lines never executed in-process (subprocess runs not traced):")
    for path, f in zip(modules, files):
        statements = statement_lines(path)
        missed = statements - hits[f]
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(statements)}"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} missed; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
