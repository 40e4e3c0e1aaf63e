"""Function-body lines of ``src/diracmul/*.py`` that tier-1 never runs.

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and prints, as ``file:line``, each line of a function body that no test
ran and that ``tools/linecov_allow.txt`` does not list (one ``file:line
reason`` a line).  Exits 1 if it prints any line, whatever the tests'
verdict.  Run by hand from the repository root: ``python3 tools/linecov.py``.
Tracing makes the suite several times slower, so a timing test may fail.
"""

import glob
import inspect
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = set(glob.glob(os.path.join(ROOT, "src", "diracmul", "*.py")))


def body_lines(path):
    """Line numbers of every function's code, its ``def`` line excepted."""
    with open(path, encoding="utf-8") as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {ln for _, _, ln in code.co_lines() if ln is not None and ln != code.co_firstlineno}
    return lines


def main():
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in SOURCES:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    with open(os.path.join(ROOT, "tools", "linecov_allow.txt"), encoding="utf-8") as fh:
        allowed = {ln.split()[0] for ln in fh if ln.strip() and not ln.startswith("#")}
    missed = [f"{os.path.basename(p)}:{ln}" for p in sorted(SOURCES) for ln in sorted(body_lines(p))
              if (p, ln) not in ran]
    missed = [m for m in missed if m not in allowed]
    print("\n".join(missed) or "every function-body line ran or is allowed")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
