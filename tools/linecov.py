"""Function-body lines of ``src/diracmul/*.py`` that tier-1 never runs.

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and prints, as ``file:line``, each line of a function body that no test
ran and that ``tools/linecov_allow.txt`` does not list.  Each entry there
is a line ``file:line reason`` followed by an indented line holding that
source line's text, stripped; an entry whose text no longer matches the
source (the code moved or changed) is printed as stale.  Prints pytest's
exit code too, and exits 1 if the tests failed or it printed any line.
Run by hand from the repository root: ``python3 tools/linecov.py``.
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
ALLOW = os.path.join(ROOT, "tools", "linecov_allow.txt")


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


def read_allowed(path):
    """``{"file:line": stripped source text}`` of the allow list (None for
    an entry that names no text)."""
    allowed, key = {}, None
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if not ln.strip() or ln.startswith("#"):
                continue
            if ln[0].isspace():
                if key is None or allowed[key] is not None:
                    raise SystemExit(f"{path}: source text {ln.strip()!r} follows no entry")
                allowed[key] = ln.strip()
            else:
                key = ln.split()[0]
                allowed[key] = None
    return allowed


def stale_entries(allowed):
    """The entries whose text is not their source line's, as printable lines."""
    stale = []
    for key, text in allowed.items():
        name, _, number = key.rpartition(":")
        path = os.path.join(ROOT, "src", "diracmul", name)
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read().splitlines()
            found = source[int(number) - 1].strip() if 0 < int(number) <= len(source) else None
        except (OSError, ValueError):
            found = None
        if text is None or found != text:
            stale.append(f"stale allow entry {key}: listed {text!r}, source has {found!r}")
    return stale


def main():
    allowed = read_allowed(ALLOW)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in SOURCES:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [f"{os.path.basename(p)}:{ln}" for p in sorted(SOURCES) for ln in sorted(body_lines(p))
              if (p, ln) not in ran]
    missed = [m for m in missed if m not in allowed] + stale_entries(allowed)
    print("\n".join(missed) or "every function-body line ran or is allowed")
    print(f"pytest exit code: {int(code)}")
    return 1 if missed or code != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
