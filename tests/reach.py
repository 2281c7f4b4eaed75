"""Reach: which statements of src/rtss does tier-1 never run?

    python tests/reach.py [extra pytest arguments]

Runs tier-1 in this one process under sys.settrace, records the lines of
src/rtss that run, and prints every statement inside a function body that
no line event reached, except those that ARGUED below keeps with a reason.
It exits 1 if any other statement is left, or if an argued statement is
reached after all or no longer exists, and 2 if pytest could not run.

A statement counts as reached when any line of it (of its header, for a
compound statement) ran. Statements that emit no line event are left out:
`global` and `nonlocal`, docstrings, and the bodies of stubs that hold
only a docstring and `...` (the `Domain` protocol's methods).

Pool workers and subprocesses are not traced (a forked worker drops the
tracer it inherits), so a statement that runs only there reads as
unreached: each worker path also runs serially in some test. Tracing also
changes what some tests measure (those in test_planners.py that count
cyclic garbage fail under it), so this tool reports reach, not pass or
fail; run pytest itself for that. Traced, tier-1 takes several times as
long. pytest collects only test_*.py, so it never runs this file.
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "rtss")

# (file under src/rtss, function, the statement's first line) -> why no test
# reaches it; keyed by text, not by line number, since line numbers drift
ARGUED = {
    ("planners.py", "offline_astar", 'raise RuntimeError("offline A* expansion limit exceeded")'):
        "a guard on offline A*, which takes ten million expansions to reach;"
        " no world small enough for tier-1 needs that many",
}


def _header_lines(node: ast.stmt) -> range:
    """The lines whose events mean the statement ran: all of a simple
    statement's, a compound statement's up to the end of its test, iterable
    or context managers."""
    end = node.end_lineno
    if isinstance(node, (ast.If, ast.While)):
        end = node.test.end_lineno
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        end = node.iter.end_lineno
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        end = max(item.context_expr.end_lineno for item in node.items)
    elif isinstance(node, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        end = node.lineno
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, end + 1)


def _is_stub(body: list) -> bool:
    return all(isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
               and (s.value.value is Ellipsis or isinstance(s.value.value, str))
               for s in body)


def statements(tree: ast.Module):
    """(function, statement) for each statement that a function body runs,
    nested bodies included; function is the dotted name of its scope."""
    def visit(body, scope, in_function):
        for node in body:
            if in_function and not isinstance(node, (ast.Global, ast.Nonlocal)):
                yield scope, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = node.body[1:] if ast.get_docstring(node) is not None else node.body
                if not _is_stub(node.body):
                    yield from visit(inner, f"{scope}.{node.name}".lstrip("."), True)
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{scope}.{node.name}".lstrip("."), in_function)
            else:
                for field in ("body", "orelse", "finalbody"):
                    nested = getattr(node, field, None)
                    if isinstance(nested, list):
                        yield from visit(nested, scope, in_function)
                for handler in getattr(node, "handlers", ()):
                    yield from visit(handler.body, scope, in_function)
    yield from visit(tree.body, "", False)


def _lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line}


def trace_tier1(pytest_args) -> tuple[int, dict]:
    """Run tier-1 traced; (pytest's exit code, file -> the lines that ran)."""
    import pytest

    remaining: dict = {}    # code object under SRC -> its lines not yet run
    skipped: set = set()    # code objects elsewhere

    def local_for(lines):
        def local(frame, event, _arg):
            if event == "line":
                lines.discard(frame.f_lineno)
            return local if lines else None
        return local

    def tracer(frame, _event, _arg):
        code = frame.f_code
        lines = remaining.get(code)
        if lines is None:
            if code in skipped or not code.co_filename.startswith(SRC + os.sep):
                skipped.add(code)
                return None
            # the first line's events never fire: it holds the function's entry
            lines = remaining[code] = _lines(code) - {code.co_firstlineno}
        return local_for(lines) if lines else None

    def untrace():
        # a forked pool worker would inherit the tracer, slowing its cells
        # for records that die with it
        sys.settrace(None)
        threading.settrace(None)

    sys.path.insert(0, os.path.dirname(SRC))
    os.register_at_fork(after_in_child=untrace)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--rootdir", ROOT, os.path.join(ROOT, "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict = {}
    for code_object, lines in remaining.items():
        ran.setdefault(code_object.co_filename, set()).update(_lines(code_object) - lines)
    return int(code), ran


def main(argv=None) -> int:
    exit_code, ran = trace_tier1(sys.argv[1:] if argv is None else argv)
    if exit_code not in (0, 1):     # 1: some test failed, which reach ignores
        print(f"pytest exited with code {exit_code}; reach is incomplete")
        return 2
    unreached, argued = [], set()
    for folder, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as f:
                source = f.read()
            lines = source.splitlines()
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            for function, node in statements(ast.parse(source)):
                if ran.get(path, set()).isdisjoint(_header_lines(node)):
                    key = (rel, function, lines[node.lineno - 1].strip())
                    if key in ARGUED:
                        argued.add(key)
                        print(f"argued: src/rtss/{rel}:{node.lineno}: {function}: {key[2]}"
                              f"\n    {ARGUED[key]}")
                    else:
                        unreached.append(f"src/rtss/{rel}:{node.lineno}: {function}: {key[2]}")
    stale = [f"argued but reached or gone: src/rtss/{rel}: {function}: {text}"
             for rel, function, text in ARGUED.keys() - argued]
    for line in unreached + stale:
        print(line)
    print(f"{len(unreached)} unreached, {len(argued)} argued, {len(stale)} stale"
          f" (pytest exit code {exit_code}: reach counts, not pass or fail)")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
