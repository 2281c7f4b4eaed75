"""Mutation sweep: does tier-1 fail when one operator in a module changes?

    python tests/mutate.py src/rtss/search.py src/rtss/safety.py src/rtss/planners.py

Each mutant changes one AST node, spliced into the source text so that
comments and layout stay. The four operators: flip a single comparison
(< and <=, > and >=, == and !=, is and is not, in and not in), swap `and`
and `or`, replace a `continue` or `break` with `pass`, and replace an
`x += 1` with `pass`. Each mutant runs tier-1 without the acceptance gate
(`pytest -x`, tests/test_acceptance.py left out) in its own copy of the
repository, under a time limit, on at most two workers, once the suite
has passed unmutated. The mutated module's own test module runs first,
then the other unit modules, then the modules that run experiment grids:
a mutant that loops forever in a whole episode or a grid would otherwise
hold its run to the time limit before the unit test that kills it runs.
Every mutant that survives or runs past the limit is printed with its
line; a killed one prints nothing. pytest collects only test_*.py, so it
never runs this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
JOBS = 2  # workers, each running one pytest at a time
TIMEOUT = 150.0  # seconds per mutant; the unmutated suite takes about 35
GRID_MODULES = ("test_cli.py", "test_golden.py", "test_harness.py", "test_plotting.py")


def mutants(source: str):
    """(line, description, mutated source) for each mutant of the source."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line.encode()))
    data = source.encode()

    def splice(node, text: str) -> str:
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        return (data[:begin] + text.encode() + data[end:]).decode()

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            new = ast.Compare(node.left, [FLIP[type(node.ops[0])]()], node.comparators)
            yield node.lineno, "flip comparison", splice(node, f"({ast.unparse(new)})")
        elif isinstance(node, ast.BoolOp):
            op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            yield (node.lineno, "swap and/or",
                   splice(node, f"({ast.unparse(ast.BoolOp(op, node.values))})"))
        elif isinstance(node, (ast.Continue, ast.Break)):
            yield node.lineno, f"{type(node).__name__.lower()} -> pass", splice(node, "pass")
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
              and isinstance(node.value, ast.Constant) and node.value.value == 1):
            yield node.lineno, "+= 1 -> pass", splice(node, "pass")


def run(path: str, line: int, what: str, mutated: str) -> str:
    with tempfile.TemporaryDirectory(prefix="rtss-mutant-") as scratch:
        # the whole checkout: the layout tests read README.md, for one
        copy = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        with open(os.path.join(copy, path), "w", encoding="utf-8") as f:
            f.write(mutated)
        own = f"test_{os.path.splitext(os.path.basename(path))[0]}.py"
        modules = sorted((name for name in os.listdir(os.path.join(ROOT, "tests"))
                          if name.startswith("test_") and name.endswith(".py")
                          and name != "test_acceptance.py"),
                         key=lambda name: (name != own, name in GRID_MODULES, name))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *(f"tests/{name}" for name in modules)]
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        # a session of its own, so that a hung run's pool workers die with it
        with subprocess.Popen(command, cwd=copy, env=env, start_new_session=True,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL) as proc:
            try:
                code = proc.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return f"{path}:{line}: {what}: HUNG past {TIMEOUT:g} s"
    return "" if code else f"{path}:{line}: {what}: SURVIVED"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="module paths relative to the repo root")
    args = parser.parse_args(argv)
    work = []
    for path in args.paths:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            work += [(path, *m) for m in mutants(f.read())]
    with open(os.path.join(ROOT, work[0][0]), encoding="utf-8") as f:
        baseline = run(work[0][0], 0, "unmutated", f.read())
    if not baseline.endswith("SURVIVED"):
        print(f"the suite does not pass unmutated: {baseline or 'it failed'}")
        return 2
    print(f"{len(work)} mutants", flush=True)
    alive = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for verdict in pool.map(lambda w: run(*w), work):
            if verdict:
                alive += 1
                print(verdict, flush=True)
    print(f"{len(work) - alive} killed, {alive} survived or hung")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
