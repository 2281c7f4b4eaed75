"""Guard against code in `src/rtss` that nothing in `src/rtss` uses.

Every top-level or method `def` or `class`, and every annotated class field
(a dataclass field, say), in the package must be named at least once more
somewhere in `src/rtss` outside the package `__init__.py` files: a
re-export there would otherwise keep a name alive that only tests call, and
a field that nothing reads is only ever written. Dunder methods are exempt,
because Python calls them.

This matches word tokens in the source text (comments and docstrings
included), not bindings, so it misses a dead definition whose name is
common enough to appear elsewhere for another reason (`f`, `h`, `name`).
It catches names that appear nowhere else at all.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rtss"

# reference oracles that exist for tests to compare the program against
ORACLES = frozenset({"collision_probability", "true_dead_ends"})


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                    yield member.name
                elif (isinstance(member, ast.AnnAssign)
                      and isinstance(member.target, ast.Name)):
                    yield member.target.id


def test_every_definition_is_named_again_in_the_package():
    defined = Counter()
    tokens = Counter()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        defined.update(_definitions(ast.parse(text)))
        if path.name == "__init__.py":
            continue
        tokens.update(re.findall(r"[A-Za-z_]\w*", text))
    assert defined, f"no definitions found under {SRC}"
    unused = sorted(name for name, count in defined.items()
                    if tokens[name] <= count and name not in ORACLES
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == []
