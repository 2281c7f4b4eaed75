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

Every parameter of every function, nested ones included, must also be
named in that function's body: a parameter that nothing reads only makes
its callers pass a value. `self`, `cls` and `_`-prefixed names are exempt,
and so are dunder methods and the methods the `Domain` protocol
(`domains/base.py`) names, whose signatures the protocol fixes.

Every name a module other than a package `__init__.py` imports must be
used in that module (`from __future__ import ...` aside).

A package `__init__.py` holds only its docstring: callers import the
submodules, so a re-export layer there is code that nothing needs.

One function, `read_v1` in `domains/base.py`, parses the `key value`
header of an instance file: each loader calls it, so a format does not
grow its own copy of the parse.

In `planners.py`, the calls that make up an iteration's shared steps each
have exactly one call site: the planners share one explore step and one
iteration tail, so a second site would be a planner-specific copy.

One builder, `harness.planner_config`, turns an algorithm spec into a
planner for a grid cell and for `rtss run` alike: it alone parses an
evaluator, and `cli.py` imports neither `PlannerConfig` nor `Evaluator`,
so no second copy of a planner default can grow there. The episode guard
is written once, as `planners.MAX_ITERATIONS`.

Each external format is described once. The record dataclasses
(`harness.RunRecord`, `airspace.AltitudeStats`) are the CSV headers, so no
string literal in `src/rtss` spells a multi-word column. The key tables of
`harness` are the experiment config's schema, and the README's "Field
types" table names exactly their keys. A record dataclass also states what
each measured field reads when a run did no work, so no call of
`RunRecord` or `AltitudeStats` in `src/rtss` passes a literal 0, 0.0 or
None.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rtss"
README = SRC.parents[1] / "README.md"

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


def _protocol_methods() -> set:
    tree = ast.parse((SRC / "domains" / "base.py").read_text(encoding="utf-8"))
    return {member.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Domain"
            for member in node.body if isinstance(member, ast.FunctionDef)}


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


def test_every_parameter_is_named_in_its_function_body():
    exempt = _protocol_methods()
    assert "successors" in exempt
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name in exempt
                    or (fn.name.startswith("__") and fn.name.endswith("__"))):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            named = {node.id for stmt in fn.body for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)}
            unread += [f"{path.relative_to(SRC)}:{fn.name}({p})" for p in params
                       if p not in named and p not in ("self", "cls")
                       and not p.startswith("_")]
    assert unread == []


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = alias.name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}: {name}" for bound, name in imported.items()
                   if bound not in used]
    assert unused == []


def test_package_init_files_hold_only_a_docstring():
    inits = sorted(SRC.rglob("__init__.py"))
    assert len(inits) == 2
    for path in inits:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr), path
        assert isinstance(body[0].value, ast.Constant), path
        assert isinstance(body[0].value.value, str), path


def test_each_shared_iteration_step_has_one_call_site_in_planners():
    tree = ast.parse((SRC / "planners.py").read_text(encoding="utf-8"))
    calls = Counter(node.func.id for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name))
    shared = ("IterationReport", "expand_best_first", "dijkstra_h_update",
              "propagate_safety", "safe_toward_best", "path_to")
    assert {name: calls[name] for name in shared} == dict.fromkeys(shared, 1)


def test_one_function_parses_an_instance_header():
    builders, callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.relative_to(SRC).as_posix()}:{fn.name}"
            for node in ast.walk(fn):
                # {words[i]: words[i + 1] ...}: a dict of adjacent word pairs
                if (isinstance(node, ast.DictComp)
                        and isinstance(node.key, ast.Subscript)
                        and isinstance(node.value, ast.Subscript)
                        and ast.dump(node.key.value) == ast.dump(node.value.value)):
                    builders.add(where)
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "read_v1"):
                    callers.add(where)
    assert builders == {"domains/base.py:read_v1"}
    assert {"domains/airspace.py:load_instance", "domains/racetrack.py:load"} <= callers


def _parse_calls(tree) -> int:
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "parse")


def test_one_builder_turns_a_spec_into_a_planner():
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    builder = next(fn for fn in trees["harness.py"].body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "planner_config")
    assert sum(_parse_calls(tree) for tree in trees.values()) == _parse_calls(builder) == 1
    cli_imports = {alias.name for node in ast.walk(trees["cli.py"])
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not cli_imports & {"PlannerConfig", "Evaluator"}
    guards = [path for path, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and type(node.value) is int
              and node.value == 100_000]
    assert guards == ["planners.py"]


def test_the_record_dataclasses_alone_name_the_csv_columns():
    from rtss import harness
    from rtss.domains import airspace
    multi_word = {column for record in (harness.RunRecord, airspace.AltitudeStats)
                  for column in harness.columns(record) if not column.islower()}
    assert {"instanceId", "totalExpansions", "safetyProbability"} <= multi_word
    spelt = [f"{path.relative_to(SRC)}: {word}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for word in re.findall(r"\w+", node.value) if word in multi_word]
    assert spelt == []


def test_readme_field_types_name_exactly_the_config_keys():
    from rtss import harness
    table = README.read_text(encoding="utf-8").split("Field types", 1)[1].split("\n\n")[1]
    named = {name for line in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", line.split("|")[1])}
    keys = ({*harness._CONFIG_KEYS}
            | {f"domain.{key}" for by_type in harness._DOMAIN_KEYS.values() for key in by_type}
            | {f"algorithms[i].{key}" for key in harness._SPEC_KEYS})
    assert named == keys


def test_no_record_call_spells_a_no_work_value():
    spelt = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("RunRecord", "AltitudeStats")):
                continue
            spelt += [f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(arg)}"
                      for arg in (*node.args, *(k.value for k in node.keywords))
                      if isinstance(arg, ast.Constant) and (
                          arg.value is None or (type(arg.value) in (int, float)
                                                and arg.value == 0))]
    assert spelt == []
