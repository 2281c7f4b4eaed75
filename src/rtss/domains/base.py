"""Domain handle protocol consumed by the search and safety layers, and the
header reader shared by the instance file formats."""
from __future__ import annotations

from typing import Any, Hashable, Protocol, runtime_checkable

StateKey = Hashable
Action = Any
Successor = tuple[Action, StateKey, float]


@runtime_checkable
class Domain(Protocol):
    """What a benchmark world must provide to the planners.

    States are opaque hashable keys; two states with equal keys are the
    same state. Successor enumeration order must be deterministic, since
    tie-breaking and therefore every reported number depends on it.
    """

    def successors(self, state: StateKey) -> list[Successor]: ...

    def is_goal(self, state: StateKey) -> bool: ...

    def is_terminal(self, state: StateKey) -> bool:
        """True only if the state is known to have zero successors without
        generating them (e.g. a crash); may conservatively return False.
        RTFS's closing dead-end pass starts only from unexpanded states it accepts."""
        ...

    def h(self, state: StateKey) -> float: ...

    def d_safe(self, state: StateKey) -> float:
        """Estimated transitions to the nearest likely-safe state."""
        ...

    def f_safe(self, state: StateKey) -> bool:
        """Likely-safe predicate; True marks the state safe."""
        ...

    def identity_action(self, state: StateKey) -> Action | None:
        """An action mapping the state to itself, if the domain has one."""
        ...

    def travel_distance(self, start: StateKey, end: StateKey) -> float:
        """Ground distance covered between two visited states (for velocity)."""
        ...


def read_v1(path_or_text: str, is_text: bool, kind: str, **fields) -> tuple[list, list[str]]:
    """Read a `<kind> v1` instance file, or its text when is_text.

    Line 1 is `<kind> v1` and line 2 holds `key value` pairs in any order.
    Each keyword names a header key and the type its value converts to; the
    header holds each of these keys exactly once, and no other key.
    Returns the converted values in keyword order, and the file's lines.
    """
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as f:
            text = f.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != f"{kind} v1":
        raise ValueError(f"not {'an' if kind[0] in 'aeiou' else 'a'} {kind} v1 file")
    line = "".join(lines[1:2])      # the header line, or "" when there is none
    words = line.split()
    keys = words[::2]
    for key in keys:
        if key not in fields or keys.count(key) > 1:
            problem = "unknown" if key not in fields else "repeated"
            raise ValueError(f"malformed {kind} header: {problem} key {key!r}")
    try:
        header = {words[i]: words[i + 1] for i in range(0, len(words), 2)}
        values = [convert(header[key]) for key, convert in fields.items()]
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed {kind} header: {line!r}") from exc
    return values, lines
