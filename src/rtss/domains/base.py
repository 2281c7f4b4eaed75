"""Domain handle protocol consumed by the search and safety layers."""
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
