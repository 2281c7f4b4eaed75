"""Explicit graph domains for unit and property tests.

GraphDomain wraps adjacency lists as a planner-ready world: integer nodes,
unit edge costs, the successor node id doubling as the action label. The
random DAG builder yields worlds with genuine dead ends and a strong
likely-safe predicate (hints are sampled from the truly safe nodes), which
is what the soundness and theorem suites need.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..rng import SplitMix64


@dataclass
class GraphDomain:
    edges: dict                      # node -> ordered list of successor nodes
    goals: set
    safe_hints: set = field(default_factory=set)
    identity_nodes: set = field(default_factory=set)
    h_values: dict = field(default_factory=dict)
    name: str = "graph"

    def __post_init__(self):
        self._d_safe = _distance_to(self.edges, self.safe_hints | self.goals)

    @property
    def instance_id(self) -> str:
        return self.name

    def successors(self, state) -> list:
        out = [(s2, s2, 1.0) for s2 in self.edges.get(state, ())]
        if state in self.identity_nodes:
            out.append((state, state, 1.0))
        return out

    def is_goal(self, state) -> bool:
        return state in self.goals

    def is_terminal(self, state) -> bool:
        return not self.edges.get(state) and state not in self.goals \
            and state not in self.identity_nodes

    def h(self, state) -> float:
        return float(self.h_values.get(state, 0.0))

    def d_safe(self, state) -> float:
        return float(self._d_safe.get(state, len(self.edges) + 1))

    def f_safe(self, state) -> bool:
        return state in self.safe_hints

    def identity_action(self, state):
        return state if state in self.identity_nodes else None

    def travel_distance(self, start, end) -> float:
        return 0.0

    def all_states(self) -> list:
        seen = set(self.edges)
        for succs in self.edges.values():
            seen.update(succs)
        return sorted(seen)


def _distance_to(edges: dict, targets: set) -> dict:
    """Hop counts from every node to the nearest target, over forward edges."""
    reverse: dict = {}
    nodes = set(edges)
    for u, succs in edges.items():
        for v in succs:
            nodes.add(v)
            reverse.setdefault(v, []).append(u)
    dist = {t: 0 for t in targets if t in nodes}
    frontier = deque(dist)
    while frontier:
        v = frontier.popleft()
        for u in reverse.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


def random_dag(seed: int, size: int = 60, edge_chance: float = 0.08,
               hint_fraction: float = 0.15) -> GraphDomain:
    """Seeded random DAG: goals on about half the sinks, strong safety hints.

    Edges only go from lower to higher ids, so the graph is acyclic and
    sinks without a goal are genuine terminal dead ends. Hints are sampled
    from the nodes with a true goal path, which keeps the predicate strong.
    """
    rng = SplitMix64(seed)
    edges = {i: [] for i in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.uniform() < edge_chance:
                edges[i].append(j)
    if not edges[0]:
        edges[0].append(1 + rng.randrange(size - 1))
    sinks = [i for i in range(size) if not edges[i]]
    goals = {i for i in sinks if rng.uniform() < 0.5}
    if not goals and sinks:
        goals = {sinks[rng.randrange(len(sinks))]}
    # truly safe nodes: backward reachability from the goals
    safe = set(_distance_to(edges, goals))
    candidates = sorted(safe - goals)
    hints = {c for c in candidates if rng.uniform() < hint_fraction}
    return GraphDomain(edges, goals, safe_hints=hints, name=f"dag-{seed}")
