"""Shared test domains: tiny explicit worlds with hand-checkable behavior."""
from __future__ import annotations

import math

from rtss.domains.synthetic import random_dag
from rtss.rng import SplitMix64


class ListDomain:
    """Explicit successor lists with per-edge costs; everything else tabular."""

    def __init__(self, succ, goals=(), safe=(), h=None, d_safe=None,
                 terminal=(), identity=(), name="list"):
        self.succ = {s: list(edges) for s, edges in succ.items()}
        self.goals = set(goals)
        self.safe = set(safe)
        self.h_table = dict(h or {})
        self.d_table = dict(d_safe or {})
        self.terminal = set(terminal)
        self.identity = set(identity)
        self.instance_id = name

    def successors(self, state):
        out = list(self.succ.get(state, ()))
        if state in self.identity:
            out.append((("stay", state), state, 1.0))
        return out

    def is_goal(self, state):
        return state in self.goals

    def is_terminal(self, state):
        return state in self.terminal

    def h(self, state):
        return float(self.h_table.get(state, 0.0))

    def d_safe(self, state):
        if state in self.d_table:
            return float(self.d_table[state])
        if state in self.safe or state in self.goals:
            return 0.0
        return 1.0

    def f_safe(self, state):
        return state in self.safe

    def identity_action(self, state):
        return ("stay", state) if state in self.identity else None

    def travel_distance(self, start, end):
        return 0.0

    def all_states(self):
        seen = set(self.succ)
        for edges in self.succ.values():
            for _a, s2, _c in edges:
                seen.add(s2)
        return sorted(seen, key=repr)


def chain_domain(n=5):
    """States 0..n-1 in a line, unit costs, goal at the end, h = distance."""
    succ = {i: [((i, i + 1), i + 1, 1.0)] for i in range(n - 1)}
    succ[n - 1] = []
    h = {i: float(n - 1 - i) for i in range(n)}
    return ListDomain(succ, goals={n - 1}, h=h, name=f"chain{n}")


def funnel_domain():
    """Root fans out into branches that all end in terminal non-goals; a
    separate safe exit exists only from the very top."""
    succ = {
        "r": [("a", "m1", 1.0), ("b", "m2", 1.0)],
        "m1": [("c", "t1", 1.0), ("d", "t2", 1.0)],
        "m2": [("e", "t3", 1.0)],
        "t1": [], "t2": [], "t3": [],
    }
    return ListDomain(succ, h={s: 0.0 for s in ("r", "m1", "m2", "t1", "t2", "t3")},
                      d_safe={"r": 1, "m1": 2, "m2": 2, "t1": 3, "t2": 3, "t3": 3},
                      name="funnel")


def random_h_dag(seed, size=40):
    """A random DAG (root 0) with a random, inconsistent h, so that searches
    reopen nodes and backups change h."""
    domain = random_dag(seed, size=size, edge_chance=0.1)
    rng = SplitMix64(seed ^ 0x5EED)
    domain.h_values = {s: float(rng.randrange(4)) for s in range(size)}
    return domain
