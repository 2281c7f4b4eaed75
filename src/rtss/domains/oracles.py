"""Brute-force ground-truth computations backing the property suites.

Everything here is deliberately independent of the search machinery: plain
breadth-first sweeps over explicitly enumerated state spaces, used as the
reference side of every dual-route check.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

STATE_LIMIT = 10_000_000


def reachable_states(domain, roots: Iterable) -> dict:
    """Forward closure of roots under the successor relation: each state,
    in breadth-first order, mapped to its successor list."""
    limit = STATE_LIMIT
    edges = dict.fromkeys(roots)
    frontier = deque(edges)
    while frontier:
        s = frontier.popleft()
        edges[s] = succs = domain.successors(s)
        for _a, s2, _c in succs:
            if s2 not in edges:
                if len(edges) >= limit:
                    raise ValueError(f"state space exceeds the {limit} oracle guard")
                edges[s2] = None
                frontier.append(s2)
    return edges


def true_safe_set(domain, states: Optional[Iterable] = None,
                  roots: Optional[Iterable] = None) -> set:
    """States with a true path to some goal: backward reachability from the
    goals over the reversed successor relation of the enumerated space.
    Rooted, it reads each state's successors from the enumeration, so it
    calls successors once per reachable state."""
    successors = domain.successors
    if states is not None:
        states = dict.fromkeys(states)      # ordered, and the membership index
    elif roots is not None:
        states = reachable_states(domain, roots)
        successors = states.__getitem__
    elif hasattr(domain, "all_states"):
        states = dict.fromkeys(domain.all_states())
    else:
        raise ValueError("need either an explicit state list or roots")
    if len(states) > STATE_LIMIT:
        raise ValueError(f"state space exceeds the {STATE_LIMIT} oracle guard")
    reverse: dict = {}
    goals = []
    for s in states:
        if domain.is_goal(s):
            goals.append(s)
            continue
        for _a, s2, _c in successors(s):
            if s2 in states:
                reverse.setdefault(s2, []).append(s)
            elif domain.is_goal(s2):
                # goal discovered outside the enumeration: still a target
                reverse.setdefault(s2, []).append(s)
                goals.append(s2)
    safe = set(goals)
    frontier = deque(goals)
    while frontier:
        v = frontier.popleft()
        for u in reverse.get(v, ()):
            if u not in safe:
                safe.add(u)
                frontier.append(u)
    return safe


def true_dead_ends(domain, states: Iterable) -> set:
    states = list(states)
    return set(states) - true_safe_set(domain, states=states)


def optimal_proof_path(domain, state) -> Optional[list]:
    """A shortest successor path from state to an explicitly safe state
    (goals included), found breadth-first; None when no proof exists."""
    if domain.f_safe(state) or domain.is_goal(state):
        return [state]
    limit = STATE_LIMIT
    parent = {state: None}
    frontier = deque([state])

    def unwind(end):
        path = []
        cur = end
        while cur is not None:
            path.append(cur)
            cur = parent[cur]
        path.reverse()
        return path

    while frontier:
        s = frontier.popleft()
        for _a, s2, _c in domain.successors(s):
            if s2 in parent:
                continue
            parent[s2] = s
            if domain.f_safe(s2) or domain.is_goal(s2):
                return unwind(s2)
            if len(parent) >= limit:
                raise ValueError(f"state space exceeds the {limit} oracle guard")
            frontier.append(s2)
    return None


def optimal_proof_oracle(domain, state) -> Optional[int]:
    """Minimum number of states on any successor path from state to an
    explicitly safe state (goals included); None when no proof exists."""
    path = optimal_proof_path(domain, state)
    return len(path) if path is not None else None
