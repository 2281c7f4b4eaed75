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
    in breadth-first order, mapped to its predecessors in the closure (one
    entry per edge), listed as the sweep runs."""
    limit = STATE_LIMIT
    preds = {s: [] for s in roots}
    frontier = deque(preds)
    while frontier:
        s = frontier.popleft()
        for _a, s2, _c in domain.successors(s):
            into = preds.get(s2)
            if into is not None:
                into.append(s)
            elif len(preds) >= limit:
                raise ValueError(f"state space exceeds the {limit} oracle guard")
            else:
                preds[s2] = [s]
                frontier.append(s2)
    return preds


def true_safe_set(domain, states: Optional[Iterable] = None,
                  roots: Optional[Iterable] = None) -> set:
    """States with a true path to some goal: a backward walk from the goals
    over the predecessor lists of the enumerated space. Rooted, the forward
    sweep lists them, so successors is called once per reachable state; it
    lists a goal's out-edges too, which changes no set, as every goal is
    safe before the walk meets it in a list. Over explicit states, only the
    non-goals' edges are listed, and a goal outside the states that one of
    them reaches still counts."""
    if states is None and roots is None and hasattr(domain, "all_states"):
        states = domain.all_states()
    if states is not None:
        preds = {s: [] for s in states}
        if len(preds) > STATE_LIMIT:
            raise ValueError(f"state space exceeds the {STATE_LIMIT} oracle guard")
        for s in [s for s in preds if not domain.is_goal(s)]:
            for _a, s2, _c in domain.successors(s):
                into = preds.get(s2)
                if into is not None:
                    into.append(s)
                elif domain.is_goal(s2):
                    preds[s2] = [s]
    elif roots is not None:
        preds = reachable_states(domain, roots)
    else:
        raise ValueError("need either an explicit state list or roots")
    safe = {s for s in preds if domain.is_goal(s)}
    frontier = deque(safe)
    while frontier:
        for u in preds.pop(frontier.popleft()):     # frees each list once walked
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
