"""Safety proofs, safety and dead-end propagation, and the dead-end cache.

A safety proof is a successor path from a node to one the likely-safe
predicate accepts (goals count: they are trivially safe). Proofs run as a
best-first search keyed on the domain's safety distance estimate; their
nodes never join the goal-search tree because proof g values are not
rooted at the agent. Three things can happen: the proof succeeds, the
reachable space exhausts without touching safety (the whole visited set is
then provably dead), or the budget runs out and nothing is learned.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional, Union

from .search import _DEAD_END, _SAFE, _UNKNOWN, INF, SearchGraph


@dataclass(frozen=True)
class Proven:
    path: tuple            # successor path, target first, safe state last
    expansions: int


@dataclass(frozen=True)
class Exhausted:
    visited: frozenset     # proof root plus every generated descendant
    expansions: int


@dataclass(frozen=True)
class BudgetOut:
    expansions: int


ProofResult = Union[Proven, Exhausted, BudgetOut]


@dataclass
class DeadEndCache:
    """One bit of dead-end knowledge per state, plus instrumentation; the
    one owner of what search may generate and of what a dead node becomes.

    Flags are only ever set within an episode, never cleared. When the
    cache is disabled the flags are still recorded (so the avoidable work
    can be measured) but nothing is blocked: `dead_reexpansions` counts
    expansions of states an exhausted proof had already condemned, and is
    the numerator of the re-expansion ratio.
    """

    enabled: bool = True
    flags: set = field(default_factory=set)
    exhausted_marks: set = field(default_factory=set)
    avoided_reexpansions: int = 0
    dead_reexpansions: int = 0

    @property
    def blocked(self):
        """The states search must not generate: the flags, when enabled."""
        return self.flags if self.enabled else ()

    def mark_dead(self, node) -> None:
        """Mark a search node dead: off open, h infinite, its state flagged."""
        node.safety = _DEAD_END
        node.on_open = False
        node.h = INF
        self.flags.add(node.state)


def prove_safety(target, limit: int, domain, cache: DeadEndCache,
                 known_safe: Optional[Callable] = None) -> ProofResult:
    """Attempt a safety proof of target within limit expansions.

    Best-first on (safety distance, base h, insertion order). A popped
    state succeeds if the predicate accepts it, it is a goal, or the
    caller-supplied known_safe lookup vouches for it; the success pop is
    free, every other pop costs one expansion. Cache-flagged states are
    never generated. On exhaustion every visited state is provably dead
    and the caller is expected to hand the set to cache_dead_ends.
    """
    blocked = cache.blocked
    marks = cache.exhausted_marks
    if target in blocked:
        raise ValueError("prove_safety called on a cache-flagged target")
    if known_safe is not None and known_safe(target):
        return Proven((target,), 0)
    f_safe = domain.f_safe
    is_goal = domain.is_goal
    is_terminal = domain.is_terminal
    successors = domain.successors
    d_safe = domain.d_safe
    base_h = domain.h
    # a state enters parent when first generated and the heap at most then,
    # so no pop repeats a state and no closed set is needed
    parent: dict = {target: None}
    heap = [(d_safe(target), base_h(target), 0, target)]
    seq = 0
    expansions = 0
    while heap:
        state = heappop(heap)[3]
        if (f_safe(state) or is_goal(state)
                or (known_safe is not None and known_safe(state))):
            path = []
            cur = state
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return Proven(tuple(path), expansions)
        if expansions >= limit:
            return BudgetOut(expansions)
        expansions += 1
        if state in marks:
            cache.dead_reexpansions += 1
        for _action, s2, _cost in successors(state):
            if s2 in parent:
                continue
            if s2 in blocked:
                cache.avoided_reexpansions += 1
                continue
            parent[s2] = state
            if is_terminal(s2) and not is_goal(s2):
                # a known terminal can never end a proof; it stays in the
                # visited set but costs nothing to discard
                continue
            seq += 1
            heappush(heap, (d_safe(s2), base_h(s2), seq, s2))
    # open emptied: every generated state was expanded and none was safe
    return Exhausted(frozenset(parent), expansions)


def cache_dead_ends(cache: DeadEndCache, exhausted: Exhausted) -> int:
    """Flag every state an exhausted proof visited; returns new flags.
    Whether to prune them from the current search tree is the caller's
    decision (prune_exhausted)."""
    flagged = len(cache.flags)
    cache.flags |= exhausted.visited
    cache.exhausted_marks |= exhausted.visited
    return len(cache.flags) - flagged


def prune_exhausted(graph: SearchGraph, exhausted: Exhausted) -> list:
    """Drop an exhausted proof's states from the current search tree, even
    with the cache off (within-iteration pruning); returns the newly dead."""
    pruned = [node for node in map(graph.nodes.get, exhausted.visited)
              if node and node.stamp == graph.stamp and node.safety is not _DEAD_END]
    for node in pruned:
        graph.cache.mark_dead(node)
    return pruned


def propagate_safety(graph: SearchGraph, proven_paths) -> int:
    """Mark proven paths safe and close safety backwards over the graph.

    Path states are marked on their node records (created on demand when
    the proof ran outside the search tree). Afterwards any node with a safe
    successor among its discovered edges becomes safe, to fixpoint.
    Returns how many nodes went from unknown to safe; dead-flagged nodes
    are never marked.
    """
    stamp = graph.stamp
    nodes = graph.nodes
    newly = 0
    for path in proven_paths:
        for state in path:
            node = graph.ensure_node(state)
            if node.safety == _UNKNOWN:
                node.safety = _SAFE
                newly += 1

    # the touched nodes are exactly the ones stamped into this iteration, so
    # this queues every proven path node whose preds are this iteration's;
    # the closure, and how many nodes it marks, does not depend on the order
    # of the walk
    worklist = deque(node for node in graph.touched if node.safety == _SAFE)
    while worklist:
        node = worklist.popleft()
        for pred_state, _cost in node.preds:
            pred = nodes[pred_state]
            if pred.stamp != stamp or pred.safety != _UNKNOWN:
                continue
            pred.safety = _SAFE
            newly += 1
            worklist.append(pred)
    return newly


def propagate_dead_ends(graph: SearchGraph, seeds) -> int:
    """Flag dead ends through the current search tree from seeds, to fixpoint.

    A node is dead when it is a generated terminal non-goal, or when it was
    expanded and every successor is dead (zero successors included). Each
    seed is tested, and so is each predecessor of a node marked dead.
    `graph.touched` as seeds is the full pass; fewer seeds give the same
    marks while they hold every touched node that passes the test now.
    Dead nodes leave the open list and, through the cache, stay dead for
    the rest of the episode.
    """
    stamp = graph.stamp
    nodes = graph.nodes
    blocked = graph.cache.blocked
    is_terminal = graph.domain.is_terminal
    worklist = deque(seeds)
    count = 0
    while worklist:
        node = worklist.popleft()
        if (node.safety is _DEAD_END or node.goal
                or not (_succs_all_dead(node, nodes, stamp, blocked) if node.expanded
                        else is_terminal(node.state))):
            continue
        graph.cache.mark_dead(node)
        count += 1
        worklist.extend([nodes[pred] for pred, _cost in node.preds])
    return count


def _succs_all_dead(node, nodes, stamp, blocked) -> bool:
    """Is every successor of an expanded node dead (true for none at all)?"""
    for _a, s2, _c in node.succs or ():
        child = nodes.get(s2)
        if child is not None and child.stamp == stamp:
            if child.safety is not _DEAD_END:
                return False
        elif s2 not in blocked:
            # never generated this iteration: only a blocking cache flag
            # can account for that, and a flagged state is dead
            return False
    return True
