"""Budgeted best-first search infrastructure shared by every planner.

One SearchGraph lives for a whole planner episode and holds the episode's
domain, open-list evaluator and dead-end cache. A new iteration does not
erase the node store: nodes carry an iteration stamp, and touching a node
under a fresh stamp lazily resets its root-relative fields (g, parent,
discovered edges, open/closed membership) while learned heuristic values
and safety knowledge survive, which is exactly what the agent is allowed
to keep as it moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from heapq import heapify, heappop, heappush
from typing import Any, Iterator, Optional

from .domains.base import Domain

INF = math.inf


class SafetyStatus(IntEnum):
    """SAFE: reaches a state the safety predicate accepts; DEAD_END: no goal."""
    UNKNOWN = 0
    SAFE = 1
    DEAD_END = 2


# module constants, because looking a member up on the enum class is slow
_UNKNOWN = SafetyStatus.UNKNOWN
_SAFE = SafetyStatus.SAFE
_DEAD_END = SafetyStatus.DEAD_END


@dataclass(frozen=True)
class Evaluator:
    """Open-list ordering. kind is one of astar | wastar | greedy.

    astar keys on g + h, wastar on g + weight * h, greedy on h; all three
    break ties toward larger g and then insertion order, so wastar with
    weight 1.0 expands in exactly the astar order.
    """

    kind: str = "astar"
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("astar", "wastar", "greedy"):
            raise ValueError(f"unknown evaluator kind {self.kind!r}")
        if self.kind == "wastar" and not 1.0 <= self.weight < math.inf:
            raise ValueError("wastar weight must be finite and >= 1")

    @property
    def key_weights(self) -> tuple[float, float]:
        """(g weight, h weight): the open list keys a node on
        (g_weight * g + h_weight * h, -g), the one definition of its key.

        For the finite g >= 0 of an open node these are bit-equal to g + h,
        g + weight * h and h, because 1.0 * x == x and 0.0 * g + h == h.
        """
        if self.kind == "astar":
            return 1.0, 1.0
        if self.kind == "wastar":
            return 1.0, self.weight
        return 0.0, 1.0

    @property
    def name(self) -> str:
        return f"wastar:{self.weight:g}" if self.kind == "wastar" else self.kind

    @staticmethod
    def parse(text: str) -> "Evaluator":
        try:
            if text.startswith("wastar:"):
                return Evaluator("wastar", float(text.split(":", 1)[1]))
            return Evaluator(text)
        except ValueError as exc:
            raise ValueError(f"bad evaluator {text!r}: {exc}") from None


FCOST = Evaluator("astar")


@dataclass
class ExpansionBudget:
    """Expansion allowance; one expansion is one pop with successor generation."""

    limit: int
    used: int = 0


class SearchNode:
    """Per-state search record; persists across iterations of one episode."""

    __slots__ = ("state", "g", "h", "goal", "parent", "preds", "succs",
                 "safety", "on_open", "expanded", "stamp", "open_seq")

    def __init__(self, state, domain, stamp: int):
        self.state = state
        self.g = INF
        self.h = domain.h(state)
        self.goal = goal = domain.is_goal(state)    # asked once, as is f_safe
        self.parent = None          # (parent_state, action)
        self.preds: list = []       # discovered in-edges this iteration
        self.succs = None           # cached successor list once expanded
        self.safety = _SAFE if goal or domain.f_safe(state) else _UNKNOWN
        self.on_open = False
        self.expanded = False
        self.stamp = stamp          # 0: not part of any iteration yet
        self.open_seq = -1

    def __repr__(self):
        return (f"{type(self).__name__}({self.state!r}, g={self.g}, h={self.h}, "
                f"{self.safety.name})")


@dataclass(frozen=True)
class ExpansionOutcome:
    kind: str                      # 'budget' | 'goal' | 'open_empty'
    goal: Any = None


BUDGET_EXHAUSTED = ExpansionOutcome("budget")
OPEN_EMPTY = ExpansionOutcome("open_empty")


class SearchGraph:
    """Node store plus the open list of the current iteration, and the
    episode's context: domain, evaluator and dead-end cache, set only here."""

    def __init__(self, domain: Domain, evaluator: Evaluator, cache):
        self.domain = domain
        self.evaluator = evaluator
        self.cache = cache
        self.nodes: dict[Any, SearchNode] = {}
        self.open: list = []        # (key, -g, open_seq, state); see Evaluator.key_weights
        self.stamp = 0
        self.root = None
        self.touched: list[SearchNode] = []
        self._seq = 0

    # -- iteration lifecycle -------------------------------------------------

    def begin_iteration(self, root_state):
        """Reset root-relative state for a fresh planning iteration; the
        dead-end cache decides which dead nodes stay dead."""
        self.stamp += 1
        self.touched = []
        self.root = root_state
        node = self.touch(root_state, self.nodes.get(root_state))
        node.g = 0.0
        node.on_open = True
        self._seq += 1
        node.open_seq = self._seq
        g_weight, h_weight = self.evaluator.key_weights
        self.open = [(g_weight * node.g + h_weight * node.h, -node.g, self._seq,
                      root_state)]

    def touch(self, state, node: Optional[SearchNode]) -> SearchNode:
        """Stamp a state's node into the current iteration. The caller looked
        the node up; for a new state (None) it is built already stamped.

        open_seq is left as it was: sequence numbers never repeat and the
        open list starts empty each iteration, so an old one matches no entry.
        """
        stamp = self.stamp
        if node is None:
            node = self.nodes[state] = SearchNode(state, self.domain, stamp)
            self.touched.append(node)
        elif node.stamp != stamp:
            node.stamp = stamp
            node.g = INF
            node.parent = None
            node.preds.clear()
            node.on_open = False
            node.expanded = False
            if node.safety is _DEAD_END and state not in self.cache.blocked:
                # dead-end knowledge only persists through an enabled cache
                node.safety = _UNKNOWN
                node.h = self.domain.h(state)
            self.touched.append(node)
        return node

    def ensure_node(self, state) -> SearchNode:
        """Node record for a state, created on first sight; not stamped."""
        node = self.nodes.get(state)
        if node is None:
            node = self.nodes[state] = SearchNode(state, self.domain, 0)
        return node

    def open_nodes_in_f_order(self) -> list[SearchNode]:
        """Open nodes best f first, ties to larger g, then earlier insertion."""
        _require_f_keys(self)
        return list(self.open_nodes_in_key_order())

    def open_nodes_in_key_order(self) -> Iterator[SearchNode]:
        """Open nodes under the iteration's own evaluator ordering, best
        first, walked lazily off the heap; ties go to earlier insertion.

        A live entry's key never changes after its push: a new g pushes the
        node again under a new open_seq, and h only ever changes on nodes
        that are off open. So heap order is (key, open_seq) order. Stale
        entries on top are popped for good; below the top, a side heap of
        heap indices visits the entries in order without moving them. The
        open list must not change while the walk is being consumed.
        """
        heap = self.open
        nodes = self.nodes
        while heap:
            entry = heap[0]
            node = nodes[entry[-1]]
            if node.on_open and node.open_seq == entry[-2]:
                break
            heappop(heap)
        if not heap:
            return
        size = len(heap)
        walk = [(heap[0], 0)]
        while walk:
            entry, i = heappop(walk)
            node = nodes[entry[-1]]
            if node.on_open and node.open_seq == entry[-2]:
                yield node
            i = 2 * i + 1
            if i < size:
                heappush(walk, (heap[i], i))
                if i + 1 < size:
                    heappush(walk, (heap[i + 1], i + 1))

    def safety_lookup(self, state) -> bool:
        node = self.nodes.get(state)
        return node is not None and node.safety == _SAFE


def _require_f_keys(graph: SearchGraph) -> None:
    if graph.evaluator.key_weights != FCOST.key_weights:
        raise ValueError("the open list is not keyed by f; it was built with "
                         f"{graph.evaluator.name}")


def expand_best_first(graph: SearchGraph, evaluator: Evaluator,
                      budget: ExpansionBudget, domain, *, cache) -> ExpansionOutcome:
    """Expand evaluator-best open nodes until the budget, the open list, or
    a popped goal stops the loop. The evaluator, domain and cache must be
    the graph's own.

    Duplicate reaching relaxes g strictly; reaching a closed node with a
    smaller g reopens it. Cache-flagged dead ends are never generated onto
    the open list, and popping one (possible only while the cache is
    disabled) is what the re-expansion instrumentation counts.
    """
    if ((evaluator is not graph.evaluator and evaluator != graph.evaluator)
            or domain is not graph.domain or cache is not graph.cache):
        raise ValueError("expand_best_first needs the graph's evaluator, domain and cache")
    nodes = graph.nodes
    heap = graph.open
    stamp = graph.stamp
    g_weight, h_weight = evaluator.key_weights
    seq = graph._seq
    used, limit = budget.used, budget.limit
    blocked = cache.blocked
    marks = cache.exhausted_marks
    touch = graph.touch
    successors = domain.successors
    avoided = dead_reexpanded = 0
    outcome = BUDGET_EXHAUSTED
    try:
        while used < limit:
            while heap:
                entry = heappop(heap)
                node = nodes[entry[3]]
                if node.open_seq != entry[2] or not node.on_open:
                    continue
                if node.state in blocked:
                    node.on_open = False
                    avoided += 1
                    continue
                break
            else:
                outcome = OPEN_EMPTY
                break
            node.on_open = False
            node.expanded = True
            used += 1
            state = node.state
            if state in marks:
                dead_reexpanded += 1
            if node.goal:
                outcome = ExpansionOutcome("goal", state)
                break
            succs = node.succs
            if succs is None:
                succs = node.succs = successors(state)
            g = node.g
            for action, s2, cost in succs:
                if s2 in blocked:
                    avoided += 1
                    continue
                child = nodes.get(s2)
                if child is None or child.stamp != stamp:
                    child = touch(s2, child)
                child.preds.append((state, cost))
                if child.safety is _DEAD_END:
                    continue
                g2 = g + cost
                if g2 < child.g:
                    child.g = g2
                    child.parent = (state, action)
                    child.expanded = False
                    child.on_open = True
                    seq += 1
                    child.open_seq = seq
                    heappush(heap, (g_weight * g2 + h_weight * child.h, -g2, seq, s2))
    finally:
        # also when the domain raises: sequence numbers must never repeat
        budget.used = used
        graph._seq = seq
        cache.avoided_reexpansions += avoided
        cache.dead_reexpansions += dead_reexpanded
    return outcome


def select_best_f(graph: SearchGraph) -> Optional[Any]:
    """FCost-minimal open state; ties go to larger g, then earlier
    insertion. None when open is empty. The open list must be keyed by f,
    as it is for LSS-LRTA* and SafeRTS."""
    _require_f_keys(graph)
    for node in graph.open_nodes_in_key_order():
        return node.state
    return None


def dijkstra_h_update(graph: SearchGraph) -> int:
    """Back up heuristic values from the frontier through the expanded set.

    Expanded non-goal nodes are reset to infinity, then relaxed backwards
    from the open frontier (and any expanded goal) in increasing h order.
    Expanded nodes left unreachable from the frontier keep h = infinity:
    they provably cannot leave the local search space and are flagged as
    dead ends. h never decreases relative to its pre-update value.
    """
    stamp = graph.stamp
    nodes = graph.nodes
    closed = []                     # (node, h before the update)
    heap = []                       # (h, unique seq, node): nodes never compare
    for node in graph.touched:
        if node.safety is _DEAD_END:
            continue
        if node.expanded and not node.goal:
            closed.append((node, node.h))
            node.h = INF
        elif node.expanded or node.on_open:
            heap.append((node.h, len(heap) + 1, node))
    if not closed:
        return 0
    heapify(heap)
    seq = len(heap)
    pending = len(closed)
    while heap and pending:
        hval, _, node = heappop(heap)
        # only closed nodes are relaxed, and each relaxation strictly lowers
        # h, so one entry at most matches a node's h and it pops only once
        if hval != node.h:
            continue
        if node.expanded and not node.goal:
            pending -= 1
        for pred_state, cost in node.preds:
            pred = nodes[pred_state]
            cand = cost + hval
            if (cand < pred.h and pred.stamp == stamp and pred.expanded
                    and pred.safety is not _DEAD_END and not pred.goal):
                pred.h = cand
                seq += 1
                heappush(heap, (cand, seq, pred))
    changes = 0
    for node, prev in closed:
        if node.h < prev:
            node.h = prev
        if node.h != prev:
            changes += 1
        if node.h == INF:
            graph.cache.mark_dead(node)
    return changes


def path_to(graph: SearchGraph, target) -> list:
    """Actions along parent pointers from the current root to target."""
    node = graph.nodes.get(target)
    if node is None or node.stamp != graph.stamp:
        raise ValueError(f"target {target!r} is not part of the current iteration")
    actions = []
    guard = len(graph.touched) + 1
    while node.state != graph.root:
        if node.parent is None or guard == 0:
            raise ValueError(f"no parent chain from {target!r} back to the root")
        parent_state, action = node.parent
        actions.append(action)
        node = graph.nodes[parent_state]
        guard -= 1
    actions.reverse()
    return actions
