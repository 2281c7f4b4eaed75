"""The planning algorithms: LSS-LRTA*, SafeRTS, and the RTFS scheme.

An iteration runs the planner's own search phase, then one tail that all
planners share: learn, select a target, commit toward it. The episode
loop (`run_episode`) applies the committed actions and carries
learned heuristics, safety marks, and the dead-end cache from one
iteration to the next. Two reference oracles ride along: offline A* (the
velocity upper bound) and Safe-LSS-LRTA*, an LSS-LRTA* handed an ideal
dead-end detector.
"""
from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Optional

from .safety import (BudgetOut, DeadEndCache, Exhausted, ProofResult, Proven,
                     cache_dead_ends, propagate_dead_ends, propagate_safety,
                     prove_safety, prune_exhausted)
from .search import (_SAFE, BUDGET_EXHAUSTED, FCOST, OPEN_EMPTY, Evaluator,
                     ExpansionBudget, ExpansionOutcome, SearchGraph,
                     dijkstra_h_update, expand_best_first, path_to,
                     select_best_f)

LSS_LRTA = "lss-lrta"
SAFE_RTS = "safe-rts"
RTFS = "rtfs"
SAFE_LSS_LRTA = "safe-lss-lrta"

ALGORITHMS = (LSS_LRTA, SAFE_RTS, RTFS, SAFE_LSS_LRTA)

INITIAL_PROOF_BUDGET = 10                   # SafeRTS alternation seed
MAX_ITERATIONS = 100_000                    # episode guard: iterations before giving up


@dataclass(frozen=True)
class PlannerConfig:
    algorithm: str = LSS_LRTA
    iteration_bound: int = 100
    exploration_ratio: float = 0.5          # RTFS only
    evaluator: Evaluator = FCOST            # RTFS exploration strategy
    commit_mode: str = "single"             # 'single' | 'full'
    allow_budget_carryover: bool = True     # RTFS only

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.iteration_bound < 1:
            raise ValueError("iteration_bound must be >= 1 (rtss run --bound), "
                             f"not {self.iteration_bound}")
        if self.algorithm == RTFS and not 0.0 < self.exploration_ratio < 1.0:
            raise ValueError("exploration_ratio (rtss run --ratio, spec key ratio) must lie "
                             f"strictly inside (0, 1), not {self.exploration_ratio}")
        if self.commit_mode not in ("single", "full"):
            raise ValueError("commit_mode must be 'single' or 'full'")


@dataclass
class IterationReport:
    outcome: str = "advanced"               # advanced | goal | failure | terminated
    bound: int = 0
    expansions_goal: int = 0
    expansions_proof: int = 0
    proofs_attempted: int = 0
    proofs_succeeded: int = 0
    proofs_exhausted: int = 0
    proofs_budget_out: int = 0
    committed_actions: tuple = ()
    target_open_rank: Optional[int] = None  # 1 = top of open
    identity_action_taken: bool = False
    phases: tuple = ()                      # (('explore', n) | ('proof', n), ...)

    @property
    def unused_budget(self) -> int:
        return self.bound - self.expansions_goal - self.expansions_proof

    def log(self, phase: str, n: int) -> None:
        """Charge n expansions to an 'explore' or 'proof' phase."""
        if phase == "explore":
            self.expansions_goal += n
        else:
            self.expansions_proof += n
        self.phases += ((phase, n),)

    def log_proofs(self, results) -> None:
        n = 0
        for res in results:
            n += res.expansions
            self.proofs_attempted += 1
            if isinstance(res, Proven):
                self.proofs_succeeded += 1
            elif isinstance(res, Exhausted):
                self.proofs_exhausted += 1
            else:
                self.proofs_budget_out += 1
        self.log("proof", n)


@dataclass
class EpisodeResult:
    outcome: str                            # goal | failure | terminated | max_iterations
    actions: list
    reports: list

    @property
    def iterations(self) -> int:
        return len(self.reports)


def safe_toward_best(graph: SearchGraph) -> Optional[tuple[Any, int]]:
    """Pick the commit target under the safe-toward-best rule.

    Open nodes are scanned best-first; the first whose root path carries a
    safe node decides the outcome, and the target is the deepest safe node
    on that path (the node itself, when it is safe). Returns (target,
    1-based open rank) or None. A path whose only safe node is the root
    offers no progress and does not qualify.

    The scan ranks the open list by the iteration's own exploration
    evaluator, so a weighted or greedy search commits toward the frontier
    it actually built; under the astar evaluator that is plain f order.
    """
    nodes = graph.nodes
    root = graph.root
    for rank, node in enumerate(graph.open_nodes_in_key_order(), start=1):
        cur = node
        while cur.state != root:    # the parent chain leads to the root (e)
            if cur.safety == _SAFE:
                return cur.state, rank
            cur = nodes[cur.parent[0]]
    return None


def allocate_proofs_rtfs0(graph: SearchGraph,
                          budget_limit: int) -> tuple[list[ProofResult], list]:
    """The RTFS-0 proof allocator: prove the best open node, prune on
    exhaustion and move to the next best, stop on success or budget out.
    Each prune is followed by a dead-end pass: full the first time, then
    from the predecessors of the nodes the prune marked, which is exact:
    past a fixpoint only the prune marks, and a successor left unstamped
    was flagged before its parent's expansion, so new flags change no test.

    Returns (results, proven_paths); the results' expansions sum to the
    expansions used.
    """
    results: list[ProofResult] = []
    proven_paths: list = []
    used = 0
    while used < budget_limit:
        best = next(graph.open_nodes_in_key_order(), None)
        if best is None:
            break
        res = prove_safety(best.state, budget_limit - used, graph.domain,
                           graph.cache, known_safe=graph.safety_lookup)
        used += res.expansions
        results.append(res)
        if isinstance(res, Proven):
            proven_paths.append(res.path)
            break
        if isinstance(res, BudgetOut):
            break
        cache_dead_ends(graph.cache, res)
        pruned = prune_exhausted(graph, res)
        propagate_dead_ends(graph, graph.touched if len(results) == 1 else
                            [graph.nodes[p] for n in pruned for p, _cost in n.preds])
    return results, proven_paths


def _explore(graph: SearchGraph, limit: int, report: IterationReport) -> ExpansionOutcome:
    """Goal search for up to limit expansions under the iteration's
    evaluator, logged as one explore phase; stops on a popped goal."""
    budget = ExpansionBudget(limit)
    outcome = expand_best_first(graph, graph.evaluator, budget, graph.domain,
                                cache=graph.cache)
    report.log("explore", budget.used)
    return outcome


def _safe_rts_search(graph: SearchGraph,
                     report: IterationReport) -> tuple[ExpansionOutcome, list]:
    """SafeRTS's search phase.

    Goal search and safety proofs alternate inside one shared expansion
    bound: explore for b expansions, then try to prove the node currently
    on top of open with the same allowance. A success resets b to its
    initial value and remembers the proven path; any failure doubles b.
    """
    b = INITIAL_PROOF_BUDGET
    proven_paths: list = []
    outcome = BUDGET_EXHAUSTED
    unused = report.unused_budget
    while unused > 0:
        outcome = _explore(graph, min(b, unused), report)
        unused = report.unused_budget
        if outcome is not BUDGET_EXHAUSTED or unused <= 0:
            break
        target = select_best_f(graph)
        if target is None:
            return OPEN_EMPTY, proven_paths
        res = prove_safety(target, min(b, unused), graph.domain,
                           graph.cache, known_safe=graph.safety_lookup)
        report.log_proofs((res,))
        unused -= res.expansions
        if isinstance(res, Proven):
            proven_paths.append(res.path)
            b = INITIAL_PROOF_BUDGET
        else:
            if isinstance(res, Exhausted):
                cache_dead_ends(graph.cache, res)
                if graph.cache.enabled:
                    prune_exhausted(graph, res)
            b *= 2
    return outcome, proven_paths


def _rtfs_search(graph: SearchGraph, config: PlannerConfig,
                 report: IterationReport) -> tuple[ExpansionOutcome, list]:
    """RTFS's search phase: build the whole local search space first, then
    spend the rest of the bound on safety proofs.

    The exploration ratio splits the bound; with carryover enabled the
    unused remainder is reported so the driver can add it to the next
    iteration, otherwise it is re-split by the same ratio within this one.
    """
    proven_paths: list = []
    outcome = BUDGET_EXHAUSTED
    # without carryover, the remainder is re-split by the same ratio until it
    # is gone or a slice makes no progress; the first slice explores at least
    # one node, or a bound too small for the ratio would never leave the root
    leftover = report.bound
    explore_budget = max(int(leftover * config.exploration_ratio), 1)
    while leftover > 0:
        if explore_budget > 0:
            outcome = _explore(graph, explore_budget, report)
            if outcome is not BUDGET_EXHAUSTED:
                break
        if leftover > explore_budget:
            results, paths = allocate_proofs_rtfs0(graph, leftover - explore_budget)
            report.log_proofs(results)
            proven_paths.extend(paths)
        if config.allow_budget_carryover or report.unused_budget == leftover:
            break
        leftover = report.unused_budget
        explore_budget = int(leftover * config.exploration_ratio)
    return outcome, proven_paths


def learn(graph: SearchGraph, config: PlannerConfig, proven_paths: list) -> None:
    """What an iteration learns from its search: back h up over the closed
    nodes, then, for RTFS, propagate dead ends, and, for SafeRTS and RTFS,
    mark the proven paths safe and close safety backwards over the graph.
    The dead-end pass seeds from unexpanded terminal nodes only. That is
    exact: an unexpanded node passes the test only as a terminal, and an
    expanded node whose successors all end dead was relaxed by none of
    them, so the backup marked it (h is infinite only without successors)."""
    dijkstra_h_update(graph)
    if config.algorithm == RTFS:
        is_terminal = graph.domain.is_terminal
        propagate_dead_ends(graph, [n for n in graph.touched
                                    if not n.expanded and is_terminal(n.state)])
    if config.algorithm in (SAFE_RTS, RTFS):
        propagate_safety(graph, proven_paths)


def _finish(graph: SearchGraph, config: PlannerConfig, report: IterationReport,
            outcome: ExpansionOutcome, proven_paths: list) -> IterationReport:
    """The iteration tail every planner shares.

    A popped goal commits its whole path, and an emptied open list is a
    failure; neither learns first. Otherwise the iteration learns, then
    picks its target: the best open node for the LSS planners, the
    safe-toward-best node for SafeRTS and RTFS. Without a target, SafeRTS
    alone falls back to the identity action; otherwise the safe planners
    terminate and LSS-LRTA* fails.
    """
    safe = config.algorithm in (SAFE_RTS, RTFS)
    rank = None
    if outcome.kind == "goal":
        report.outcome = "goal"
        target = outcome.goal
    elif outcome is OPEN_EMPTY:
        report.outcome = "failure"
        return report
    else:
        learn(graph, config, proven_paths)
        if safe:
            selection = safe_toward_best(graph)
        else:
            target = select_best_f(graph)
            selection = None if target is None else (target, 1)
        if selection is None:
            identity = (graph.domain.identity_action(graph.root)
                        if config.algorithm == SAFE_RTS else None)
            if identity is None:
                report.outcome = "terminated" if safe else "failure"
            else:
                report.committed_actions = (identity,)
                report.identity_action_taken = True
            return report
        target, rank = selection
        report.target_open_rank = rank
    actions = path_to(graph, target)
    if rank is not None and config.commit_mode == "single":
        actions = actions[:1]
    report.committed_actions = tuple(actions)
    return report


class SafeFilteredDomain:
    """Domain wrapper hiding successors an ideal detector knows are dead."""

    def __init__(self, domain, safe_states: set):
        self._domain = domain
        self._safe = safe_states

    def successors(self, state):
        return [(a, s2, c) for a, s2, c in self._domain.successors(state)
                if s2 in self._safe]

    def __getattr__(self, name):
        # runs only on a miss: keep what it finds, so the next lookup of h,
        # is_goal or f_safe is a plain instance attribute
        value = getattr(self._domain, name)
        setattr(self, name, value)
        return value


def iteration_step(graph: SearchGraph, config: PlannerConfig,
                   bound: int) -> IterationReport:
    """One planner iteration: the planner's search phase within the bound,
    then the shared tail that learns and commits."""
    report = IterationReport(bound=bound)
    if config.algorithm == SAFE_RTS:
        outcome, proven_paths = _safe_rts_search(graph, report)
    elif config.algorithm == RTFS:
        outcome, proven_paths = _rtfs_search(graph, config, report)
    else:
        outcome, proven_paths = _explore(graph, bound, report), []
    return _finish(graph, config, report, outcome, proven_paths)


def apply_action(domain, state, action):
    for a, s2, _cost in domain.successors(state):
        if a == action:
            return s2
    raise ValueError(f"action {action!r} is not applicable in state {state!r}")


@contextmanager
def collector_off():
    """Suspend the garbage collector, and re-enable it on the way out if it
    was enabled on the way in. For work that builds only acyclic dicts,
    sets, lists and tuples: reference counting frees all it drops, and a
    collection would only scan the growing structures to find nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@collector_off()
def run_episode(domain, start, config: PlannerConfig,
                cache: Optional[DeadEndCache] = None,
                max_iterations: int = MAX_ITERATIONS) -> EpisodeResult:
    """Drive planner iterations from start until goal, failure, termination,
    or the iteration guard trips. Committed actions are applied against the
    domain dynamics as the agent moves.

    The episode runs with the collector off: the search graph is acyclic
    (nodes refer to states, never to other nodes).
    """
    if max_iterations < 1:
        raise ValueError(f"--max-iterations must be >= 1, not {max_iterations}")
    graph = SearchGraph(domain, config.evaluator if config.algorithm == RTFS else FCOST,
                        cache or DeadEndCache())
    carry = config.algorithm == RTFS and config.allow_budget_carryover
    state = start
    actions: list = []
    reports: list = []
    carryover = 0
    while True:
        if domain.is_goal(state):
            return EpisodeResult("goal", actions, reports)
        if len(reports) >= max_iterations:
            return EpisodeResult("max_iterations", actions, reports)
        graph.begin_iteration(state)
        report = iteration_step(graph, config, config.iteration_bound + carryover)
        reports.append(report)
        if report.outcome in ("failure", "terminated"):
            return EpisodeResult(report.outcome, actions, reports)
        for action in report.committed_actions:
            state = apply_action(domain, state, action)
            actions.append(action)
        carryover = report.unused_budget if carry else 0


@collector_off()
def offline_astar(domain, start) -> Optional[tuple[list, float, int]]:
    """Full A* to the goal; returns (actions, cost, expansions) or None when
    the space exhausts without one. Same tie-breaking as the online search.
    Runs with the collector off: its tables hold states, numbers and
    (state, action) pairs."""
    g_best = {start: 0.0}
    parent: dict = {start: None}
    heap = [(domain.h(start), 0.0, 0, start)]
    seq = 0
    expansions = 0
    while heap:
        f, neg_g, _, state = heappop(heap)
        g = -neg_g
        if g > g_best.get(state, math.inf):
            continue
        expansions += 1
        if domain.is_goal(state):
            path = []
            cur = state
            while parent[cur] is not None:
                prev, action = parent[cur]
                path.append(action)
                cur = prev
            path.reverse()
            return path, g, expansions
        if expansions >= 10_000_000:
            raise RuntimeError("offline A* expansion limit exceeded")
        for action, s2, cost in domain.successors(state):
            g2 = g + cost
            if g2 < g_best.get(s2, math.inf):
                g_best[s2] = g2
                parent[s2] = (state, action)
                seq += 1
                heappush(heap, (g2 + domain.h(s2), -g2, seq, s2))
    return None
