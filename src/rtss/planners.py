"""The planning algorithms: LSS-LRTA*, SafeRTS, and the RTFS scheme.

Each planner exposes a single-iteration step working on a shared
SearchGraph plus an episode driver that loops iterations, applies the
committed actions, and carries learned heuristics, safety marks, and the
dead-end cache from one iteration to the next. Two reference oracles ride
along: offline A* (the velocity upper bound) and Safe-LSS-LRTA*, an
LSS-LRTA* handed an ideal dead-end detector.
"""
from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Optional

from .safety import (BudgetOut, DeadEndCache, Exhausted, ProofResult, Proven,
                     cache_dead_ends, propagate_dead_ends, propagate_safety,
                     prove_safety, prune_exhausted)
from .search import (_SAFE, FCOST, Evaluator, ExpansionBudget, SearchGraph,
                     dijkstra_h_update, expand_best_first, path_to,
                     select_best_f)

LSS_LRTA = "lss-lrta"
SAFE_RTS = "safe-rts"
RTFS = "rtfs"
SAFE_LSS_LRTA = "safe-lss-lrta"

ALGORITHMS = (LSS_LRTA, SAFE_RTS, RTFS, SAFE_LSS_LRTA)

INITIAL_PROOF_BUDGET = 10                   # SafeRTS alternation seed


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
            raise ValueError("iteration_bound must be >= 1")
        if self.algorithm == RTFS and not 0.0 < self.exploration_ratio < 1.0:
            raise ValueError("exploration_ratio must lie strictly inside (0, 1)")
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
    unused_budget: int = 0
    phases: tuple = ()                      # (('explore', n) | ('proof', n), ...)

    def tally_proof(self, res: ProofResult) -> None:
        self.proofs_attempted += 1
        if isinstance(res, Proven):
            self.proofs_succeeded += 1
        elif isinstance(res, Exhausted):
            self.proofs_exhausted += 1
        else:
            self.proofs_budget_out += 1

    def end_search(self, phases) -> None:
        """Record the phase log and what is left of the bound."""
        self.phases = tuple(phases)
        self.unused_budget = self.bound - self.expansions_goal - self.expansions_proof


@dataclass
class EpisodeResult:
    outcome: str                            # goal | failure | terminated | max_iterations
    final_state: Any
    actions: list
    reports: list
    start: Any

    @property
    def iterations(self) -> int:
        return len(self.reports)


def evaluator_for(config: PlannerConfig) -> Evaluator:
    return config.evaluator if config.algorithm == RTFS else FCOST


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
        while cur is not None and cur.state != root:
            if cur.safety in _SAFE:
                return cur.state, rank
            cur = nodes[cur.parent[0]] if cur.parent is not None else None
    return None


def _prove_target(graph: SearchGraph, target, limit: int, domain,
                  cache: DeadEndCache) -> ProofResult:
    """Prove target within limit expansions; one already marked safe is free."""
    if graph.nodes[target].safety in _SAFE:
        return Proven((target,), 0)
    return prove_safety(target, limit, domain, cache,
                        known_safe=graph.safety_lookup)


def allocate_proofs_rtfs0(graph: SearchGraph, budget_limit: int, domain,
                          cache: DeadEndCache) -> tuple[list[ProofResult], int, list]:
    """The RTFS-0 proof allocator: prove the best open node, prune on
    exhaustion and move to the next best, stop on success or budget out.

    Returns (results, expansions_used, proven_paths).
    """
    results: list[ProofResult] = []
    proven_paths: list = []
    used = 0
    while used < budget_limit:
        best = next(graph.open_nodes_in_key_order(), None)
        if best is None:
            break
        res = _prove_target(graph, best.state, budget_limit - used, domain, cache)
        used += res.expansions
        results.append(res)
        if isinstance(res, Proven):
            proven_paths.append(res.path)
            break
        if isinstance(res, BudgetOut):
            break
        cache_dead_ends(cache, res)
        prune_exhausted(graph, res, cache)
        propagate_dead_ends(graph, domain, cache)
    return results, used, proven_paths


def _commit(report: IterationReport, graph: SearchGraph, target,
            config: PlannerConfig, rank: Optional[int] = None) -> IterationReport:
    """Commit toward target, reached from the open node of the given rank;
    a target without a rank is a goal, and its whole path is committed."""
    actions = path_to(graph, target)
    if rank is not None and config.commit_mode == "single":
        actions = actions[:1]
    report.committed_actions = tuple(actions)
    report.target_open_rank = rank
    return report


def _commit_goal(report: IterationReport, graph: SearchGraph, goal,
                 config: PlannerConfig, domain, cache) -> IterationReport:
    dijkstra_h_update(graph, domain, cache)
    report.outcome = "goal"
    return _commit(report, graph, goal, config)


def lss_lrta_iteration(graph: SearchGraph, config: PlannerConfig, domain,
                       cache: DeadEndCache,
                       bound: Optional[int] = None) -> IterationReport:
    """One LSS-LRTA* iteration: bounded A*, heuristic backup, commit toward
    the best frontier node (or straight to a popped goal)."""
    bound = bound or config.iteration_bound
    report = IterationReport(bound=bound)
    budget = ExpansionBudget(bound)
    outcome = expand_best_first(graph, graph.evaluator, budget, domain,
                                stop_on_goal=True, cache=cache)
    report.expansions_goal = budget.used
    report.end_search([("explore", budget.used)])
    if outcome.goal_found:
        return _commit_goal(report, graph, outcome.goal, config, domain, cache)
    target = select_best_f(graph)
    if target is None:
        report.outcome = "failure"
        return report
    dijkstra_h_update(graph, domain, cache)
    return _commit(report, graph, target, config, rank=1)


def safe_rts_iteration(graph: SearchGraph, config: PlannerConfig, domain,
                       cache: DeadEndCache,
                       bound: Optional[int] = None) -> IterationReport:
    """One SafeRTS iteration.

    Goal search and safety proofs alternate inside one shared expansion
    bound: explore for b expansions, then try to prove the node currently
    on top of open with the same allowance. A success resets b to its
    initial value and remembers the proven path; any failure doubles b.
    When the bound is spent, safety is propagated, the target is chosen by
    safe-toward-best, falling back to the identity action and finally to
    termination when no safe move exists.
    """
    bound = bound or config.iteration_bound
    report = IterationReport(bound=bound)
    b = INITIAL_PROOF_BUDGET
    proven_paths: list = []
    phases: list = []
    goal_state = None
    open_emptied = False
    while report.expansions_goal + report.expansions_proof < bound:
        remaining = bound - report.expansions_goal - report.expansions_proof
        budget = ExpansionBudget(min(b, remaining))
        outcome = expand_best_first(graph, FCOST, budget, domain,
                                    stop_on_goal=True, cache=cache)
        report.expansions_goal += budget.used
        phases.append(("explore", budget.used))
        if outcome.goal_found:
            goal_state = outcome.goal
            break
        if outcome.kind == "open_empty":
            open_emptied = True
            break
        remaining = bound - report.expansions_goal - report.expansions_proof
        if remaining <= 0:
            break
        target = select_best_f(graph)
        if target is None:
            open_emptied = True
            break
        res = _prove_target(graph, target, min(b, remaining), domain, cache)
        report.tally_proof(res)
        report.expansions_proof += res.expansions
        phases.append(("proof", res.expansions))
        if isinstance(res, Proven):
            proven_paths.append(res.path)
            b = INITIAL_PROOF_BUDGET
        else:
            if isinstance(res, Exhausted):
                cache_dead_ends(cache, res, graph)
            b *= 2
    report.end_search(phases)
    if goal_state is not None:
        return _commit_goal(report, graph, goal_state, config, domain, cache)
    propagate_safety(graph, domain, proven_paths)
    selection = safe_toward_best(graph)
    if selection is not None:
        target, rank = selection
        dijkstra_h_update(graph, domain, cache)
        return _commit(report, graph, target, config, rank)
    identity = domain.identity_action(graph.root)
    if identity is not None and not open_emptied:
        dijkstra_h_update(graph, domain, cache)
        report.committed_actions = (identity,)
        report.identity_action_taken = True
        return report
    report.outcome = "failure" if open_emptied else "terminated"
    return report


def rtfs_iteration(graph: SearchGraph, config: PlannerConfig, domain,
                   cache: DeadEndCache,
                   bound: Optional[int] = None) -> IterationReport:
    """One RTFS iteration: build the whole local search space first, then
    spend the rest of the bound on safety proofs, then propagate h, dead
    ends, and safety before picking the safe-toward-best target.

    The exploration ratio splits the bound; with carryover enabled the
    unused remainder is reported so the driver can add it to the next
    iteration, otherwise it is re-split by the same ratio within this one.
    """
    bound = bound or config.iteration_bound
    report = IterationReport(bound=bound)
    phases: list = []
    proven_paths: list = []
    goal_state = None
    open_emptied = False

    def run_slice(explore_budget: int, safety_budget: int) -> None:
        nonlocal goal_state, open_emptied
        if explore_budget > 0:
            budget = ExpansionBudget(explore_budget)
            outcome = expand_best_first(graph, graph.evaluator, budget, domain,
                                        stop_on_goal=True, cache=cache)
            report.expansions_goal += budget.used
            phases.append(("explore", budget.used))
            if outcome.goal_found:
                goal_state = outcome.goal
                return
            if outcome.kind == "open_empty":
                open_emptied = True
                return
        if safety_budget > 0:
            results, used, paths = allocate_proofs_rtfs0(graph, safety_budget,
                                                         domain, cache)
            report.expansions_proof += used
            proven_paths.extend(paths)
            phases.append(("proof", used))
            for res in results:
                report.tally_proof(res)

    # without carryover, the remainder is re-split by the same ratio until it
    # is gone or a slice makes no progress; the first slice explores at least
    # one node, or a bound too small for the ratio would never leave the root
    leftover = bound
    explore_budget = max(int(bound * config.exploration_ratio), 1)
    while leftover > 0:
        run_slice(explore_budget, leftover - explore_budget)
        if goal_state is not None or open_emptied or config.allow_budget_carryover:
            break
        remaining = bound - report.expansions_goal - report.expansions_proof
        if remaining == leftover:
            break
        leftover = remaining
        explore_budget = int(leftover * config.exploration_ratio)
    report.end_search(phases)
    if goal_state is not None:
        return _commit_goal(report, graph, goal_state, config, domain, cache)
    if open_emptied:
        # an emptied open list leaves no open node to commit toward
        report.outcome = "failure"
        return report
    dijkstra_h_update(graph, domain, cache)
    propagate_dead_ends(graph, domain, cache)
    propagate_safety(graph, domain, proven_paths)
    selection = safe_toward_best(graph)
    if selection is None:
        report.outcome = "terminated"
        return report
    target, rank = selection
    return _commit(report, graph, target, config, rank)


class SafeFilteredDomain:
    """Domain wrapper hiding successors an ideal detector knows are dead."""

    def __init__(self, domain, safe_states: set):
        self._domain = domain
        self._safe = safe_states

    def successors(self, state):
        return [(a, s2, c) for a, s2, c in self._domain.successors(state)
                if s2 in self._safe]

    def __getattr__(self, name):
        return getattr(self._domain, name)


def iteration_step(graph: SearchGraph, config: PlannerConfig, domain,
                   cache: DeadEndCache, bound: Optional[int] = None) -> IterationReport:
    if config.algorithm in (LSS_LRTA, SAFE_LSS_LRTA):
        return lss_lrta_iteration(graph, config, domain, cache, bound)
    if config.algorithm == SAFE_RTS:
        return safe_rts_iteration(graph, config, domain, cache, bound)
    return rtfs_iteration(graph, config, domain, cache, bound)


def apply_action(domain, state, action):
    for a, s2, _cost in domain.successors(state):
        if a == action:
            return s2
    raise ValueError(f"action {action!r} is not applicable in state {state!r}")


def run_episode(domain, start, config: PlannerConfig,
                cache: Optional[DeadEndCache] = None,
                max_iterations: int = 100_000,
                graph: Optional[SearchGraph] = None) -> EpisodeResult:
    """Drive planner iterations from start until goal, failure, termination,
    or the iteration guard trips. Committed actions are applied against the
    domain dynamics as the agent moves.

    The garbage collector is suspended for the episode and re-enabled on
    the way out if it was enabled on the way in. The search graph is
    acyclic (nodes refer to states, never to other nodes), so reference
    counting frees all it drops, and a collection during the episode would
    only scan the growing graph to find nothing.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    cache = cache or DeadEndCache()
    if graph is None:
        graph = SearchGraph()
    evaluator = evaluator_for(config)
    state = start
    actions: list = []
    reports: list = []
    carryover = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        while True:
            if domain.is_goal(state):
                return EpisodeResult("goal", state, actions, reports, start)
            if len(reports) >= max_iterations:
                return EpisodeResult("max_iterations", state, actions, reports, start)
            bound = config.iteration_bound
            if config.algorithm == RTFS and config.allow_budget_carryover:
                bound += carryover
            graph.begin_iteration(state, evaluator, domain, cache)
            report = iteration_step(graph, config, domain, cache, bound)
            reports.append(report)
            if report.outcome in ("failure", "terminated"):
                return EpisodeResult(report.outcome, state, actions, reports, start)
            for action in report.committed_actions:
                state = apply_action(domain, state, action)
                actions.append(action)
            carryover = report.unused_budget if config.algorithm == RTFS else 0
    finally:
        if collecting:
            gc.enable()


def offline_astar(domain, start, expansion_limit: int = 10_000_000
                  ) -> Optional[tuple[list, float, int]]:
    """Full A* to the goal; returns (actions, cost, expansions) or None when
    the space exhausts without one. Same tie-breaking as the online search."""
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
        if expansions >= expansion_limit:
            raise RuntimeError("offline A* expansion limit exceeded")
        for action, s2, cost in domain.successors(state):
            g2 = g + cost
            if g2 < g_best.get(s2, math.inf):
                g_best[s2] = g2
                parent[s2] = (state, action)
                seq += 1
                heappush(heap, (g2 + domain.h(s2), -g2, seq, s2))
    return None
