"""Property suites checking the safety machinery against brute force.

Four structural properties of local search spaces are exercised on seeded
small worlds (alternating Airspace instances and random DAGs):

  closure-completeness  a closed node whose proof stays inside the closed
                        space and ends at a discovered state the safety
                        predicate accepts (or a goal) is marked safe by
                        propagation alone, with zero proof expansions
  frontier-advantage    an unmarked closed node is always harder to prove
                        than some open node (strictly shorter optimal proof
                        on the frontier)
  subsumed-proofs       supplying a proof of an ancestor along with the
                        proof of its descendant marks exactly the same set
                        as the descendant's proof alone
  coverage-monotone     certifying the provable nodes of a small LSS costs
                        no more proof expansions in any larger LSS grown by
                        the same evaluator

plus soundness: after a few proofs and the planners' learning step
(`planners.learn`, RTFS config), every safe mark is truly goal-reachable,
every dead-end flag truly goal-unreachable, and no proof expands a flagged
state. The reference side is always an independent breadth-first oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .domains import airspace
from .domains.oracles import optimal_proof_oracle, optimal_proof_path, true_safe_set
from .domains.synthetic import random_dag
from .planners import RTFS, PlannerConfig, learn
from .rng import SplitMix64, mix64
from .safety import (DeadEndCache, Exhausted, Proven, cache_dead_ends,
                     propagate_safety, prove_safety, prune_exhausted)
from .search import (_SAFE, FCOST, ExpansionBudget, SafetyStatus, SearchGraph,
                     expand_best_first)

SUITES = ("theorems", "oracles", "all")


@dataclass
class Check:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def note(self, ok: bool, detail: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(detail)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" first failure: {self.failures[0]}" if self.failures else ""
        return f"{status}  {self.name}  ({self.checked} assertions," \
               f" {len(self.failures)} failures){extra}"


def _make_instance(index: int):
    """Seeded small world plus a root and an expansion budget."""
    rng = SplitMix64(mix64(2024 ^ index))
    if index % 2 == 0:
        length = 20 + rng.randrange(31)
        max_alt = 4 + rng.randrange(5)
        p_obs = 0.10 + 0.25 * rng.uniform()
        inst = airspace.generate(length, max_alt, p_obs, rng.u64())
        altitude = 2 + rng.randrange(max_alt - 1)
        root = inst.sample_state(altitude, rng) or (0, 0)
        budget = 8 + rng.randrange(33)
        return inst, root, budget
    size = 40 + rng.randrange(81)
    dag = random_dag(rng.u64(), size=size,
                     edge_chance=0.04 + 0.08 * rng.uniform(),
                     hint_fraction=0.08 + 0.15 * rng.uniform())
    return dag, 0, 6 + rng.randrange(25)


def _build_lss(domain, root, budget: int, cache: DeadEndCache) -> SearchGraph:
    graph = SearchGraph(domain, FCOST, cache)
    graph.begin_iteration(root)
    expand_best_first(graph, FCOST, ExpansionBudget(budget), domain, cache=cache)
    return graph


def _restricted_proof_exists(graph: SearchGraph, state) -> bool:
    """Oracle: is there a proof of state through expanded nodes only, ending
    at a discovered explicitly safe node, one the domain's predicate accepts
    or a goal? The predicate is asked directly, never a node's safety mark,
    which is what the code under test writes."""
    nodes = graph.nodes
    stamp = graph.stamp
    domain = graph.domain

    def explicit(s):
        node = nodes.get(s)
        return (node is not None and node.stamp == stamp
                and (domain.f_safe(s) or domain.is_goal(s)))

    if explicit(state):
        return True
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        node = nodes.get(s)
        if node is None or node.stamp != stamp or not node.expanded or not node.succs:
            continue
        for _a, s2, _c in node.succs:
            if s2 in seen:
                continue
            seen.add(s2)
            if explicit(s2):
                return True
            frontier.append(s2)
    return False


def check_closure_completeness(instances, check: Check) -> None:
    for domain, root, budget in instances:
        graph = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
        propagate_safety(graph, [])
        for node in graph.touched:
            if not node.expanded or domain.is_goal(node.state):
                continue
            if _restricted_proof_exists(graph, node.state):
                check.note(node.safety == _SAFE,
                           f"{domain.instance_id}: {node.state!r} has an internal "
                           f"proof but was not marked")


def check_frontier_advantage(instances, check: Check) -> None:
    for domain, root, budget in instances:
        graph = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
        propagate_safety(graph, [])
        open_proofs = [optimal_proof_oracle(domain, n.state)
                       for n in graph.touched if n.on_open]
        best_open = min((p for p in open_proofs if p is not None), default=None)
        for node in graph.touched:
            if not node.expanded or domain.is_goal(node.state):
                continue
            if node.safety != SafetyStatus.UNKNOWN:
                continue
            px = optimal_proof_oracle(domain, node.state)
            if px is None:
                continue
            check.note(best_open is not None and best_open < px,
                       f"{domain.instance_id}: closed {node.state!r} has proof "
                       f"size {px} but best open proof is {best_open}")


def check_subsumed_proofs(instances, check: Check) -> None:
    for domain, root, budget in instances:
        graph = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
        pick = None
        for node in graph.open_nodes_in_f_order():
            if node.parent is None:
                continue
            tail = optimal_proof_path(domain, node.state)
            if tail is not None:
                pick = (node, tail)
                break
        if pick is None:
            continue
        node, tail = pick
        ancestor_path = [node.state]
        cur = node
        while cur.parent is not None:
            cur = graph.nodes[cur.parent[0]]
            ancestor_path.append(cur.state)
        ancestor_path.reverse()              # root .. y
        proof_y = tuple(tail)
        proof_x = tuple(ancestor_path[:-1]) + proof_y

        def marked_set(paths):
            g = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
            propagate_safety(g, paths)
            return {n.state for n in g.touched if n.safety == _SAFE}

        both = marked_set([proof_x, proof_y])
        only_suffix = marked_set([proof_y])
        check.note(both == only_suffix,
                   f"{domain.instance_id}: ancestor proof changed the marked set "
                   f"({len(both)} vs {len(only_suffix)} nodes)")


def _certify_cost(domain, root, budget: int, targets) -> int:
    """Proof expansions to certify the targets given the LSS of `budget`
    expansions: each target is proven independently, consulting the graph's
    propagated safety marks, so closure-covered targets cost nothing."""
    graph = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
    propagate_safety(graph, [])
    total = 0
    for t in targets:
        res = prove_safety(t, 1_000_000, domain, DeadEndCache(),
                           known_safe=graph.safety_lookup)
        if not isinstance(res, Proven):
            raise AssertionError(f"provable target {t!r} failed its proof")
        total += res.expansions
    return total


def check_coverage_monotone(instances, check: Check) -> None:
    for domain, root, budget in instances:
        small = _build_lss(domain, root, budget, DeadEndCache(enabled=False))
        targets = sorted((n.state for n in small.touched
                          if optimal_proof_oracle(domain, n.state) is not None),
                         key=repr)
        if not targets:
            continue
        costs = [_certify_cost(domain, root, b, targets)
                 for b in (budget, budget * 2, budget * 4)]
        check.note(costs[0] >= costs[1] >= costs[2],
                   f"{domain.instance_id}: certification costs {costs} "
                   f"increase as the LSS grows")


def check_soundness(instances, check: Check) -> None:
    for domain, root, budget in instances:
        cache = DeadEndCache(enabled=True)
        graph = _build_lss(domain, root, budget, cache)
        proven = []
        for node in graph.open_nodes_in_f_order()[:4]:
            if node.state in cache.blocked:
                continue
            res = prove_safety(node.state, 200, domain, cache,
                               known_safe=graph.safety_lookup)
            if isinstance(res, Proven):
                proven.append(res.path)
            elif isinstance(res, Exhausted):
                cache_dead_ends(cache, res)
                prune_exhausted(graph, res)
        learn(graph, PlannerConfig(RTFS), proven)
        truth = true_safe_set(domain, roots=[root])
        for node in graph.nodes.values():
            if node.safety == _SAFE:
                check.note(node.state in truth,
                           f"{domain.instance_id}: {node.state!r} marked safe "
                           f"but goal-unreachable")
        for state in sorted(cache.flags, key=repr):
            check.note(state not in truth,
                       f"{domain.instance_id}: {state!r} flagged dead "
                       f"but goal-reachable")
        check.note(cache.dead_reexpansions == 0,
                   f"{domain.instance_id}: search expanded a flagged state")


def run_suite(suite: str, seeds: int) -> list[Check]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {seeds}")
    instances = [_make_instance(i) for i in range(seeds)]
    checks = []
    if suite in ("theorems", "all"):
        for name, fn in (("closure-completeness", check_closure_completeness),
                         ("frontier-advantage", check_frontier_advantage),
                         ("subsumed-proofs", check_subsumed_proofs),
                         ("coverage-monotone", check_coverage_monotone)):
            check = Check(name)
            fn(instances, check)
            checks.append(check)
    if suite in ("oracles", "all"):
        check = Check("safety-and-dead-end-soundness")
        check_soundness(instances, check)
        checks.append(check)
    return checks
