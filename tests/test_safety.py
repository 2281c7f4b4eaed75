import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ListDomain, chain_domain, funnel_domain, random_h_dag
from rtss.domains import airspace, racetrack
from rtss.domains.oracles import reachable_states, true_safe_set
from rtss.safety import (BudgetOut, DeadEndCache, Exhausted, Proven,
                         cache_dead_ends, propagate_dead_ends, propagate_safety,
                         prove_safety)
from rtss.search import (_SAFE, FCOST, Evaluator, ExpansionBudget, SafetyStatus,
                         SearchGraph, expand_best_first)


def build(domain, root, budget, cache=None):
    if cache is None:
        cache = DeadEndCache(enabled=False)
    graph = SearchGraph(domain, FCOST, cache)
    graph.begin_iteration(root)
    expand_best_first(graph, FCOST, ExpansionBudget(budget), domain, cache=cache)
    return graph


# -- prove_safety --------------------------------------------------------------

def test_explicitly_safe_target_costs_nothing():
    inst = airspace.generate(50, 5, 0.0, 1)
    for state in ((7, 1), (3, 0)):
        res = prove_safety(state, 100, inst, DeadEndCache())
        assert isinstance(res, Proven)
        assert res.path == (state,)
        assert res.expansions == 0


def test_clear_column_descent_from_altitude_three():
    inst = airspace.generate(200, 5, 0.0, 1)
    res = prove_safety((10, 3), 100, inst, DeadEndCache())
    assert isinstance(res, Proven)
    # descent 3 -> 2 -> 1: three states, two transitions, safe endpoint
    assert res.path == ((10, 3), (12, 2), (13, 1))
    assert inst.f_safe(res.path[-1])


def test_funnel_exhausts_with_full_reachable_set():
    domain = funnel_domain()
    res = prove_safety("r", 100, domain, DeadEndCache())
    assert isinstance(res, Exhausted)
    # oracle: full forward reachability
    assert set(res.visited) == set(reachable_states(domain, ["r"]))


def test_budget_out_when_proof_is_too_deep():
    domain = chain_domain(30)  # goal far down the line counts as safe endpoint
    res = prove_safety(0, 5, domain, DeadEndCache())
    assert isinstance(res, BudgetOut)
    assert res.expansions == 5


def test_proof_rejects_flagged_target():
    cache = DeadEndCache(enabled=True)
    cache_dead_ends(cache, Exhausted(frozenset({"r"}), 0))
    with pytest.raises(ValueError):
        prove_safety("r", 5, funnel_domain(), cache)


def test_proof_never_generates_flagged_states():
    domain = funnel_domain()
    cache = DeadEndCache(enabled=True)
    cache_dead_ends(cache, Exhausted(frozenset({"m1"}), 0))
    res = prove_safety("r", 100, domain, cache)
    assert isinstance(res, Exhausted)
    assert "m1" not in res.visited
    assert cache.avoided_reexpansions == 1


def test_known_safe_lookup_ends_proof_early():
    domain = chain_domain(30)
    res = prove_safety(0, 50, domain, DeadEndCache(),
                       known_safe=lambda s: s == 3)
    assert isinstance(res, Proven)
    assert res.path == (0, 1, 2, 3)
    assert res.expansions == 3


# -- propagate_safety ------------------------------------------------------------

def test_single_path_marks_exactly_its_nodes():
    domain = chain_domain(10)
    graph = build(domain, 0, 3)
    path = (5, 6, 7)
    marked = propagate_safety(graph, [path])
    assert marked == 3
    for s in path:
        assert graph.nodes[s].safety == SafetyStatus.SAFE


def test_closure_marks_all_ancestor_chains():
    # safe node z reached by two discovered chains of lengths 3 and 5
    succ = {"a1": [("x", "a2", 1.0)], "a2": [("x", "a3", 1.0)],
            "a3": [("x", "z", 1.0)],
            "b1": [("x", "b2", 1.0)], "b2": [("x", "b3", 1.0)],
            "b3": [("x", "b4", 1.0)], "b4": [("x", "b5", 1.0)],
            "b5": [("x", "z", 1.0)],
            "r": [("x", "a1", 1.0), ("x", "b1", 1.0)],
            "z": []}
    domain = ListDomain(succ, safe={"z"})
    graph = build(domain, "r", 10)
    propagate_safety(graph, [])
    marked = {n.state for n in graph.touched if n.safety == _SAFE}
    assert marked == {"r", "a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "z"}


def test_subsumed_ancestor_proof_changes_nothing():
    # x = 3 is a graph ancestor of y = 6 and proof(x) extends proof(y); with
    # the x-to-y stretch inside the search graph, the closure from proof(y)
    # alone already covers everything proof(x) would add
    domain = chain_domain(12)
    proof_y = (6, 7, 8)
    proof_x = (3, 4, 5) + proof_y

    def marked_with(paths):
        graph = build(domain, 0, 9)  # expands 0..8, so 3..6 edges are discovered
        propagate_safety(graph, paths)
        return {s for s, n in graph.nodes.items() if n.safety == _SAFE}

    assert marked_with([proof_x, proof_y]) == marked_with([proof_y])


def test_dead_nodes_are_never_marked_safe():
    domain = chain_domain(6)
    graph = build(domain, 0, 2)
    graph.nodes[2].safety = SafetyStatus.DEAD_END
    propagate_safety(graph, [(2, 3)])
    assert graph.nodes[2].safety == SafetyStatus.DEAD_END


# -- propagate_dead_ends ---------------------------------------------------------

def test_terminal_non_goal_is_flagged():
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []})
    graph = build(domain, "r", 2, DeadEndCache())
    count = propagate_dead_ends(graph, graph.touched)
    assert count == 2  # the terminal and then the root
    assert graph.nodes["t"].safety == SafetyStatus.DEAD_END
    assert graph.nodes["r"].safety == SafetyStatus.DEAD_END


def test_one_live_successor_prevents_flagging():
    domain = ListDomain({"r": [("a", "t", 1.0), ("b", "live", 1.0)],
                         "t": [], "live": [("c", "more", 1.0)]})
    graph = build(domain, "r", 2, DeadEndCache())  # expands r, t
    propagate_dead_ends(graph, graph.touched)
    assert graph.nodes["t"].safety == SafetyStatus.DEAD_END
    assert graph.nodes["r"].safety != SafetyStatus.DEAD_END


def test_full_binary_tree_collapses():
    succ = {}
    for depth in range(3):
        for i in range(2 ** depth):
            node = (depth, i)
            succ[node] = [("l", (depth + 1, 2 * i), 1.0),
                          ("r", (depth + 1, 2 * i + 1), 1.0)]
    for i in range(8):
        succ[(3, i)] = []
    domain = ListDomain(succ)
    graph = build(domain, (0, 0), 15, DeadEndCache())
    count = propagate_dead_ends(graph, graph.touched)
    assert count == 15
    # oracle: brute-force backward closure over the explicit tree
    dead = {s for s, edges in succ.items() if not edges}
    changed = True
    while changed:
        changed = False
        for s, edges in succ.items():
            if s not in dead and edges and all(s2 in dead for _a, s2, _c in edges):
                dead.add(s)
                changed = True
    assert {n.state for n in graph.touched if n.safety == SafetyStatus.DEAD_END} == dead


def test_known_terminal_flagged_without_expansion():
    domain = ListDomain({"r": [("a", "crash", 1.0), ("b", "x", 1.0)],
                         "x": [("c", "y", 1.0)]},
                        terminal={"crash"})
    graph = build(domain, "r", 1, DeadEndCache())  # expands only r
    propagate_dead_ends(graph, graph.touched)
    assert graph.nodes["crash"].safety == SafetyStatus.DEAD_END
    assert not graph.nodes["crash"].expanded


def test_goals_are_never_flagged():
    domain = ListDomain({"r": [("a", "g", 1.0)], "g": []}, goals={"g"})
    graph = build(domain, "r", 2, DeadEndCache())
    propagate_dead_ends(graph, graph.touched)
    assert graph.nodes["g"].safety != SafetyStatus.DEAD_END
    assert graph.nodes["r"].safety != SafetyStatus.DEAD_END


def _dead_end_fixpoint(graph):
    """Brute force: re-test every touched node until nothing changes."""
    domain, cache = graph.domain, graph.cache
    stamp = graph.stamp
    dead = {n.state for n in graph.touched if n.safety == SafetyStatus.DEAD_END}

    def is_dead(s2):
        child = graph.nodes.get(s2)
        if child is not None and child.stamp == stamp:
            return s2 in dead
        return s2 in cache.blocked

    changed = True
    while changed:
        changed = False
        for node in graph.touched:
            if node.state in dead or domain.is_goal(node.state):
                continue
            if node.expanded:
                now_dead = all(is_dead(s2) for _a, s2, _c in node.succs)
            else:
                now_dead = domain.is_terminal(node.state)
            if now_dead:
                dead.add(node.state)
                changed = True
    return dead


def _world(kind, seed):
    if kind == "dag":
        return random_h_dag(seed), 0
    if kind == "airspace":
        inst = airspace.generate(40 + seed % 40, 4 + seed % 3, 0.15, seed)
        return inst, inst.start
    track = racetrack.right_turn_track()
    return track, track.start_state(track.sample_starts(1, seed)[0])


def _capturing(graphs: list):
    """A SearchGraph factory that keeps each graph an episode builds."""
    def make(*args):
        graphs.append(SearchGraph(*args))
        return graphs[-1]
    return make


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(("dag", "racetrack", "airspace")),
       seed=st.integers(0, 10_000),
       evaluator=st.sampled_from(("astar", "wastar:1.1", "greedy")),
       bound=st.integers(2, 30), cache_enabled=st.booleans())
def test_dead_end_propagation_reaches_the_brute_force_fixpoint(kind, seed, evaluator,
                                                               bound, cache_enabled):
    from rtss import planners
    domain, start = _world(kind, seed)
    config = planners.PlannerConfig("rtfs", bound, exploration_ratio=0.5,
                                    evaluator=Evaluator.parse(evaluator),
                                    allow_budget_carryover=seed % 2 == 0)
    propagate = planners.propagate_dead_ends

    # every pass, full or seeded, must land on the full fixpoint
    def checked(graph, seeds):
        expected = _dead_end_fixpoint(graph)
        flags = set(graph.cache.flags)
        before = {n.state for n in graph.touched if n.safety == SafetyStatus.DEAD_END}
        count = propagate(graph, seeds)
        dead = {n.state for n in graph.touched if n.safety == SafetyStatus.DEAD_END}
        assert dead == expected
        assert count == len(dead - before)
        assert graph.cache.flags == flags | (dead - before)
        assert not any(graph.nodes[s].on_open for s in dead)
        return count

    graphs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "propagate_dead_ends", checked)
        mp.setattr(planners, "SearchGraph", _capturing(graphs))
        planners.run_episode(domain, start, config,
                             cache=DeadEndCache(enabled=cache_enabled),
                             max_iterations=30)
    [graph] = graphs
    for node in graph.nodes.values():
        assert node.goal == domain.is_goal(node.state)


@pytest.mark.parametrize("kind", ["dag", "racetrack"])
def test_goal_slot_matches_the_domain_under_the_safe_filter(kind):
    from rtss import planners
    for seed in range(4):
        domain, start = _world(kind, seed)
        filtered = planners.SafeFilteredDomain(domain, true_safe_set(domain, roots=[start]))
        graphs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planners, "SearchGraph", _capturing(graphs))
            planners.run_episode(filtered, start,
                                 planners.PlannerConfig("safe-lss-lrta", 8),
                                 max_iterations=50)
        [graph] = graphs
        assert graph.nodes
        for node in graph.nodes.values():
            assert node.goal == filtered.is_goal(node.state) == domain.is_goal(node.state)


# -- cache_dead_ends --------------------------------------------------------------

def test_flagging_is_idempotent_set_semantics():
    cache = DeadEndCache()
    exhausted = Exhausted(frozenset(range(7)), expansions=7)
    assert cache_dead_ends(cache, exhausted) == 7
    assert cache_dead_ends(cache, exhausted) == 0
    assert len(cache.flags) == 7


def test_flagged_state_skipped_and_counted_by_goal_search():
    domain = chain_domain(6)
    cache = DeadEndCache(enabled=True)
    cache_dead_ends(cache, Exhausted(frozenset({3}), 1))
    graph = build(domain, 0, 10, cache=cache)
    assert all(n.state != 3 or n.stamp != graph.stamp for n in graph.touched)
    assert cache.avoided_reexpansions >= 1


def test_disabled_cache_records_but_does_not_block():
    domain = chain_domain(6)
    cache = DeadEndCache(enabled=False)
    cache_dead_ends(cache, Exhausted(frozenset({3}), 1))
    graph = build(domain, 0, 10, cache=cache)
    assert graph.nodes[3].expanded
    assert cache.dead_reexpansions == 1


def test_paired_cache_runs_identical_when_nothing_is_flagged():
    from rtss.harness import simulate_episode
    from rtss.planners import PlannerConfig
    for seed in (1, 2, 3):
        inst = airspace.generate(200, 6, 0.0, seed)  # obstacle free: no flags
        off, roff = simulate_episode(PlannerConfig("safe-rts", 30), inst,
                                     inst.start, seed=seed, cache_enabled=False)
        on, ron = simulate_episode(PlannerConfig("safe-rts", 30), inst,
                                   inst.start, seed=seed, cache_enabled=True)
        assert roff.actions == ron.actions
        assert on.total_expansions == off.total_expansions
        assert on.dead_end_reexpansion_ratio == off.dead_end_reexpansion_ratio == 0.0


def test_paired_cache_bookkeeping_with_flags():
    from rtss.harness import simulate_episode
    from rtss.planners import PlannerConfig
    inst = airspace.generate(300, 10, 0.1, 5)
    off, _ = simulate_episode(PlannerConfig("safe-rts", 50), inst, inst.start,
                              cache_enabled=False)
    on, _ = simulate_episode(PlannerConfig("safe-rts", 50), inst, inst.start,
                             cache_enabled=True)
    assert off.outcome == "goal" and on.outcome == "goal"
    # with the cache off the ratio numerator is observed; with it on the
    # blocked states never reach expansion
    assert off.dead_end_reexpansion_ratio > 0.0
    assert on.dead_end_reexpansion_ratio == 0.0
