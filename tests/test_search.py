import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ListDomain, chain_domain, random_h_dag
from rtss.domains import airspace
from rtss.domains.oracles import reachable_states
from rtss.domains.racetrack import right_turn_track
from rtss.domains.synthetic import random_dag
from rtss.rng import SplitMix64
from rtss.safety import DeadEndCache, Exhausted, cache_dead_ends, propagate_dead_ends
from rtss.search import (FCOST, Evaluator, ExpansionBudget, SafetyStatus,
                         SearchGraph, dijkstra_h_update, expand_best_first,
                         path_to, select_best_f)


def build(domain, root, budget, evaluator=FCOST, cache=None):
    if cache is None:
        cache = DeadEndCache(enabled=False)
    graph = SearchGraph(domain, evaluator, cache)
    graph.begin_iteration(root)
    outcome = expand_best_first(graph, evaluator, ExpansionBudget(budget), domain,
                                cache=cache)
    return graph, outcome


# -- node creation -------------------------------------------------------------

@pytest.mark.parametrize("world", ["airspace", "racetrack"])
def test_touch_builds_a_new_node_as_lookup_then_restamp_did(world):
    # touch builds a new state's node stamped in one step; it must match, slot
    # for slot, a node built unstamped by ensure_node and then touched
    if world == "airspace":
        domain = airspace.generate(12, 3, 0.2, 1)
        root = domain.start
    else:
        domain = right_turn_track()
        root = domain.start_state(domain.starts[0])
    states = [s for s in reachable_states(domain, [root]) if s != root]
    assert any(domain.is_goal(s) for s in states)
    assert any(domain.f_safe(s) for s in states)
    if world == "racetrack":
        assert any(domain.is_terminal(s) for s in states)      # crashed
    one_step, two_step = (SearchGraph(domain, FCOST, DeadEndCache(enabled=True))
                          for _ in range(2))
    for graph in (one_step, two_step):
        graph.begin_iteration(root)
    for state in states:
        touched = len(one_step.touched)
        node = one_step.touch(state, None)
        assert one_step.nodes[state] is node and one_step.touched[touched:] == [node]
        assert one_step.touch(state, node) is node and len(one_step.touched) == touched + 1
        goal = domain.is_goal(state)
        assert node.h == domain.h(state) and node.goal == goal
        assert node.safety == (SafetyStatus.SAFE
                               if goal or domain.f_safe(state) else SafetyStatus.UNKNOWN)
        assert math.isinf(node.g) and node.parent is None and node.preds == []
        assert node.stamp == one_step.stamp and node.succs is None
        assert not node.on_open and not node.expanded and node.open_seq == -1
        old = two_step.ensure_node(state)
        assert old.stamp == 0 and two_step.touch(state, old) is old
        assert ({slot: getattr(node, slot) for slot in node.__slots__}
                == {slot: getattr(old, slot) for slot in old.__slots__})
    assert len(one_step.touched) == len(two_step.touched) == len(states) + 1


# -- expand_best_first ---------------------------------------------------------

def test_chain_budget_two_expands_first_two():
    domain = chain_domain(5)
    graph, outcome = build(domain, 0, 2)
    assert outcome.kind == "budget"
    expanded = {n.state for n in graph.touched if n.expanded}
    assert expanded == {0, 1}
    top = select_best_f(graph)
    node = graph.nodes[top]
    assert top == 2 and node.g + node.h == 4.0


def test_zero_budget_leaves_graph_unchanged():
    domain = chain_domain(5)
    graph, outcome = build(domain, 0, 0)
    assert outcome.kind == "budget"
    assert all(not n.expanded for n in graph.touched)
    assert [n.state for n in graph.touched if n.on_open] == [0]


def test_goal_root_stops_with_one_expansion():
    domain = chain_domain(5)
    graph = SearchGraph(domain, FCOST, DeadEndCache(enabled=False))
    graph.begin_iteration(4)
    budget = ExpansionBudget(10)
    outcome = expand_best_first(graph, FCOST, budget, domain, cache=graph.cache)
    assert outcome.kind == "goal" and outcome.goal == 4
    assert budget.used == 1


def test_open_empty_signals_failure():
    domain = ListDomain({"r": [("a", "x", 1.0)], "x": []}, h={"r": 0, "x": 0})
    graph, outcome = build(domain, "r", 10)
    assert outcome.kind == "open_empty"


class RaisingDomain(ListDomain):
    def successors(self, state):
        if state == "a":
            raise RuntimeError("successor generation failed")
        return super().successors(state)


def test_a_raising_domain_leaves_no_sequence_number_to_reuse():
    # the loop counts in locals; they must reach the graph and the budget even
    # when the domain raises, or a later push could repeat a live open_seq
    domain = RaisingDomain({"r": [("ra", "a", 1.0), ("rb", "b", 2.0)], "a": [], "b": []})
    graph = SearchGraph(domain, FCOST, DeadEndCache(enabled=False))
    graph.begin_iteration("r")
    budget = ExpansionBudget(5)
    with pytest.raises(RuntimeError):
        expand_best_first(graph, FCOST, budget, domain, cache=graph.cache)
    assert graph._seq == max(entry[-2] for entry in graph.open) == 3
    assert budget.used == 2


def test_flagged_successors_never_enter_open():
    domain = chain_domain(5)
    cache = DeadEndCache(enabled=True)
    cache_dead_ends(cache, Exhausted(frozenset({2}), 0))
    graph, outcome = build(domain, 0, 10, cache=cache)
    assert outcome.kind == "open_empty"
    assert 2 not in graph.nodes or graph.nodes[2].stamp != graph.stamp
    assert cache.avoided_reexpansions >= 1


def test_open_empty_leaves_no_touched_node_on_open():
    # RTFS reads an open_empty outcome as "no open node left to commit
    # toward" without rescanning the touched set; this is what makes that safe
    for seed in range(40):
        domain = random_dag(seed, size=40, edge_chance=0.1)
        evaluator = (FCOST, Evaluator("wastar", 1.5), Evaluator("greedy"))[seed % 3]
        cache = DeadEndCache(enabled=seed % 2 == 0)
        graph = SearchGraph(domain, evaluator, cache)
        graph.begin_iteration(0)
        # random_dag goals are sinks, so going on past a popped goal builds
        # the graph that expanding straight through it would
        budget = ExpansionBudget(3)
        while expand_best_first(graph, evaluator, budget, domain,
                                cache=cache).kind == "goal":
            pass
        # flag part of the open list so that some pops hit blocked states
        for node in graph.touched[1::2]:
            if node.on_open:
                cache_dead_ends(cache, Exhausted(frozenset({node.state}), 0))
        budget = ExpansionBudget(10_000)
        outcome = expand_best_first(graph, evaluator, budget, domain, cache=cache)
        while outcome.kind == "goal":
            outcome = expand_best_first(graph, evaluator, budget, domain, cache=cache)
        assert outcome.kind == "open_empty"
        assert not any(n.on_open for n in graph.touched)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_dead_node_stays_dead_in_a_later_iteration_only_through_the_cache(enabled):
    # touch re-stamps a node from an earlier iteration; it keeps a dead mark
    # only while the graph's own cache is enabled, and so blocks the state
    domain = ListDomain({"r": [("a", "t", 1.0), ("b", "x", 1.0)], "t": [],
                         "x": [("c", "y", 1.0)]},
                        h={"r": 1.0, "t": 0.5, "x": 1.0, "y": 0.5})
    graph, _ = build(domain, "r", 2, cache=DeadEndCache(enabled=enabled))  # r, t
    assert propagate_dead_ends(graph, graph.touched) == 1
    dead = graph.nodes["t"]
    assert dead.safety == SafetyStatus.DEAD_END and math.isinf(dead.h)
    graph.begin_iteration("r")
    expand_best_first(graph, FCOST, ExpansionBudget(1), domain, cache=graph.cache)
    if enabled:
        # never generated again; re-stamping it by hand keeps it dead
        assert dead.stamp != graph.stamp and not dead.on_open
        assert graph.touch("t", dead) is dead and dead.stamp == graph.stamp
        assert dead.safety == SafetyStatus.DEAD_END and math.isinf(dead.h)
        assert not dead.on_open
    else:
        assert dead.stamp == graph.stamp
        assert dead.safety == SafetyStatus.UNKNOWN and dead.h == domain.h("t") == 0.5
        assert dead.on_open and dead.g == 1.0


# -- select_best_f -------------------------------------------------------------

def test_select_smallest_f():
    domain = ListDomain({"r": [("a", "a", 1.0), ("b", "b", 1.0)]},
                        h={"r": 0, "a": 2, "b": 4})
    graph, _ = build(domain, "r", 1)
    assert select_best_f(graph) == "a"


def test_select_tie_breaks_toward_high_g():
    domain = ListDomain({"r": [("a", "a", 1.0), ("b", "b", 2.0)]},
                        h={"r": 0, "a": 2, "b": 1})
    graph, _ = build(domain, "r", 1)
    # both f = 3; b has g = 2
    assert select_best_f(graph) == "b"


def test_select_empty_open_returns_none():
    domain = ListDomain({"r": []}, h={"r": 0})
    graph, _ = build(domain, "r", 5)
    assert select_best_f(graph) is None


# -- dijkstra_h_update ---------------------------------------------------------

def test_single_edge_backup():
    domain = ListDomain({"r": [("a", "x", 1.0)], "x": [("b", "y", 1.0)]},
                        h={"r": 0.0, "x": 0.0, "y": 3.0})
    graph, _ = build(domain, "r", 2)  # expands r and x; y on the frontier
    dijkstra_h_update(graph)
    assert graph.nodes["x"].h == 4.0
    assert graph.nodes["r"].h == 5.0


def test_unreachable_from_frontier_goes_infinite():
    domain = ListDomain({"r": [("a", "t", 1.0), ("b", "x", 1.0)], "t": [],
                         "x": [("c", "y", 1.0)]},
                        h={"r": 0, "t": 0, "x": 0, "y": 5})
    graph, _ = build(domain, "r", 3)  # expands r, t, x
    dijkstra_h_update(graph)
    assert math.isinf(graph.nodes["t"].h)
    assert graph.nodes["t"].safety == SafetyStatus.DEAD_END


def test_consistent_chain_needs_no_changes():
    domain = chain_domain(5)
    graph, _ = build(domain, 0, 2)
    # independent oracle: exhaustive backward fixpoint over the expanded set
    expected = _bellman_backup_oracle(graph, domain)
    changes = dijkstra_h_update(graph)
    assert changes == 0
    for state, h in expected.items():
        assert graph.nodes[state].h == h


def _bellman_backup_oracle(graph, domain):
    """Brute force: iterate h(s) = min over successors (c + h(s')) to fixpoint
    over expanded nodes, frontier values pinned."""
    stamp = graph.stamp
    closed = {n.state for n in graph.touched if n.expanded and not domain.is_goal(n.state)}
    h = {}
    for n in graph.touched:
        h[n.state] = math.inf if n.state in closed else n.h
    changed = True
    while changed:
        changed = False
        for s in closed:
            node = graph.nodes[s]
            best = math.inf
            for _a, s2, c in node.succs or ():
                if s2 in h:
                    best = min(best, c + h[s2])
            if best < h[s]:
                h[s] = best
                changed = True
    return {s: h[s] for s in closed}


def test_backup_matches_bellman_oracle_on_random_dags():
    for seed in range(12):
        domain = random_dag(seed, size=50)
        graph, _ = build(domain, 0, 4 + seed % 17)
        expected = _bellman_backup_oracle(graph, domain)
        dijkstra_h_update(graph)
        for state, h in expected.items():
            node = graph.nodes[state]
            if node.safety != SafetyStatus.DEAD_END:
                assert node.h == h


def test_backup_skips_a_heap_entry_that_a_cheaper_edge_made_stale():
    # closed r, x, y over the frontier a, b, f. a pops first and relaxes x to
    # 3 over a cost-3 edge; b pops next and lowers x to 2 over a cost-1 edge,
    # which leaves x's entry at 3 stale. y's only way out is f, whose h of 5
    # pops after that stale entry, so y must still be waited for when it pops
    domain = ListDomain({"r": [("rx", "x", 1.0), ("ry", "y", 1.0)],
                         "x": [("xa", "a", 3.0), ("xb", "b", 1.0)],
                         "y": [("yf", "f", 1.0)]},
                        h={"a": 0, "b": 1, "f": 5})
    graph, _ = build(domain, "r", 3)
    closed = {n.state for n in graph.touched if n.expanded}
    assert closed == {"r", "x", "y"}
    before = {n.state: n.h for n in graph.touched}
    expected = {s: max(h, before[s])     # h never decreases
                for s, h in _bellman_backup_oracle(graph, domain).items()}
    assert expected == {"r": 3.0, "x": 2.0, "y": 6.0}
    dijkstra_h_update(graph)
    assert {s: graph.nodes[s].h for s in closed} == expected
    assert all(graph.nodes[s].safety != SafetyStatus.DEAD_END for s in closed)


def test_monotone_learning_and_consistency_preserved():
    from rtss.domains import airspace
    inst = airspace.generate(60, 6, 0.2, 3)
    graph = SearchGraph(inst, FCOST, DeadEndCache(enabled=False))
    state = inst.start
    for _ in range(8):
        graph.begin_iteration(state)
        expand_best_first(graph, FCOST, ExpansionBudget(15), inst, cache=graph.cache)
        before = {n.state: n.h for n in graph.touched}
        dijkstra_h_update(graph)
        for n in graph.touched:
            assert n.h >= before[n.state] - 1e-12
            if n.expanded and not inst.is_goal(n.state) and n.succs \
                    and n.safety != SafetyStatus.DEAD_END:
                assert n.h <= min(c + graph.nodes[s2].h for _a, s2, c in n.succs
                                  if s2 in graph.nodes
                                  and graph.nodes[s2].stamp == graph.stamp) + 1e-9
        target = select_best_f(graph)
        if target is None or inst.is_goal(target):
            break
        actions = path_to(graph, target)
        if not actions:
            break
        for _a, s2, _c in inst.successors(state):
            if _a == actions[0]:
                state = s2
                break


# -- path_to -------------------------------------------------------------------

def test_path_to_root_is_empty():
    domain = chain_domain(5)
    graph, _ = build(domain, 0, 2)
    assert path_to(graph, 0) == []


def test_path_to_chain_lists_actions_in_order():
    domain = chain_domain(5)
    graph, _ = build(domain, 0, 2)
    assert path_to(graph, 2) == [(0, 1), (1, 2)]


def test_path_to_rejects_unknown_target():
    domain = chain_domain(5)
    graph, _ = build(domain, 0, 1)
    with pytest.raises(ValueError):
        path_to(graph, 4)


def test_diamond_keeps_first_discovered_equal_g_parent():
    # two equal-cost paths r->a->t and r->b->t; successor order fixes the tree
    succ = {"r": [("ra", "a", 1.0), ("rb", "b", 1.0)],
            "a": [("at", "t", 1.0)],
            "b": [("bt", "t", 1.0)],
            "t": []}
    domain = ListDomain(succ, h={"r": 2, "a": 1, "b": 1, "t": 0})
    graph, _ = build(domain, "r", 3)
    # oracle: enumerate all r->t paths, both cost 2; relaxation is strict,
    # so the parent recorded is the first path in expansion order
    paths = [["ra", "at"], ["rb", "bt"]]
    chosen = path_to(graph, "t")
    assert [a for a in chosen] in paths
    assert chosen == ["ra", "at"]


# -- invariants ----------------------------------------------------------------

def test_expansion_count_equals_budget_used():
    for seed in range(10):
        domain = random_dag(seed, size=60)
        graph = SearchGraph(domain, FCOST, DeadEndCache(enabled=False))
        graph.begin_iteration(0)
        budget = ExpansionBudget(13)
        expand_best_first(graph, FCOST, budget, domain, cache=graph.cache)
        expanded = sum(1 for n in graph.touched if n.expanded)
        assert budget.used == expanded


def test_weighted_one_matches_fcost_expansion_order():
    for seed in range(10):
        domain = random_dag(seed, size=80)
        orders = []
        for evaluator in (FCOST, Evaluator("wastar", 1.0)):
            graph = SearchGraph(domain, evaluator, DeadEndCache(enabled=False))
            graph.begin_iteration(0)
            order = []
            for _ in range(25):
                before = {n.state for n in graph.touched if n.expanded}
                outcome = expand_best_first(graph, evaluator, ExpansionBudget(1),
                                            domain, cache=graph.cache)
                new = {n.state for n in graph.touched if n.expanded} - before
                if not new:
                    break
                order.append(new.pop())
                if outcome.kind == "goal":
                    break
            orders.append(order)
        assert orders[0] == orders[1]


def test_cheaper_path_reopens_a_closed_node():
    # inconsistent h makes "a" expand first through the costly edge; the
    # later cheap path via "b" must reopen it and rebuild the parent chain
    succ = {"r": [("ra", "a", 10.0), ("rb", "b", 1.0)],
            "a": [("at", "t", 1.0)],
            "b": [("ba", "a", 1.0)],
            "t": []}
    domain = ListDomain(succ, h={"r": 0.0, "a": 0.0, "b": 10.0, "t": 0.0})
    graph = SearchGraph(domain, FCOST, DeadEndCache(enabled=False))
    graph.begin_iteration("r")
    budget = ExpansionBudget(5)
    expand_best_first(graph, FCOST, budget, domain, cache=graph.cache)
    node = graph.nodes["a"]
    assert budget.used == 5  # r, a (g=10), t, b, a again (g=2)
    assert node.expanded and node.g == 2.0
    assert node.parent[0] == "b"
    assert path_to(graph, "a") == ["rb", "ba"]
    # the re-expansion re-relaxed t through the cheap path and reopened it
    t = graph.nodes["t"]
    assert t.g == 3.0 and t.on_open and not t.expanded


def test_evaluator_parsing_and_validation():
    assert Evaluator.parse("astar") == FCOST
    assert Evaluator.parse("wastar:1.5") == Evaluator("wastar", 1.5)
    assert Evaluator.parse("greedy").name == "greedy"
    assert Evaluator("wastar", 2.0).name == "wastar:2"
    with pytest.raises(ValueError):
        Evaluator.parse("dijkstra")
    with pytest.raises(ValueError):
        Evaluator("wastar", 0.5)  # weights below 1 break the ordering contract
    with pytest.raises(ValueError):
        Evaluator.parse("wastar:x")
    with pytest.raises(ValueError):
        Evaluator("dsafe")  # proofs order themselves; no planner search can use it


def test_identical_runs_are_deterministic():
    from rtss.domains import airspace
    inst = airspace.generate(80, 8, 0.15, 11)
    outs = []
    for _ in range(2):
        graph, _ = build(inst, inst.start, 40)
        outs.append(sorted((n.state, n.g, n.h, n.expanded, n.on_open)
                           for n in graph.touched))
    assert outs[0] == outs[1]


# -- the open order: a lazy heap walk against a brute-force sort -----------------

def _linear_best_f(graph):
    """The linear scan select_best_f replaced, kept as its oracle."""
    best = None
    best_key = None
    for node in graph.touched:
        if not node.on_open:
            continue
        k = (node.g + node.h, -node.g, node.open_seq)
        if best_key is None or k < best_key:
            best_key = k
            best = node.state
    return best


def _oracle_key(evaluator):
    """The open-list keys as the three evaluators defined them before they
    became key weights, kept as the oracle of the stored keys."""
    if evaluator.kind == "astar":
        return lambda n: (n.g + n.h, -n.g)
    if evaluator.kind == "wastar":
        w = evaluator.weight
        return lambda n: (n.g + w * n.h, -n.g)
    return lambda n: (n.h, -n.g)


def check_open_order(graph):
    key = _oracle_key(graph.evaluator)
    for entry in graph.open:
        node = graph.nodes[entry[-1]]
        if node.on_open and node.open_seq == entry[-2]:
            assert entry[:-2] == key(node)      # a live key never goes stale
    expected = sorted((n for n in graph.touched if n.on_open),
                      key=lambda n: (*key(n), n.open_seq))
    assert list(graph.open_nodes_in_key_order()) == expected
    if graph.evaluator == FCOST:
        assert select_best_f(graph) == _linear_best_f(graph)
        assert graph.open_nodes_in_f_order() == expected


def test_walk_after_a_reopen_matches_the_sort():
    # "a" is expanded through the costly edge first; the cheap path via "b"
    # reopens it, leaving stale entries for it and for "t" in the heap
    succ = {"r": [("ra", "a", 10.0), ("rb", "b", 1.0), ("re", "e", 1.0)],
            "a": [("at", "t", 1.0)], "b": [("ba", "a", 1.0)], "t": [], "e": []}
    domain = ListDomain(succ, h={"b": 10.0, "e": 30.0})
    for evaluator in (FCOST, Evaluator("wastar", 1.1), Evaluator("greedy")):
        graph, _ = build(domain, "r", 4, evaluator=evaluator)
        a = graph.nodes["a"]
        assert a.on_open and not a.expanded and a.succs is not None
        check_open_order(graph)
        assert [n.state for n in graph.open_nodes_in_key_order()][0] == "a"


def test_select_best_f_rejects_a_graph_not_keyed_by_f():
    graph, _ = build(chain_domain(5), 0, 1, evaluator=Evaluator("greedy"))
    with pytest.raises(ValueError):
        select_best_f(graph)
    with pytest.raises(ValueError):
        graph.open_nodes_in_f_order()


@pytest.mark.parametrize("foreign", ["evaluator", "domain", "cache"])
def test_expansion_refuses_a_context_that_is_not_the_graphs_own(foreign):
    # one search runs under one domain, evaluator and cache: the graph's;
    # an equal but distinct cache or domain is still another one
    domain = chain_domain(5)
    graph, _ = build(domain, 0, 1)
    context = {"evaluator": FCOST, "domain": domain, "cache": graph.cache}
    context[foreign] = {"evaluator": Evaluator("greedy"), "domain": chain_domain(5),
                        "cache": DeadEndCache(enabled=False)}[foreign]
    budget = ExpansionBudget(3)
    with pytest.raises(ValueError, match="graph's evaluator, domain and cache"):
        expand_best_first(graph, context["evaluator"], budget, context["domain"],
                          cache=context["cache"])
    assert budget.used == 0


def _airspace_world(seed):
    from rtss.domains import airspace
    inst = airspace.generate(40 + seed % 40, 4 + seed % 3, 0.15, seed)
    return inst, inst.start


@settings(derandomize=True, max_examples=60, deadline=None)
@given(world=st.sampled_from(("dag", "airspace")), seed=st.integers(0, 10_000),
       algorithm=st.sampled_from(("safe-rts", "rtfs", "lss-lrta")),
       evaluator=st.sampled_from(("astar", "wastar:1.1", "greedy")),
       bound=st.integers(2, 40), cache_enabled=st.booleans())
def test_heap_walk_matches_a_sort_of_the_touched_set(world, seed, algorithm,
                                                      evaluator, bound, cache_enabled):
    from rtss import planners
    domain, start = (random_h_dag(seed), 0) if world == "dag" else _airspace_world(seed)
    config = planners.PlannerConfig(algorithm, bound, exploration_ratio=0.5,
                                    evaluator=Evaluator.parse(evaluator),
                                    allow_budget_carryover=seed % 2 == 0)
    checks = []

    def checked(fn):
        def wrapper(graph, *args, **kwargs):
            result = fn(graph, *args, **kwargs)
            check_open_order(graph)
            checks.append(fn.__name__)
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        # after every explore slice (reopens included), every prune and
        # dead-end propagation, and every h-backup
        for name in ("expand_best_first", "prune_exhausted",
                     "propagate_dead_ends", "dijkstra_h_update"):
            mp.setattr(planners, name, checked(getattr(planners, name)))
        planners.run_episode(domain, start, config,
                             cache=DeadEndCache(enabled=cache_enabled),
                             max_iterations=30)
    assert "expand_best_first" in checks
