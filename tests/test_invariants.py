"""The invariants that let the search core's loops skip re-testing them,
checked over whole episodes at every learning step:

(a) no live open entry's state is cache-blocked (a blocked root goes on
    open already stale);
(b) every pred of every touched node is stamped and is not a goal;
(c) every successor of every expanded non-goal touched node is stamped or
    cache-blocked (and such a node has a successor list);
(d) every DEAD_END node's state is flagged in the cache;
(e) every live open node's parent chain reaches the root.

Each is the argument for a test that the search core does not make:
`expand_best_first` pops without a blocked check (a), `touch` keeps a dead
node dead exactly when the cache is enabled (d), the h-backup and the safety
closure walk preds without a stamp or goal check (b), `_succs_all_dead`
counts an unstamped successor as dead (c), and `safe_toward_best` walks
parent chains without a None check (e).
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_h_dag
from rtss import planners
from rtss.domains import airspace
from rtss.domains.oracles import true_safe_set
from rtss.domains.racetrack import right_turn_track
from rtss.safety import DeadEndCache
from rtss.search import Evaluator, SafetyStatus

RIGHT_TURN = right_turn_track()


def _world(kind, seed):
    if kind == "dag":
        return random_h_dag(seed), 0
    if kind == "airspace":
        inst = airspace.generate(40 + seed % 40, 4 + seed % 3, 0.15, seed)
        return inst, inst.start
    return RIGHT_TURN, RIGHT_TURN.start_state(RIGHT_TURN.starts[seed % len(RIGHT_TURN.starts)])


def check_invariants(graph) -> None:
    nodes, stamp, root = graph.nodes, graph.stamp, graph.root
    blocked, flags = graph.cache.blocked, graph.cache.flags
    live = [nodes[state] for _key, _g, seq, state in graph.open
            if nodes[state].on_open and nodes[state].open_seq == seq]
    for node in live:
        assert node.state not in blocked, f"(a) blocked {node!r} is on open"
    for node in graph.touched:
        for pred_state, _cost in node.preds:
            pred = nodes[pred_state]
            assert pred.stamp == stamp and not pred.goal, \
                f"(b) pred {pred!r} of {node!r} is unstamped or a goal"
        if node.expanded and not node.goal:
            assert node.succs is not None, f"(c) expanded {node!r} has no successor list"
            for _a, s2, _c in node.succs:
                child = nodes.get(s2)
                assert (child is not None and child.stamp == stamp) or s2 in blocked, \
                    f"(c) successor {s2!r} of {node!r} is neither stamped nor blocked"
    for node in nodes.values():
        if node.safety is SafetyStatus.DEAD_END:
            assert node.state in flags, f"(d) dead {node!r} is not flagged"
    for node in live:
        cur, steps = node, len(graph.touched)
        while cur.state != root:
            assert cur.parent is not None and steps > 0, \
                f"(e) the parent chain of open {node!r} ends at {cur!r}"
            cur = nodes[cur.parent[0]]
            assert cur.stamp == stamp, f"(e) the parent chain of {node!r} leaves the iteration"
            steps -= 1


@settings(derandomize=True, max_examples=400, deadline=None)
@given(world=st.sampled_from(("dag", "racetrack", "airspace")),
       seed=st.integers(0, 10_000),
       algorithm=st.sampled_from(planners.ALGORITHMS),
       evaluator=st.sampled_from(("astar", "wastar:1.1", "greedy")),
       bound=st.integers(2, 40), carryover=st.booleans(), cache_enabled=st.booleans())
def test_search_core_invariants_hold_at_every_learning_step(world, seed, algorithm,
                                                            evaluator, bound, carryover,
                                                            cache_enabled):
    domain, start = _world(world, seed)
    if algorithm == planners.SAFE_LSS_LRTA:
        domain = planners.SafeFilteredDomain(domain, true_safe_set(domain, roots=[start]))
    config = planners.PlannerConfig(algorithm, bound, exploration_ratio=0.5,
                                    evaluator=Evaluator.parse(evaluator),
                                    allow_budget_carryover=carryover)
    calls = []

    def checked(fn):
        def wrapper(graph, *args):
            check_invariants(graph)
            result = fn(graph, *args)
            check_invariants(graph)
            calls.append(fn.__name__)
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("dijkstra_h_update", "propagate_safety", "propagate_dead_ends",
                     "iteration_step"):
            mp.setattr(planners, name, checked(getattr(planners, name)))
        result = planners.run_episode(domain, start, config,
                                      cache=DeadEndCache(enabled=cache_enabled),
                                      max_iterations=200)
    assert calls.count("iteration_step") == result.iterations
