import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ListDomain, funnel_domain
from rtss.domains import airspace, oracles
from rtss.domains.oracles import (optimal_proof_oracle, optimal_proof_path,
                                  reachable_states, true_dead_ends,
                                  true_safe_set)
from rtss.domains.racetrack import right_turn_track
from rtss.domains.synthetic import random_dag


def safe_set_fixpoint(domain, states) -> set:
    """Independent recomputation of the safe set: iterate the one-step
    "has a safe successor" closure from the goals until nothing changes."""
    states = list(states)
    safe = {s for s in states if domain.is_goal(s)}
    changed = True
    while changed:
        changed = False
        for s in states:
            if s in safe:
                continue
            for _a, s2, _c in domain.successors(s):
                if s2 in safe or domain.is_goal(s2):
                    safe.add(s)
                    changed = True
                    break
    return safe


def forward_closure(domain, roots) -> set:
    """Independent forward reachability, depth-first."""
    reachable, stack = set(roots), list(roots)
    while stack:
        for _a, s2, _c in domain.successors(stack.pop()):
            if s2 not in reachable:
                reachable.add(s2)
                stack.append(s2)
    return reachable


class SuccessorCounter:
    """A domain seen through a count of successors calls per state."""

    def __init__(self, domain):
        self.domain = domain
        self.calls = Counter()

    def successors(self, state):
        self.calls[state] += 1
        return self.domain.successors(state)

    def __getattr__(self, name):
        return getattr(self.domain, name)


def test_obstacle_free_airspace_is_entirely_safe():
    inst = airspace.generate(30, 4, 0.0, 1)
    states = inst.all_states()
    assert true_safe_set(inst, states=states) == set(states)


def test_funnel_states_are_exactly_the_unsafe_ones():
    domain = funnel_domain()
    states = domain.all_states()
    assert true_safe_set(domain, states=states) == set()
    assert true_dead_ends(domain, states) == set(states)


def test_backward_reach_agrees_with_fixpoint_closure():
    # two independent computations of the safe set must coincide
    inst = airspace.generate(20, 5, 0.25, 7)
    states = inst.all_states()
    assert true_safe_set(inst, states=states) == safe_set_fixpoint(inst, states)


def test_fixpoint_agreement_on_random_dags():
    for seed in range(8):
        dag = random_dag(seed, size=60)
        states = dag.all_states()
        assert true_safe_set(dag, states=states) == safe_set_fixpoint(dag, states)


def test_a_goal_outside_the_enumerated_states_still_counts():
    # g is a's successor but not among the given states; b and c only cycle
    domain = ListDomain({"a": [("ag", "g", 1.0)], "b": [("bc", "c", 1.0)],
                         "c": [("cb", "b", 1.0)]}, goals={"g"})
    assert true_safe_set(domain, states=["a", "b", "c"]) == {"a", "g"}


def test_reachable_states_order_is_breadth_first_and_deterministic():
    domain = funnel_domain()
    order = reachable_states(domain, ["r"])
    assert list(order) == ["r", "m1", "m2", "t1", "t2", "t3"]
    # each state maps to its predecessors in the closure, one per edge, in
    # the order the sweep met the edges; a root's list holds its in-edges
    assert order == {"r": [], "m1": ["r"], "m2": ["r"], "t1": ["m1"], "t2": ["m1"],
                     "t3": ["m2"]}
    loops = ListDomain({"a": [("x", "b", 1.0), ("y", "b", 1.0), ("z", "c", 1.0)],
                        "b": [("w", "a", 1.0)], "c": [("v", "b", 1.0), ("u", "c", 1.0)]})
    assert reachable_states(loops, ["a"]) == {"a": ["b"], "b": ["a", "a", "c"],
                                              "c": ["a", "c"]}


def test_a_rooted_sweep_keeps_one_predecessor_list_per_state_then_the_safe_set():
    # a successor list per state plus a reverse map of the same edges peaks
    # near 14 MB here; a predecessor list per state, near 6 MB
    inst = airspace.generate(2000, 20, 0.05, 1)
    tracemalloc.start()
    try:
        true_safe_set(inst, roots=[(0, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_size_guard_refuses_oversized_spaces(monkeypatch):
    inst = airspace.generate(30, 4, 0.0, 1)
    monkeypatch.setattr(oracles, "STATE_LIMIT", 10)
    with pytest.raises(ValueError):
        true_safe_set(inst, states=inst.all_states())
    monkeypatch.setattr(oracles, "STATE_LIMIT", 3)
    with pytest.raises(ValueError):
        reachable_states(inst, [inst.start])


def test_the_safe_set_of_a_domain_that_cannot_list_its_states_needs_states_or_roots():
    track = right_turn_track()      # a racetrack has no all_states
    with pytest.raises(ValueError, match="need either an explicit state list or roots"):
        true_safe_set(track)
    start = track.start_state(track.starts[0])
    assert start in true_safe_set(track, roots=[start])


def test_each_size_guard_admits_a_space_of_exactly_its_limit(monkeypatch):
    inst = airspace.generate(30, 4, 0.0, 1)
    states = inst.all_states()
    reachable = len(forward_closure(inst, [inst.start]))
    chain = ListDomain({"a": [("ab", "b", 1.0)], "b": [("bc", "c", 1.0)],
                        "c": [("cg", "g", 1.0)]}, goals={"g"})

    def admits_exactly(limit, search):
        monkeypatch.setattr(oracles, "STATE_LIMIT", limit)
        result = search()
        monkeypatch.setattr(oracles, "STATE_LIMIT", limit - 1)
        with pytest.raises(ValueError, match="oracle guard"):
            search()
        return result

    assert admits_exactly(len(states), lambda: true_safe_set(inst, states=states))
    assert len(admits_exactly(reachable,
                              lambda: reachable_states(inst, [inst.start]))) == reachable
    # the proof search holds every state but the endpoint it stops at
    assert admits_exactly(4, lambda: optimal_proof_path(chain, "a")) == [
        "a", "b", "c", "g"]


def test_the_proof_path_keeps_the_first_parent_of_each_state():
    # c reaches b again before b's line reaches the goal; re-parenting b
    # would return the longer path a, c, b, d, g
    domain = ListDomain({"a": [("ac", "c", 1.0), ("ab", "b", 1.0)],
                         "c": [("cb", "b", 1.0)], "b": [("bd", "d", 1.0)],
                         "d": [("dg", "g", 1.0)]}, goals={"g"})
    assert optimal_proof_path(domain, "a") == ["a", "b", "d", "g"]
    assert optimal_proof_oracle(domain, "a") == 4


def test_explicitly_safe_state_has_singleton_proof():
    inst = airspace.generate(30, 4, 0.0, 1)
    assert optimal_proof_oracle(inst, (5, 1)) == 1
    assert optimal_proof_path(inst, (5, 1)) == [(5, 1)]


def test_clear_column_proof_size_counts_states_to_the_predicate():
    inst = airspace.generate(200, 5, 0.0, 1)
    # minimal descent 3 -> 2 -> 1: two transitions, three states
    assert optimal_proof_oracle(inst, (10, 3)) == 3
    path = optimal_proof_path(inst, (10, 3))
    assert len(path) == 3
    assert path[0] == (10, 3) and inst.f_safe(path[-1])


def test_exhausted_funnel_has_no_proof():
    assert optimal_proof_oracle(funnel_domain(), "r") is None


def test_goals_count_as_proof_endpoints():
    domain = ListDomain({"a": [("x", "g", 1.0)], "g": []}, goals={"g"})
    assert optimal_proof_oracle(domain, "a") == 2


@pytest.mark.parametrize("world", ["dag", "airspace"])
def test_a_rooted_sweep_generates_each_reachable_states_successors_once(world):
    # the sweep reads each state's successors from its breadth-first
    # enumeration instead of generating them a second time
    domain = random_dag(7) if world == "dag" else airspace.generate(40, 5, 0.2, 3)
    states = domain.all_states()
    roots = [states[0], states[len(states) // 3]]
    counted = SuccessorCounter(domain)
    safe = true_safe_set(counted, roots=roots)
    reachable = forward_closure(domain, roots)
    assert len(reachable) > 20
    assert counted.calls == Counter(dict.fromkeys(reachable, 1))
    assert safe == true_safe_set(domain, states=states) & reachable
    # over explicit states, only the non-goals generate successors
    counted = SuccessorCounter(domain)
    assert true_safe_set(counted, states=states) == true_safe_set(domain, states=states)
    assert counted.calls == Counter(dict.fromkeys(
        (s for s in states if not domain.is_goal(s)), 1))


@cache
def right_turn_closure():
    """The right-turn track with its starts' forward closure, sorted: a track
    cannot list its states, and every state it reaches lies in this closure."""
    track = right_turn_track()
    return track, sorted(forward_closure(track, [track.start_state(c) for c in track.starts]))


@settings(derandomize=True, max_examples=225, deadline=None)
@given(kind=st.sampled_from(("dag", "airspace", "track")), seed=st.integers(0, 10_000),
       pick=st.integers(0, 10_000))
def test_a_sweep_from_the_start_agrees_with_the_all_states_sweep_on_reachable_states(
        kind, seed, pick):
    # what lets a grid plan Safe-LSS-LRTA* over the sweep from its starts
    # instead of over all states: every successor of a reachable state is
    # reachable, so the two sweeps agree on each state that an episode meets
    if kind == "dag":
        domain = random_dag(seed, size=20 + seed % 50)
        states = domain.all_states()
    elif kind == "airspace":
        domain = airspace.generate(10 + seed % 30, 3 + seed % 5, (0.1, 0.3, 0.5)[seed % 3],
                                   seed)
        states = domain.all_states()
    else:
        domain, states = right_turn_closure()
    start = states[pick % len(states)]
    reachable = forward_closure(domain, [start])
    assert true_safe_set(domain, roots=[start]) == (
        true_safe_set(domain, states=states) & reachable)
