import pytest

from conftest import ListDomain, funnel_domain
from rtss.domains import airspace
from rtss.domains.oracles import (optimal_proof_oracle, optimal_proof_path,
                                  reachable_states, true_dead_ends,
                                  true_safe_set)
from rtss.domains.synthetic import GraphDomain, random_dag


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


def test_size_guard_refuses_oversized_spaces():
    inst = airspace.generate(30, 4, 0.0, 1)
    with pytest.raises(ValueError):
        true_safe_set(inst, states=inst.all_states(), limit=10)
    with pytest.raises(ValueError):
        reachable_states(inst, [inst.start], limit=3)


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


def test_reachable_states_order_is_breadth_first_and_deterministic():
    domain = funnel_domain()
    order = reachable_states(domain, ["r"])
    assert order == ["r", "m1", "m2", "t1", "t2", "t3"]
