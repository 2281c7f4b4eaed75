import gc
import math

import pytest

from conftest import ListDomain, chain_domain, online_astar
from rtss import harness, planners
from rtss.domains import airspace
from rtss.domains.oracles import true_safe_set
from rtss.domains.racetrack import right_turn_track
from rtss.domains.synthetic import random_dag
from rtss.harness import simulate_episode
from rtss.planners import (PlannerConfig, SafeFilteredDomain,
                           allocate_proofs_rtfs0, apply_action, iteration_step,
                           offline_astar, run_episode, safe_toward_best)
from rtss.safety import BudgetOut, DeadEndCache, Exhausted, Proven, propagate_safety
from rtss.rng import SplitMix64
from rtss.search import (_SAFE, FCOST, Evaluator, ExpansionBudget, SafetyStatus,
                         SearchGraph, expand_best_first)


def fresh(domain, root, cache=None):
    graph = SearchGraph(domain, FCOST, cache or DeadEndCache())
    graph.begin_iteration(root)
    return graph


# -- config validation -----------------------------------------------------------

def test_config_rejects_ratio_of_one():
    with pytest.raises(ValueError):
        PlannerConfig("rtfs", 100, exploration_ratio=1.0)


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        PlannerConfig("dfs", 100)


# -- LSS-LRTA* --------------------------------------------------------------------

def test_chain_bound_ten_commits_to_goal_in_one_iteration():
    domain = chain_domain(5)
    result = run_episode(domain, 0, PlannerConfig("lss-lrta", 10))
    assert result.outcome == "goal"
    assert len(result.actions) == 4
    assert result.iterations == 1


def test_chain_bound_two_full_path_commits_two_actions():
    domain = chain_domain(5)
    config = PlannerConfig("lss-lrta", 2, commit_mode="full")
    graph = fresh(domain, 0)
    report = iteration_step(graph, config, 2)
    assert report.committed_actions == ((0, 1), (1, 2))
    assert report.expansions_goal == 2


def test_root_at_goal_is_a_zero_iteration_episode():
    domain = chain_domain(5)
    result = run_episode(domain, 4, PlannerConfig("lss-lrta", 10))
    assert result.outcome == "goal"
    assert result.actions == [] and result.iterations == 0


def test_exhausted_open_is_failure():
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []}, h={"r": 0, "t": 0})
    result = run_episode(domain, "r", PlannerConfig("lss-lrta", 10))
    assert result.outcome == "failure"


# -- SafeRTS ----------------------------------------------------------------------

def _schedule_domain():
    """Exploration runs down a long spine; every spine node hangs a private
    descent of known depth toward its own likely-safe pad. Spine node 30's
    descent is exactly 20 transitions, every other one 26, so the first proof
    (allowance 10) runs out of budget and the second (allowance 20) succeeds
    using exactly 20 expansions."""
    succ = {}
    h = {}
    deep = {30: 20}
    for k in range(45):
        succ[f"e{k}"] = [("fwd", f"e{k+1}", 1.0), ("down", f"p{k}_1", 1.0)]
        h[f"e{k}"] = 0.0
        depth = deep.get(k, 26)
        for j in range(1, depth):
            nxt = f"s{k}" if j == depth - 1 else f"p{k}_{j+1}"
            succ[f"p{k}_{j}"] = [("down", nxt, 1.0)]
            h[f"p{k}_{j}"] = 1000.0
        succ[f"s{k}"] = []
        h[f"s{k}"] = 1000.0
    succ["e45"] = []
    h["e45"] = 0.0
    d_safe = {}
    for k in range(45):
        depth = deep.get(k, 26)
        d_safe[f"e{k}"] = depth
        for j in range(1, depth):
            d_safe[f"p{k}_{j}"] = depth - j
        d_safe[f"s{k}"] = 0
    return ListDomain(succ, safe={f"s{k}" for k in range(45)}, h=h,
                      d_safe=d_safe, name="schedule")


def test_safe_rts_budget_schedule():
    domain = _schedule_domain()
    config = PlannerConfig("safe-rts", 60)
    graph = fresh(domain, "e0")
    report = iteration_step(graph, config, 60)
    assert report.phases == (("explore", 10), ("proof", 10),
                             ("explore", 20), ("proof", 20))
    assert report.expansions_goal == 30 and report.expansions_proof == 30
    assert report.proofs_attempted == 2
    assert report.proofs_budget_out == 1
    assert report.proofs_succeeded == 1
    assert report.outcome == "advanced"
    # the proven target e30 tops the open list and is itself safe
    assert report.target_open_rank == 1
    assert report.committed_actions == ("fwd",)


def test_safe_rts_identity_fallback_when_nothing_is_provable():
    # long unsafe spine, no safe state anywhere, identity available at root
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(200)}
    succ["n200"] = []
    domain = ListDomain(succ, identity={"n0"},
                        h={f"n{k}": 0.0 for k in range(201)})
    config = PlannerConfig("safe-rts", 20)
    graph = fresh(domain, "n0")
    report = iteration_step(graph, config, 20)
    assert report.identity_action_taken
    assert report.committed_actions == (("stay", "n0"),)
    assert report.target_open_rank is None


def test_safe_rts_terminates_without_identity_or_safety():
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(200)}
    succ["n200"] = []
    domain = ListDomain(succ, h={f"n{k}": 0.0 for k in range(201)})
    graph = fresh(domain, "n0")
    report = iteration_step(graph, PlannerConfig("safe-rts", 20), 20)
    assert report.outcome == "terminated"


def test_safe_rts_airspace_root_at_ground_always_moves():
    inst = airspace.generate(100, 4, 0.2, 9)
    graph = fresh(inst, (0, 0))
    report = iteration_step(graph, PlannerConfig("safe-rts", 30), 30)
    assert report.outcome in ("advanced", "goal")
    assert report.committed_actions


def test_safe_rts_commits_only_through_safe_states():
    for seed in (1, 2, 3, 4, 5):
        inst = airspace.generate(400, 8, 0.1, seed)
        graph = SearchGraph(inst, FCOST, DeadEndCache())
        state = inst.start
        config = PlannerConfig("safe-rts", 40)
        for _ in range(30):
            if inst.is_goal(state):
                break
            graph.begin_iteration(state)
            report = iteration_step(graph, config, 40)
            if report.outcome != "advanced":
                break
            cur = state
            for action in report.committed_actions:
                cur = apply_action(inst, cur, action)
                node = graph.nodes.get(cur)
                assert node is not None and (node.safety == _SAFE
                                             or inst.is_goal(cur))
            state = cur


# -- RTFS ---------------------------------------------------------------------------

def test_rtfs_budget_split_half():
    inst = airspace.generate(500, 6, 0.0, 2)
    graph = fresh(inst, (0, 0))
    report = iteration_step(graph, PlannerConfig("rtfs", 100, exploration_ratio=0.5),
                            100)
    assert report.phases[0] == ("explore", 50)
    assert report.expansions_goal == 50


def test_rtfs_budget_split_tenth():
    inst = airspace.generate(500, 6, 0.0, 2)
    graph = fresh(inst, (0, 0))
    report = iteration_step(graph, PlannerConfig("rtfs", 100, exploration_ratio=0.1),
                            100)
    assert report.phases[0] == ("explore", 10)


def test_rtfs_carryover_arithmetic():
    # proofs finish early; the unused budget is reported for the next bound
    inst = airspace.generate(500, 6, 0.0, 2)
    graph = fresh(inst, (0, 0))
    config = PlannerConfig("rtfs", 100, exploration_ratio=0.5)
    report = iteration_step(graph, config, 100)
    proof_used = report.expansions_proof
    assert report.unused_budget == 100 - 50 - proof_used
    assert report.unused_budget > 0
    # driver arithmetic: next bound = iteration bound + unused
    result = run_episode(inst, (0, 0), config, max_iterations=3)
    assert result.reports[1].bound == 100 + result.reports[0].unused_budget


def test_rtfs_redistribution_consumes_leftover_within_iteration():
    inst = airspace.generate(500, 6, 0.0, 2)
    graph = fresh(inst, (0, 0))
    config = PlannerConfig("rtfs", 100, exploration_ratio=0.5,
                           allow_budget_carryover=False)
    report = iteration_step(graph, config, 100)
    assert report.expansions_goal + report.expansions_proof == 100
    assert report.unused_budget == 0


def test_rtfs_redistribution_stops_when_the_space_exhausts():
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []}, h={"r": 0, "t": 0})
    graph = fresh(domain, "r")
    config = PlannerConfig("rtfs", 10, allow_budget_carryover=False)
    report = iteration_step(graph, config, 10)
    assert report.outcome == "failure"
    assert report.expansions_goal == 2  # nothing left to spend the rest on


def test_rtfs_runs_a_slice_that_spends_nothing_only_once(monkeypatch):
    # bound 2 at ratio 0.5: the first slice expands the root and proves x,
    # already marked safe, for free; the re-split slice of the one expansion
    # left explores nothing and proves x for free again, so it makes no
    # progress and must not run a second time
    domain = ListDomain({"r": [("a", "x", 1.0)], "x": [("b", "y", 1.0)], "y": []},
                        safe={"r", "x"})
    graph = fresh(domain, "r")
    allocate = planners.allocate_proofs_rtfs0
    slices = []

    def counted(*args):
        # a loop that re-runs a slice without progress never ends: fail it
        slices.append(args)
        assert len(slices) <= 2, "the re-split loop ran a third proof slice"
        return allocate(*args)

    monkeypatch.setattr(planners, "allocate_proofs_rtfs0", counted)
    config = PlannerConfig("rtfs", 2, exploration_ratio=0.5,
                           allow_budget_carryover=False)
    report = iteration_step(graph, config, 2)
    assert report.proofs_attempted == 2
    assert report.phases == (("explore", 1), ("proof", 0), ("proof", 0))


def test_rtfs_first_slice_explores_when_the_ratio_leaves_nothing():
    # bound 1 at ratio 0.5 rounds the exploration share down to zero; the
    # first slice still expands the root, which reaches the safe x
    domain = ListDomain({"r": [("a", "x", 1.0)], "x": [("b", "y", 1.0)], "y": []},
                        safe={"r", "x"})
    graph = fresh(domain, "r")
    config = PlannerConfig("rtfs", 1, exploration_ratio=0.5,
                           allow_budget_carryover=False)
    report = iteration_step(graph, config, 1)
    assert report.phases == (("explore", 1),)
    assert report.outcome == "advanced"
    assert report.committed_actions == ("a",)


def test_rtfs_terminates_when_no_safe_target():
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(200)}
    succ["n200"] = []
    domain = ListDomain(succ, h={f"n{k}": 0.0 for k in range(201)})
    graph = fresh(domain, "n0")
    report = iteration_step(graph, PlannerConfig("rtfs", 20), 20)
    assert report.outcome == "terminated"



# -- the iteration tail's labels -------------------------------------------------------

STAY = (("stay", "r"),)
PLANNER_CONFIGS = (PlannerConfig("lss-lrta"), PlannerConfig("safe-rts"),
                   PlannerConfig("rtfs"), PlannerConfig("rtfs", allow_budget_carryover=False))


@pytest.mark.parametrize("config, bound, identity, outcome, actions", [
    # bound 2: the budget runs out just as the open list empties
    *[(PlannerConfig("lss-lrta"), 2, identity, "failure", ())
      for identity in (False, True)],
    (PlannerConfig("safe-rts"), 2, False, "terminated", ()),
    (PlannerConfig("safe-rts"), 2, True, "advanced", STAY),
    *[(config, 2, identity, "terminated", ())
      for config in PLANNER_CONFIGS[2:] for identity in (False, True)],
    # bound 10: the open list empties with budget left
    *[(config, 10, identity, "failure", ())
      for config in PLANNER_CONFIGS for identity in (False, True)],
])
def test_tail_labels_an_iteration_that_runs_out_of_open_nodes(
        config, bound, identity, outcome, actions):
    # r -> t, and t has no successors; with identity, r also has r -> r
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []}, h={"r": 0, "t": 0},
                        identity={"r"} if identity else ())
    report = iteration_step(fresh(domain, "r"), config, bound)
    assert (report.outcome, report.committed_actions) == (outcome, actions)
    assert report.identity_action_taken == (actions == STAY)

def test_safe_rts_fails_when_a_slice_spends_its_budget_on_the_last_open_node():
    # a chain of exactly INITIAL_PROOF_BUDGET (10) nodes: the first explore
    # slice expands n9, the last node, with its last expansion, so budget is
    # left but open holds no node to prove
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(9)}
    domain = ListDomain({**succ, "n9": []}, h={f"n{k}": 0.0 for k in range(10)})
    report = iteration_step(fresh(domain, "n0"), PlannerConfig("safe-rts"), 20)
    assert report.phases == (("explore", 10),)
    assert (report.outcome, report.committed_actions) == ("failure", ())

# -- allocate_proofs_rtfs0 -------------------------------------------------------------

def test_allocator_single_success_leaves_budget():
    domain = _schedule_domain()
    graph = fresh(domain, "e0")
    expand_best_first(graph, FCOST, ExpansionBudget(30), domain, cache=graph.cache)
    # top of open is e30 whose proof takes exactly 20 expansions
    results, paths = allocate_proofs_rtfs0(graph, 90)
    assert len(results) == 1 and isinstance(results[0], Proven)
    assert sum(r.expansions for r in results) == 20
    assert paths[0][0] == "e30"


def test_allocator_prunes_exhausted_top_and_moves_on():
    # top branch is a two-node trap; the second-best node proves instantly
    succ = {"r": [("a", "trap", 1.0), ("b", "ok", 1.0)],
            "trap": [("c", "t2", 1.0)], "t2": [],
            "ok": [("d", "pad", 1.0)], "pad": []}
    domain = ListDomain(succ, safe={"pad"},
                        h={"r": 0.0, "trap": 0.0, "ok": 0.5, "t2": 5.0, "pad": 5.0},
                        d_safe={"trap": 4, "t2": 5, "ok": 1, "pad": 0, "r": 2})
    cache = DeadEndCache()
    graph = fresh(domain, "r", cache)
    expand_best_first(graph, FCOST, ExpansionBudget(1), domain, cache=cache)
    results, paths = allocate_proofs_rtfs0(graph, 50)
    assert [type(r) for r in results] == [Exhausted, Proven]
    # the trap and its descendant are flagged and off the open list
    assert "trap" in cache.flags and "t2" in cache.flags
    assert not graph.nodes["trap"].on_open
    assert graph.nodes["trap"].safety == SafetyStatus.DEAD_END
    # oracle: brute force confirms the trap truly is a dead end
    assert "trap" not in true_safe_set(domain, states=domain.all_states())
    assert paths and paths[0][0] == "ok"


def test_allocator_zero_budget_returns_nothing():
    domain = chain_domain(5)
    graph = fresh(domain, 0)
    expand_best_first(graph, FCOST, ExpansionBudget(2), domain, cache=graph.cache)
    results, paths = allocate_proofs_rtfs0(graph, 0)
    assert results == [] and paths == []


# -- safe_toward_best -------------------------------------------------------------------

def test_target_is_safe_parent_of_top_node():
    succ = {"r": [("a", "mid", 1.0)], "mid": [("b", "leaf", 1.0)], "leaf": []}
    domain = ListDomain(succ, h={"r": 2, "mid": 1, "leaf": 0})
    graph = fresh(domain, "r")
    expand_best_first(graph, FCOST, ExpansionBudget(2), domain, cache=graph.cache)
    graph.nodes["mid"].safety = SafetyStatus.SAFE
    target, rank = safe_toward_best(graph)
    assert target == "mid" and rank == 1


def test_scan_skips_unqualified_lower_f_nodes():
    succ = {"r": [("a", "u1", 1.0), ("b", "m", 0.5)],
            "m": [("c", "s2", 1.0)], "u1": [], "s2": []}
    domain = ListDomain(succ, h={"r": 0, "u1": 0.5, "m": 0.5, "s2": 0.5})
    graph = fresh(domain, "r")
    expand_best_first(graph, FCOST, ExpansionBudget(2), domain, cache=graph.cache)
    # expanded: r, m; open: u1 (f=1.5, no safe ancestor), s2 (f=2.0, parent m)
    graph.nodes["m"].safety = SafetyStatus.SAFE
    target, rank = safe_toward_best(graph)
    assert target == "m" and rank == 2


def test_no_safe_nodes_means_no_target():
    domain = chain_domain(6)
    graph = fresh(domain, 0)
    expand_best_first(graph, FCOST, ExpansionBudget(2), domain, cache=graph.cache)
    assert safe_toward_best(graph) is None


def test_root_only_safety_does_not_qualify():
    domain = chain_domain(6)
    graph = fresh(domain, 0)
    expand_best_first(graph, FCOST, ExpansionBudget(2), domain, cache=graph.cache)
    graph.nodes[0].safety = SafetyStatus.SAFE
    assert safe_toward_best(graph) is None


# -- offline A* ---------------------------------------------------------------------------

def test_offline_astar_chain_cost():
    domain = chain_domain(5)
    actions, cost, _ = offline_astar(domain, 0)
    assert cost == 4.0 and len(actions) == 4


def test_offline_astar_matches_uniform_cost_oracle_on_airspace():
    inst = airspace.generate(20, 2, 0.0, 1)
    actions, cost, _ = offline_astar(inst, inst.start)
    assert cost == _dijkstra_cost_oracle(inst, inst.start)
    assert cost == 11.0  # climb, climb, then cruise at altitude 2


def _dijkstra_cost_oracle(domain, start):
    import heapq
    dist = {start: 0.0}
    heap = [(0.0, 0, start)]
    seq = 0
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist.get(s, math.inf):
            continue
        if domain.is_goal(s):
            return d
        for _a, s2, c in domain.successors(s):
            nd = d + c
            if nd < dist.get(s2, math.inf):
                dist[s2] = nd
                seq += 1
                heapq.heappush(heap, (nd, seq, s2))
    return None


def _weighted_dag(seed):
    rng = SplitMix64(seed)
    dag = random_dag(seed, size=30, edge_chance=0.15)
    succ = {s: [(f"{s}>{s2}", s2, float(1 + rng.randrange(3)))
                for _a, s2, _c in dag.successors(s)] for s in dag.all_states()}
    return ListDomain(succ, goals=dag.goals,
                      h={s: float(rng.randrange(3)) for s in dag.all_states()})


def test_offline_astar_matches_the_online_search_on_weighted_worlds():
    # stale: x is queued at g 5, then at g 2, and the stale entry pops
    # before the goal; ties: z and a tie on (f, g) and the one queued first,
    # not the smaller state, goes first; diamond: m is reached twice at g 2,
    # and only the first edge relaxes it
    stale = ListDomain({"r": [("r>x", "x", 5.0), ("r>a", "a", 1.0)],
                        "a": [("a>x", "x", 1.0)], "x": [("x>g", "g", 10.0)]}, goals={"g"})
    ties = ListDomain({"r": [("r>z", "z", 1.0), ("r>a", "a", 1.0)],
                       "z": [("z>zg", "zg", 1.0)], "a": [("a>ag", "ag", 1.0)]},
                      goals={"zg", "ag"})
    diamond = ListDomain({"r": [("r>q", "q", 1.0), ("r>p", "p", 1.0)],
                          "q": [("q>m", "m", 1.0)], "p": [("p>m", "m", 1.0)],
                          "m": [("m>g", "g", 5.0)], "g": []}, goals={"g"})
    assert offline_astar(stale, "r") == (["r>a", "a>x", "x>g"], 12.0, 4)
    assert offline_astar(ties, "r") == (["r>z", "z>zg"], 2.0, 4)
    assert offline_astar(diamond, "r") == (["r>q", "q>m", "m>g"], 7.0, 5)
    worlds = [(stale, "r"), (ties, "r"), (diamond, "r")]
    worlds += [(_weighted_dag(seed), 0) for seed in range(40)]
    solved = 0
    for domain, start in worlds:
        expected = online_astar(domain, start)
        assert offline_astar(domain, start) == expected
        solved += expected is not None
    assert solved >= 30


def test_offline_astar_unsolvable_returns_none():
    domain = ListDomain({"r": [("a", "t", 1.0)], "t": []}, h={"r": 0, "t": 0})
    assert offline_astar(domain, "r") is None


# -- Safe-LSS-LRTA* -----------------------------------------------------------------------

def test_oracle_filter_hides_true_dead_ends():
    succ = {"r": [("a", "good", 1.0), ("b", "bad", 1.0)],
            "good": [("c", "g", 1.0)], "bad": [("d", "t", 1.0)],
            "t": [], "g": []}
    domain = ListDomain(succ, goals={"g"}, h={"r": 2, "good": 1, "bad": 0, "g": 0, "t": 0})
    safe = true_safe_set(domain, states=domain.all_states())
    filtered = SafeFilteredDomain(domain, safe)
    assert [s2 for _a, s2, _c in filtered.successors("r")] == ["good"]
    result = run_episode(filtered, "r", PlannerConfig("safe-lss-lrta", 10))
    assert result.outcome == "goal"


def test_all_successors_dead_is_failure():
    succ = {"r": [("a", "t1", 1.0), ("b", "t2", 1.0)], "t1": [], "t2": []}
    domain = ListDomain(succ, h={"r": 0, "t1": 0, "t2": 0})
    safe = true_safe_set(domain, states=domain.all_states())
    filtered = SafeFilteredDomain(domain, safe)
    result = run_episode(filtered, "r", PlannerConfig("safe-lss-lrta", 10))
    assert result.outcome == "failure"


def test_safe_lss_never_enters_dead_end_on_airspace():
    inst = airspace.generate(300, 6, 0.1, 4)
    safe = true_safe_set(inst)
    record, result = simulate_episode(PlannerConfig("safe-lss-lrta", 30), inst,
                                      inst.start, safe_states=safe)
    assert record.outcome == "goal"


def test_filtered_domain_keeps_what_it_delegates():
    inst = airspace.generate(200, 5, 0.1, 3)
    wrapper = SafeFilteredDomain(inst, set(inst.all_states()))  # hides nothing
    assert "h" not in vars(wrapper)
    wrapper.h(inst.start)
    assert vars(wrapper)["h"] == inst.h
    config = PlannerConfig("safe-lss-lrta", 20)
    wrapped = run_episode(wrapper, inst.start, config)
    assert wrapped.outcome == "goal"
    assert wrapped == run_episode(inst, inst.start, config)
    assert {"h", "is_goal", "f_safe"} <= vars(wrapper).keys()


def test_safe_lss_iteration_behaves_like_lss_until_dead_ends_show_up():
    inst = airspace.generate(200, 5, 0.0, 2)  # no dead ends at all
    safe = true_safe_set(inst)
    config = PlannerConfig("safe-lss-lrta", 15)
    plain = fresh(inst, inst.start)
    filtered = fresh(SafeFilteredDomain(inst, safe), inst.start)
    a = iteration_step(plain, config, 15)
    b = iteration_step(filtered, config, 15)
    assert a.committed_actions == b.committed_actions
    assert a.expansions_goal == b.expansions_goal


# -- cross-planner invariants ----------------------------------------------------------------

def test_budget_compliance_on_every_logged_iteration():
    inst = airspace.generate(400, 10, 0.1, 6)
    track = right_turn_track()
    worlds = ((inst, inst.start), (track, track.start_state(track.starts[0])))
    for domain, start in worlds:
        for algo, kw in (("lss-lrta", {}), ("safe-rts", {}),
                         ("rtfs", {}), ("rtfs", {"allow_budget_carryover": False})):
            config = PlannerConfig(algo, 40, **kw)
            result = run_episode(domain, start, config, max_iterations=200)
            assert result.iterations > 1
            for report in result.reports:
                spent = report.expansions_goal + report.expansions_proof
                assert spent <= report.bound
                assert report.unused_budget == report.bound - spent
                logged = {"explore": 0, "proof": 0}
                for phase, n in report.phases:
                    logged[phase] += n
                assert logged == {"explore": report.expansions_goal,
                                  "proof": report.expansions_proof}


def test_rtfs0_and_safe_rts_build_identical_lss_when_no_proof_succeeds():
    # spine so deep that every proof times out; at bound 20 both schedules
    # spend exactly 10 expansions exploring before proving
    succ = {f"n{k}": [("fwd", f"n{k+1}", 1.0)] for k in range(300)}
    succ["n300"] = []
    domain = ListDomain(succ, h={f"n{k}": 0.0 for k in range(301)},
                        d_safe={f"n{k}": 500 for k in range(301)})
    def lss(config):
        graph = fresh(domain, "n0")
        report = iteration_step(graph, config, config.iteration_bound)
        assert report.proofs_succeeded == 0
        return {n.state for n in graph.touched if n.expanded}
    srts = lss(PlannerConfig("safe-rts", 20))
    rtfs = lss(PlannerConfig("rtfs", 20, exploration_ratio=0.5))
    assert srts == rtfs


def test_lss_lrta_fails_unexpanded_at_a_root_its_last_backup_flagged():
    # from this start at bound 4, LSS-LRTA* commits toward a frontier of
    # crashed states (h infinite) into a state its own backup just flagged;
    # with the cache on, the next iteration starts at that blocked root and
    # fails without an expansion
    track = right_turn_track()
    cache = DeadEndCache(enabled=True)
    start = track.start_state((3, 6))
    result = run_episode(track, start, PlannerConfig("lss-lrta", 4), cache=cache)
    assert result.outcome == "failure" and result.iterations == 59
    assert sum(r.expansions_goal for r in result.reports) == 232
    assert result.reports[-1].phases == (("explore", 0),)
    state = start
    for action in result.actions:
        state = apply_action(track, state, action)
    assert state in cache.flags


def test_lss_lrta_completes_dead_end_free_instances():
    for seed in (1, 2, 3, 4, 5):
        inst = airspace.generate(150, 5, 0.0, seed)
        result = run_episode(inst, inst.start, PlannerConfig("lss-lrta", 10))
        assert result.outcome == "goal"


def test_rtfs_rank_one_with_ample_safety_budget():
    inst = airspace.generate(400, 8, 0.05, 3)
    config = PlannerConfig("rtfs", 60, exploration_ratio=0.5)
    result = run_episode(inst, inst.start, config, max_iterations=400)
    assert result.outcome == "goal"
    ranks = [r.target_open_rank for r in result.reports
             if r.target_open_rank is not None]
    assert ranks and all(r == 1 for r in ranks)


def test_an_iteration_guard_of_one_runs_exactly_one_iteration():
    # a goal found within the one iteration ends the episode there, and an
    # episode that needs more trips the guard after it
    domain = chain_domain(5)
    found = run_episode(domain, 0, PlannerConfig("lss-lrta", 10), max_iterations=1)
    assert (found.outcome, found.iterations, len(found.actions)) == ("goal", 1, 4)
    cut = run_episode(domain, 0, PlannerConfig("lss-lrta", 2), max_iterations=1)
    assert (cut.outcome, cut.iterations) == ("max_iterations", 1)


# -- the collector during an episode ------------------------------------------------

class RelabelingDomain(ListDomain):
    """Every successors call labels its actions afresh, so an action the
    planner committed from its cached successor list no longer applies."""

    calls = 0

    def successors(self, state):
        self.calls += 1
        return [((a, self.calls), s2, c) for a, s2, c in super().successors(state)]


class FailingDomain(ListDomain):
    """A world whose successor generation raises."""

    def successors(self, state):
        raise RuntimeError("no successors")


class CollectorWatchingDomain(ListDomain):
    """Records whether the collector was enabled at each successors call."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.seen = []

    def successors(self, state):
        self.seen.append(gc.isenabled())
        return super().successors(state)


def _searches(domain):
    """The three collector-free bodies, each on domain: an episode, the
    offline search and the grid's ground-truth sweep."""
    return [lambda: run_episode(domain, 0, PlannerConfig("lss-lrta", 2)).outcome,
            lambda: offline_astar(domain, 0)[1], lambda: harness._sweep(domain, [0])]


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_episode_leaves_the_collector_as_it_found_it(collecting, raises):
    # the offline search and the ground-truth sweep do so too, and all three
    # run with the collector off
    domain = chain_domain(5)
    if raises:
        domain = RelabelingDomain(domain.succ, goals=domain.goals, h=domain.h_table)
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if raises:
            with pytest.raises(ValueError, match="not applicable"):
                run_episode(domain, 0, PlannerConfig("lss-lrta", 2))
            assert gc.isenabled() == collecting
            failing = FailingDomain(domain.succ, goals=domain.goals, h=domain.h_table)
            for search in _searches(failing):
                with pytest.raises(RuntimeError, match="no successors"):
                    search()
                assert gc.isenabled() == collecting
        else:
            assert run_episode(domain, 0, PlannerConfig("lss-lrta", 2)).outcome == "goal"
            assert gc.isenabled() == collecting
            watching = CollectorWatchingDomain(domain.succ, goals=domain.goals,
                                               h=domain.h_table)
            results = []
            for search in _searches(watching):
                results.append(search())
                assert gc.isenabled() == collecting
            assert results == ["goal", 4.0, set(range(5))]
            assert watching.seen and not any(watching.seen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _world(world):
    if world == "airspace":
        domain = airspace.generate(120, 6, 0.1, 4)
        return domain, domain.start
    domain = right_turn_track()
    return domain, domain.start_state(domain.starts[0])


def _assert_no_cyclic_garbage(work):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("world", ["airspace", "racetrack"])
@pytest.mark.parametrize("algorithm, evaluator", [
    ("safe-rts", "astar"), ("lss-lrta", "astar"), ("rtfs", "astar"),
    ("rtfs", "wastar:1.1"), ("rtfs", "greedy")])
def test_an_episode_leaves_no_cyclic_garbage(world, algorithm, evaluator):
    # run_episode suspends the collector because the search graph is acyclic;
    # node references in preds, for one, would make every episode leak cycles
    domain, start = _world(world)
    config = PlannerConfig(algorithm, 30, evaluator=Evaluator.parse(evaluator))

    def episode():
        assert run_episode(domain, start, config, max_iterations=300).iterations > 1

    _assert_no_cyclic_garbage(episode)


@pytest.mark.parametrize("world", ["airspace", "racetrack"])
def test_the_offline_search_and_the_sweep_leave_no_cyclic_garbage(world):
    # the offline search and the ground-truth sweep suspend the collector
    # for the same reason as an episode
    domain, start = _world(world)

    def search():
        assert offline_astar(domain, start)[0]

    def sweep():
        assert start in harness._sweep(domain, [start])

    _assert_no_cyclic_garbage(search)
    _assert_no_cyclic_garbage(sweep)
