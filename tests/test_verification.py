import pytest

from conftest import ListDomain
from rtss import verification
from rtss.domains.oracles import optimal_proof_path
from rtss.safety import BudgetOut, DeadEndCache
from rtss.verification import SUITES, run_suite


def test_all_suites_pass_on_a_small_seed_block():
    checks = run_suite("all", seeds=14)
    names = {c.name for c in checks}
    assert names == {"closure-completeness", "frontier-advantage",
                     "subsumed-proofs", "coverage-monotone",
                     "safety-and-dead-end-soundness"}
    for check in checks:
        assert check.passed, check.line()
        assert check.checked > 0
    # the assertion counts pin what the suites build and prove, so a change
    # to the search, the proofs or the cache that alters them shows here
    assert [c.line() for c in checks] == [
        "pass  closure-completeness  (102 assertions, 0 failures)",
        "pass  frontier-advantage  (12 assertions, 0 failures)",
        "pass  subsumed-proofs  (13 assertions, 0 failures)",
        "pass  coverage-monotone  (13 assertions, 0 failures)",
        "pass  safety-and-dead-end-soundness  (270 assertions, 0 failures)",
    ]


def test_theorem_suite_alone_runs():
    checks = run_suite("theorems", seeds=6)
    assert len(checks) == 4
    assert all(c.passed for c in checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", seeds=1)


def test_one_seed_is_enough():
    assert [c.passed for c in run_suite("oracles", seeds=1)] == [True]


def test_the_ancestor_proof_runs_from_the_root_to_the_first_provable_open_node(
        monkeypatch):
    proofs = []
    propagate = verification.propagate_safety

    def recorded(graph, paths):
        proofs.append(list(paths))
        return propagate(graph, paths)

    monkeypatch.setattr(verification, "propagate_safety", recorded)
    domain, root, budget = instance = verification._make_instance(1)
    check = verification.Check("subsumed-proofs")
    verification.check_subsumed_proofs([instance], check)
    assert check.passed and check.checked == 1
    [proof_x, proof_y], [only_y] = proofs
    assert only_y == proof_y
    lss = verification._build_lss(domain, root, budget, DeadEndCache(enabled=False))
    first = next(node.state for node in lss.open_nodes_in_f_order()
                 if optimal_proof_path(domain, node.state) is not None)
    assert proof_y[0] == first
    assert proof_x[0] == root and len(proof_x) > len(proof_y)
    assert proof_x[len(proof_x) - len(proof_y):] == proof_y


def test_soundness_skips_an_open_node_that_an_earlier_proof_flagged():
    # on instance 27, a DAG, an exhausted proof flags open node 38 before its
    # turn comes, and a flagged target must not be proven
    check = verification.Check("safety-and-dead-end-soundness")
    verification.check_soundness([verification._make_instance(27)], check)
    assert check.passed and check.checked > 0


def test_certifying_a_provable_target_raises_when_its_proof_fails(monkeypatch):
    domain, root, budget = verification._make_instance(1)
    monkeypatch.setattr(verification, "prove_safety", lambda *args, **kw: BudgetOut(1))
    with pytest.raises(AssertionError, match=f"provable target {root!r} failed its proof"):
        verification._certify_cost(domain, root, budget, [root])


@pytest.mark.parametrize("succ, budget, best", [
    ({"r": [("ra", "a", 1.0)], "a": [("at", "t", 1.0)], "t": []}, 3, None),
    ({"r": [("ra", "a", 1.0), ("rb", "b", 1.0)], "a": [("at", "t", 1.0)],
      "b": [("bc", "c", 1.0)], "t": []}, 2, 2),
], ids=["no-open-proof", "an-open-proof-as-long"])
def test_frontier_advantage_fails_unless_an_open_proof_is_strictly_shorter(
        monkeypatch, succ, budget, best):
    # without safety propagation the root stays unmarked beside its safe
    # successor a, with a proof of two states; the open nodes have none, or
    # one (b, c) that is no shorter
    monkeypatch.setattr(verification, "propagate_safety", lambda graph, paths: 0)
    world = ListDomain(succ, safe={"a", "c"}, terminal={"t"})
    check = verification.Check("frontier-advantage")
    verification.check_frontier_advantage([(world, "r", budget)], check)
    assert check.failures == [f"list: closed 'r' has proof size 2 but best open proof is {best}"]
