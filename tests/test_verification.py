import pytest

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
