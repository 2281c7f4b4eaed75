"""`prove_safety` against a reference copy of its straightforward form.

`reference_prove_safety` is the proof loop as first written: a closed set
beside the parent map, every domain method looked up on each use. The
program's loop drops the closed set (the parent map already admits each
state to the heap at most once) and binds the domain methods once per call;
it must return the same result and leave the same cache counters on every
input, terminals, pre-flagged states, exhausted marks and a known-safe
lookup included.
"""
from __future__ import annotations

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_h_dag
from rtss.domains import airspace
from rtss.rng import SplitMix64
from rtss.safety import BudgetOut, DeadEndCache, Exhausted, Proven, prove_safety


def reference_prove_safety(target, limit, domain, cache, known_safe=None):
    blocked = cache.blocked
    marks = cache.exhausted_marks
    if target in blocked:
        raise ValueError("prove_safety called on a cache-flagged target")
    d_safe = domain.d_safe
    base_h = domain.h
    parent = {target: None}
    closed = set()
    heap = [(d_safe(target), base_h(target), 0, target)]
    seq = 0
    expansions = 0
    while heap:
        _, _, _, state = heappop(heap)
        if state in closed:
            continue
        if (domain.f_safe(state) or domain.is_goal(state)
                or (known_safe is not None and known_safe(state))):
            path = []
            cur = state
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return Proven(tuple(path), expansions)
        if expansions >= limit:
            return BudgetOut(expansions)
        expansions += 1
        if state in marks:
            cache.dead_reexpansions += 1
        closed.add(state)
        for _action, s2, _cost in domain.successors(state):
            if s2 in parent:
                continue
            if s2 in blocked:
                cache.avoided_reexpansions += 1
                continue
            parent[s2] = state
            if domain.is_terminal(s2) and not domain.is_goal(s2):
                continue
            seq += 1
            heappush(heap, (d_safe(s2), base_h(s2), seq, s2))
    return Exhausted(frozenset(parent), expansions)


def _world(kind, seed):
    """A random DAG given cycles, self-loops and an inconsistent h, or a
    small Airspace world dense enough to hold dead ends."""
    rng = SplitMix64(seed ^ 0xC0DE)
    if kind == "dag":
        domain = random_h_dag(seed, size=25 + seed % 30)
        states = domain.all_states()
        for u in states:
            if rng.uniform() < 0.08:
                v = states[rng.randrange(len(states))]
                domain.succ[u].append((v, v, 1.0))
        domain.identity = {s for s in states if rng.uniform() < 0.1}
        domain.terminal = {s for s in states if not domain.successors(s)
                           and s not in domain.goals}
        return domain, states, rng
    inst = airspace.generate(12 + seed % 30, 3 + seed % 5, (0.1, 0.3, 0.5)[seed % 3], seed)
    return inst, [(d, a) for d in range(inst.length + 1)
                  for a in range(inst.max_altitude + 1)], rng


def _compare(kind, seed, limit, enabled, lookup):
    """Run both loops on the same random input; return the domain, the
    target, the program's result and its cache after asserting they agree
    with the reference's."""
    domain, states, rng = _world(kind, seed)
    target = states[rng.randrange(len(states))]
    flags = {s for s in states if s != target and rng.uniform() < 0.12}
    marks = {s for s in states if rng.uniform() < 0.2}
    vouched = {s for s in states if rng.uniform() < 0.1}
    known_safe = vouched.__contains__ if lookup else None
    caches = [DeadEndCache(enabled=enabled, flags=set(flags), exhausted_marks=set(marks))
              for _ in range(2)]
    got = prove_safety(target, limit, domain, caches[0], known_safe=known_safe)
    want = reference_prove_safety(target, limit, domain, caches[1], known_safe=known_safe)
    assert got == want
    assert caches[0].avoided_reexpansions == caches[1].avoided_reexpansions
    assert caches[0].dead_reexpansions == caches[1].dead_reexpansions
    assert caches[0].flags == caches[1].flags == flags
    return domain, target, got, caches[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(("dag", "airspace")), seed=st.integers(0, 10_000),
       limit=st.integers(0, 80), enabled=st.booleans(), lookup=st.booleans())
def test_proof_matches_the_reference_loop(kind, seed, limit, enabled, lookup):
    _compare(kind, seed, limit, enabled, lookup)


def test_the_sweep_reaches_every_outcome_and_counter():
    # the same comparison over a fixed sweep, which must meet each outcome,
    # both cache counters and known-safe endings
    seen = set()
    for seed in range(120):
        for kind in ("dag", "airspace"):
            domain, _target, res, cache = _compare(kind, seed, seed % 40,
                                                   seed % 3 != 0, seed % 2 == 0)
            seen.add((kind, type(res).__name__))
            if isinstance(res, Proven) and len(res.path) > 1:
                seen.add((kind, "path"))
                end = res.path[-1]
                if not (domain.f_safe(end) or domain.is_goal(end)):
                    seen.add((kind, "vouched"))
            if cache.avoided_reexpansions:
                seen.add((kind, "avoided"))
            if cache.dead_reexpansions:
                seen.add((kind, "dead"))
    assert seen >= {(kind, what) for kind in ("dag", "airspace")
                    for what in ("Proven", "Exhausted", "BudgetOut", "path",
                                 "vouched", "avoided", "dead")}


def test_terminal_successors_end_up_visited_but_never_expanded():
    # in a DAG every goal-less sink is terminal; an exhausted proof lists
    # such sinks among the visited states while never spending on them
    # (the target itself is always expanded)
    for seed in range(200):
        domain, target, res, _cache = _compare("dag", seed, 1000, True, False)
        if isinstance(res, Exhausted):
            sinks = {s for s in res.visited if domain.is_terminal(s) and s != target}
            if sinks:
                assert res.expansions <= len(res.visited) - len(sinks)
                return
    raise AssertionError("no exhausted proof met a terminal state")
