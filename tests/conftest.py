"""Shared test domains: tiny explicit worlds with hand-checkable behavior,
the reference grids run once per session, and a guard that turns a hung
test into a failure."""
from __future__ import annotations

import faulthandler
import math
import multiprocessing
import os
import signal
import threading

import pytest

from rtss.domains.synthetic import random_dag
from rtss.harness import ExperimentConfig, run_experiment
from rtss.rng import SplitMix64
from rtss.safety import DeadEndCache
from rtss.search import FCOST, ExpansionBudget, SearchGraph, expand_best_first, path_to

# A test still running after this many seconds has hung, in a worklist loop
# that never ends, say. The slowest test, set-up included, is the first to
# use the acceptance gate's avoidance and velocity fixture, which runs the
# airspace-velocity and racetrack-gat reference grids: about 20 s.
HANG_LIMIT_S = 300
_terminal_stderr = 2


def pytest_configure():
    # the terminal's stderr: while a test runs, output capture redirects fd
    # 2, and what it captured is lost when the guard exits the process
    global _terminal_stderr
    _terminal_stderr = os.dup(2)


def _end_hung_run():
    """Print every thread's traceback, end the pool workers that a hung grid
    leaves behind, and exit the run."""
    faulthandler.dump_traceback(file=_terminal_stderr, all_threads=True)
    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    os._exit(1)


def arm_hang_guard(limit_s: float) -> threading.Timer:
    """Call _end_hung_run after limit_s seconds, unless the returned timer is
    cancelled first. A busy Python loop still yields the interpreter lock to
    the timer's thread, so a test that loops forever cannot hold it off."""
    guard = threading.Timer(limit_s, _end_hung_run)
    guard.daemon = True
    guard.start()
    return guard


def within(seconds: float, fn, *args):
    """fn(*args), or a TimeoutError after `seconds`: SIGALRM interrupts a
    loop that never ends, so a test fails at once instead of at the guard."""
    def stop(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol():
    """Arm the hang guard around each test's set-up, call and teardown. (An
    autouse fixture would miss a hang in a module-scoped fixture, which is
    set up before any function-scoped one.)"""
    guard = arm_hang_guard(HANG_LIMIT_S)
    yield
    guard.cancel()


EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir, "experiments")


@pytest.fixture(scope="session")
def reference_grid(tmp_path_factory):
    """name -> (records, CSV path) of `experiments/<name>.json` run unchanged
    at two workers. Each grid runs once per session, on first use, and the
    golden digests and the acceptance gate both read that one run."""
    runs = {}

    def run(name):
        if name not in runs:
            config = ExperimentConfig.from_json(os.path.join(EXPERIMENTS, f"{name}.json"))
            config.output = str(tmp_path_factory.mktemp(name) / config.output)
            runs[name] = run_experiment(config, jobs=2), config.output
        return runs[name]
    return run


class ListDomain:
    """Explicit successor lists with per-edge costs; everything else tabular."""

    def __init__(self, succ, goals=(), safe=(), h=None, d_safe=None,
                 terminal=(), identity=(), name="list"):
        self.succ = {s: list(edges) for s, edges in succ.items()}
        self.goals = set(goals)
        self.safe = set(safe)
        self.h_table = dict(h or {})
        self.d_table = dict(d_safe or {})
        self.terminal = set(terminal)
        self.identity = set(identity)
        self.instance_id = name

    def successors(self, state):
        out = list(self.succ.get(state, ()))
        if state in self.identity:
            out.append((("stay", state), state, 1.0))
        return out

    def is_goal(self, state):
        return state in self.goals

    def is_terminal(self, state):
        return state in self.terminal

    def h(self, state):
        return float(self.h_table.get(state, 0.0))

    def d_safe(self, state):
        if state in self.d_table:
            return float(self.d_table[state])
        if state in self.safe or state in self.goals:
            return 0.0
        return 1.0

    def f_safe(self, state):
        return state in self.safe

    def identity_action(self, state):
        return ("stay", state) if state in self.identity else None

    def travel_distance(self, start, end):
        return 0.0

    def all_states(self):
        seen = set(self.succ)
        for edges in self.succ.values():
            for _a, s2, _c in edges:
                seen.add(s2)
        return sorted(seen)


def chain_domain(n=5):
    """States 0..n-1 in a line, unit costs, goal at the end, h = distance."""
    succ = {i: [((i, i + 1), i + 1, 1.0)] for i in range(n - 1)}
    succ[n - 1] = []
    h = {i: float(n - 1 - i) for i in range(n)}
    return ListDomain(succ, goals={n - 1}, h=h, name=f"chain{n}")


def funnel_domain():
    """Root fans out into branches that all end in terminal non-goals; a
    separate safe exit exists only from the very top."""
    succ = {
        "r": [("a", "m1", 1.0), ("b", "m2", 1.0)],
        "m1": [("c", "t1", 1.0), ("d", "t2", 1.0)],
        "m2": [("e", "t3", 1.0)],
        "t1": [], "t2": [], "t3": [],
    }
    return ListDomain(succ, h={s: 0.0 for s in ("r", "m1", "m2", "t1", "t2", "t3")},
                      d_safe={"r": 1, "m1": 2, "m2": 2, "t1": 3, "t2": 3, "t3": 3},
                      name="funnel")


def random_h_dag(seed, size=40):
    """A random DAG (root 0) with a random, inconsistent h, so that searches
    reopen nodes and backups change h: `random_dag`'s world as a ListDomain,
    with its successors in order, its goals, hints, d_safe values and
    terminals."""
    dag = random_dag(seed, size=size, edge_chance=0.1)
    rng = SplitMix64(seed ^ 0x5EED)
    states = dag.all_states()
    return ListDomain({s: dag.successors(s) for s in states}, goals=dag.goals,
                      safe=dag.safe_hints, h={s: float(rng.randrange(4)) for s in range(size)},
                      d_safe={s: dag.d_safe(s) for s in states},
                      terminal={s for s in states if dag.is_terminal(s)}, name=dag.name)


def online_astar(domain, start):
    """Offline A*'s oracle: one unbounded iteration of the online search,
    which keys and breaks ties the same way. (actions, cost, expansions),
    or None when the space exhausts without a goal."""
    graph = SearchGraph(domain, FCOST, DeadEndCache())
    graph.begin_iteration(start)
    budget = ExpansionBudget(10_000)
    outcome = expand_best_first(graph, FCOST, budget, domain, cache=graph.cache)
    if outcome.kind != "goal":
        return None
    return path_to(graph, outcome.goal), graph.nodes[outcome.goal].g, budget.used
