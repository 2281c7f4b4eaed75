"""Timing wrappers installed around rtss's public functions from outside.

Nothing in `src/` is edited. A wrapper replaces every binding of a function
that rtss code calls through: the defining module's attribute and each
module that imported the name (`rtss.planners` holds its own
`expand_best_first`, `rtss.harness` its own `run_episode`), or the class
attribute for a method. `uninstall` puts every original back.

Two collectors exist:

- `Timer` (untraced runs) wraps the single function whose time is an
  end-to-end metric: `planners.iteration_step`, or `safety.prove_safety` on
  the proof-statistics path. It also drives the speed clock (`speed.py`).
- `Tracer` (traced runs) wraps the coarse layer functions as spans, counts
  the hot calls that are too frequent to span (`touch`, `is_goal`), and
  times garbage collection pauses, so a layer's self time excludes them.

Both collectors work inside grid worker processes too: the wrapped
`harness._run_cell` resets the worker's collector, runs the cell and ships
the collected numbers back attached to the RunRecord. This relies on the
pool forking its workers, so they inherit the installed wrappers; a cell
that comes back without the numbers fails its operation.
"""
from __future__ import annotations

import gc
import os
import pickle
import sys
from array import array
from time import perf_counter, perf_counter_ns, thread_time_ns

SHIP_ATTR = "_perfbench"


def _rebind(original, replacement, undo: list) -> None:
    """Point every rtss module attribute bound to `original` at `replacement`."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rtss" or name.startswith("rtss.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
                count += 1
    if count == 0:
        raise RuntimeError(f"no rtss binding found for {original!r}")


def _patch_method(cls, attr: str, replacement, undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _Probe:
    """Shared install/uninstall bookkeeping and the grid-cell shipping."""

    def __init__(self):
        self._undo: list = []
        self.pid = os.getpid()
        self.label = ""        # names the operation in progress

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_cell_wrapper(self, harness) -> None:
        original = harness._run_cell
        probe = self

        def run_cell(args):
            if os.getpid() == probe.pid:
                return original(args)
            probe.reset()
            probe.label = f"{args[1]}/{args[4]['name']}/{args[5]}"
            start = perf_counter()
            record = original(args)
            shipped = probe.export()
            shipped["cell_s"] = perf_counter() - start
            setattr(record, SHIP_ATTR, shipped)
            return record

        # pickled by reference into the workers, which import this module
        run_cell.__qualname__ = run_cell.__name__ = "_perfbench_run_cell"
        globals()["_perfbench_run_cell"] = run_cell
        _rebind(original, run_cell, self._undo)

    def run_grid(self, run_experiment, config, jobs: int) -> list:
        """Run one experiment grid and merge what its workers shipped back."""
        self.jobs = jobs
        started = perf_counter()
        records = run_experiment(config, jobs=jobs)
        busy = []
        for record in records:
            shipped = getattr(record, SHIP_ATTR, None)
            if shipped is None:
                raise RuntimeError("a grid cell came back without probe data; "
                                   "the pool did not fork its workers")
            delattr(record, SHIP_ATTR)
            self.merge(shipped)
            busy.append(shipped["cell_s"])
        self.note_grid(started, busy)
        return records

    def note_grid(self, started: float, busy: list) -> None:
        pass


class Timer(_Probe):
    """Thread CPU time of each call to one function, as measured, plus
    proofs per iteration and the sample at which each episode starts.
    Before each call the wrapper lets the speed clock recalibrate, in grid
    workers too; a worker ships the factors it measured and the time it
    spent measuring them."""

    def __init__(self, rtss_modules: dict, target: str, clock):
        super().__init__()
        self.samples_ns: list[int] = []
        self.proofs = 0
        self.clock = clock
        self.worker_calibration_s = 0.0   # summed over cells, over jobs
        self.episode_starts: list[int] = []  # index of each episode's first sample
        self.reset()
        planners, safety = rtss_modules["planners"], rtss_modules["safety"]
        original = (planners.iteration_step if target == "iteration_step"
                    else safety.prove_safety)
        samples = self.samples_ns
        timer = self

        if target == "iteration_step":
            def wrapper(*args, **kwargs):
                clock.tick()
                t0 = thread_time_ns()
                report = original(*args, **kwargs)
                samples.append(thread_time_ns() - t0)
                timer.proofs += report.proofs_attempted
                return report
        else:
            def wrapper(*args, **kwargs):
                clock.tick()
                t0 = thread_time_ns()
                result = original(*args, **kwargs)
                samples.append(thread_time_ns() - t0)
                return result

        _rebind(original, wrapper, self._undo)
        episode = rtss_modules["harness"].simulate_episode
        starts = self.episode_starts

        def simulate_episode(*args, **kwargs):
            starts.append(len(samples))
            return episode(*args, **kwargs)

        _rebind(episode, simulate_episode, self._undo)
        self._install_cell_wrapper(rtss_modules["harness"])

    def reset(self) -> None:
        self.samples_ns.clear()
        self.episode_starts.clear()
        self.proofs = 0
        self._factors_from = len(self.clock.factors)
        self._spent_from = self.clock.spent_s

    def export(self) -> dict:
        return {"samples_ns": list(self.samples_ns), "proofs": self.proofs,
                "episode_starts": list(self.episode_starts),
                "factors": self.clock.factors[self._factors_from:],
                "cpu_factors": self.clock.cpu_factors[self._factors_from:],
                "calibration_s": self.clock.spent_s - self._spent_from}

    def merge(self, shipped: dict) -> None:
        offset = len(self.samples_ns)
        self.episode_starts.extend(offset + i for i in shipped["episode_starts"])
        self.samples_ns.extend(shipped["samples_ns"])
        self.proofs += shipped["proofs"]
        self.clock.factors.extend(shipped["factors"])
        self.clock.cpu_factors.extend(shipped["cpu_factors"])
        self.worker_calibration_s += shipped["calibration_s"] / self.jobs


# Span names, in report order; the index is the name's id in span records.
# Leaves keep no span records: successor calls are far too many to keep
# one by one, and garbage collection pauses are not calls. A leaf's time is
# charged to the layer totals, to the enclosing span's child time and to
# `leaf_ns` under that span's name.
SPANS = ("domains.successors",
         "search.expand_best_first", "search.dijkstra_h_update",
         "search.select_best_f", "search.open_order",
         "safety.prove_safety", "safety.propagate_safety",
         "safety.propagate_dead_ends", "safety.cache_dead_ends",
         "planners.iteration_step", "planners.safe_toward_best",
         "planners.allocate_proofs_rtfs0", "planners.offline_astar",
         "harness.simulate_episode", "harness.replay_actions",
         "oracles.true_safe_set", "python.gc")
LEAVES = frozenset({"domains.successors", "python.gc"})

COUNTS = ("domains.is_goal.calls", "search.touch.calls",
          "search.expansions_goal", "search.h_changes",
          "safety.proofs", "safety.proofs_proven", "safety.proof_expansions",
          "safety.proof_expansions_budget_out",
          "safety.cache_avoided_reexpansions", "safety.dead_reexpansions",
          "planners.iterations", "planners.unused_budget",
          "planners.bound_total", "planners.identity_actions",
          "planners.target_rank_sum", "planners.target_rank_count",
          "search.open_heap_entries", "search.open_stale_entries",
          "oracles.states_enumerated")


class Tracer(_Probe):
    """Spans at layer boundaries, kept in memory, plus counters.

    A span's self time is its duration minus the time of the wrapped calls
    inside it; the wrappers' own bookkeeping after a call is charged to no
    layer. While a planner iteration is open, every self time is also
    added to that iteration's per-layer split, for tail attribution.
    """

    def __init__(self, rtss_modules: dict):
        super().__init__()
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        # What is kept per span or per iteration holds no object the garbage
        # collector must scan (flat arrays, and tuples of numbers and
        # strings), so tracing does not lengthen the collections it times.
        self.touched_per_iteration = array("q")
        self.iterations: list = []     # (self ns, ((layer, ns), ...), touched, label)
        self.spans = {"name": array("b"), "start_ns": array("q"),
                      "end_ns": array("q"), "parent": array("l")}
        self.worker_spans: list = []   # (pid, spans) shipped from grid workers
        self.leaf_ns: dict = {}        # "leaf<caller span>" -> self ns
        # each open call is [child ns, span index, name, successor ns]; the
        # bottom frame stands for the run itself
        self.stack: list = [[0, -1, "run", 0]]
        self.reset()
        m = rtss_modules
        search, safety, planners = m["search"], m["safety"], m["planners"]
        harness, oracles = m["harness"], m["oracles"]
        for cls in (m["airspace"].AirspaceInstance, m["racetrack"].RacetrackInstance):
            _patch_method(cls, "successors", self._successors(cls.successors),
                          self._undo)
            _patch_method(cls, "is_goal",
                          self._counter("domains.is_goal.calls", cls.is_goal), self._undo)
        graph_cls = search.SearchGraph
        _patch_method(graph_cls, "touch",
                      self._counter("search.touch.calls", graph_cls.touch), self._undo)
        for attr in ("open_nodes_in_f_order", "open_nodes_in_key_order"):
            _patch_method(graph_cls, attr,
                          self._span("search.open_order", getattr(graph_cls, attr)),
                          self._undo)
        functions = (
            ("search.expand_best_first", search.expand_best_first, self._after_expand),
            ("search.dijkstra_h_update", search.dijkstra_h_update, self._after_h_update),
            ("search.select_best_f", search.select_best_f, None),
            ("safety.prove_safety", safety.prove_safety, self._after_proof),
            ("safety.propagate_safety", safety.propagate_safety, None),
            ("safety.propagate_dead_ends", safety.propagate_dead_ends, None),
            ("safety.cache_dead_ends", safety.cache_dead_ends, None),
            ("planners.iteration_step", planners.iteration_step, self._after_iteration),
            ("planners.safe_toward_best", planners.safe_toward_best, None),
            ("planners.allocate_proofs_rtfs0", planners.allocate_proofs_rtfs0, None),
            ("planners.offline_astar", planners.offline_astar, None),
            ("harness.simulate_episode", harness.simulate_episode, None),
            ("harness.replay_actions", harness.replay_actions, None),
            ("oracles.true_safe_set", oracles.true_safe_set, None),
        )
        for name, original, after in functions:
            _rebind(original, self._span(name, original, after), self._undo)
        enumerate_states = oracles.reachable_states

        def reachable_states(*args, **kwargs):
            states = enumerate_states(*args, **kwargs)
            self.counts["oracles.states_enumerated"] += len(states)
            return states

        _rebind(enumerate_states, reachable_states, self._undo)
        self._install_cell_wrapper(harness)
        self._install_pool_probe(harness)
        self._gc_start = self.gc_ns = 0
        gc.callbacks.append(self._on_gc)

    def note_grid(self, started: float, busy: list) -> None:
        self.serial_s += self.pool_opened - started
        # the probe's own pickling falls inside the pool's wall; it is not
        # the pool's work, so it is taken out and kept apart
        self.pool_wall_s += self.pool_closed - self.pool_opened - self.grid_pickle_s
        self.payload_pickle_s += self.grid_pickle_s
        self.busy_cell_s += sum(busy)

    def _install_pool_probe(self, harness) -> None:
        """Time the part of run_experiment before and inside the pool, and
        measure the pickled payload of the cells it ships."""
        base = harness.ProcessPoolExecutor
        tracer = self

        class ProbedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pool_opened = perf_counter()
                tracer.grid_pickle_s = 0.0
                super().__init__(*args, **kwargs)

            def map(self, fn, cells, *rest, **kwargs):
                cells = list(cells)
                t0 = perf_counter()
                tracer.payload_bytes += sum(len(pickle.dumps(c)) for c in cells)
                tracer.payload_cells += len(cells)
                tracer.grid_pickle_s += perf_counter() - t0
                return super().map(fn, cells, *rest, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.pool_closed = perf_counter()

        self.pool_opened = self.pool_closed = self.grid_pickle_s = 0.0
        _rebind(base, ProbedPool, self._undo)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        super().uninstall()
        self._charge_leaf(self.stack[0])

    # -- collected state ----------------------------------------------------

    def reset(self) -> None:
        """Zero everything in place: the installed wrappers hold these objects."""
        for table in (self.calls, self.self_ns, self.counts):
            for key in table:
                table[key] = 0
        self.leaf_ns.clear()
        for seq in (self.touched_per_iteration, self.iterations, self.worker_spans,
                    *self.spans.values()):
            del seq[:]
        del self.stack[1:]
        self.stack[0][0] = self.stack[0][3] = 0
        self.split = None
        self.label = ""
        self.serial_s = self.pool_wall_s = self.busy_cell_s = 0.0
        self.payload_pickle_s = 0.0
        self.jobs = 1
        self.payload_bytes = self.payload_cells = 0

    def export(self) -> dict:
        self._charge_leaf(self.stack[0])
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counts": dict(self.counts),
                "touched_per_iteration": array("q", self.touched_per_iteration),
                "iterations": list(self.iterations),
                "spans": {k: array(v.typecode, v) for k, v in self.spans.items()},
                "leaf_ns": dict(self.leaf_ns), "pid": os.getpid()}

    def merge(self, shipped: dict) -> None:
        for name in SPANS:
            self.calls[name] += shipped["calls"][name]
            self.self_ns[name] += shipped["self_ns"][name]
        for name in COUNTS:
            self.counts[name] += shipped["counts"][name]
        self.touched_per_iteration.extend(shipped["touched_per_iteration"])
        self.iterations.extend(shipped["iterations"])
        for key, ns in shipped["leaf_ns"].items():
            self.leaf_ns[key] = self.leaf_ns.get(key, 0) + ns
        self.worker_spans.append((shipped["pid"], shipped["spans"]))

    # -- wrappers -----------------------------------------------------------

    def _close(self, name: str, self_ns: int) -> None:
        self.calls[name] += 1
        self.self_ns[name] += self_ns
        if self.split is not None:
            self.split[name] = self.split.get(name, 0) + self_ns

    def _charge_leaf(self, frame: list) -> None:
        """Book the successor time spent directly inside a closing frame."""
        if frame[3]:
            key = f"domains.successors<{frame[2]}"
            self.leaf_ns[key] = self.leaf_ns.get(key, 0) + frame[3]
            frame[3] = 0

    def _span(self, name: str, original, after=None):
        stack = self.stack
        names, starts = self.spans["name"], self.spans["start_ns"]
        ends, parents = self.spans["end_ns"], self.spans["parent"]
        name_id = SPANS.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            before = after(None, args, kwargs, None) if after is not None else None
            index = len(names)
            names.append(name_id)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1][1])
            frame = [0, index, name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                tracer._close(name, t1 - t0 - frame[0])
                tracer._charge_leaf(frame)
            if after is not None:
                after(before, args, kwargs, result)
            # everything this wrapper spent, bookkeeping included, is the
            # caller's child time, so no layer is charged for the tracing
            stack[-1][0] += perf_counter_ns() - entered
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _successors(self, original):
        """The leaf wrapper: no span record, the time goes to the caller's
        frame as child time and as successor time."""
        stack = self.stack
        close = self._close
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            gc_before = tracer.gc_ns
            result = original(*args, **kwargs)
            # a collection inside the call was charged to the caller already
            gc_inside = tracer.gc_ns - gc_before
            duration = perf_counter_ns() - entered - gc_inside
            frame = stack[-1]
            frame[3] += duration
            close("domains.successors", duration)
            frame[0] += perf_counter_ns() - entered - gc_inside
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, name: str, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        duration = perf_counter_ns() - self._gc_start
        self.gc_ns += duration
        self._close("python.gc", duration)
        frame = self.stack[-1]
        frame[0] += duration
        key = f"python.gc<{frame[2]}"
        self.leaf_ns[key] = self.leaf_ns.get(key, 0) + duration

    # -- counters read around calls ----------------------------------------
    # Each hook is called once before the call (result None, returns the
    # snapshot it needs) and once after it with that snapshot.

    def _cache_snapshot(self, cache):
        if cache is None:
            return (0, 0)
        return (cache.avoided_reexpansions, cache.dead_reexpansions)

    def _cache_delta(self, cache, before) -> None:
        if cache is None:
            return
        avoided, dead = self._cache_snapshot(cache)
        self.counts["safety.cache_avoided_reexpansions"] += avoided - before[0]
        self.counts["safety.dead_reexpansions"] += dead - before[1]

    def _after_expand(self, before, args, kwargs, result):
        budget = _arg(args, kwargs, 2, "budget")
        cache = _arg(args, kwargs, 5, "cache")
        if before is None:
            return budget.used, self._cache_snapshot(cache)
        self.counts["search.expansions_goal"] += budget.used - before[0]
        self._cache_delta(cache, before[1])
        return None

    def _after_proof(self, before, args, kwargs, result):
        cache = _arg(args, kwargs, 3, "cache")
        if before is None:
            return self._cache_snapshot(cache)
        self._cache_delta(cache, before)
        c = self.counts
        c["safety.proofs"] += 1
        c["safety.proof_expansions"] += result.expansions
        kind = type(result).__name__
        if kind == "Proven":
            c["safety.proofs_proven"] += 1
        elif kind == "BudgetOut":
            c["safety.proof_expansions_budget_out"] += result.expansions
        return None

    def _after_h_update(self, before, args, kwargs, result):
        if before is None:
            return True
        self.counts["search.h_changes"] += result
        return None

    def _after_iteration(self, before, args, kwargs, report):
        if before is None:
            self.split = {}
            return True
        graph = args[0]
        c = self.counts
        c["planners.iterations"] += 1
        c["planners.unused_budget"] += report.unused_budget
        c["planners.bound_total"] += report.bound
        c["planners.identity_actions"] += report.identity_action_taken
        if report.target_open_rank is not None:
            c["planners.target_rank_sum"] += report.target_open_rank
            c["planners.target_rank_count"] += 1
        nodes = graph.nodes
        stale = 0
        for entry in graph.open:
            node = nodes[entry[-1]]
            if node.open_seq != entry[-2] or not node.on_open:
                stale += 1
        c["search.open_heap_entries"] += len(graph.open)
        c["search.open_stale_entries"] += stale
        touched = len(graph.touched)
        self.touched_per_iteration.append(touched)
        split = self.split
        self.split = None
        # the iteration's own time without the tracing inside it
        self.iterations.append((sum(split.values()), tuple(split.items()), touched,
                                self.label))
        return None
