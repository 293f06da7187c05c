"""Old-vs-new dependence tracker equivalence, pinned property-style.

The interval-indexed :class:`~repro.core.deps.DependenceTracker` must be
*behaviour-preserving*: for any access pattern it has to produce exactly
the edge set of the seed implementation — the conservative witness-region
semantics documented in ``deps.py`` — otherwise TDGs, and with them every
simulated makespan, silently shift.  ``ReferenceTracker`` below is a
straight port of the seed tracker (linear scan, list members, no index);
the randomized tests drive both over WAR/WAW/RAW mixes with overlapping
intervals and whole-object accesses across many seeds and assert identical
edges.

The scale-regression tests pin the index's efficiency: the per-task match
count (the irreducible k of overlapping accesses) must stay flat as the
graph scales, and the insertion-scan probe count must not blow up when
whole-object regions share a name with blocked accesses — the exact
pattern that degraded the previous ``max_len`` window index to O(history)
per access.
"""

import numpy as np
import pytest

from repro.core.deps import DependenceTracker
from repro.core.task import DepKind, Task


# ----------------------------------------------------------------------
# reference implementation (seed semantics, deliberately naive)
# ----------------------------------------------------------------------
class _Hist:
    def __init__(self, region):
        self.region = region
        self.writers = []
        self.readers = []
        self.concurrents = []


class ReferenceTracker:
    """The seed tracker, minus every index: scan all histories per name.

    Kept intentionally simple — its correctness is auditable by eye against
    the semantics in the ``deps.py`` docstring, and the production tracker
    is tested against it, never the other way around.
    """

    def __init__(self):
        self.by_name = {}
        self.edges_added = 0

    def register(self, task):
        edges = set()
        for dep in task.deps:
            edges |= self._register_one(task, dep)
        self.edges_added += len(edges)
        return edges

    def _register_one(self, task, dep):
        region, kind = dep.region, dep.kind
        hists = self.by_name.setdefault(region.name, [])
        overlapping = [h for h in hists if h.region.overlaps(region)]
        edges = set()

        def link(pred):
            if pred is not task:
                edges.add((pred, task))

        if kind is DepKind.IN:
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for c in h.concurrents:
                    link(c)
        elif kind is DepKind.CONCURRENT:
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for r in h.readers:
                    link(r)
        else:  # OUT / INOUT / COMMUTATIVE
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for r in h.readers:
                    link(r)
                for c in h.concurrents:
                    link(c)

        exact = next(
            (
                h
                for h in hists
                if h.region.start == region.start and h.region.stop == region.stop
            ),
            None,
        )
        if exact is None:
            exact = _Hist(region)
            hists.append(exact)
        if kind is DepKind.IN:
            exact.readers.append(task)
        elif kind is DepKind.CONCURRENT:
            exact.concurrents.append(task)
        else:
            exact.writers = [task]
            exact.readers = []
            exact.concurrents = []
            for other in hists:
                if (
                    other is not exact
                    and other.region.overlaps(region)
                    and task not in other.writers
                ):
                    other.writers.append(task)
        return edges


# ----------------------------------------------------------------------
# randomized access patterns
# ----------------------------------------------------------------------
_KINDS = ("in_", "out", "inout", "concurrent", "commutative")


def random_tasks(seed, n_tasks=120, n_names=2, p_whole=0.15, max_coord=40):
    """Tasks with 1-3 random accesses each: mixed kinds, overlapping
    intervals of random extent, occasional whole-object regions."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        kwargs = {k: [] for k in _KINDS}
        for _ in range(int(rng.integers(1, 4))):
            name = f"r{rng.integers(n_names)}"
            if rng.random() < p_whole:
                spec = name  # whole object
            else:
                start = int(rng.integers(0, max_coord))
                spec = (name, start, start + int(rng.integers(1, 12)))
            kwargs[_KINDS[int(rng.integers(len(_KINDS)))]].append(spec)
        tasks.append(Task.make(f"t{i}", **kwargs))
    return tasks


def edge_ids(pairs):
    return {(p.task_id, s.task_id) for p, s in pairs}


def assert_equivalent(tasks):
    ref, new = ReferenceTracker(), DependenceTracker()
    for task in tasks:
        expected = edge_ids(ref.register(task))
        actual = edge_ids(new.register(task))
        assert actual == expected, (
            f"edge sets diverge at {task.label}: "
            f"extra={actual - expected}, missing={expected - actual}"
        )
    assert new.edges_added == ref.edges_added


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_kinds_overlapping_intervals(self, seed):
        assert_equivalent(random_tasks(seed))

    def test_single_name_heavy_overlap(self):
        # One name, dense interval soup: every access overlaps many others.
        assert_equivalent(
            random_tasks(seed=99, n_tasks=150, n_names=1, max_coord=16)
        )

    def test_whole_object_heavy(self):
        # Mostly whole-object accesses: the long-region tier does the work.
        assert_equivalent(
            random_tasks(seed=7, n_tasks=100, n_names=2, p_whole=0.7)
        )

    def test_writes_only_waw_chains(self):
        rng = np.random.default_rng(3)
        tasks = []
        for i in range(80):
            start = int(rng.integers(0, 20))
            stop = start + int(rng.integers(1, 8))
            tasks.append(Task.make(f"w{i}", out=[("x", start, stop)]))
        assert_equivalent(tasks)

    def test_workload_families_match_reference(self):
        from repro.apps.dag_workloads import make_workload

        for family in ("layered", "cholesky", "lu", "fork_join", "pipeline"):
            assert_equivalent(make_workload(family, scale=2, seed=1))


class TestWitnessRegionSemantics:
    """Pin the conservative corner explicitly (not just by fuzzing)."""

    def test_witness_region_smears_writer(self):
        # w0 writes [0,10); w1 writes [5,15).  A reader of [0,3) only
        # overlaps w0's bytes, but the seen region [0,10) acts as witness
        # for w1 too — the reader must depend on BOTH writers.
        tr = DependenceTracker()
        w0 = Task.make("w0", out=[("x", 0, 10)])
        w1 = Task.make("w1", out=[("x", 5, 15)])
        r = Task.make("r", in_=[("x", 0, 3)])
        tr.register(w0)
        tr.register(w1)
        edges = {(p.label, s.label) for p, s in tr.register(r)}
        assert edges == {("w0", "r"), ("w1", "r")}

    def test_exact_rewrite_clears_witness(self):
        tr = DependenceTracker()
        tr.register(Task.make("w0", out=[("x", 0, 10)]))
        tr.register(Task.make("w1", out=[("x", 5, 15)]))
        # An exact write to [0,10) supersedes both writers there.
        tr.register(Task.make("w2", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 0, 3)])
        edges = {(p.label, s.label) for p, s in tr.register(r)}
        assert edges == {("w2", "r")}


# ----------------------------------------------------------------------
# index scale regression
# ----------------------------------------------------------------------
def _register_all(tasks):
    tr = DependenceTracker()
    for t in tasks:
        tr.register_preds(t)
    return tr


class TestIndexScaling:
    def test_matches_per_task_flat_across_scale(self):
        """The per-access match count k must not grow with graph size for
        tile workloads — the interval index's core guarantee."""
        from repro.apps.dag_workloads import make_workload

        for family in ("cholesky", "lu", "layered"):
            small = make_workload(family, scale=2, seed=1)
            large = make_workload(family, scale=8, seed=1)
            k_small = _register_all(small).scan_matches / len(small)
            k_large = _register_all(large).scan_matches / len(large)
            # Flat within noise: a linear-in-history regression would grow
            # this ratio with the ~30x task-count increase.
            assert k_large <= 1.5 * k_small + 1.0, (
                family, k_small, k_large
            )

    def test_probes_stay_linear_with_whole_object_poisoning(self):
        """A whole-object access sharing a name with unit tiles used to
        widen the scan window to the full history; the long tier must keep
        insertion probes O(1) per new region instead."""

        def build(n):
            tasks = [Task.make("snap", inout=["a"])]  # whole-object first
            tasks += [
                Task.make(f"w{i}", out=[("a", i, i + 1)]) for i in range(n)
            ]
            return tasks

        probes_small = _register_all(build(200)).scan_probes / 201
        probes_large = _register_all(build(2000)).scan_probes / 2001
        assert probes_large <= 2.0 * probes_small + 2.0, (
            probes_small, probes_large,
        )

    def test_matches_count_includes_own_history(self):
        tr = DependenceTracker()
        tr.register_preds(Task.make("w", out=["x"]))
        assert tr.last_matches == 1  # its own (fresh) history
        tr.register_preds(Task.make("r", in_=["x"]))
        assert tr.last_matches == 1  # exact hit on the same history
        tr.register_preds(Task.make("r2", in_=[("x", 0, 4)]))
        assert tr.last_matches == 2  # own history + the whole-object one


class TestPruneCompaction:
    def test_prune_drops_superseded_finished_tasks(self):
        from repro.core.task import TaskState

        tr = DependenceTracker()
        tasks = [Task.make(f"t{i}", inout=["x"]) for i in range(4)]
        readers = [Task.make(f"r{i}", in_=["x"]) for i in range(3)]
        for t in tasks[:2] + readers:
            tr.register(t)
        for t in tasks[:2] + readers:
            t.state = TaskState.FINISHED
        removed = tr.prune_finished()
        assert removed == len(readers)  # readers gone, last writer kept
        # New writer after pruning still chains correctly off the kept one.
        edges = {(p.label, s.label) for p, s in tr.register(tasks[2])}
        assert edges == {("t1", "t2")}

    def test_live_regions_counts_both_tiers(self):
        tr = DependenceTracker()
        tr.register(Task.make("a", out=["whole"]))
        tr.register(Task.make("b", out=[("whole", 0, 8)]))
        tr.register(Task.make("c", out=[("other", 4, 6)]))
        assert tr.live_regions == 3


# ----------------------------------------------------------------------
# bulk submission: Runtime.submit_all vs the reference and a submit() loop
# ----------------------------------------------------------------------
# ``submit_all`` inlines graph insertion around ``register_preds``, so its
# graph must match two oracles: the edge set of ``ReferenceTracker`` above,
# and — order-sensitively — the predecessor lists, depths, ready counts,
# tracker members and counters of a plain ``submit()`` loop.
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dag_workloads import WORKLOADS, make_workload
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.sim.machine import Machine


def _make_runtime(prune_every=0):
    return Runtime(
        Machine(8, initial_level=2),
        scheduler=FifoScheduler(),
        record_trace=False,
        prune_every=prune_every,
    )


def _build_tasks(specs):
    """Fresh Task objects from ``[(label, [(kind, spec), ...]), ...]``.

    Each run needs its own handles (registration mutates them), so the
    spec list — not the task list — is the shared input.
    """
    tasks = []
    for label, accesses in specs:
        kwargs = {k: [] for k in _KINDS}
        for kind, spec in accesses:
            kwargs[kind].append(spec)
        tasks.append(Task.make(label, **kwargs))
    return tasks


def _snapshot(rt):
    """Order-sensitive structural state of the graph + tracker members."""
    g = rt.graph
    base = g.task_ids[0] if g.task_ids else 0
    tr = rt.tracker
    members = {}
    for name, idx in tr._by_name.items():
        for h in idx.hists + idx.longs:
            members[(name, h.start, h.stop)] = (
                list(h.writers) if h.writers else None,
                list(h.readers) if h.readers else None,
                list(h.concurrents) if h.concurrents else None,
            )
        members[(name, "tail")] = idx.append_tail
        members[(name, "shape")] = (
            len(idx.hists), len(idx.longs), len(idx.exact), idx.max_len
        )
    return {
        "task_ids": [t - base for t in g.task_ids],
        "preds": [list(p) for p in g.pred_ids],
        "succs": [list(s) for s in g.succ_ids],
        "depth": list(g.depth),
        "unfinished": list(g.unfinished_preds),
        "n_edges": g.n_edges,
        "members": members,
        "counters": (
            tr.scan_matches, tr.cache_hits, tr.last_matches,
            tr.edges_added, tr.scan_probes,
        ),
    }


def _graph_edges(rt, tasks):
    """The graph's edges as (pred label, succ label) pairs."""
    label_of = {t.task_id: t.label for t in tasks}
    ids = rt.graph.task_ids
    return {
        (label_of[ids[p]], label_of[ids[s]])
        for s, preds in enumerate(rt.graph.pred_ids)
        for p in preds
    }


def _run(specs, bulk, prune_every=0, windows=1):
    """Submit a program through ``submit_all`` (``bulk``) or a
    ``submit()`` loop; ``windows > 1`` splits it into that many
    submissions with a full drain (``taskwait``) between them, so later
    windows register against a warm (and, with ``prune_every``, pruned)
    tracker.  Returns ``(snapshot, edges)``."""
    rt = _make_runtime(prune_every=prune_every)
    tasks = _build_tasks(specs)
    step = max(1, -(-len(tasks) // windows))
    for i in range(0, len(tasks), step):
        window = tasks[i:i + step]
        if bulk:
            rt.submit_all(window)
        else:
            for t in window:
                rt.submit(t)
        if windows > 1:
            rt.taskwait()
    snap = _snapshot(rt)
    edges = _graph_edges(rt, tasks)
    rt.run()
    snap["makespan"] = rt.machine.sim.now
    snap["stats"] = rt.stats.as_dict()
    return snap, edges


def _reference_edges(specs):
    ref = ReferenceTracker()
    edges = set()
    for task in _build_tasks(specs):
        edges |= {(p.label, s.label) for p, s in ref.register(task)}
    return edges


def assert_bulk_equivalent(specs, prune_every=0, windows=1):
    bulk, bulk_edges = _run(specs, True, prune_every, windows)
    loop, _ = _run(specs, False, prune_every, windows)
    for key in loop:
        assert bulk[key] == loop[key], f"submit_all diverges on {key!r}"
    if prune_every and windows > 1:
        # Later windows miss edges from pruned (finished) members, but
        # the replayed ghost depths and the ready counts must match the
        # unpruned run exactly — and so must the simulation.
        full, _ = _run(specs, True, 0, windows)
        for key in ("depth", "unfinished", "makespan"):
            assert bulk[key] == full[key], f"pruning diverges on {key!r}"
    else:
        assert bulk_edges == _reference_edges(specs)


# Every kind, so each of the RAW (out->in), WAR (in->out), WAW
# (out->out) hazard classes and the concurrent-group rules appear.
_access = st.tuples(
    st.sampled_from(_KINDS),
    st.one_of(
        # Interval access: arbitrary extent in a small coordinate space,
        # so accesses overlap without matching exactly.
        st.tuples(
            st.sampled_from(("a", "b")),
            st.integers(0, 20),
            st.integers(1, 8),
        ).map(lambda t: (t[0], t[1], t[1] + t[2])),
        # Whole-object access: exercises the long-region tier.
        st.sampled_from(("a", "b")),
    ),
)
_program = st.lists(
    st.lists(_access, min_size=1, max_size=3), min_size=1, max_size=40
)


def _specs(program):
    return [(f"t{i}", acc) for i, acc in enumerate(program)]


class TestSubmitAllFuzzed:
    @settings(max_examples=60, deadline=None)
    @given(_program)
    def test_war_waw_raw_programs(self, program):
        assert_bulk_equivalent(_specs(program))

    @settings(max_examples=20, deadline=None)
    @given(_program)
    def test_two_submission_windows(self, program):
        """Mid-build completions: the second ``submit_all`` window lands
        on a drained but warm tracker."""
        assert_bulk_equivalent(_specs(program), windows=2)

    @settings(max_examples=60, deadline=None)
    @given(_program, st.sampled_from((0, 1, 17)))
    def test_prune_every_axis(self, program, prune_every):
        assert_bulk_equivalent(
            _specs(program), prune_every=prune_every, windows=2
        )


def _family_run(family, bulk, prune_every=0, windows=1):
    rt = _make_runtime(prune_every=prune_every)
    tasks = make_workload(family, scale=2, seed=1)
    step = -(-len(tasks) // windows)
    for i in range(0, len(tasks), step):
        window = tasks[i:i + step]
        if bulk:
            rt.submit_all(window)
        else:
            for t in window:
                rt.submit(t)
        if windows > 1:
            rt.taskwait()
    snap = _snapshot(rt)
    rt.run()
    snap["makespan"] = rt.machine.sim.now
    snap["stats"] = rt.stats.as_dict()
    snap["live_regions"] = rt.tracker.live_regions
    return snap


class TestSubmitAllFamilies:
    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_family_submit_all_matches_submit_loop(self, family):
        assert _family_run(family, True) == _family_run(family, False)

    @pytest.mark.parametrize("prune_every", (0, 1, 17))
    def test_family_prune_axis(self, prune_every):
        # Two windows, so the second registers against pruned histories.
        bulk = _family_run("cholesky", True, prune_every, windows=2)
        assert bulk == _family_run("cholesky", False, prune_every, windows=2)
        unpruned = _family_run("cholesky", True, windows=2)
        for key in ("depth", "unfinished", "makespan"):
            assert bulk[key] == unpruned[key], key


class TestSubmitAllCorners:
    def test_concurrent_group_edges(self):
        rt = _make_runtime()
        rt.submit_all([
            Task.make("w", out=["x"]),
            Task.make("c0", concurrent=["x"]),
            Task.make("c1", concurrent=["x"]),
        ])
        # Both group members follow the writer, not each other.
        assert rt.graph.n_edges == 2
        assert rt.graph.pred_ids == [[], [0], [0]]

    def test_second_window_edge_to_finished_writer(self):
        rt = _make_runtime()
        rt.submit_all([Task.make("a", out=["x"])])
        rt.taskwait()
        b = Task.make("b", in_=["x"])
        rt.submit_all([b])
        # The RAW edge lands, but a finished writer does not hold b back.
        assert rt.graph.n_edges == 1
        assert b.unfinished_preds == 0

    def test_pruned_window_replays_ghost_depth(self):
        # Window 2's writer loses its WAR edge to the pruned reader t1;
        # the ghost depth must still put it below t1.
        specs = [
            ("t0", [("out", "x")]),
            ("t1", [("in_", "x")]),
            ("t2", [("out", "x")]),
            ("t3", [("in_", "x")]),
        ]
        bulk, edges = _run(specs, True, prune_every=1, windows=2)
        assert ("t1", "t2") not in edges
        assert bulk["depth"] == [0, 1, 2, 3]

    def test_witness_region_edges(self):
        rt = _make_runtime()
        rt.submit_all([
            Task.make("w0", out=[("x", 0, 10)]),
            Task.make("w1", out=[("x", 5, 15)]),
            Task.make("r", in_=[("x", 0, 3)]),
        ])
        edges = {
            (p, s)
            for p in range(3)
            for s in rt.graph.succ_ids[p]
        }
        assert edges == {(0, 1), (0, 2), (1, 2)}

    def test_malformed_deps_roll_back(self):
        # A broken dependence mid-batch raises, and the failing task is
        # rolled back exactly as a submit() loop would leave it.
        good = Task.make("good", out=["x"])
        bad = Task.make("bad", in_=["x"])
        bad.deps.append("not a dependence")
        rt = _make_runtime()
        with pytest.raises(AttributeError):
            rt.submit_all([good, bad])
        assert len(rt.graph) == 1  # good registered, bad rolled back
        assert bad.gid == -1
