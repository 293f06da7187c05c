"""The benchmark's three workloads and the checks on their outputs.

Each workload is a sequence of *rounds*; a round is a fixed list of
operations, so every round of a workload does exactly the same work and
the benchmark only ever stops between rounds:

* ``dag_batch`` — one round is the five DAG families × {16, 256}
  simulated cores; one operation is a fresh ``make_workload`` →
  ``submit_all`` → ``run`` of one scenario, FIFO.
* ``stream`` — one round is a *session*: a fresh
  ``Runtime(prune_every=256)`` on 16 cores fed ``windows`` rolling
  ``stream_window`` windows of 256–768 tasks with a ``taskwait`` each;
  one operation is one window.  A session has a fixed length so that
  peak memory does not depend on how many windows a run manages to push
  through.
* ``campaign_small`` — one round is the ok-status rows of the
  ``runtime_faults_sweep`` preset plus ``rsu_comparison``, run serially
  through ``run_campaign`` into a fresh ``ResultStore``; one operation
  is one scenario.

An operation's time runs from the workload-builder call to its result,
cleanup and deallocation included; output checks run outside it.  A
host-speed probe (``hostspeed.py``) runs before the first operation of
a round and after each one, also outside the operations' time.

Every operation yields an *outcome* — makespan, energy, task count and
the runtime statistics — that the caller compares bit for bit against
a reference (see ``run.py``), plus an error string when a structural
check failed: each predecessor must end before its successor starts,
and every submitted task must have finished.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.apps import dag_workloads
from repro.campaign import Matrix, ResultStore, build_preset, run_campaign
from repro.campaign.runner import run_scenario
from repro.core.deps import DependenceTracker
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.sim.machine import Machine

from hostspeed import probe
from tracing import NULL_TRACER

FAMILIES = ("cholesky", "fork_join", "layered", "lu", "pipeline")

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke size the benchmark's own tests run.
SIZES: Dict[str, Dict[str, int]] = {
    "full": dict(scale=8, windows=160, window_tasks=512, buffers=64,
                 campaign_stride=1),
    "tiny": dict(scale=1, windows=8, window_tasks=64, buffers=16,
                 campaign_stride=25),
}
DAG_CORES = (16, 256)
STREAM_CORES = 16
STREAM_PRUNE_EVERY = 256
#: Stream window sizes cycle through these multiples of ``window_tasks``
#: (mean 1).  With equal windows every operation costs the same, and the
#: median of such a distribution jumps between the host's fast and slow
#: speed regimes instead of moving with the share of time spent in each.
STREAM_WINDOW_SCALE = (1.0, 0.5, 1.5, 0.75, 1.25)


@dataclass
class Op:
    """One timed operation and what its checks found."""

    key: str
    seconds: float
    tasks: int
    outcome: Optional[Dict[str, Any]]
    error: Optional[str] = None
    #: The part of ``seconds`` spent in garbage collection.
    gc_seconds: float = 0.0


@dataclass
class Round:
    """The operations of one round plus its exact counts and peaks."""

    ops: List[Op] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    peaks: Dict[str, float] = field(default_factory=dict)
    #: Host seconds per operation spent in the layers named by the
    #: campaign records (``campaign_small`` traced rounds only).
    campaign: Dict[str, float] = field(default_factory=dict)
    #: Host-speed probe readings: ``speed[i]`` is taken just before
    #: ``ops[i]`` and ``speed[i + 1]`` just after it.
    speed: List[float] = field(default_factory=list)

    def add(self, counts: Dict[str, float]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, -1.0):
            self.peaks[name] = value


class GcClock:
    """Seconds spent in garbage collection, summed from ``gc.callbacks``
    while the clock is installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    @contextmanager
    def installed(self) -> Iterator[None]:
        gc.callbacks.append(self._callback)
        try:
            yield
        finally:
            gc.callbacks.remove(self._callback)


GC_CLOCK = GcClock()


def clock() -> Tuple[float, float]:
    """Wall seconds and :data:`GC_CLOCK` seconds, read together."""
    return time.perf_counter(), GC_CLOCK.seconds


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except FileNotFoundError:  # not Linux: fall back to the peak so far
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def runtime_counts(rt: Runtime) -> Dict[str, float]:
    """Exact per-runtime work counts, read from public attributes."""
    stats = rt.stats
    return {
        "tasks": len(rt.graph),
        "edges": rt.graph.n_edges,
        "events": rt.machine.sim.events_processed,
        "kernel_rows": rt.tracker.kernel_rows,
        "prune_passes": stats.get("prune_passes"),
        "faults_fired": stats.get("runtime_faults_fired"),
        "tasks_reexecuted": stats.get("tasks_reexecuted"),
        "critical_tasks_started": stats.get("critical_tasks_started"),
    }


def sample_tracker(rt: Runtime, rnd: Round) -> None:
    """Peak-memory telemetry.  Reading the tracker's live counts drains
    its deferred member stash, so traced rounds call this only after the
    point where the program drains it anyway."""
    rnd.peak("live_regions", rt.tracker.live_regions)
    rnd.peak("live_members", rt.tracker.live_members)


def live_handles(rt: Runtime) -> int:
    """``TaskGraph.live_handles()`` at C speed (it is sampled per window)."""
    tasks = rt.graph.tasks
    return len(tasks) - tasks.count(None)


def check_order(rt: Runtime, lo: int, hi: int) -> Optional[str]:
    """Dependence order of gids ``lo..hi-1`` from the graph arrays: each
    task ran, and each predecessor ended no later than it started."""
    graph = rt.graph
    start, end, preds = graph.start_time, graph.end_time, graph.pred_ids
    for gid in range(lo, hi):
        began = start[gid]
        if began is None or end[gid] is None:
            return f"task gid={gid} never ran"
        for pred in preds[gid]:
            if end[pred] > began:
                return (
                    f"gid={gid} started at {began!r} before predecessor "
                    f"gid={pred} ended at {end[pred]!r}"
                )
    return None


def check_finished(stats: Dict[str, float], n_tasks: int) -> Optional[str]:
    finished = stats.get("tasks_finished", 0.0)
    if finished != n_tasks:
        return f"tasks_finished={finished!r} != n_tasks={n_tasks}"
    return None


#: The fields of an outcome, in the order ``expected.jsonl`` stores them.
OUTCOME_FIELDS = ("makespan", "energy_j", "n_tasks", "stats_sha256")


def outcome(makespan: float, energy_j: float, n_tasks: int,
            stats: Dict[str, float]) -> Dict[str, Any]:
    """What an operation must reproduce bit for bit.  The statistics
    enter as a digest of their exact JSON form (floats by ``repr``)."""
    blob = json.dumps(stats, sort_keys=True).encode()
    return {"makespan": makespan, "energy_j": energy_j, "n_tasks": n_tasks,
            "stats_sha256": hashlib.sha256(blob).hexdigest()[:16]}


# ----------------------------------------------------------------------
# dag_batch
# ----------------------------------------------------------------------
def dag_round(seed: int, size: str, tracer=NULL_TRACER) -> Round:
    rnd = Round()
    rnd.speed.append(probe())
    for cores in DAG_CORES:
        for family in FAMILIES:
            key = f"{family}@{cores}"
            tracer.start_op(key)
            try:
                op = _dag_op(key, family, cores, seed, size, tracer, rnd)
            except Exception as exc:  # a failed operation, not a crash
                op = Op(key, 0.0, 0, None, f"{type(exc).__name__}: {exc}")
            tracer.end_op()
            rnd.ops.append(op)
            rnd.speed.append(probe())
    return rnd


def _dag_op(key: str, family: str, cores: int, seed: int, size: str,
            tracer, rnd: Round) -> Op:
    t0, g0 = clock()
    tasks = dag_workloads.make_workload(
        family, scale=SIZES[size]["scale"], seed=seed
    )
    rt = Runtime(
        Machine(cores, initial_level=2),
        scheduler=FifoScheduler(),
        record_trace=False,
    )
    rt.submit_all(tasks)
    res = rt.run()
    rt.tracker.invalidate_region_caches()
    t1, g1 = clock()
    # Checks and sampling, outside the operation's time.
    stats = res.stats.as_dict()
    error = check_order(rt, 0, len(rt.graph))
    if error is None:
        error = check_finished(stats, len(tasks))
    rnd.peak("rss_mb", rss_mb())
    if tracer.enabled:
        rnd.add(runtime_counts(rt))
        sample_tracker(rt, rnd)
        rnd.peak("live_handles", live_handles(rt))
    op = Op(key, 0.0, len(tasks),
            outcome(res.makespan, res.energy_j, res.n_tasks, stats), error)
    # Freeing the scenario is part of the operation, as it is for a
    # campaign scenario.
    t2, g2 = clock()
    del tasks, rt, res
    t3, g3 = clock()
    op.seconds = (t1 - t0) + (t3 - t2)
    op.gc_seconds = (g1 - g0) + (g3 - g2)
    return op


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def stream_round(seed: int, size: str, tracer=NULL_TRACER) -> Round:
    cfg = SIZES[size]
    n_windows = cfg["windows"]
    # RSS growth is measured from this window on, past the warm-up.
    warm = max(1, n_windows // 10)
    traced = tracer.enabled
    rnd = Round()
    machine = Machine(STREAM_CORES, initial_level=2)
    rt = Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=False,
        prune_every=STREAM_PRUNE_EVERY,
    )
    rnd.speed.append(probe())
    for w in range(n_windows):
        key = f"w{w}"
        tracer.start_op(key)
        lo = len(rt.graph)
        t0, g0 = clock()
        try:
            tasks = dag_workloads.stream_window(
                w, n_buffers=cfg["buffers"],
                n_tasks=int(cfg["window_tasks"] * STREAM_WINDOW_SCALE[
                    w % len(STREAM_WINDOW_SCALE)]),
                seed=seed,
            )
            rt.submit_all(tasks)
            if traced:
                rnd.peak("live_handles", live_handles(rt))
            rt.taskwait()
            del tasks  # the harness must not pin retired handles
            if w == n_windows - 1:
                rt.tracker.invalidate_region_caches()
        except Exception as exc:  # the session cannot go on
            t1, g1 = clock()
            tracer.end_op()
            rnd.ops.append(Op(key, t1 - t0, 0, None,
                              f"{type(exc).__name__}: {exc}", g1 - g0))
            rnd.speed.append(probe())
            break
        t1, g1 = clock()
        stats = rt.stats.as_dict()
        hi = len(rt.graph)
        error = check_order(rt, lo, hi)
        if error is None:
            error = check_finished(stats, hi)
        rss = rss_mb()
        rnd.peak("rss_mb", rss)
        if w == warm:
            rss_warm, tasks_warm = rss, hi
        if traced and w:
            # Not after window 0: that would drain the kernel's
            # deferred member stash outside window 1's submit_all.
            sample_tracker(rt, rnd)
        tracer.end_op()
        rnd.ops.append(Op(
            key, t1 - t0, hi - lo,
            outcome(machine.sim.now, machine.total_energy_j(), hi, stats),
            error, g1 - g0,
        ))
        rnd.speed.append(probe())
    else:
        rnd.counts["rss_kb_per_ktask"] = (
            (rss - rss_warm) * 1024.0 / ((hi - tasks_warm) / 1000.0)
        )
    if traced:
        rnd.add(runtime_counts(rt))
    return rnd


# ----------------------------------------------------------------------
# campaign_small
# ----------------------------------------------------------------------
def campaign_scenarios(size: str) -> list:
    """The ok-status ``runtime_faults_sweep`` rows plus ``rsu_comparison``.

    The sweep's six rows that kill a core under the ``static`` scheduler
    on ``layered`` and ``cholesky`` strand work no scheduler can re-route,
    and end in a deterministic ``DeadlockError`` by design; they are
    left out so that every operation of the workload is expected to
    succeed.
    """
    rows = [
        s for s in build_preset("runtime_faults_sweep")
        if not (
            s.scheduler == "static"
            and s.param("core_kill_p") == 1.0
            and s.param("base_family") in ("layered", "cholesky")
        )
    ]
    rows += list(build_preset("rsu_comparison"))
    return rows[:: SIZES[size]["campaign_stride"]]


class CampaignRunner:
    """Runs ``campaign_small`` rounds in a seed-fixed scenario order.

    Campaign records do not depend on the benchmark seed (each scenario
    carries its own), so the seed shuffles the order the scenarios run
    in; the expected outcomes then hold for every seed.
    """

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        rows = campaign_scenarios(size)
        order = np.random.default_rng(seed).permutation(len(rows))
        self.matrix = Matrix("campaign_small", tuple(rows[i] for i in order))
        self.store_path = os.path.join(workdir, f"store-{os.getpid()}.jsonl")

    def close(self) -> None:
        if os.path.exists(self.store_path):
            os.remove(self.store_path)

    def round(self, tracer=NULL_TRACER) -> Round:
        traced = tracer.enabled
        rnd = Round()
        self.close()
        store = ResultStore(self.store_path)
        # Per-scenario facts gathered by the Runtime.run wrapper, consumed
        # by the progress callback that closes the scenario's operation.
        facts: Dict[str, Any] = {"error": None, "check_s": 0.0,
                                 "check_gc": 0.0}
        original_run = Runtime.run

        def probed_run(rt: Runtime):
            result = original_run(rt)
            t0, g0 = clock()
            with tracer.span("bench.check"):
                facts["error"] = check_order(rt, 0, len(rt.graph))
                rnd.peak("rss_mb", rss_mb())
                if traced:
                    rnd.add(runtime_counts(rt))
                    rnd.peak("live_handles", live_handles(rt))
            t1, g1 = clock()
            facts["check_s"] += t1 - t0
            facts["check_gc"] += g1 - g0
            return result

        def probed_invalidate(tracker: DependenceTracker) -> int:
            # The tracker's live counts are read after the program's own
            # drain of the deferred member stash, as in the other rounds.
            cleared = original_invalidate(tracker)
            t0, g0 = clock()
            rnd.peak("live_regions", tracker.live_regions)
            rnd.peak("live_members", tracker.live_members)
            t1, g1 = clock()
            facts["check_s"] += t1 - t0
            facts["check_gc"] += g1 - g0
            return cleared

        original_invalidate = DependenceTracker.invalidate_region_caches
        last = [clock()]
        sums = {"setup": 0.0, "sim": 0.0, "store": 0.0}

        def on_record(record: dict) -> None:
            now, gc_now = clock()
            interval = now - last[0][0]
            tracer.end_op()
            op = _campaign_op(record, interval - facts["check_s"],
                              facts["error"])
            op.gc_seconds = gc_now - last[0][1] - facts["check_gc"]
            facts.update(error=None, check_s=0.0, check_gc=0.0)
            rnd.ops.append(op)
            rnd.speed.append(probe())
            if traced:
                # The checks ran inside the record's wall_s window.
                timing = record["timing"]
                sums["setup"] += timing["build_s"]
                sums["sim"] += timing["sim_s"]
                sums["store"] += interval - timing["wall_s"]
            tracer.start_op(str(len(rnd.ops)))
            last[0] = clock()

        Runtime.run = probed_run
        if traced:
            DependenceTracker.invalidate_region_caches = probed_invalidate
        try:
            tracer.start_op("0")
            rnd.speed.append(probe())
            last[0] = clock()
            run_campaign(self.matrix, store=store, workers=1,
                         progress=on_record)
            tracer.abandon_op()
        finally:
            Runtime.run = original_run
            DependenceTracker.invalidate_region_caches = original_invalidate
        if traced and rnd.ops:
            rnd.campaign = {k: v / len(rnd.ops) for k, v in sums.items()}
        return rnd


def _campaign_op(record: dict, seconds: float, error: Optional[str]) -> Op:
    key = record["id"]
    if record["status"] != "ok":
        err = record["error"]
        return Op(key, seconds, 0, None, f"{err['type']}: {err['message']}")
    metrics, stats = record["metrics"], record["stats"]
    n_tasks = metrics["n_tasks"]
    return Op(
        key, seconds, n_tasks,
        outcome(metrics["makespan"], metrics["energy_j"], n_tasks, stats),
        error if error is not None else check_finished(stats, n_tasks),
    )


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def warm_up() -> None:
    """Pay every one-off cost the timed loop would otherwise see: the
    first vectorised-kernel batch, the lazy ``runtime_faults`` import and
    the campaign runner's first-record work (its git-revision probe)."""
    rt = Runtime(Machine(4, initial_level=2), scheduler=FifoScheduler(),
                 record_trace=False)
    rt.submit_all(dag_workloads.make_workload("cholesky", scale=1, seed=0))
    rt.run()
    rt.tracker.invalidate_region_caches()
    scenario = next(
        s for s in build_preset("runtime_faults_sweep")
        if s.param("fault_count") and s.scheduler == "fifo"
    )
    record = run_scenario(scenario, campaign="warm_up")
    if record["status"] != "ok":
        raise RuntimeError(f"warm-up scenario failed: {record['error']}")


WORKLOAD_NAMES = ("dag_batch", "stream", "campaign_small")


def make_rounds(
    name: str, seed: int, size: str, workdir: str
) -> Tuple[Callable[..., Round], Callable[[], None]]:
    """``(round(tracer) -> Round, close())`` for workload ``name``."""
    if name == "dag_batch":
        return (lambda tracer: dag_round(seed, size, tracer)), _noop
    if name == "stream":
        return (lambda tracer: stream_round(seed, size, tracer)), _noop
    if name == "campaign_small":
        runner = CampaignRunner(seed, size, workdir)
        return runner.round, runner.close
    raise ValueError(f"unknown workload {name!r}")


def _noop() -> None:
    return None
