"""Event-kernel / dispatch throughput on the synthetic DAG families.

Unlike the figure benchmarks (which check *simulated* numbers against the
paper), this harness measures the simulator itself: host-side
simulated-tasks/second across the :mod:`repro.apps.dag_workloads`
families.  It establishes the perf trajectory of the hot path — every
future kernel/dispatch optimisation should move these numbers up, never
the makespans (which are asserted deterministic in the test suite).

The sweep is the campaign engine's ``throughput`` preset: a family ×
scale matrix executed through :func:`repro.campaign.run_campaign`, so
the numbers here and the tracked JSONL artifacts of
``python -m repro.campaign run --preset throughput`` are the same
records.  The ``--scale`` axis (tasks/s vs graph size) catches
superlinear regressions that a single fixed size hides.

``--stream`` switches to the steady-state harness: rolling
:func:`~repro.apps.dag_workloads.stream_window` windows over a bounded
buffer ring, executed under watermark pruning (``Runtime(prune_every=N)``).
Alongside tasks/s it reports — and asserts — the memory-bound trajectory:
peak ``tracker.live_regions`` stays within the ring, and peak live graph
handles stay within a window + watermark of tasks no matter how many
windows stream through.

Run under pytest (``pytest benchmarks/bench_runtime_throughput.py``)
or standalone::

    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py --scale 1,2,4
    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py --stream
"""

from __future__ import annotations

import argparse
import resource
import time
from typing import Sequence

from repro.apps.dag_workloads import WORKLOADS, make_workload, stream_window
from repro.campaign import run_campaign
from repro.campaign.presets import build_preset
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.obs import scoped
from repro.sim.machine import Machine

from conftest import banner, table

FAMILIES = tuple(sorted(WORKLOADS))
N_CORES = 16
SCALE = 2
SEED = 1

# Steady-state streaming defaults: ~40 windows x 512 tasks over a
# 64-buffer ring, pruning every 256 completions.
STREAM_WINDOWS = 40
STREAM_WINDOW_TASKS = 512
STREAM_BUFFERS = 64
STREAM_PRUNE_EVERY = 256


def run_family(name: str, scale: int = SCALE, seed: int = SEED):
    """Simulate one workload family; returns
    ``(n_tasks, host_seconds, tdg_seconds, result)``.

    The direct (non-campaign) path, kept for microbenchmark timing without
    any harness overhead.  ``tdg_seconds`` is the host-side
    TDG-construction slice (dependence registration + edge insertion) of
    ``host_seconds`` — the ROADMAP's tracker perf target is measured on
    it at ``--scale 8``.
    """
    tasks = make_workload(name, scale=scale, seed=seed)
    machine = Machine(N_CORES, initial_level=2)
    rt = Runtime(machine, scheduler=FifoScheduler(), record_trace=False)
    t0 = time.perf_counter()
    rt.submit_all(tasks)
    tdg_s = time.perf_counter() - t0
    res = rt.run()
    host_s = time.perf_counter() - t0
    return len(tasks), host_s, tdg_s, res


def run_family_profiled(name: str, scale: int = SCALE, seed: int = SEED):
    """:func:`run_family` under an enabled metrics registry.

    Returns ``(n_tasks, registry)`` — the registry carries the phase
    spans (``workload_build``/``tdg_build``/``graph_analysis``/
    ``simulate``), the
    ``dispatch`` timer and the end-of-run component counters that
    ``--profile`` tabulates.
    """
    with scoped() as registry:
        tasks = make_workload(name, scale=scale, seed=seed)
        machine = Machine(N_CORES, initial_level=2)
        rt = Runtime(machine, scheduler=FifoScheduler(), record_trace=False)
        rt.submit_all(tasks)
        rt.run()
    return len(tasks), registry


def report_profile(scale: int = SCALE, seed: int = SEED):
    """Phase breakdown + runtime-counter table (``--profile``).

    The observability answer to "which loop is the interpreter-dispatch
    constant factor?" — per family, the host time in each runtime phase
    and the hot-path counters behind it, measured with counters enabled
    (overhead ≤2%% on the throughput bench; see docs/observability.md).
    """
    phase_rows = []
    counters_by_family = {}
    counter_names: set = set()
    for name in FAMILIES:
        n_tasks, registry = run_family_profiled(name, scale=scale, seed=seed)
        spans = registry.span_totals()
        timers = registry.timers

        def _ms(table_, key):
            slot = table_.get(key)
            return f"{slot[0] * 1e3:.1f} ms" if slot is not None else "-"

        phase_rows.append(
            [
                name,
                n_tasks,
                _ms(spans, "workload_build"),
                _ms(spans, "tdg_build"),
                _ms(spans, "graph_analysis"),
                _ms(timers, "dispatch"),
                _ms(spans, "simulate"),
            ]
        )
        counters_by_family[name] = registry.counters
        counter_names.update(registry.counters)
    banner(
        f"Phase breakdown — {N_CORES} cores, scale {scale}, "
        "observability enabled ('simulate' spans contain 'dispatch')"
    )
    table(
        ["family", "tasks", "workload_build", "tdg_build", "graph_analysis",
         "dispatch", "simulate"],
        phase_rows,
    )
    banner("Runtime counters")
    table(
        ["counter"] + list(FAMILIES),
        [
            [name]
            + [
                f"{counters_by_family[f].get(name, 0.0):,.0f}"
                for f in FAMILIES
            ]
            for name in sorted(counter_names)
        ],
    )
    return counters_by_family


def run_sweep(scales: Sequence[int] = (SCALE,), workers: int = 1):
    """The family × scale sweep through the campaign engine."""
    matrix = build_preset("throughput", scales=tuple(scales))
    return run_campaign(matrix, workers=workers)


def report(scales: Sequence[int] = (SCALE,), workers: int = 1):
    summary = run_sweep(scales, workers=workers)
    rows = []
    for rec in summary.records:
        scen, met, tim = rec["scenario"], rec["metrics"], rec["timing"]
        if rec["status"] != "ok":
            # Crash-isolated scenarios carry no metrics; surface the
            # captured error instead of crashing the table.
            print(
                f"ERROR {scen['family']} scale={scen['scale']}: "
                f"{rec['error']['type']}: {rec['error']['message']}"
            )
            continue
        rows.append(
            [
                scen["family"],
                scen["scale"],
                met["n_tasks"],
                f"{tim['sim_s'] * 1e3:.1f} ms",
                f"{tim.get('tdg_s', 0.0) * 1e3:.1f} ms",
                f"{tim['tasks_per_sec']:,.0f} tasks/s",
                f"{met['makespan']:.4g} s",
            ]
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    banner(
        f"Runtime throughput — {N_CORES} cores, "
        f"scales {tuple(scales)}, {len(FAMILIES)} workload families"
    )
    table(["family", "scale", "tasks", "host time", "tdg build",
           "sim throughput", "makespan"], rows)
    return summary


def run_stream(
    windows: int = STREAM_WINDOWS,
    window_tasks: int = STREAM_WINDOW_TASKS,
    n_buffers: int = STREAM_BUFFERS,
    prune_every: int = STREAM_PRUNE_EVERY,
    n_cores: int = N_CORES,
    seed: int = SEED,
):
    """Steady-state streaming run; returns a metrics dict.

    Submits ``windows`` rolling windows with a taskwait between them
    (the ingest-pipeline pattern) and samples the memory-bound telemetry
    after every window: ``live_regions`` (tracker histories),
    ``live_handles`` (graph Task references) and tracker member entries.
    With ``prune_every=0`` the same harness measures the unpruned
    baseline — handles then grow linearly with every window.
    """
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=False,
        prune_every=prune_every,
    )
    peak_regions = 0
    peak_handles = 0
    peak_members = 0
    total = 0
    t0 = time.perf_counter()
    for w in range(windows):
        tasks = stream_window(
            w, n_buffers=n_buffers, n_tasks=window_tasks, seed=seed
        )
        rt.submit_all(tasks)
        rt.taskwait()
        total += len(tasks)
        del tasks  # the harness itself must not pin retired handles
        tracker = rt.tracker
        if tracker.live_regions > peak_regions:
            peak_regions = tracker.live_regions
        if tracker.live_members > peak_members:
            peak_members = tracker.live_members
        handles = rt.graph.live_handles()
        if handles > peak_handles:
            peak_handles = handles
    host_s = time.perf_counter() - t0
    rt.tracker.invalidate_region_caches()
    return {
        "windows": windows,
        "n_tasks": total,
        "host_s": host_s,
        "tasks_per_sec": total / host_s if host_s > 0 else 0.0,
        "peak_live_regions": peak_regions,
        "peak_live_handles": peak_handles,
        "peak_members": peak_members,
        "final_live_handles": rt.graph.live_handles(),
        "prune_passes": rt.stats.get("prune_passes"),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan": machine.sim.now,
    }


def report_stream(**kwargs):
    metrics = run_stream(**kwargs)
    banner(
        f"Steady-state streaming — {metrics['windows']} windows, "
        f"{metrics['n_tasks']} tasks, prune_every="
        f"{kwargs.get('prune_every', STREAM_PRUNE_EVERY)}"
    )
    table(
        ["tasks", "host time", "throughput", "peak regions",
         "peak handles", "final handles", "maxrss"],
        [[
            metrics["n_tasks"],
            f"{metrics['host_s'] * 1e3:.1f} ms",
            f"{metrics['tasks_per_sec']:,.0f} tasks/s",
            metrics["peak_live_regions"],
            metrics["peak_live_handles"],
            metrics["final_live_handles"],
            f"{metrics['maxrss_mb']:.0f} MB",
        ]],
    )
    return metrics


def test_streaming_bounded():
    """Watermark pruning bounds tracker regions AND live Task handles."""
    metrics = run_stream(windows=12)
    # The buffer ring bounds the region namespace...
    assert metrics["peak_live_regions"] <= STREAM_BUFFERS
    # ...and pruning bounds retained handles to a window + watermark,
    # independent of how many windows streamed through.
    assert (
        metrics["peak_live_handles"]
        <= STREAM_WINDOW_TASKS + STREAM_PRUNE_EVERY
    )
    assert metrics["final_live_handles"] <= STREAM_PRUNE_EVERY
    # Control: without pruning the graph pins every task ever submitted.
    unpruned = run_stream(windows=4, prune_every=0)
    assert unpruned["peak_live_handles"] == 4 * STREAM_WINDOW_TASKS
    # Pruning must not change the simulated outcome.
    assert unpruned["makespan"] > 0


def test_runtime_throughput(benchmark):
    benchmark.pedantic(run_family, args=("layered",), rounds=1, iterations=1)
    summary = report(scales=(1, 2))
    assert summary.n_errors == 0
    assert len(summary.records) == len(FAMILIES) * 2
    by_key = {
        (r["scenario"]["family"], r["scenario"]["scale"]): r
        for r in summary.records
    }
    for name in FAMILIES:
        for scale in (1, 2):
            met = by_key[(name, scale)]["metrics"]
            assert met["n_tasks"] > 0
            assert met["makespan"] > 0
        # The scale axis grows the graph.
        assert (
            by_key[(name, 2)]["metrics"]["n_tasks"]
            > by_key[(name, 1)]["metrics"]["n_tasks"]
        )
    # Deterministic simulation: a re-run must reproduce each record's
    # metrics bit for bit (host timing excluded by construction).
    rerun = {
        (r["scenario"]["family"], r["scenario"]["scale"]): r
        for r in run_sweep(scales=(1, 2)).records
    }
    for key, rec in by_key.items():
        assert rerun[key]["metrics"] == rec["metrics"]
        assert rerun[key]["stats"] == rec["stats"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default=str(SCALE),
        help="comma-separated graph-scale list, e.g. 1,2,4 (default: 2)",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--profile", action="store_true",
        help="print the observability phase breakdown + counter table "
        "(at the largest --scale) instead of the throughput sweep",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="run the steady-state streaming harness instead of the "
        "family x scale sweep",
    )
    parser.add_argument("--windows", type=int, default=STREAM_WINDOWS)
    parser.add_argument(
        "--window-tasks", type=int, default=STREAM_WINDOW_TASKS
    )
    parser.add_argument("--buffers", type=int, default=STREAM_BUFFERS)
    parser.add_argument(
        "--prune-every", type=int, default=STREAM_PRUNE_EVERY,
        help="watermark (completions per prune pass); 0 disables pruning",
    )
    args = parser.parse_args()
    if args.stream:
        report_stream(
            windows=args.windows,
            window_tasks=args.window_tasks,
            n_buffers=args.buffers,
            prune_every=args.prune_every,
        )
    elif args.profile:
        scale_list = tuple(int(s) for s in args.scale.split(",") if s)
        report_profile(scale=max(scale_list))
    else:
        scale_list = tuple(int(s) for s in args.scale.split(",") if s)
        report(scales=scale_list, workers=args.workers)
