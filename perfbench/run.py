"""End-to-end benchmark of the simulator: workload build to result.

Runs one workload (``dag_batch``, ``stream`` or ``campaign_small``; see
``workloads.py`` and README.md) for about ``--seconds`` seconds of whole
rounds, checks every operation's output, and prints a report followed
by one JSON line::

    python3 perfbench/run.py --workload dag_batch --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the JSON carries the end-to-end metrics, measured
with no span recording.  With ``--trace 1`` untraced and traced rounds
alternate: the JSON carries the per-layer metrics of the traced rounds,
``trace.overhead_pct`` compares the two kinds, and the spans are written
to ``perfbench/out/``.  ``--workload all`` runs the three workloads in
one process and keys each metric by workload.

``--record-expected`` re-records ``expected.jsonl``: the bit-exact
outcomes of every operation at the default seed, which runs at that
seed are checked against.  Only a change that is meant to alter
simulated results may re-record them.

The script reads and writes nothing outside the repository checkout it
sits in, and needs ``src/`` beside it; without it, it exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

if __name__ == "__main__":
    # One BLAS thread, for this process and the set-up interpreters it
    # starts, in keeping with the benchmark's single-threaded load:
    # starting a pool thread on a vCPU that other tenants keep busy
    # doubled set-up time on the reference host.  Set before numpy is
    # first imported, and only when run as the benchmark, so that
    # importing this module changes no one else's environment.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

# The revision lookup campaign records use, so both name the same rev.
from repro.campaign.runner import _git_rev  # noqa: E402

import workloads as wl  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, fast_mask  # noqa: E402
from tracing import NULL_TRACER, Tracer  # noqa: E402

#: The seed ``expected.jsonl`` is recorded at.
DEFAULT_SEED = 1
#: Never run while the benchmark was tuned: re-check claims on it.
HELD_OUT_SEED = 4099
#: Cold set-ups measured per run (each in a fresh interpreter).
SETUP_SAMPLES = 9
EXPECTED_PATH = os.path.join(HERE, "expected.jsonl")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END: Dict[str, str] = {
    "tasks_per_s": "tasks/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER: Dict[str, str] = {
    "apps.build_ms": "ms",
    "apps.us_per_task": "us",
    "deps.submit_ms": "ms",
    "deps.us_per_edge": "us",
    "deps.kernel_row_share": "rows/task",
    "deps.flush_ms": "ms",
    "graph.analysis_ms": "ms",
    "sim.run_ms": "ms",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.us_per_task": "us",
    "prune.passes": "count",
    "prune.peak_live_handles": "count",
    "deps.peak_live_regions": "count",
    "deps.peak_live_members": "count",
    "mem.rss_kb_per_ktask": "KB/ktask",
    "campaign.setup_ms": "ms",
    "campaign.sim_ms": "ms",
    "campaign.store_ms": "ms",
    "faults.fired": "count",
    "faults.reexecuted": "count",
    "rsu.critical_tasks_started": "count",
    "trace.overhead_pct": "%",
}


def run_metadata(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "host": socket.gethostname(),
    }


def measure_setup(samples: int) -> List[float]:
    """Cold set-up seconds, each measured in a fresh interpreter."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def load_expected(path: str = EXPECTED_PATH) -> List[List[Any]]:
    """One JSON list per operation: workload, size, seed, key, then the
    :data:`workloads.OUTCOME_FIELDS`.  A ``null`` seed marks an outcome
    that does not depend on the seed."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reference_for(expected: List[List[Any]], workload: str, size: str,
                  seed: int) -> Dict[str, Any]:
    """Expected outcomes by operation key, for this run's seed."""
    return {
        row[3]: dict(zip(wl.OUTCOME_FIELDS, row[4:]))
        for row in expected
        if row[0] == workload and row[1] == size and row[2] in (None, seed)
    }


def check_outcomes(ops: List[wl.Op], reference: Dict[str, Any]) -> None:
    """Compare each outcome bit for bit with the expected one or, where
    none is recorded, with the first outcome of the same operation in
    this run.  Sets ``op.error`` on a mismatch."""
    first: Dict[str, Any] = {}
    for op in ops:
        if op.error is not None:
            continue
        ref = reference.get(op.key)
        if ref is None:
            ref = first.setdefault(op.key, op.outcome)
        if op.outcome != ref:
            diff = [
                f"{k}={op.outcome.get(k)!r} expected {ref.get(k)!r}"
                for k in sorted(set(ref) | set(op.outcome))
                if op.outcome.get(k) != ref.get(k)
            ]
            op.error = "outcome differs: " + "; ".join(diff)


def _rate(rounds: List[wl.Round]) -> float:
    ops = [op for r in rounds for op in r.ops]
    seconds = sum(op.seconds for op in ops)
    return sum(op.tasks for op in ops) / seconds if seconds > 0 else 0.0


def fastest_probe(rounds: List[wl.Round]) -> float:
    return min(s for r in rounds for s in r.speed)


def lower_quartile(values: List[float]) -> float:
    return sorted(values)[len(values) // 4]


def full_speed_times(
    rounds: List[wl.Round], fastest: float
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per operation key, its time at full host speed with garbage
    collection spread evenly, and its task count; plus the share of
    operations that ran at full speed.

    A key's time is the lower quartile, over its instances that ran at
    full host speed, of the seconds spent outside garbage collection
    (the least of them over all its instances if none ran at full
    speed), times ``1 + gc``, where ``gc`` is the run's collection
    seconds per second of other work.

    Every instance of a key does the same work, so outside collection
    its time varies only with the host.  A slow spell shorter than the
    operation can slip between the probes, and it only ever adds time,
    so the lower quartile is taken rather than the median.  Collections
    land on whichever operation crosses an allocation threshold, so a
    few instances of a key carry them all: any one quantile of whole
    times would leave them out or swing with how many instances were
    hit.  Both host regimes slow collection and other work alike, so
    ``gc`` comes from every operation.
    """
    kept: Dict[str, List[float]] = defaultdict(list)
    every: Dict[str, List[float]] = defaultdict(list)
    tasks: Dict[str, int] = {}
    n_fast = 0
    gc_s = work_s = 0.0
    for r in rounds:
        mask = fast_mask(r.speed[:-1], r.speed[1:], fastest)
        mask += [False] * (len(r.ops) - len(mask))
        for op, fast in zip(r.ops, mask):
            work = op.seconds - op.gc_seconds
            every[op.key].append(work)
            tasks[op.key] = op.tasks
            gc_s += op.gc_seconds
            work_s += work
            if fast:
                kept[op.key].append(work)
                n_fast += 1
    scale = 1.0 + (gc_s / work_s if work_s > 0 else 0.0)
    times = {
        key: (lower_quartile(kept[key]) if kept[key] else min(work)) * scale
        for key, work in every.items()
    }
    return times, tasks, n_fast / sum(len(w) for w in every.values())


def end_to_end(plain: List[wl.Round], setup: List[float],
               fastest: float) -> Dict[str, float]:
    """Operation times at full host speed, rescaled to the reference
    host speed (see ``hostspeed.py``).  Every round runs each operation
    key once, so the per-key times make up one full-speed round: its
    tasks per second, and the median and p90 of its operation times.
    The set-up time is not rescaled."""
    times, tasks, _ = full_speed_times(plain, fastest)
    to_reference = REFERENCE_PROBE_S / fastest
    op_ms = [t * to_reference * 1e3 for t in times.values()]
    return {
        "tasks_per_s": sum(tasks.values())
        / (sum(times.values()) * to_reference),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8]
        if len(op_ms) > 1 else op_ms[0],
        "peak_rss_mb": max(r.peaks.get("rss_mb", 0.0) for r in plain),
        "setup_s": statistics.median(setup),
    }


def per_layer(plain: List[wl.Round], traced: List[wl.Round],
              tracer: Tracer) -> Dict[str, float]:
    ops = [op for r in traced for op in r.ops]
    n_ops = len(ops)
    counts: Dict[str, float] = {}
    for r in traced:
        for name, value in r.counts.items():
            counts[name] = counts.get(name, 0.0) + value
    # Exact counts are reported per round: every round does the same work.
    per_round = traced[0].counts
    totals = tracer.totals()

    def incl(*names: str) -> float:
        return sum(totals.get(n, [0, 0.0, 0.0])[1] for n in names)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    build_s = incl("apps.make_workload", "apps.stream_window")
    submit_s = incl("deps.submit_all")
    sim_s = tracer.top_level_s(("sim.run", "sim.taskwait"))
    peaks: Dict[str, float] = {}
    for r in traced:
        for name, value in r.peaks.items():
            peaks[name] = max(peaks.get(name, 0.0), value)
    campaign = {
        k: statistics.fmean(r.campaign.get(k, 0.0) for r in traced)
        for k in ("setup", "sim", "store")
    }
    plain_rate = _rate(plain)
    return {
        "apps.build_ms": ratio(build_s, n_ops, 1e3),
        "apps.us_per_task": ratio(build_s, sum(op.tasks for op in ops), 1e6),
        "deps.submit_ms": ratio(submit_s, n_ops, 1e3),
        "deps.us_per_edge": ratio(submit_s, counts.get("edges", 0.0), 1e6),
        "deps.kernel_row_share": ratio(
            counts.get("kernel_rows", 0.0), counts.get("tasks", 0.0)
        ),
        "deps.flush_ms": ratio(
            incl("deps.invalidate_region_caches"), n_ops, 1e3
        ),
        "graph.analysis_ms": ratio(
            tracer.top_level_s(("graph.analysis",)), n_ops, 1e3
        ),
        "sim.run_ms": ratio(sim_s, n_ops, 1e3),
        "sim.events": per_round.get("events", 0.0),
        "sim.us_per_event": ratio(sim_s, counts.get("events", 0.0), 1e6),
        "sim.us_per_task": ratio(sim_s, counts.get("tasks", 0.0), 1e6),
        "prune.passes": per_round.get("prune_passes", 0.0),
        "prune.peak_live_handles": peaks.get("live_handles", 0.0),
        "deps.peak_live_regions": peaks.get("live_regions", 0.0),
        "deps.peak_live_members": peaks.get("live_members", 0.0),
        # The run's first round, while the heap is fresh: later rounds
        # refill memory the first one freed.
        "mem.rss_kb_per_ktask": plain[0].counts.get("rss_kb_per_ktask", 0.0),
        "campaign.setup_ms": campaign["setup"] * 1e3,
        "campaign.sim_ms": campaign["sim"] * 1e3,
        "campaign.store_ms": campaign["store"] * 1e3,
        "faults.fired": per_round.get("faults_fired", 0.0),
        "faults.reexecuted": per_round.get("tasks_reexecuted", 0.0),
        "rsu.critical_tasks_started": per_round.get(
            "critical_tasks_started", 0.0
        ),
        "trace.overhead_pct": ratio(
            plain_rate - _rate(traced), plain_rate, 100.0
        ),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    expected: Optional[List[List[Any]]] = None,
    setup_samples: int = SETUP_SAMPLES,
) -> Dict[str, Any]:
    """Run one workload and return its result.

    The result holds ``attempted``/``failed`` operation counts, the
    failures, ``metrics`` (name -> value), the run metadata and, when
    traced, the tracer.  Whole rounds run until ``seconds`` have passed;
    a traced run alternates untraced and traced rounds, at least one of
    each.
    """
    setup = [] if trace else measure_setup(setup_samples)
    wl.warm_up()
    os.makedirs(OUT_DIR, exist_ok=True)
    run_round, close = wl.make_rounds(workload, seed, size, OUT_DIR)
    tracer = Tracer() if trace else None
    plain: List[wl.Round] = []
    traced: List[wl.Round] = []
    deadline = time.perf_counter() + seconds
    try:
        with wl.GC_CLOCK.installed():
            while True:
                if tracer is not None and len(traced) < len(plain):
                    with tracer.installed():
                        traced.append(run_round(tracer))
                else:
                    plain.append(run_round(NULL_TRACER))
                if time.perf_counter() >= deadline and (
                    tracer is None or traced
                ):
                    break
    finally:
        close()
    ops = [op for r in plain + traced for op in r.ops]
    if expected is None:
        expected = load_expected()
    check_outcomes(ops, reference_for(expected, workload, size, seed))
    failures = [(op.key, op.error) for op in ops if op.error is not None]
    fastest = fastest_probe(plain)
    metrics = (
        per_layer(plain, traced, tracer) if tracer is not None
        else end_to_end(plain, setup, fastest)
    )
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "samples": sum(len(r.ops) for r in plain),
        "full_speed_share": full_speed_times(plain, fastest)[2],
        "raw_tasks_per_s": _rate(plain),
        "fastest_probe_s": fastest,
        "rounds": (len(plain), len(traced)),
        "meta": run_metadata(workload, seed, seconds, trace, size),
        "tracer": tracer,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(result: Dict[str, Any]) -> None:
    meta = result["meta"]
    print("# meta " + json.dumps(meta, sort_keys=True))
    units = PER_LAYER if meta["trace"] else END_TO_END
    n_plain, n_traced = result["rounds"]
    print(
        f"workload {meta['workload']}: {result['attempted']} operations in "
        f"{n_plain} untraced + {n_traced} traced rounds, "
        f"{result['failed']} failed (failed_ratio "
        f"{result['failed'] / result['attempted']:.4g}); percentiles over "
        f"the per-key times of {result['samples']} untraced operations"
    )
    print(
        f"  {result['full_speed_share']:.0%} of untraced operations ran at "
        f"full host speed; fastest probe "
        f"{result['fastest_probe_s'] * 1e6:.1f} us against the reference "
        f"{REFERENCE_PROBE_S * 1e6:.0f} us; tasks_per_s over every "
        f"operation, not rescaled: {result['raw_tasks_per_s']:.6g}"
    )
    for key, error in result["failures"][:10]:
        print(f"  FAILED {key}: {error}")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    tracer = result["tracer"]
    if tracer is not None:
        print("  span (self time = span minus child spans)"
              "        calls     total ms      self ms   self %")
        for name, calls, total_ms, self_ms, share in tracer.self_time_table():
            print(f"  {name:40s} {calls:8d} {total_ms:12.1f} {self_ms:12.1f}"
                  f" {share:7.1f}%")


def write_spans(result: Dict[str, Any]) -> str:
    meta = result["meta"]
    path = os.path.join(
        OUT_DIR, f"spans-{meta['workload']}-seed{meta['seed']}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": result["tracer"].spans,
        }, fh)
    return path


def result_line(results: List[Tuple[str, Dict[str, Any]]]) -> str:
    """The closing JSON line; metrics are keyed ``workload/metric`` when
    more than one workload ran."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, result in results:
        units = PER_LAYER if result["meta"]["trace"] else END_TO_END
        for name, value in result["metrics"].items():
            key = name if len(results) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for _, r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": failed,
        "metrics": metrics,
    })


def record_expected(path: str = EXPECTED_PATH) -> None:
    """Re-record every operation's outcome at :data:`DEFAULT_SEED`."""
    wl.warm_up()
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = []
    for workload in wl.WORKLOAD_NAMES:
        for size in wl.SIZES:
            run_round, close = wl.make_rounds(
                workload, DEFAULT_SEED, size, OUT_DIR
            )
            try:
                rnd = run_round(NULL_TRACER)
            finally:
                close()
            bad = [(op.key, op.error) for op in rnd.ops if op.error]
            if bad:
                raise SystemExit(f"{workload}/{size} failed: {bad[:3]}")
            seed = None if workload == "campaign_small" else DEFAULT_SEED
            rows += [
                [workload, size, seed, op.key]
                + [op.outcome[f] for f in wl.OUTCOME_FIELDS]
                for op in rnd.ops
            ]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=wl.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = (
        wl.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    )
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        if result["tracer"] is not None:
            print(f"  spans written to {write_spans(result)}")
        results.append((name, result))
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
