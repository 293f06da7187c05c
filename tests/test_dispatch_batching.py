"""Batched dispatch pinned against recorded results.

The runtime coalesces every same-timestamp completion into one deferred
``_dispatch`` call through :meth:`~repro.sim.events.Simulator.defer`,
instead of paying a zero-delay trampoline event per wake-up.  The
trampoline path is gone; these tests pin the batched path to the
makespans, energies and stats both paths produced (bit-identically) when
the trampoline still existed — across all seven schedulers, the RSU
modes, and the zero-duration-task corner where dispatch re-arms within a
single timestamp.  Floats are pinned as ``float.hex`` strings.
"""

import pytest

from repro.campaign import runner as crunner
from repro.campaign.matrix import Scenario
from repro.core.runtime import Runtime
from repro.core.task import Task
from repro.sim.events import Simulator
from repro.sim.machine import Machine

ALL_SCHEDULERS = sorted(crunner.SCHEDULERS)
ALL_RSU_MODES = sorted(crunner.RSU_MODES)

#: scenario key -> (makespan hex, energy_j hex, stats), recorded from
#: both dispatch paths (which agreed bit for bit).
RECORDED = {
    "fam:cholesky": (
        "0x1.712fa66f235cap-6",
        "0x1.aa89abe5cc780p-3",
        {"tasks_finished": 20.0, "tasks_started": 20.0, "tasks_submitted": 20},
    ),
    "fam:fork_join": (
        "0x1.8d6432db96db9p-9",
        "0x1.76375ec944a41p-5",
        {"tasks_finished": 36.0, "tasks_started": 36.0, "tasks_submitted": 36},
    ),
    "fam:pipeline": (
        "0x1.b573eab367a12p-6",
        "0x1.fe52b686396adp-3",
        {"tasks_finished": 64.0, "tasks_started": 64.0, "tasks_submitted": 64},
    ),
    "rsu:annotated": (
        "0x1.5072d01d9e8b3p+7",
        "0x1.307b5a9bd6946p+11",
        {
            "critical_tasks_started": 8.0,
            "dvfs_stall_seconds": 0.00020080000000000404,
            "tasks_finished": 2008.0,
            "tasks_started": 2008.0,
            "tasks_submitted": 2008,
        },
    ),
    "rsu:annotated-software": (
        "0x1.507329165e255p+7",
        "0x1.307bba549eabdp+11",
        {
            "critical_tasks_started": 8.0,
            "dvfs_stall_seconds": 0.005866000000000267,
            "tasks_finished": 2008.0,
            "tasks_started": 2008.0,
            "tasks_submitted": 2008,
        },
    ),
    "rsu:heuristic": (
        "0x1.5072d01d9e8b3p+7",
        "0x1.307b5a9bd6946p+11",
        {
            "critical_tasks_started": 8.0,
            "dvfs_stall_seconds": 0.00020080000000000404,
            "tasks_finished": 2008.0,
            "tasks_started": 2008.0,
            "tasks_submitted": 2008,
        },
    ),
    "rsu:oracle": (
        "0x1.5072d01d9e8b3p+7",
        "0x1.307b5a9bd6946p+11",
        {
            "critical_tasks_started": 8.0,
            "dvfs_stall_seconds": 0.00020080000000000404,
            "tasks_finished": 2008.0,
            "tasks_started": 2008.0,
            "tasks_submitted": 2008,
        },
    ),
    "sched:bottom_level": (
        "0x1.1779502a8673cp-7",
        "0x1.1de99899f6b7ep-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:breadth_first": (
        "0x1.196d80878cd8bp-7",
        "0x1.1e8d8873d83cfp-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:cats": (
        "0x1.196d80878cd8bp-7",
        "0x1.1e8d8873d83cfp-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:fifo": (
        "0x1.196d80878cd8bp-7",
        "0x1.1e8d8873d83cfp-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:lifo": (
        "0x1.1779502a8673cp-7",
        "0x1.1de99899f6b7ep-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:static": (
        "0x1.1779502a8673cp-7",
        "0x1.1de99899f6b7ep-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
    "sched:work_stealing": (
        "0x1.1779502a8673cp-7",
        "0x1.1de99899f6b7ep-3",
        {"tasks_finished": 48.0, "tasks_started": 48.0, "tasks_submitted": 48},
    ),
}


def run_scenario(scenario):
    """Execute one campaign scenario; floats as hex for exact compare."""
    tasks = crunner._build_workload(scenario)
    machine = crunner._build_machine(scenario)
    rt = crunner._build_runtime(scenario, machine)
    rt.submit_all(tasks)
    if scenario.scheduler == "bottom_level" and rt.criticality is None:
        rt.graph.compute_bottom_levels()
    res = rt.run()
    return (res.makespan.hex(), res.energy_j.hex(), res.stats.as_dict())


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_makespan_bits_identical(self, scheduler):
        got = run_scenario(Scenario("layered", scheduler=scheduler, n_cores=8))
        assert got == RECORDED[f"sched:{scheduler}"]

    @pytest.mark.parametrize("family", ["cholesky", "fork_join", "pipeline"])
    def test_families_identical_under_fifo(self, family):
        got = run_scenario(Scenario(family, scheduler="fifo", n_cores=8))
        assert got == RECORDED[f"fam:{family}"]


class TestRsuModeEquivalence:
    @pytest.mark.parametrize("rsu", ALL_RSU_MODES)
    def test_rsu_modes_identical(self, rsu):
        got = run_scenario(
            Scenario("chain", scheduler="cats", rsu=rsu, n_cores=8)
        )
        assert got == RECORDED[f"rsu:{rsu}"]


class TestZeroDurationCorner:
    """Zero-cost tasks complete at the timestamp they start: the dispatch
    must re-arm within one timestamp."""

    def test_zero_duration_chain_identical(self):
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, record_trace=False)
        for i in range(6):
            deps = {"in_": [f"x{i - 1}"]} if i else {}
            rt.submit(
                Task.make(f"z{i}", cpu_cycles=0.0, out=[f"x{i}"], **deps)
            )
        rt.submit(Task.make("tail", cpu_cycles=1e6, in_=["x5"]))
        res = rt.run()
        assert (res.makespan.hex(), res.energy_j.hex()) == (
            "0x1.0624dd2f1a9fcp-11",
            "0x1.80c308feac42fp-10",
        )
        assert res.makespan > 0  # the tail task still takes real time


class TestDeferPrimitive:
    def test_deferred_runs_after_current_timestamp_events(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("e1"))
        sim.defer(lambda: order.append("d"))
        sim.schedule(0.0, lambda: order.append("e2"))
        sim.schedule(1.0, lambda: order.append("later"))
        sim.run()
        assert order == ["e1", "e2", "d", "later"]

    def test_deferred_fires_before_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.schedule(2.0, lambda: seen.append(("event", sim.now)))
        sim.run()
        assert seen == [1.0, ("event", 2.0)]

    def test_deferred_flushes_on_empty_queue(self):
        sim = Simulator()
        fired = []
        sim.defer(lambda: fired.append(True))
        assert sim.step() is True
        assert fired == [True]
        assert sim.step() is False

    def test_deferred_may_schedule_same_timestamp_work(self):
        sim = Simulator()
        order = []

        def dispatch():
            order.append("dispatch")
            sim.schedule(0.0, lambda: order.append("completion"))
            sim.defer(lambda: order.append("redispatch"))

        sim.schedule(0.5, lambda: sim.defer(dispatch))
        sim.run()
        assert order == ["dispatch", "completion", "redispatch"]

    def test_reset_clears_deferred(self):
        sim = Simulator()
        sim.defer(lambda: (_ for _ in ()).throw(AssertionError("leaked")))
        sim.reset()
        sim.run()  # nothing fires

    def test_run_until_flushes_due_deferred(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.defer(lambda: fired.append(sim.now)))
        sim.schedule(5.0, lambda: fired.append("far"))
        sim.run(until=2.0)
        assert fired == [1.0]
        assert sim.now == 2.0
