"""Tasks and data dependences — the vocabulary of the OmpSs-like runtime.

The paper's central thesis is that parallel programs should be expressed as
**tasks with data dependences**, handled by the runtime *"in the same way as
superscalar processors manage ILP"*.  A task therefore declares the data
regions it reads and writes (:class:`Region` + :class:`DepKind`), and the
runtime derives the Task Dependency Graph from those declarations — the
programmer never names another task.

Task as a thin handle
---------------------
A :class:`Task` owns only its *description* (label, cost, declared
accesses, optional real function) and per-dispatch handle fields
(``core_id``, ``result``).  All graph-structural state — adjacency, ready
counts, depth, state, criticality — **and the per-task lifecycle
timestamps** (``submit_time`` / ``ready_time`` / ``start_time`` /
``end_time``) live in id-keyed arrays on the owning
:class:`~repro.core.graph.TaskGraph`; ``task.gid`` is the task's dense
index into those arrays.  The ``predecessors`` / ``successors`` /
``unfinished_preds`` / ``state`` / ``depth`` / ``bottom_level`` /
``critical`` / timestamp attributes remain available as properties that
delegate to the graph (falling back to local slots while a task is
detached), so existing user code keeps working; the hot paths in the
runtime bypass the properties and touch the arrays directly.  Keeping the
timestamps in graph arrays means completion-side bookkeeping never has to
resolve ``tasks[gid]`` handles just to stamp times, and post-run
analytics (:mod:`repro.core.analytics`) can pivot whole campaigns without
materialising any Task collection.

Region interning
----------------
Workload builders emit the same ``(name, start, stop)`` triples over and
over (every tile of a factorisation is touched by O(nt) tasks).
:meth:`Region.interned` maps each distinct triple to one canonical
:class:`Region` instance, which buys two things: builders stop allocating
duplicate frozen dataclasses, and the dependence tracker can cache its
per-region history slot *on the canonical instance* (see
``_hist``/``_hist_owner``), so repeat accesses resolve by identity —
two attribute loads — instead of re-hashing name strings and bound
tuples on every declared access.

Dependences are interned one level further: :meth:`Task.make` hands out
one shared, frozen :class:`Dependence` per (region, kind), created on
first use with its packed kernel row already computed (see
``_DEP_TABLE``), so declaring an access allocates nothing and a task's
encoding is a gather of cached rows.  Name and triple specs resolve to
the canonical region first; a :class:`Region` instance is used as given.

Cost model
----------
Simulated tasks carry a first-order execution cost split into a
frequency-scaling compute part and a frequency-insensitive memory part::

    duration(core) = cpu_cycles / f_core  +  mem_seconds

``mem_seconds`` models time spent waiting on the memory system, which DVFS
cannot shrink; a task with large ``mem_seconds`` sees little benefit from
turbo — exactly the effect that makes boosting *critical, compute-bound*
tasks the right power play in Section 3.1.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph

__all__ = [
    "DepKind",
    "Region",
    "Dependence",
    "Task",
    "TaskState",
    "clear_region_intern",
]


class DepKind(Enum):
    """OmpSs/OpenMP-4.0 dependence kinds.

    ``IN``          task reads the region.
    ``OUT``         task overwrites the region (no read of prior value).
    ``INOUT``       task reads and writes the region.
    ``CONCURRENT``  tasks in a consecutive concurrent group may run in
                    parallel with each other (e.g. atomically-updated
                    reductions) but are ordered against ordinary readers and
                    writers on both sides.
    ``COMMUTATIVE`` tasks may run in any order but not simultaneously; this
                    runtime realises commutativity conservatively by chaining
                    them in submission order, which is always a legal
                    execution of the relaxed semantics.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    CONCURRENT = "concurrent"
    COMMUTATIVE = "commutative"

    @property
    def writes(self) -> bool:
        return self in (DepKind.OUT, DepKind.INOUT, DepKind.COMMUTATIVE)

    @property
    def reads(self) -> bool:
        return self in (DepKind.IN, DepKind.INOUT, DepKind.CONCURRENT, DepKind.COMMUTATIVE)


#: Sentinel meaning "the whole object" when a region is built from a name only.
_WHOLE = (0, 1 << 62)


@dataclass(frozen=True, slots=True)
class Region:
    """A named address range, the unit of dependence matching.

    Mirrors Nanos++'s region-based dependence tracker: two accesses conflict
    when they touch the *same name* and their ``[start, stop)`` intervals
    overlap.  ``Region("x")`` denotes the whole object ``x``;
    ``Region("x", 0, 64)`` its first 64 bytes (or elements — the unit is the
    caller's, only consistency matters).

    ``slots=True``: the dependence tracker reads ``name``/``start``/``stop``
    for every declared access of every submitted task, so fixed slots keep
    those reads off the per-instance ``__dict__``.

    ``_hist`` / ``_hist_owner`` are the dependence tracker's identity
    cache: the :class:`~repro.core.deps.DependenceTracker` that last
    resolved this exact region instance stashes its history slot here, so
    the next access through the *same instance* (guaranteed by interning)
    skips the name and extent hash lookups entirely.  They are excluded
    from equality, hashing, repr and pickles.

    ``_iid`` is the region's dense id in the process-global registry used
    by the vectorised batch kernel (:mod:`repro.core.depkernel`): assigned
    lazily the first time the region appears in a task's dependence
    encoding, never reused, and — like the tracker cache — excluded from
    equality, repr and pickles (ids are process-local).
    """

    name: str
    start: int = _WHOLE[0]
    stop: int = _WHOLE[1]
    # Tracker identity cache (see class docstring).  ``compare=False``
    # keeps them out of __eq__/__hash__; custom __getstate__ keeps them
    # out of pickles (a cached history would drag the whole tracker in).
    _hist_owner: Any = field(default=None, init=False, repr=False, compare=False)
    _hist: Any = field(default=None, init=False, repr=False, compare=False)
    _iid: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty region [{self.start}, {self.stop})")

    def overlaps(self, other: "Region") -> bool:
        return (
            self.name == other.name
            and self.start < other.stop
            and other.start < self.stop
        )

    def __getstate__(self) -> Tuple[str, int, int]:
        # Drop the tracker cache: pickling/deepcopy must never serialise
        # a history chain, and a clone belongs to no tracker.
        return (self.name, self.start, self.stop)

    def __setstate__(self, state: Tuple[str, int, int]) -> None:
        for slot, value in zip(("name", "start", "stop"), state):
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_hist_owner", None)
        object.__setattr__(self, "_hist", None)
        object.__setattr__(self, "_iid", -1)

    @classmethod
    def of(cls, spec: "Region | str | Tuple[str, int, int]") -> "Region":
        """Coerce a user-facing spec into a Region."""
        if isinstance(spec, Region):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, tuple) and len(spec) == 3:
            return cls(spec[0], spec[1], spec[2])
        raise TypeError(f"cannot interpret {spec!r} as a data region")

    @classmethod
    def interned(cls, spec: "Region | str | Tuple[str, int, int]") -> "Region":
        """Coerce like :meth:`of`, but return the canonical instance.

        Every distinct ``(name, start, stop)`` triple maps to exactly one
        :class:`Region` object per process, so workload builders that
        declare the same region across many tasks share a single frozen
        instance — and the tracker's identity cache on it.  The table is
        bounded by the number of *distinct* regions ever interned (ring
        buffers and tile grids recur; see :func:`clear_region_intern` for
        explicit resets in long-lived processes).
        """
        if isinstance(spec, Region):
            key = (spec.name, spec.start, spec.stop)
        elif isinstance(spec, str):
            key = (spec, _WHOLE[0], _WHOLE[1])
        else:
            key = spec
        region = _REGION_INTERN.get(key)
        if region is None:
            region = _REGION_INTERN[key] = cls.of(spec)
        return region


#: (name, start, stop) -> canonical Region instance (see Region.interned).
_REGION_INTERN: dict = {}


def clear_region_intern() -> int:
    """Empty the canonical-region table; returns how many were dropped.

    Interned regions also anchor the tracker identity caches, so a
    long-lived process that is done with a workload family can call this
    to release both in one step.
    """
    n = len(_REGION_INTERN)
    _REGION_INTERN.clear()
    return n


# ---------------------------------------------------------------------------
# Interned-id registry for the vectorised batch kernel.
#
# Every Region that ever appears in a task's dependence encoding gets a
# dense process-global id (stored on the instance as ``_iid``); its extent
# is mirrored into parallel ``array('q')`` columns so the kernel can view
# them as zero-copy numpy arrays per batch.  Ids are never reused:
# ``clear_region_intern`` drops *canonical* instances but must not shrink
# this registry, because encodings cached on live tasks keep referencing
# the old ids.  Names are ranked through ``_NAME_RANK`` so the kernel can
# group extents per name with integer compares instead of string hashing.
# ---------------------------------------------------------------------------
_REGION_REGISTRY: List[Region] = []
_IID_STARTS = array("q")
_IID_STOPS = array("q")
_IID_NAMES = array("q")
_NAME_RANK: Dict[str, int] = {}

#: Kind of each slot in a region's stretch of ``_DEP_TABLE``, in
#: :meth:`Task.make` argument order.
_SLOT_KINDS = (
    DepKind.IN,
    DepKind.OUT,
    DepKind.INOUT,
    DepKind.CONCURRENT,
    DepKind.COMMUTATIVE,
)
_N_SLOTS = len(_SLOT_KINDS)
_NO_DEPS = (None,) * _N_SLOTS
#: Interned dependences: ``_DEP_TABLE[iid * _N_SLOTS + slot]`` is the one
#: shared :class:`Dependence` of registry id ``iid`` and kind
#: ``_SLOT_KINDS[slot]``, or ``None`` until first use.  It grows with the
#: registry and, like it, never shrinks.
_DEP_TABLE: List[Optional["Dependence"]] = []

# The kernel reinterprets encodings as int32/int64 numpy views; both
# typecodes must have the expected width on this platform.
assert array("i").itemsize == 4 and array("q").itemsize == 8


def _register_region(region: Region) -> int:
    """Assign ``region`` its dense registry id (first-touch only)."""
    iid = len(_REGION_REGISTRY)
    object.__setattr__(region, "_iid", iid)
    _REGION_REGISTRY.append(region)
    rank = _NAME_RANK.setdefault(region.name, len(_NAME_RANK))
    _IID_STARTS.append(region.start)
    _IID_STOPS.append(region.stop)
    _IID_NAMES.append(rank)
    _DEP_TABLE.extend(_NO_DEPS)
    return iid


@dataclass(frozen=True, slots=True)
class Dependence:
    """One declared access of a task: (kind, region).

    :meth:`Task.make` never builds these per access: it hands out the
    *interned* instance for each (region, kind) pair (see
    :func:`_intern_dependence`), whose packed encoding row
    ``(region._iid << 2) | kind_bits`` is computed once and cached in
    ``_row``.  A hand-built or unpickled dependence starts with
    ``_row == -1`` and gets its row on first encoding.  Like
    ``Region._iid``, the row is process-local, so it is excluded from
    equality, hashing, repr and pickles.
    """

    kind: DepKind
    region: Region
    _row: int = field(default=-1, init=False, repr=False, compare=False)

    def __getstate__(self) -> Tuple[DepKind, Region]:
        return (self.kind, self.region)

    def __setstate__(self, state: Tuple[DepKind, Region]) -> None:
        object.__setattr__(self, "kind", state[0])
        object.__setattr__(self, "region", state[1])
        object.__setattr__(self, "_row", -1)


#: Low-2-bit kind codes in a task's dependence encoding: bit 1 set means
#: the access writes (OUT/INOUT/COMMUTATIVE share the scalar tracker's
#: writer handling); the value 1 is reserved for CONCURRENT, which the
#: batch kernel cannot express and treats as a whole-batch fallback.
_KIND_BIT = {
    DepKind.IN: 0,
    DepKind.CONCURRENT: 1,
    DepKind.OUT: 2,
    DepKind.INOUT: 2,
    DepKind.COMMUTATIVE: 2,
}


def _intern_dependence(iid: int, slot: int) -> Dependence:
    """Create the shared dependence for registry id ``iid`` and kind
    ``_SLOT_KINDS[slot]`` (first use only), with its row pre-packed."""
    dep = Dependence(_SLOT_KINDS[slot], _REGION_REGISTRY[iid])
    _dep_row(dep)
    _DEP_TABLE[iid * _N_SLOTS + slot] = dep
    return dep


def _dep_row(dep: Dependence) -> int:
    """Packed row of a dependence that may not have one cached yet."""
    row = dep._row
    if row < 0:
        region = dep.region
        iid = region._iid
        if iid < 0:
            iid = _register_region(region)
        row = (iid << 2) | _KIND_BIT[dep.kind]
        object.__setattr__(dep, "_row", row)
    return row


def _encode_deps(deps: List[Dependence]) -> "array[int]":
    """Pack declared accesses as ``(region._iid << 2) | kind_bits`` rows.

    Interned dependences carry their row, so the usual case is one
    gather; only hand-built or unpickled dependences compute theirs.

    Rows are 32-bit: the kernel's per-batch working set then stays
    below glibc's mmap threshold and costs half the memory traffic of
    an int64 layout.  The id budget (2**29 distinct regions) is far
    beyond what fits in memory — each Region object alone is >100
    bytes, so a registry that large could not exist.
    """
    rows = [d._row for d in deps]
    if -1 in rows:
        rows = [_dep_row(d) for d in deps]
    return array("i", rows)


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


_task_ids = itertools.count()
_INF = float("inf")


@dataclass(slots=True)
class Task:
    """A schedulable unit of work with declared data accesses.

    ``slots=True``: the runtime reads task descriptions (costs, deps) on
    every dispatch, so fixed slots instead of a per-instance ``__dict__``
    shave the hot-path attribute traffic the ROADMAP flags.  Lifecycle
    timestamps live in the owning graph's arrays (the properties below
    delegate); ad-hoc attributes can no longer be attached to tasks —
    extend the dataclass instead.

    Parameters
    ----------
    label:
        Human-readable name (used in traces).
    cpu_cycles:
        Frequency-scaling compute work.
    mem_seconds:
        Frequency-insensitive memory time.
    deps:
        Declared accesses; build with :meth:`Task.make` or the
        :func:`repro.core.api.task` decorator.
    fn / args / kwargs:
        Optional real Python work executed when the simulated task completes
        (completion order is a topological order of the TDG, so real values
        are always dataflow-consistent).
    priority:
        Larger runs earlier among equally-ready tasks (scheduler specific).
    """

    label: str = "task"
    cpu_cycles: float = 1e6
    mem_seconds: float = 0.0
    deps: List[Dependence] = field(default_factory=list)
    fn: Optional[Callable[..., Any]] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    priority: int = 0

    # identity ---------------------------------------------------------------
    task_id: int = field(default_factory=_task_ids.__next__)
    #: Dense id in the owning graph's struct-of-arrays storage.  ``-1``
    #: while detached; assigned by :meth:`TaskGraph.add_task` (or, for a
    #: graphless :class:`~repro.core.deps.DependenceTracker`, a negative
    #: tracker-local id ``<= -2``).
    gid: int = -1
    #: The owning :class:`~repro.core.graph.TaskGraph`, or ``None`` while
    #: detached.  Set by ``TaskGraph.add_task``.
    graph: Optional["TaskGraph"] = None

    # detached-task fallbacks for the graph-owned attributes -----------------
    _state: TaskState = TaskState.CREATED
    _critical: bool = False
    _bottom_level: float = 0.0
    _depth: int = 0
    _submit_time: Optional[float] = None
    _ready_time: Optional[float] = None
    _start_time: Optional[float] = None
    _end_time: Optional[float] = None

    # bookkeeping filled in by the executor (handle-local: dispatch target
    # and the real function's return value)
    core_id: Optional[int] = None
    result: Any = None

    #: Packed dependence rows for the batch kernel (see ``_encode_deps``),
    #: built once at construction so batch submission never walks
    #: ``deps`` per access.  ``deps`` is a mutable list, so consumers must
    #: treat a length mismatch as stale and call :meth:`_refresh_dep_enc`.
    _dep_enc: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Chained compares reject NaN (every compare is False) and inf.
        if not (
            0.0 <= self.cpu_cycles < _INF and 0.0 <= self.mem_seconds < _INF
        ):
            raise ValueError(
                "task cost components must be finite and non-negative, got "
                f"cpu_cycles={self.cpu_cycles!r}, mem_seconds={self.mem_seconds!r}"
            )
        self._dep_enc = _encode_deps(self.deps)

    def _refresh_dep_enc(self) -> "array[int]":
        """Re-pack ``deps`` after mutation (or after crossing a pickle)."""
        enc = _encode_deps(self.deps)
        self._dep_enc = enc
        return enc

    def __getstate__(self) -> Dict[str, Any]:
        # The dependence encoding holds process-local registry ids; a
        # clone in another process (or a deepcopy with fresh regions)
        # must re-encode against its own registry, so it never travels.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_dep_enc"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_dep_enc", None)

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        label: str = "task",
        cpu_cycles: float = 1e6,
        mem_seconds: float = 0.0,
        in_: Sequence = (),
        out: Sequence = (),
        inout: Sequence = (),
        concurrent: Sequence = (),
        commutative: Sequence = (),
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        priority: int = 0,
    ) -> "Task":
        """Convenience constructor turning region specs into dependences.

        A spec is a :class:`Region` (used as given) or a name / ``(name,
        start, stop)`` triple (resolved to its canonical region, see
        :meth:`Region.interned`); either way the access becomes the
        region's interned :class:`Dependence` for its kind.
        """
        table = _DEP_TABLE
        deps: List[Dependence] = []
        append = deps.append
        for slot, specs in enumerate((in_, out, inout, concurrent, commutative)):
            for spec in specs:
                region = spec if isinstance(spec, Region) else Region.interned(spec)
                iid = region._iid
                if iid < 0:
                    iid = _register_region(region)
                dep = table[iid * _N_SLOTS + slot]
                append(dep if dep is not None else _intern_dependence(iid, slot))
        # Positional: matching keywords against the generated __init__'s
        # 21 parameters costs ~15% of a task's construction.
        return cls(
            label,
            cpu_cycles,
            mem_seconds,
            deps,
            fn,
            args,
            kwargs if kwargs is not None else {},
            priority,
        )

    # ------------------------------------------------------------------
    # graph-owned state, delegated through the handle
    # ------------------------------------------------------------------
    @property
    def state(self) -> TaskState:
        g = self.graph
        return g.state[self.gid] if g is not None else self._state

    @state.setter
    def state(self, value: TaskState) -> None:
        g = self.graph
        if g is not None:
            g.state[self.gid] = value
        else:
            self._state = value

    @property
    def critical(self) -> bool:
        g = self.graph
        return g.critical[self.gid] if g is not None else self._critical

    @critical.setter
    def critical(self, value: bool) -> None:
        g = self.graph
        if g is not None:
            g.critical[self.gid] = value
        else:
            self._critical = value

    @property
    def bottom_level(self) -> float:
        g = self.graph
        return g.bottom_level[self.gid] if g is not None else self._bottom_level

    @bottom_level.setter
    def bottom_level(self, value: float) -> None:
        g = self.graph
        if g is not None:
            g.bottom_level[self.gid] = value
        else:
            self._bottom_level = value

    @property
    def depth(self) -> int:
        g = self.graph
        return g.depth[self.gid] if g is not None else self._depth

    @depth.setter
    def depth(self, value: int) -> None:
        g = self.graph
        if g is not None:
            g.depth[self.gid] = value
        else:
            self._depth = value

    @property
    def submit_time(self) -> Optional[float]:
        g = self.graph
        return g.submit_time[self.gid] if g is not None else self._submit_time

    @submit_time.setter
    def submit_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.submit_time[self.gid] = value
        else:
            self._submit_time = value

    @property
    def ready_time(self) -> Optional[float]:
        g = self.graph
        return g.ready_time[self.gid] if g is not None else self._ready_time

    @ready_time.setter
    def ready_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.ready_time[self.gid] = value
        else:
            self._ready_time = value

    @property
    def start_time(self) -> Optional[float]:
        g = self.graph
        return g.start_time[self.gid] if g is not None else self._start_time

    @start_time.setter
    def start_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.start_time[self.gid] = value
        else:
            self._start_time = value

    @property
    def end_time(self) -> Optional[float]:
        g = self.graph
        return g.end_time[self.gid] if g is not None else self._end_time

    @end_time.setter
    def end_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.end_time[self.gid] = value
        else:
            self._end_time = value

    @property
    def unfinished_preds(self) -> int:
        """Ready count: predecessors not yet finished (0 while detached)."""
        g = self.graph
        return g.unfinished_preds[self.gid] if g is not None else 0

    @property
    def predecessors(self) -> Set["Task"]:
        """Snapshot set of predecessor tasks (a fresh set, not live graph
        state — mutate the graph through its API, not through this view)."""
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        return {tasks[i] for i in g.pred_ids[self.gid]}

    @property
    def successors(self) -> Set["Task"]:
        """Snapshot set of successor tasks (see :attr:`predecessors`)."""
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        return {tasks[i] for i in g.succ_ids[self.gid]}

    # ------------------------------------------------------------------
    def duration_at(self, frequency_hz: float) -> float:
        """Execution time at a given core frequency (seconds)."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cpu_cycles / frequency_hz + self.mem_seconds

    def reference_work(self, reference_hz: float = 1e9) -> float:
        """Scalar 'amount of work' used by critical-path analysis.

        Measured as the duration at a reference frequency so that compute
        and memory components combine into one number.
        """
        return self.duration_at(reference_hz)

    def writes_any(self) -> bool:
        return any(d.kind.writes for d in self.deps)

    def __hash__(self) -> int:
        return self.task_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.task_id == self.task_id

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Task(#{self.task_id} {self.label!r}, {self.state.value})"
