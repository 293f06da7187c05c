"""Host-speed probe: did the host run at full speed around an operation,
and how fast was full speed during the run?

The reference host is a shared 2-vCPU VM whose speed switches between a
fast regime and one about 1.7x slower, in CPU time as well as wall
time, in spells of a fraction of a second to minutes; each vCPU has
spells of its own.  The fast regime's own speed drifts as well, by up
to a third over minutes.  Both come from outside the process and move
every host-time figure by more than any regression bound could absorb.

:func:`probe` times a fixed pure-Python loop that does not depend on the
program: attribute reads, calls and dict lookups over preallocated
objects, with garbage collection off, so it neither allocates tracked
objects nor scans the program's heap.  The benchmark probes before and
after every operation, outside the operation's time.  An operation
counts as run at full speed when both probes beside it are within
:data:`FAST_RATIO` of the fastest probe of the run (see
:func:`fast_mask`).  Fast-regime readings lie within about 1.12x of the
fastest and slow spells read about 1.7x, so the threshold keeps the
first and drops the second, along with spells part-way between.

Whether an operation ran in a fast spell is decided by the host alone,
not by what the operation did, so the operations kept are a fair sample
of the program's own costs, garbage collection included.
"""

from __future__ import annotations

import gc
import time
from typing import List, Sequence

#: A probe within this factor of the run's fastest probe is "fast".
FAST_RATIO = 1.15
#: The probe's fastest reading taken as the reference host speed.  Full
#: speed itself drifts by a third over minutes on the reference host,
#: and operation times follow the fastest reading of their run.  So the
#: benchmark reports them as they would read had that reading been this
#: one: ``seconds * REFERENCE_PROBE_S / fastest``.  The value is about
#: the fastest reading on the reference host; any fixed value only sets
#: the scale.
REFERENCE_PROBE_S = 150e-6
#: Loop passes per probe; the fastest pass is the probe's reading.
PASSES = 3


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_N = 2048
_CELLS = [_Cell(i, (i * 7919) % _N) for i in range(_N)]
_TABLE = {i: (i * 31) % _N for i in range(_N)}


def _step(cell: _Cell, table: dict) -> int:
    return table.get(cell.b, 0) + cell.a


def _pass() -> int:
    acc = 0
    table = _TABLE
    for cell in _CELLS:
        acc += _step(cell, table)
    return acc


def probe() -> float:
    """Seconds of the fastest of :data:`PASSES` passes of the loop
    (about 0.2 ms each at full speed on the reference host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PASSES):
            t0 = time.perf_counter()
            _pass()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def fast_mask(before: Sequence[float], after: Sequence[float],
              fastest: float) -> List[bool]:
    """For each operation, whether the probes ``before`` and ``after``
    it were both within :data:`FAST_RATIO` of ``fastest``."""
    limit = fastest * FAST_RATIO
    return [b <= limit and a <= limit for b, a in zip(before, after)]
