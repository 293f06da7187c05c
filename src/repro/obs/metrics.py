"""Metrics registry with a zero-cost disabled path.

Two objects implement one protocol:

* :class:`Metrics` — the always-available no-op base.  Every method is a
  ``pass`` body and ``enabled`` is a *class* attribute set to ``False``,
  so the disabled hot path is one attribute lookup (``obs.enabled``)
  whose result short-circuits the instrumentation block.  A module-level
  singleton of this class is what :func:`get_active` returns when
  observability is off.
* :class:`MetricsRegistry` — the enabled implementation: plain-dict
  counters, aggregated timers, sampled gauges (optionally with a
  ``(t, value)`` series on the *simulated* clock for trace export), and
  host-time phase spans.

Nothing in here touches the simulation: instrumentation reads simulated
state, never writes it, so results are bit-identical whether a registry
is installed or not (pinned by ``tests/test_obs.py``).  Host-time reads
go through :mod:`repro.obs.timing` — the single RL002-whitelisted
wall-clock module.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from .timing import now

__all__ = [
    "OBS_SCHEMA_VERSION",
    "SPAN_WORKLOAD_BUILD",
    "SPAN_TDG_BUILD",
    "SPAN_DISPATCH",
    "SPAN_SIMULATE",
    "SPAN_PRUNE",
    "SPAN_GRAPH_ANALYSIS",
    "Metrics",
    "MetricsRegistry",
    "get_active",
    "enable",
    "disable",
    "enabled",
    "scoped",
]

#: Version stamp embedded in every :meth:`MetricsRegistry.summary` dict
#: (and therefore in campaign records' ``"obs"`` blocks).  Bump when the
#: summary layout changes.
OBS_SCHEMA_VERSION = 1

# Canonical phase-span names.  Spans measure *host* time spent inside a
# phase of the reproduction pipeline; see docs/observability.md.
SPAN_WORKLOAD_BUILD = "workload_build"
SPAN_TDG_BUILD = "tdg_build"
SPAN_DISPATCH = "dispatch"
SPAN_SIMULATE = "simulate"
SPAN_PRUNE = "prune"
SPAN_GRAPH_ANALYSIS = "graph_analysis"


class _NullSpan:
    """Context manager that does nothing (disabled-path ``span()``)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one host-time interval on a registry."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = now()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._registry.record_span(self._name, self._t0, now())
        return False


class Metrics:
    """No-op metrics sink; the protocol base for :class:`MetricsRegistry`.

    Instrumentation sites hold a reference to a :class:`Metrics` and gate
    hot-path work on ``obs.enabled`` (a class attribute — ``False`` here,
    ``True`` on the registry), so a disabled run pays one attribute
    lookup per instrumented block and nothing else.
    """

    __slots__ = ()

    enabled: bool = False

    def counter_add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonic counter."""

    def timer_add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named aggregated timer."""

    def gauge_sample(self, name: str, value: float, t: Optional[float] = None) -> None:
        """Sample the named gauge; ``t`` (simulated time) keys the series."""

    def record_span(self, name: str, t0: float, t1: float) -> None:
        """Record one completed host-time phase span ``[t0, t1]``."""

    def span(self, name: str) -> "_NullSpan | _Span":
        """Context manager timing a phase span (no-op when disabled)."""
        return _NULL_SPAN

    def summary(self) -> Optional[Dict[str, Any]]:
        """Schema-versioned plain-dict dump, or ``None`` when disabled."""
        return None


class MetricsRegistry(Metrics):
    """Enabled metrics sink: counters, timers, gauges, and phase spans.

    All storage is plain dicts/lists of JSON scalars so :meth:`summary`
    needs no conversion layer and the raw state (``spans``,
    ``gauge_series``) can feed the Chrome-trace exporter directly.
    """

    __slots__ = ("counters", "timers", "gauges", "gauge_series", "spans")

    enabled: bool = True

    def __init__(self) -> None:
        #: name -> running total.
        self.counters: Dict[str, float] = {}
        #: name -> [total_seconds, count].
        self.timers: Dict[str, List[float]] = {}
        #: name -> [n, total, max, last].
        self.gauges: Dict[str, List[float]] = {}
        #: name -> [(t, value), ...] — only for samples taken with ``t``.
        self.gauge_series: Dict[str, List[Tuple[float, float]]] = {}
        #: completed phase spans, in completion order: (name, t0, t1).
        self.spans: List[Tuple[str, float, float]] = []

    def counter_add(self, name: str, value: float = 1.0) -> None:
        counters = self.counters
        if name in counters:
            counters[name] += value
        else:
            counters[name] = value

    def timer_add(self, name: str, seconds: float) -> None:
        slot = self.timers.get(name)
        if slot is None:
            self.timers[name] = [seconds, 1.0]
        else:
            slot[0] += seconds
            slot[1] += 1.0

    def gauge_sample(self, name: str, value: float, t: Optional[float] = None) -> None:
        slot = self.gauges.get(name)
        if slot is None:
            self.gauges[name] = [1.0, value, value, value]
        else:
            slot[0] += 1.0
            slot[1] += value
            if value > slot[2]:
                slot[2] = value
            slot[3] = value
        if t is not None:
            series = self.gauge_series.get(name)
            if series is None:
                self.gauge_series[name] = [(t, value)]
            else:
                series.append((t, value))

    def record_span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((name, t0, t1))

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def span_totals(self) -> Dict[str, List[float]]:
        """Aggregate raw spans into ``name -> [total_seconds, count]``."""
        totals: Dict[str, List[float]] = {}
        for name, t0, t1 in self.spans:
            slot = totals.get(name)
            if slot is None:
                totals[name] = [t1 - t0, 1.0]
            else:
                slot[0] += t1 - t0
                slot[1] += 1.0
        return totals

    def summary(self) -> Dict[str, Any]:
        span_totals = self.span_totals()
        return {
            "schema": OBS_SCHEMA_VERSION,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timers": {
                k: {"total_s": self.timers[k][0], "count": int(self.timers[k][1])}
                for k in sorted(self.timers)
            },
            "gauges": {
                k: {
                    "n": int(self.gauges[k][0]),
                    "mean": self.gauges[k][1] / self.gauges[k][0],
                    "max": self.gauges[k][2],
                    "last": self.gauges[k][3],
                }
                for k in sorted(self.gauges)
            },
            "spans": {
                k: {"total_s": span_totals[k][0], "count": int(span_totals[k][1])}
                for k in sorted(span_totals)
            },
        }


_NULL = Metrics()
_ACTIVE: Metrics = _NULL


def get_active() -> Metrics:
    """The process-wide metrics sink (the no-op singleton when disabled).

    ``Runtime`` captures this at construction, so install a registry
    (:func:`enable` / :func:`scoped`) *before* building the runtime, or
    pass one explicitly via ``Runtime(obs=...)``.
    """
    return _ACTIVE


def enabled() -> bool:
    """True when a real registry is installed process-wide."""
    return _ACTIVE.enabled


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active sink."""
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    return registry


def disable() -> None:
    """Restore the no-op sink."""
    global _ACTIVE
    _ACTIVE = _NULL


@contextmanager
def scoped(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Temporarily install a registry, restoring the previous sink on exit."""
    global _ACTIVE
    previous = _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
