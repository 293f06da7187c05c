"""Observability: metrics, phase spans, and Perfetto trace export.

``repro.obs`` is the reproduction's instrumentation layer.  It is
strictly *observational* — simulated results are bit-identical whether
observability is enabled, disabled, or absent (pinned by
``tests/test_obs.py`` and the campaign ``compare --tolerance 0`` gate).

Layout:

* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` (counters,
  timers, sampled gauges, phase spans) and the module-level no-op shim
  returned by :func:`get_active` when disabled, so the off path costs a
  dead attribute lookup per instrumented block.
* :mod:`repro.obs.timing` — the single RL002-whitelisted wall-clock
  module; every host-time read in ``src/`` routes through it.
* :mod:`repro.obs.trace_export` — Chrome-trace / Perfetto JSON export
  fusing :class:`~repro.sim.trace.TraceRecorder` task intervals with
  runtime phase spans and counter series (imported lazily; also exposed
  as the ``python -m repro.obs export-trace`` CLI).

See docs/observability.md for the metric catalogue, span names, and the
determinism contract.
"""

from .metrics import (
    OBS_SCHEMA_VERSION,
    SPAN_DISPATCH,
    SPAN_GRAPH_ANALYSIS,
    SPAN_PRUNE,
    SPAN_SIMULATE,
    SPAN_TDG_BUILD,
    SPAN_WORKLOAD_BUILD,
    Metrics,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    get_active,
    scoped,
)

__all__ = [
    "OBS_SCHEMA_VERSION",
    "SPAN_DISPATCH",
    "SPAN_GRAPH_ANALYSIS",
    "SPAN_PRUNE",
    "SPAN_SIMULATE",
    "SPAN_TDG_BUILD",
    "SPAN_WORKLOAD_BUILD",
    "Metrics",
    "MetricsRegistry",
    "disable",
    "enable",
    "enabled",
    "get_active",
    "scoped",
]
