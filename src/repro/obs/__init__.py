"""Observability for the proof service: traces, metrics, structured logs.

Three stdlib-only layers, threaded client -> server -> scheduler ->
engine -> kernels:

* :mod:`repro.obs.metrics` -- a thread-safe metrics registry with
  Counter / Gauge / Histogram families, rendered in Prometheus text
  exposition format for
  ``GET /metrics``.  Also home to the opt-in MSM/NTT kernel-profiling
  switch (``ZKROWNN_PROFILE_KERNELS``).
* :mod:`repro.obs.trace` -- a lightweight span tracer: every claim gets
  a trace (``trace_id`` minted client-side and propagated as
  ``X-Trace-Id``) whose spans -- submit, queue-wait, lease-acquire,
  synthesize, prove, persist, verify -- are persisted next to the claim
  record and served at ``GET /claims/<id>/trace``.  Fired
  fault-injection sites attach as events on the active span.
* :mod:`repro.obs.logging` -- structured JSONL event logging gated by
  ``ZKROWNN_LOG_LEVEL`` (default ``warning``: tests stay quiet, the
  HTTP access log exists but is opt-in).

Every hook is a cheap no-op when observability is disabled
(:func:`set_obs_enabled`), the same discipline as
``faults.injected()``: one global read, nothing allocated.
"""

from .logging import configure as configure_logging, get_logger
from .metrics import (
    MetricsRegistry,
    get_metrics,
    kernel_profiling_enabled,
    obs_enabled,
    set_kernel_profiling,
    set_obs_enabled,
)
from .trace import NULL_SPAN, Span, Tracer, current_span, new_trace_id

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "configure_logging",
    "current_span",
    "get_logger",
    "get_metrics",
    "kernel_profiling_enabled",
    "new_trace_id",
    "obs_enabled",
    "set_kernel_profiling",
    "set_obs_enabled",
]
