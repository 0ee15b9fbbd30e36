"""A thread-safe metrics registry with Prometheus exposition.

Three metric families -- :class:`Counter` (monotone), :class:`Gauge`
(settable), :class:`Histogram` (fixed log-spaced buckets, cumulative) --
all label-aware, all guarded by one registry lock, rendered by
:meth:`MetricsRegistry.render` in the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` headers, ``_bucket{le=...}`` / ``_sum`` /
``_count`` series for histograms).

The process-global registry (:func:`get_metrics`) is one object per
interpreter; worker processes are spawned, so each starts its own.

Every mutation checks one module-global flag first: with
:func:`set_obs_enabled` off, ``inc``/``set``/``observe`` return before
touching the lock -- the "cheap no-op when disabled" discipline the
fault-injection hooks established.

Kernel profiling (MSM/NTT duration histograms, bucketed by power-of-two
operand count) is opt-in via ``ZKROWNN_PROFILE_KERNELS`` or
:func:`set_kernel_profiling`; the kernels check
:func:`kernel_profiling_enabled` before even reading a clock.  Both
switches start from :mod:`repro.config`, read once at import.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Sequence, Tuple

from .. import config

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "kernel_profiling_enabled",
    "obs_enabled",
    "observe_kernel",
    "set_kernel_profiling",
    "set_obs_enabled",
]

# Log-spaced 1-2.5-5 latency buckets from 1ms to 60s: wide enough for a
# sub-millisecond queue wait and a minutes-long proof alike.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0,
)

# Process-wide on/off switch for every hook in the codebase.  A module
# global read is the entire disabled-path cost.
_ENABLED: bool = config.setting("obs")
_KERNEL_PROFILING: bool = config.setting("profile_kernels")


def obs_enabled() -> bool:
    return _ENABLED


def set_obs_enabled(on: bool) -> bool:
    """Flip the global observability switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


def kernel_profiling_enabled() -> bool:
    return _KERNEL_PROFILING and _ENABLED


def set_kernel_profiling(on: bool) -> bool:
    """Flip MSM/NTT instrumentation; returns the previous value."""
    global _KERNEL_PROFILING
    previous = _KERNEL_PROFILING
    _KERNEL_PROFILING = bool(on)
    return previous


_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared plumbing: one series dict per label set, registry lock."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: Dict[_LabelKey, object] = {}

    def _labelsets(self) -> List[_LabelKey]:
        with self._lock:
            return sorted(self._series)

    def render(self) -> List[str]:
        raise NotImplementedError


class _Scalar(_Metric):
    """One number per label set: what counters and gauges share."""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not _ENABLED:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def render(self) -> List[str]:
        with self._lock:
            series = sorted(self._series.items())
        return [
            f"{self.name}{_render_labels(key)} {_format_value(value)}"
            for key, value in series
        ]


class Counter(_Scalar):
    """A monotonically increasing count (per label set)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        super().inc(amount, **labels)


class Gauge(_Scalar):
    """A value that can go up and down (queue depth, claims by state)."""

    type_name = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    Each label set owns per-bucket counts plus a running sum and count;
    rendering emits the cumulative ``_bucket{le=...}`` series (always
    ending in ``le="+Inf"``), then ``_sum`` and ``_count``.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: Tuple[float, ...] = tuple(bounds)

    def observe(self, value: float, **labels: str) -> None:
        if not _ENABLED:
            return
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "counts": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][i] += 1
                    break
            series["sum"] += value
            series["count"] += 1

    def snapshot(self, **labels: str) -> Dict[str, object]:
        """Cumulative bucket counts plus sum/count for one label set."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"buckets": {}, "sum": 0.0, "count": 0}
            counts = list(series["counts"])
            total_sum, total_count = series["sum"], series["count"]
        cumulative: Dict[float, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[bound] = running
        cumulative[math.inf] = total_count
        return {"buckets": cumulative, "sum": total_sum, "count": total_count}

    def render(self) -> List[str]:
        with self._lock:
            series = sorted(
                (key, list(s["counts"]), s["sum"], s["count"])
                for key, s in self._series.items()
            )
        lines: List[str] = []
        for key, counts, total_sum, total_count in series:
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, [('le', _format_value(bound))])} "
                    f"{running}"
                )
            lines.append(
                f"{self.name}_bucket{_render_labels(key, [('le', '+Inf')])} "
                f"{total_count}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(total_sum)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {total_count}")
        return lines


class MetricsRegistry:
    """All metric families of one process, behind one lock.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent by
    name), so any component can name a metric without coordinating who
    registers it first; conflicting re-registration (same name, different
    family) is an error rather than a silent shadow.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.type_name}, not {cls.type_name}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, buckets=buckets
        )

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help or metric.name}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


# -- process-global registry ---------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """This process's metrics registry."""
    return _REGISTRY


# -- kernel profiling ----------------------------------------------------------

# Duration buckets for kernels run thousands of times per proof: down to
# 10us, still topping out at minutes for paper-scale MSMs.
KERNEL_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0,
)


def size_bucket(n: int) -> str:
    """Power-of-two label for an operand count (``1000 -> "2^10"``)."""
    if n <= 0:
        return "0"
    return f"2^{(n - 1).bit_length()}"


def observe_kernel(kind: str, n: int, seconds: float, **labels: str) -> None:
    """Record one kernel invocation (``kind`` in ``{"msm", "ntt"}``).

    Callers gate on :func:`kernel_profiling_enabled` *before* reading
    the clock, so this function only ever runs on the profiled path.
    """
    get_metrics().histogram(
        f"zkrownn_{kind}_seconds",
        f"duration of one {kind.upper()} kernel call, by operand count",
        buckets=KERNEL_BUCKETS,
    ).observe(seconds, n=size_bucket(n), **labels)
