"""Spans, statistics and the per-run record shared by the four workloads.

Everything here observes the program from outside: a span is a pair of
clock reads around one of the benchmark's own calls into a public
function of ``repro``; nothing under ``src/`` is patched or edited.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

# Sample counts are sized for this many measured seconds (BENCHMARK.json's
# run_seconds); --seconds scales them, never below the stated minimum.
BASE_SECONDS = 20.0


def scaled(base: int, seconds: float, minimum: int) -> int:
    return max(minimum, round(base * seconds / BASE_SECONDS))


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# ------------------------------------------------------------------ spans --


class Span:
    """One timed call; recorded into the tracer only while it is enabled.

    ``seconds`` (wall clock) and ``cpu_seconds`` (the calling thread's CPU
    time) are always set on exit, so end-to-end timers and traced spans
    are the same clock reads.
    """

    __slots__ = ("tracer", "name", "op", "record", "start", "cpu_start",
                 "seconds", "cpu_seconds")

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int]):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.record: Optional[dict] = None
        self.seconds = 0.0
        self.cpu_seconds = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        local = tracer.local()
        if tracer.enabled and not local.muted:
            self.record = {
                "name": self.name,
                "op": self.op,
                "parent": local.stack[-1] if local.stack else None,
                "thread": threading.get_ident(),
            }
            with tracer.lock:
                self.record["id"] = len(tracer.spans)
                tracer.spans.append(self.record)
            local.stack.append(self.record["id"])
        self.start = time.perf_counter()
        self.cpu_start = time.thread_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.cpu_seconds = time.thread_time() - self.cpu_start
        end = time.perf_counter()
        self.seconds = end - self.start
        if self.record is not None:
            self.record["start"] = self.start - self.tracer.origin
            self.record["end"] = end - self.tracer.origin
            self.record["cpu"] = self.cpu_seconds
            self.tracer.local().stack.pop()


class Tracer:
    """In-memory span store: name, start, end, CPU seconds, parent,
    operation id."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[dict] = []
        self.lock = threading.Lock()
        self.origin = time.perf_counter()
        self._local = threading.local()

    def local(self):
        """This thread's open-span stack and mute flag."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.muted = False
        return local

    def mute(self, muted: bool) -> None:
        """Stop (or resume) recording this thread's spans: timed loops
        alternate so one run yields the tracing overhead."""
        self.local().muted = muted

    def span(self, name: str, op: Optional[int] = None) -> Span:
        return Span(self, name, op)

    def cpu_seconds(self, name: str) -> List[float]:
        return [s["cpu"] for s in self.spans if s["name"] == name]

    def with_self_time(self) -> List[dict]:
        """Spans plus ``self``: duration minus what the children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, self=s["end"] - s["start"] - covered[s["id"]])
            for s in self.spans
        ]


# ------------------------------------------------------------- statistics --


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: The machine speed every reported time is scaled to, in ns per
#: calibration step: about what this kernel takes on an undisturbed core
#: of the box the benchmark was defined on.
REFERENCE_MULMOD_NS = 450.0

_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583


def mulmod_ns(iterations: int = 20_000) -> float:
    """Calibration kernel: ns of this thread's CPU time per ``a * b % P``
    on BN254's base field.  It depends on the machine and the interpreter
    and on nothing under ``src/``.

    CPU time, not wall time, so that a client thread waiting for the
    interpreter lock does not read as a slow machine.
    """
    a, b = _P - 0x1234567, _P - 0x89ABCDE
    t0 = time.thread_time()
    for _ in range(iterations):
        a = a * b % _P
    return (time.thread_time() - t0) / iterations * 1e9


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- samples --


def cpu_ticks() -> Tuple[int, int]:
    """Machine-wide (busy, stolen) CPU ticks so far, from ``/proc/stat``;
    ``(0, 0)`` where the kernel does not report them."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


class Samples:
    """Timed samples of one kind, as clocked and at the reference speed.

    The box this runs on is a shared virtual machine: for seconds to
    minutes at a time a neighbour slows its cores by a third, or the
    hypervisor withholds a third of their time.  No median within a 20 s
    run removes that.  So:

    * the single-threaded workloads clock the calling thread's CPU
      seconds, which time withheld from the machine does not enter.
      Their operations neither sleep nor wait, so on an undisturbed
      machine CPU seconds and wall-clock seconds are the same number;
    * a calibration step runs between samples, and each sample is scaled
      by ``REFERENCE_MULMOD_NS`` over the mean of the two steps that
      bracket it;
    * ``wall=True`` (the service workload, whose latencies contain
      queueing and polling and must be wall-clock) also scales each
      sample by the share of demanded CPU time that was not stolen while
      it ran.

    The reported medians are of the scaled samples; the medians as
    clocked are kept beside them in the output.
    """

    def __init__(self, run: "Run", wall: bool = False):
        self.run = run
        self.wall = wall
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self.mark()

    def mark(self) -> None:
        """Re-calibrate after untimed work, before the next sample."""
        self.before = self.run.speed()
        self.ticks = cpu_ticks() if self.wall else (0, 0)

    def add(self, seconds: float) -> float:
        """Record a sample that just ended; returns its scale factor."""
        after = self.run.speed()
        factor = 2.0 * REFERENCE_MULMOD_NS / (self.before + after)
        self.before = after
        if self.wall:
            ticks = cpu_ticks()
            busy, stolen = ticks[0] - self.ticks[0], ticks[1] - self.ticks[1]
            self.ticks = ticks
            if busy + stolen > 0:
                factor *= busy / (busy + stolen)
        self.also(seconds, factor)
        return factor

    def also(self, seconds: float, factor: float) -> None:
        """Record a sample taken inside one that :meth:`add` scaled."""
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)


# ------------------------------------------------------------- run record --


class Run:
    """What one workload run measured, and whether its outputs were right."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 started_unix: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started_unix = started_unix
        self.workdir = workdir
        self.tracer = Tracer()
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.info: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.speeds: List[float] = []
        self.raw_medians: Dict[str, float] = {}
        self._lock = threading.Lock()

    def span(self, name: str, op: Optional[int] = None) -> Span:
        return self.tracer.span(name, op)

    def speed(self) -> float:
        """One calibration step, now, on the calling thread."""
        ns = mulmod_ns()
        self.speeds.append(ns)
        return ns

    def setup_done(self) -> None:
        """Call immediately before the first timed operation.

        Set-up is this process's CPU seconds since it started, on all its
        threads, scaled by the calibration steps taken while it ran; the
        wall-clock seconds since the parent launched it are kept beside.
        """
        self.speed()
        self.raw_medians["setup_s"] = time.time() - self.started_unix
        self.metrics["setup_s"] = (
            time.process_time() * REFERENCE_MULMOD_NS / median(self.speeds))

    def put(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = n

    def put_median(self, name: str, values, scale: float = 1.0) -> None:
        """Median of a list of seconds, or of a :class:`Samples`' scaled
        seconds (its raw median is then recorded beside it)."""
        if isinstance(values, Samples):
            if values.raw:
                self.raw_medians[name] = median(values.raw) * scale
            values = values.scaled
        if values:
            self.put(name, median(values) * scale, len(values))

    def run_factor(self) -> float:
        """Reference speed over this run's median calibration step: the
        scale for traced spans, which have no steps of their own."""
        return REFERENCE_MULMOD_NS / median(self.speeds)

    def put_spans(self, name: str, span: str, scale: float = 1.0,
                  how=median) -> None:
        """A per-layer time from the traced spans of one name: their CPU
        seconds at the reference speed."""
        seconds = self.tracer.cpu_seconds(span)
        if seconds:
            self.put(name, how(seconds) * scale * self.run_factor(),
                     len(seconds))

    def expect(self, ok: bool, what: str) -> bool:
        """Count one operation; anything not ``ok`` is a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(what)
        return ok

    def finish(self) -> Dict[str, Any]:
        from repro.field.backend import active_field_backend
        from repro.parallel import get_backend
        from repro.tuning.profile import active_profile_metadata

        calibration = median(self.speeds)
        self.info["environment"] = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "field_backend": active_field_backend(),
            "compute_backend": get_backend().name,
            "machine_profile_loaded": active_profile_metadata()["loaded"],
            "mulmod_ns": calibration,
            "reference_mulmod_ns": REFERENCE_MULMOD_NS,
        }
        self.metrics["field.mulmod_ns"] = calibration
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "raw_medians": self.raw_medians,
            "samples": self.samples,
        }
        doc.update(self.info)
        if self.trace:
            doc["spans"] = self.tracer.with_self_time()
        return doc
