"""Deterministic fault injection for the proof-service stack.

A proof service that claims to survive crashes, resets, and corruption
has to be able to *demonstrate* it -- on demand, reproducibly, in CI.
This module is the harness: a :class:`FaultPlan` is a seeded list of
:class:`FaultSpec` entries, each naming a hook *site* inside the stack
and a fault *kind* to inject there.  Hook sites are threaded through the
service modules::

    wire.decode                     frame bytes entering a decoder
    registry.write                  record/blob writes (transient OSError)
    registry.read                   record/blob reads  (transient OSError)
    registry.crash-before-persist   the process "dies" before os.replace
    registry.crash-after-persist    the process "dies" after os.replace
    scheduler.dispatch              a claim entering its dispatch
    scheduler.prove                 a claim about to prove (in flight)
    http.request                    a request entering the HTTP handler

Fault kinds: ``latency`` (sleep ``delay_seconds``), ``error`` (raise the
named exception), ``reset`` (raise :class:`InjectedConnectionReset`; the
HTTP handler answers by dropping the socket), ``crash`` (raise
:class:`SimulatedCrash` -- the in-process stand-in for the process
dying at that instant), and ``corrupt`` (deterministically bit-flip or
truncate a byte string via :meth:`FaultPlan.mutate`).

Determinism: whether the *n*-th call at a site fires is a pure function
of ``(plan seed, spec index, site, n)`` -- a SHA-256 coin, not
``random`` state -- so a chaos run replays identically regardless of
thread interleaving across sites, and a failing seed is a bug report.

Injection is explicit only: modules take a plan as a constructor
argument, or the process-global plan is installed from the
``ZKROWNN_FAULT_PLAN`` environment variable (inline JSON, or ``@path``
to a JSON file; parsed by :mod:`repro.config`, which refuses a
malformed one with :class:`~repro.config.ConfigError`).  With no plan
installed every hook is a single ``is None`` check -- zero cost in
production.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Union

from .. import config
from ..obs import trace as _trace

__all__ = [
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "InjectedConnectionReset",
    "SimulatedCrash",
    "active_plan",
    "injected",
    "install_plan",
]

KINDS = ("latency", "error", "reset", "crash", "corrupt")
CORRUPT_MODES = ("bitflip", "truncate")


class SimulatedCrash(RuntimeError):
    """The process "died" at an injected crash point.

    Raised (never caught) by the fault hooks so a chaos test can abandon
    the service object mid-operation -- the in-process analogue of
    ``kill -9`` between two instructions.  Recovery/retry machinery must
    NOT swallow it: a real crash would not be catchable either.
    """


class InjectedConnectionReset(ConnectionResetError):
    """An injected transport-level reset (peer hung up mid-request)."""


class FaultInjectionError(ValueError):
    """A malformed fault plan or spec."""


# Exceptions the ``error`` kind may raise: the *real* types production
# code handles, so injected failures travel the same paths real ones do.
_ERRORS = {
    "OSError": OSError,
    "IOError": OSError,
    "ConnectionResetError": ConnectionResetError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


@dataclass
class FaultSpec:
    """One fault to inject: where, what, and how often.

    ``site`` names a hook point exactly, or a prefix with a trailing
    ``*`` (``registry.*``).  ``probability`` is the per-call fire chance
    (decided by the plan's deterministic coin); ``after_calls`` skips the
    first N matching calls and ``max_fires`` bounds total injections.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    after_calls: int = 0
    delay_seconds: float = 0.05
    error: str = "OSError"
    message: str = "injected fault"
    mode: str = "bitflip"  # for kind="corrupt"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r} (one of {KINDS})"
            )
        if self.kind == "error" and self.error not in _ERRORS:
            raise FaultInjectionError(
                f"unknown error type {self.error!r} (one of {sorted(_ERRORS)})"
            )
        if self.kind == "corrupt" and self.mode not in CORRUPT_MODES:
            raise FaultInjectionError(
                f"unknown corrupt mode {self.mode!r} (one of {CORRUPT_MODES})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"probability {self.probability} outside [0, 1]"
            )

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return self.site == site


class FaultPlan:
    """A seeded, thread-safe schedule of faults over the hook sites.

    One plan instance is meant to be shared by every component of one
    service (registry, scheduler, HTTP handler): call counters -- and
    therefore the deterministic firing schedule -- are per plan.
    """

    def __init__(self, seed: int = 0, specs: Sequence[Union[FaultSpec, dict]] = ()):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        ]
        self._lock = threading.Lock()
        self._calls: Dict[int, int] = {}
        self._fires: Dict[int, int] = {}
        self.events: List[dict] = []

    # ------------------------------------------------------------ decisions --

    def _coin(self, index: int, site: str, call: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{site}:{call}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def _decide(self, index: int, spec: FaultSpec, site: str):
        """Count one matching call; return ``(fires, call_number)``."""
        with self._lock:
            call = self._calls.get(index, 0)
            self._calls[index] = call + 1
            if call < spec.after_calls:
                return False, call
            if (
                spec.max_fires is not None
                and self._fires.get(index, 0) >= spec.max_fires
            ):
                return False, call
            if spec.probability < 1.0 and self._coin(
                index, site, call
            ) >= spec.probability:
                return False, call
            self._fires[index] = self._fires.get(index, 0) + 1
            self.events.append(
                {"site": site, "kind": spec.kind, "call": call, "spec": index}
            )
            return True, call

    # ----------------------------------------------------------- hook points --

    def fire(self, site: str) -> None:
        """The action hook: may sleep, raise, or (usually) do nothing."""
        for index, spec in enumerate(self.specs):
            if spec.kind == "corrupt" or not spec.matches(site):
                continue
            firing, _ = self._decide(index, spec, site)
            if not firing:
                continue
            _trace.record_fault(site, spec.kind)
            if spec.kind == "latency":
                time.sleep(spec.delay_seconds)
            elif spec.kind == "error":
                raise _ERRORS[spec.error](f"[injected@{site}] {spec.message}")
            elif spec.kind == "reset":
                raise InjectedConnectionReset(
                    f"[injected@{site}] {spec.message}"
                )
            elif spec.kind == "crash":
                raise SimulatedCrash(f"[injected@{site}] {spec.message}")

    def mutate(self, site: str, data: bytes) -> bytes:
        """The corruption hook: deterministically damage a byte string."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "corrupt" or not spec.matches(site):
                continue
            firing, call = self._decide(index, spec, site)
            if not firing or not data:
                continue
            _trace.record_fault(site, spec.kind)
            digest = hashlib.sha256(
                f"{self.seed}:{index}:{site}:{call}:damage".encode()
            ).digest()
            if spec.mode == "truncate":
                cut = 1 + digest[0] % min(8, len(data))
                data = data[: len(data) - cut]
            else:  # bitflip
                pos = int.from_bytes(digest[:4], "big") % len(data)
                flipped = bytearray(data)
                flipped[pos] ^= 1 << (digest[4] % 8)
                data = bytes(flipped)
        return data

    # ------------------------------------------------------------- reporting --

    def summary(self) -> dict:
        """Injection counts for chaos-suite artifacts and assertions."""
        with self._lock:
            by_site: Dict[str, int] = {}
            by_kind: Dict[str, int] = {}
            for event in self.events:
                by_site[event["site"]] = by_site.get(event["site"], 0) + 1
                by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
            return {
                "seed": self.seed,
                "specs": len(self.specs),
                "total_fires": len(self.events),
                "by_site": by_site,
                "by_kind": by_kind,
            }

    def fired(self, site: Optional[str] = None) -> int:
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for e in self.events if e["site"] == site)

    # --------------------------------------------------------- serialization --

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [asdict(s) for s in self.specs]},
            sort_keys=True,
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
            f"fired={len(self.events)})"
        )


# -- process-global plan -------------------------------------------------------
#
# Modules with no constructor to inject through (wire.py's free decode
# functions) consult the process-global plan; it is None unless a test
# installs one or ZKROWNN_FAULT_PLAN is set, so the off path is a bare
# attribute check.


def _plan_from_env() -> Optional[FaultPlan]:
    data = config.setting("fault_plan")
    try:
        return None if data is None else FaultPlan(**data)
    except (FaultInjectionError, TypeError) as exc:
        raise config.ConfigError(f"ZKROWNN_FAULT_PLAN: {exc}") from exc


# Read once, at import: every component created afterwards defaults to
# this shared plan (one counter space per process).
_PLAN: Optional[FaultPlan] = _plan_from_env()


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with None) the process-global plan; returns it."""
    global _PLAN
    _PLAN = plan
    return plan


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextmanager
def injected(plan: FaultPlan):
    """Scoped process-global installation (tests)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous
