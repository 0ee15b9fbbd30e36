"""The proof scheduler: a job queue that understands circuit shapes.

The expensive stages of a Groth16 claim are per *shape*, not per claim
(the engine caches compiled circuits and keypairs), and the compute
backend proves a whole batch against one prepared key in a single
dispatch.  The scheduler exploits both: queued jobs are grouped by their
engine shape key, and each worker pass drains up to ``max_batch``
same-shape jobs into ONE ``prove_batch`` call -- concurrent requests for
one model architecture amortize compile + setup and share the backend's
worker pool (which itself stays warm across batches, keyed by circuit
digest).

Witnesses are synthesized lazily through the engine's streaming path:
the generator handed to :meth:`~repro.engine.engine.ProvingEngine.prove_stream`
replays each job's trace only when the backend pulls it, so synthesis of
claim *i+1* overlaps the proving of claim *i*.

Job lifecycle: every state change is a row of the table in
:mod:`~repro.service.lifecycle`.  For a registered claim the registry
applies the row to the durable record and the scheduler's in-memory state
follows; when the registry refuses -- the claim was revoked, quarantined
by the watchdog, or settled by another replica meanwhile -- the scheduler
adopts the durable state instead of overwriting it.  Before a task is
``proving`` the scheduler must win the claim's registry lease (an
``O_EXCL`` compare-and-set) and the table must accept ``dispatch`` on the
durable record; a task that loses either is *yielded* (local state
only: the owner's transitions are the durable record).  The queue itself
is in-memory: :meth:`~repro.service.server.ProofService.start` re-enqueues
pending records from their persisted request frames after a restart.

While batches prove, one *monitor* thread re-acquires the lease of every
in-flight task still ``proving`` at a configurable interval (default: a
third of the lease length), so even a **single proof** longer than the
lease -- where the per-task refresh at batch boundaries never runs --
cannot expire mid-prove and invite a takeover by another replica; with a
prove budget it also quarantines batches wedged past twice the budget.
"""

from __future__ import annotations

import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis import CircuitAuditError
from ..circuit.trace import TraceDivergence
from ..engine.engine import ProveBudgetExceeded, ProvingEngine
from ..obs import Tracer, get_metrics
from ..snark.errors import ConstraintViolation
from ..zkrownn.artifacts import OwnershipClaim, model_digest
from ..zkrownn.circuit import CircuitConfig
from . import faults as _faults
from . import lifecycle, wire
from .faults import SimulatedCrash
from .lifecycle import JobState, TransitionRefused
from .registry import DEFAULT_LEASE_SECONDS, ClaimRegistry

__all__ = ["JobState", "ProofScheduler", "ProofTask", "SchedulerStats"]


@dataclass
class ProofTask:
    """One proving job as the scheduler sees it.

    ``model`` / ``keys`` / ``config`` describe an ownership claim and are
    what gets packaged into the registry on success; tasks without them
    (generic circuits) still batch and prove but store no claim.
    """

    claim_id: str
    shape_key: str
    synthesize: Callable  # SynthesisFn for the engine
    model: object = None
    keys: object = None
    config: CircuitConfig = field(default_factory=CircuitConfig)
    priority: int = 0
    seed: Optional[int] = None
    setup_seed: Optional[int] = None
    require_valid: bool = True
    submitted_at: float = field(default_factory=time.monotonic)
    sequence: int = 0  # FIFO tiebreaker within a priority level
    attempts: int = 0  # dispatches that ended in a retryable failure
    # Absolute time.monotonic() deadline: work the client has given up
    # on is shed at dispatch instead of burning a prover slot.
    deadline: Optional[float] = None
    # Observability: tasks with an empty trace_id record no spans (the
    # direct-scheduler path benchmarks and tests use).  parent_span_id
    # parents scheduler spans under the server's submit span.
    trace_id: str = ""
    parent_span_id: str = ""


@dataclass
class SchedulerStats:
    """Counters for ``/stats`` and the batching tests."""

    submitted: int = 0
    batches: int = 0
    batched_jobs: int = 0
    largest_batch: int = 0
    done: int = 0
    failed: int = 0
    yielded: int = 0  # lost the registry lease to another replica
    lease_renewals: int = 0  # heartbeat re-acquisitions during long proofs
    retried: int = 0  # tasks requeued after a retryable batch failure
    quarantined: int = 0  # tasks parked after exhausting max_attempts
    deadline_shed: int = 0  # tasks dropped at dispatch past their deadline
    watchdog_kills: int = 0  # tasks quarantined by the hung-prove watchdog

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class ProofScheduler:
    """Thread-based scheduler feeding batches into a :class:`ProvingEngine`.

    Not started automatically: call :meth:`start` (tests and the batching
    guarantee rely on being able to enqueue several jobs before the first
    dispatch).  Each of the ``workers`` dispatch threads takes, per pass,
    every queued job of the best job's shape (up to ``max_batch``): jobs
    that are queued together prove as one batch, while a same-shape job
    that arrives once that batch is under way is taken by the next free
    thread and proves beside it -- on the backend's shared per-digest
    pool when the backend has one -- instead of waiting a whole prove.
    Distinct shapes run concurrently the same way.  A batch that fails
    for a reason outside the claims (an I/O error, a prove worker that
    died) is requeued up to ``max_attempts`` dispatches, then quarantined.
    """

    def __init__(
        self,
        engine: ProvingEngine,
        registry: ClaimRegistry,
        *,
        max_batch: int = 8,
        workers: int = 1,
        lease_seconds: Optional[float] = None,
        heartbeat_seconds: Optional[float] = None,
        max_attempts: int = 3,
        prove_budget_seconds: Optional[float] = None,
        faults: Optional[_faults.FaultPlan] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.engine = engine
        self.registry = registry
        self.max_batch = max_batch
        self.workers = workers
        self.max_attempts = max_attempts
        # Wall-clock budget for one proving batch: the engine checks it
        # between stream pulls, the monitor (at 2x) inside one proof.
        self.prove_budget_seconds = prove_budget_seconds
        self.faults = faults if faults is not None else _faults.active_plan()
        # Proving-lease length for this scheduler's acquisitions (None =
        # the registry default); deployments with known proof ceilings can
        # shorten it for faster crash takeover.
        self.lease_seconds = lease_seconds
        # Lease-renewal cadence while proving: a third of the lease keeps
        # two renewal opportunities ahead of every expiry.  <= 0 disables
        # the renewals (tests of the takeover path rely on that).
        self.heartbeat_seconds = (
            (lease_seconds or DEFAULT_LEASE_SECONDS) / 3.0
            if heartbeat_seconds is None
            else heartbeat_seconds
        )
        self.stats = SchedulerStats()
        # Completed spans persist next to the claim record so the trace
        # survives restarts and failovers (any replica appends to the
        # same traces/<claim_id>.jsonl).
        self.tracer = Tracer(sink=registry.store_trace_span)
        metrics = get_metrics()
        self._m_queue_depth = metrics.gauge(
            "zkrownn_queue_depth", "jobs waiting for a proving worker",
        )
        self._m_batch_size = metrics.histogram(
            "zkrownn_batch_size", "same-shape jobs proved per dispatch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        # The zkrownn_* series each SchedulerStats counter is mirrored to;
        # _count() is the one place either moves.  Claims reaching a
        # state are counted under that state's label.
        claims = metrics.counter(
            "zkrownn_claims_total", "claims reaching a terminal state, by state",
        )
        self._series = {
            name: [(claims, {"state": name})]
            for name in ("done", "failed", "yielded", "quarantined")
        }
        for name, metric, help_text in (
            ("quarantined", "zkrownn_quarantines_total",
             "tasks parked as poison claims"),
            ("retried", "zkrownn_retries_total",
             "tasks requeued after retryable failures"),
            ("lease_renewals", "zkrownn_lease_renewals_total",
             "heartbeat lease re-acquisitions during long proves"),
            ("watchdog_kills", "zkrownn_watchdog_kills_total",
             "tasks quarantined by the hung-prove watchdog"),
            ("deadline_shed", "zkrownn_deadline_shed_total",
             "tasks dropped at dispatch past their deadline"),
        ):
            self._series.setdefault(name, []).append(
                (metrics.counter(metric, help_text), {})
            )
        self.processed_order: List[str] = []  # claim ids in dispatch order
        self._queue: List[ProofTask] = []
        self._states: Dict[str, str] = {}
        self._errors: Dict[str, str] = {}
        self._cv = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._running = False
        self._stopped = False  # stop() was called at least once
        self._sequence = 0
        self._inflight: Dict[int, dict] = {}  # live batches, by id()
        self._inflight_lock = threading.Lock()
        self._monitor_stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle --

    def start(self) -> "ProofScheduler":
        with self._cv:
            if self._running:
                return self
            self._running = True
            self._threads = [
                threading.Thread(
                    target=self._worker, name=f"proof-scheduler-{i}", daemon=True
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        monitored = self.prove_budget_seconds is not None or (
            self.heartbeat_seconds is not None and self.heartbeat_seconds > 0
        )
        if monitored and (
            self._monitor_thread is None or not self._monitor_thread.is_alive()
        ):
            self._monitor_stop.clear()
            self._monitor_thread = threading.Thread(
                target=self._monitor, name="proof-monitor", daemon=True
            )
            self._monitor_thread.start()
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop accepting dispatches; in-flight batches finish.

        Marks the scheduler *stopped*: a stopped (or stopping) scheduler
        will never dispatch again in this process, and the service layer
        rejects new admissions against it with 503 -- acking ``queued``
        for work that cannot run here would strand the client.
        """
        with self._cv:
            self._running = False
            self._stopped = True
            self._cv.notify_all()
        self._monitor_stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=timeout)
            self._monitor_thread = None

    @property
    def stopping(self) -> bool:
        """True once :meth:`stop` has been called (draining or stopped).

        A scheduler that was merely never started is NOT stopping: claims
        submitted to it queue up and are dispatched when it starts (or by
        the replica that recovers them) -- the pattern restart tests and
        the recovery path rely on.
        """
        with self._cv:
            return self._stopped

    # --------------------------------------------------------------- submit --

    def submit(self, task: ProofTask) -> str:
        """Enqueue a job; returns its claim id immediately.

        Idempotent: the table takes a claim into the queue only when this
        scheduler has never seen it (``submit``) or holds it failed,
        quarantined or yielded (``requeue``).
        """
        claim_id = task.claim_id
        with self._cv:
            prior = self._states.get(claim_id)
            event = lifecycle.SUBMIT if prior is None else lifecycle.REQUEUE
            if self._advance(claim_id, event) is None:
                return claim_id  # already queued, proving or settled here
            self._sequence += 1
            task.sequence = self._sequence
            self._queue.append(task)
            self._errors.pop(claim_id, None)
            self._m_queue_depth.set(len(self._queue))
        return claim_id

    def state(self, claim_id: str) -> Optional[str]:
        with self._cv:
            return self._states.get(claim_id)

    def error(self, claim_id: str) -> str:
        with self._cv:
            return self._errors.get(claim_id, "")

    def wait(self, claim_id: str, *, timeout: float = 60.0) -> str:
        """Block until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                state = self._states.get(claim_id)
                if state in JobState.TERMINAL:
                    return state
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"claim {claim_id!r} still {state!r} after {timeout}s"
                    )
                self._cv.wait(remaining)

    def pending(self) -> int:
        with self._cv:
            return len(self._queue)

    def stats_snapshot(self) -> Dict[str, int]:
        """One locked, mutually-consistent copy of the counters.

        Every counter mutation happens under ``self._cv``, so a snapshot
        taken under it can never pair (say) this batch's ``batches`` with
        last batch's ``batched_jobs`` -- the guarantee ``/stats`` needs.
        """
        with self._cv:
            return self.stats.as_dict()

    # ---------------------------------------------------------- transitions --

    def _count(self, name: str) -> None:
        """Bump one scheduler counter and the series that mirror it."""
        with self._cv:
            setattr(self.stats, name, getattr(self.stats, name) + 1)
        for metric, labels in self._series.get(name, ()):
            metric.inc(**labels)

    def _advance(
        self, claim_id: str, event: str, *, error: str = "",
        decided: Optional[lifecycle.Transition] = None, counter: str = "",
    ) -> Optional[lifecycle.Transition]:
        """Move the local state by one event (None: the table refuses).

        ``decided`` is the registry's row, when a durable record was asked.
        Counters (the row's, and ``counter`` for the event's cause) move
        with the state, so a waiter it wakes already sees them counted.
        """
        with self._cv:
            step = decided
            if step is None:
                try:
                    step = lifecycle.transition(self._states.get(claim_id), event)
                except TransitionRefused:
                    return None
            self._states[claim_id] = step.state
            if error:
                self._errors[claim_id] = error
            for name in (step.counter, counter):
                if name:
                    self._count(name)
            self._cv.notify_all()
        return step

    def _step(self, task: ProofTask, event: str, *, error: str = "",
              counter: str = "", **fields) -> bool:
        """Take one lifecycle event for a dispatched task; False if refused.

        The durable record decides.  A refusal means someone else (a
        revoke, the watchdog, another replica) settled the claim first:
        the local state adopts the durable one and this thread lets go of
        its lease.  With no record to ask (a generic circuit, or a
        registry that keeps failing to write) the table decides locally.
        The lease goes last: renewals gate on the local state.
        """
        claim_id = task.claim_id
        decided = None
        # Transient write failures are retried briefly: losing a ``done``
        # to one flaky write would leave a proved claim ``proving``
        # forever.  (A SimulatedCrash is not an OSError: it propagates.)
        for delay in (0.0, 0.05, 0.2):
            if delay:
                time.sleep(delay)
            try:
                decided = self.registry.transition(
                    claim_id, event, error=error, **fields
                )
                break
            except TransitionRefused as exc:
                adopted = lifecycle.Transition(lifecycle.adopted(exc.state))
                self._advance(claim_id, event, decided=adopted)
                self.registry.release(claim_id)
                return False
            except KeyError:
                break  # no durable record
            except OSError:
                continue
        step = self._advance(
            claim_id, event, error=error, decided=decided, counter=counter
        )
        if step is None:
            return False
        if step.release:
            self.registry.release(claim_id)
        return True

    def _proving(self, claim_id: str) -> bool:
        """True while a proof could still land on the claim here."""
        with self._cv:
            return lifecycle.allows(self._states.get(claim_id), lifecycle.PROVE)

    # --------------------------------------------------------------- worker --

    def _take_batch(self) -> List[ProofTask]:
        """Pop the best job plus every queued job sharing its shape.

        Priority (desc) then submission order picks the head; the drain
        is sorted the same way -- priority desc, then submission order --
        so when ``max_batch`` truncates it, the head (and any other
        high-priority job) is never cut out of the very batch it
        selected in favor of earlier-submitted low-priority jobs.
        """
        head = max(self._queue, key=lambda t: (t.priority, -t.sequence))
        batch = [t for t in self._queue if t.shape_key == head.shape_key]
        batch.sort(key=lambda t: (-t.priority, t.sequence))
        batch = batch[: self.max_batch]
        taken = set(id(t) for t in batch)
        self._queue = [t for t in self._queue if id(t) not in taken]
        self._m_queue_depth.set(len(self._queue))
        return batch

    def _own_task(self, task: ProofTask) -> bool:
        """Win the registry lease (CAS), then ``dispatch`` the record.

        The lease alone is not enough: another replica may have proved the
        claim and *released* its lease already, so the table must accept
        ``dispatch`` on the durable record too -- a settled claim is
        yielded, never proved twice.  Generic circuits with no record have
        nothing to contend for.
        """
        if task.claim_id not in self.registry:
            return True
        if not self._acquire(task.claim_id):
            return False
        try:
            self.registry.transition(
                task.claim_id, lifecycle.DISPATCH, error="",
                owner_token=self.registry.owner_token,
            )
        except TransitionRefused:
            self.registry.release(task.claim_id)
            return False
        except KeyError:
            pass  # the record went unreadable: prove, decided locally
        return True

    def _worker(self) -> None:
        while True:
            with self._cv:
                while self._running and not self._queue:
                    self._cv.wait()
                if not self._running:
                    return
                batch = self._take_batch()
            # Lease acquisition does file I/O, outside the queue lock; a
            # transient I/O failure there is a retryable attempt of that
            # one task.  (A SimulatedCrash is not an OSError: it propagates.)
            owned: List[ProofTask] = []
            for task in batch:
                if task.deadline is not None and time.monotonic() > task.deadline:
                    # Work the client has already given up on is failed
                    # here instead of burning a proving slot on it.
                    self._step(task, lifecycle.FAIL,
                               error="deadline exceeded before dispatch",
                               counter="deadline_shed")
                    continue
                # The queue-wait span covers submission (its backdated
                # start) through this dispatch pass picking the task up.
                self.tracer.finish(self.tracer.span(
                    task.trace_id, "queue-wait", claim_id=task.claim_id,
                    parent_id=task.parent_span_id,
                    start_monotonic=task.submitted_at,
                ))
                lease_span = self.tracer.span(
                    task.trace_id, "lease-acquire", claim_id=task.claim_id,
                    parent_id=task.parent_span_id,
                )
                try:
                    mine = self._own_task(task)
                except OSError as exc:
                    self.tracer.finish(
                        lease_span, outcome="error", error=str(exc)
                    )
                    self._failed_attempt(
                        task, f"lease acquisition failed: {exc}", retry=True
                    )
                    continue
                self.tracer.finish(
                    lease_span, outcome="owned" if mine else "yielded"
                )
                if mine:
                    owned.append(task)
                    self._advance(task.claim_id, lifecycle.DISPATCH)
                else:
                    self._advance(task.claim_id, lifecycle.YIELD)
            if not owned:
                continue
            with self._cv:
                self.processed_order.extend(t.claim_id for t in owned)
                self.stats.batches += 1
                self.stats.batched_jobs += len(owned)
                self.stats.largest_batch = max(
                    self.stats.largest_batch, len(owned)
                )
            self._m_batch_size.observe(len(owned))
            try:
                self._prove_batch(owned)
            except SimulatedCrash:
                # The chaos harness's "process died here": propagate so the
                # worker thread dies exactly like the process would -- the
                # retry machinery must never resurrect a crash.
                raise
            except ProveBudgetExceeded as exc:
                # A budget-blown prove would very likely blow it again:
                # straight to quarantine, no retry.
                for task in owned:
                    self._failed_attempt(
                        task, f"prove budget exceeded: {exc}", retry=False
                    )
            except Exception as exc:  # noqa: BLE001 - a batch must never kill the worker
                for task in owned:
                    self._failed_attempt(
                        task, f"batch proving failed: {exc}", retry=True
                    )

    # --------------------------------------------------- retry + quarantine --

    def _failed_attempt(self, task: ProofTask, error: str, *, retry: bool,
                        note: str = "", counter: str = "") -> bool:
        """One failed dispatch of ``task``: ``retry`` it (requeued) or, past
        ``max_attempts`` or with ``retry`` off, ``quarantine`` it as a
        poison claim with its error chain.  False when the table refuses
        (synthesis already failed it, a revoke landed, another replica
        settled it)."""
        attempts = task.attempts + 1
        event = lifecycle.QUARANTINE
        if retry and attempts < self.max_attempts:
            event = lifecycle.RETRY
        try:
            chain = list(self.registry.get(task.claim_id).error_chain)
        except (KeyError, OSError):
            chain = []
        chain.append(f"attempt {attempts}: {note or error}")
        if not self._step(task, event, error=error, counter=counter,
                          attempts=attempts, error_chain=chain):
            return False
        task.attempts = attempts
        self.tracer.finish(self.tracer.span(
            task.trace_id, event, claim_id=task.claim_id,
            parent_id=task.parent_span_id, attempt=attempts, error=error,
        ))
        if event == lifecycle.RETRY:
            with self._cv:
                self._sequence += 1
                task.sequence = self._sequence
                self._queue.append(task)
                self._m_queue_depth.set(len(self._queue))
                self._cv.notify_all()
        return True

    # -------------------------------------------------------------- proving --

    def _acquire(self, claim_id: str) -> bool:
        """Acquire/refresh the claim's lease with this scheduler's length."""
        if self.lease_seconds is None:
            return self.registry.acquire(claim_id)
        return self.registry.acquire(claim_id, lease_seconds=self.lease_seconds)

    def _refresh_lease(self, task: ProofTask) -> None:
        """Extend our proving lease at task boundaries within a batch, so
        a long batch does not outlive it (one long proof: :meth:`_monitor`)."""
        if task.claim_id in self.registry:
            self._acquire(task.claim_id)

    def _monitor(self) -> None:
        """Renew the leases of in-flight claims; quarantine wedged batches.

        Every ``heartbeat_seconds`` each in-flight task still ``proving``
        has its lease re-acquired (an owner's ``acquire`` is a refresh), so
        a single proof longer than the lease cannot expire it mid-prove.
        With a prove budget, a batch wedged past twice the budget -- stuck
        *inside* one proof, where the engine's check between stream pulls
        cannot see it -- is quarantined; whatever its thread reports later
        is refused by the table.
        """
        beat = max(self.heartbeat_seconds or 0.0, 0.0)  # 0: no renewals
        budget = self.prove_budget_seconds
        watchdog = budget is not None and max(0.02, budget / 4.0)
        next_beat = time.monotonic() + beat
        while not self._monitor_stop.wait(min(t for t in (beat, watchdog) if t)):
            now = time.monotonic()
            renew = bool(beat) and now >= next_beat
            if renew:
                next_beat = now + beat
            with self._inflight_lock:
                batches = list(self._inflight.values())
            for batch in batches:
                age = now - batch["started"]
                for task in batch["tasks"]:
                    if not self._proving(task.claim_id):
                        continue
                    if budget is not None and age > 2.0 * budget:
                        self._failed_attempt(
                            task,
                            f"watchdog: prove wedged past {2.0 * budget:.3f}s "
                            "wall clock",
                            retry=False, counter="watchdog_kills",
                            note=f"watchdog kill after {age:.3f}s",
                        )
                    elif (
                        renew and task.claim_id in self.registry
                        and self._acquire(task.claim_id)
                    ):
                        # The task may have settled (and released its
                        # lease) since the check above; undo rather than
                        # leave a dangling lease on a finished claim.
                        if self._proving(task.claim_id):
                            self._count("lease_renewals")
                        else:
                            self.registry.release(task.claim_id)

    def _record_audit_rejection(self, task: ProofTask, exc: Exception) -> None:
        """Mirror a strict-mode circuit-audit rejection to the audit log.

        The scheduler's generic ValueError handling already fails the
        claim; this adds the durable, queryable record of *why* -- which
        circuit, which digest, how many findings at each severity.
        """
        if not isinstance(exc, CircuitAuditError):
            return
        report = exc.report
        with suppress(OSError):
            self.registry.audit(
                "circuit_audit_rejected",
                claim_id=task.claim_id,
                circuit=report.circuit,
                circuit_digest=report.digest,
                counts={k: v for k, v in report.counts().items() if v},
                worst=report.worst(),
            )

    def _synthesize(self, task: ProofTask):
        """``(compiled, synthesis, seconds)`` for one task, or None once a
        failed synthesis (or validity check) has failed the task."""
        t0 = time.perf_counter()
        span = self.tracer.span(
            task.trace_id, "synthesize", claim_id=task.claim_id,
            parent_id=task.parent_span_id,
        )
        try:
            compiled, synthesis = self.engine.synthesize(
                task.shape_key, task.synthesize, name="zkrownn-extraction"
            )
            if task.require_valid and synthesis.assignment[
                synthesis.aux.valid_output.index
            ] != 1:
                raise ValueError(
                    "watermark does not extract from this model within theta; "
                    "refusing to prove a non-ownership claim"
                )
        except (ConstraintViolation, TraceDivergence, OverflowError,
                ValueError) as exc:
            self.tracer.finish(span, outcome="error", error=str(exc))
            self._record_audit_rejection(task, exc)
            self._step(task, lifecycle.FAIL,
                       error=f"witness synthesis failed: {exc}")
            return None
        self.tracer.finish(span)
        return compiled, synthesis, time.perf_counter() - t0

    def _prove_batch(self, batch: List[ProofTask]) -> None:
        # The dispatch span (on the head task's trace) is *active* for the
        # whole batch, so scheduler.dispatch / scheduler.prove fault fires
        # -- and any fault inside synthesis or the prove stream, which run
        # on this same thread -- attach to it as events.
        head = batch[0]
        dispatch_span = self.tracer.span(
            head.trace_id, "dispatch", claim_id=head.claim_id,
            parent_id=head.parent_span_id, batch_size=len(batch),
        )
        with self.tracer.active(dispatch_span):
            try:
                if self.faults is not None:
                    self.faults.fire("scheduler.dispatch")
                with self._inflight_lock:
                    self._inflight[id(batch)] = {
                        "tasks": batch, "started": time.monotonic(),
                    }
                try:
                    self._prove_batch_inner(batch)
                finally:
                    with self._inflight_lock:
                        del self._inflight[id(batch)]
            finally:
                self.tracer.finish(dispatch_span)

    def _prove_batch_inner(self, batch: List[ProofTask]) -> None:
        # The batch head compiles (or cache-hits) the shape; later tasks
        # replay the trace lazily inside the generator below.  A head that
        # fails synthesis passes the role on (the batch stays in flight,
        # so the monitor still covers every task of it).
        head = self._synthesize(batch[0])
        if head is None:
            if len(batch) > 1:
                self._prove_batch_inner(batch[1:])
            return
        compiled = head[0]
        proved = [(batch[0], head[2])]  # (task, synthesis seconds)

        def pairs():
            yield head[1], batch[0].seed
            for task in batch[1:]:
                if self.faults is not None:
                    self.faults.fire("scheduler.prove")
                self._refresh_lease(task)
                synthesized = self._synthesize(task)
                if synthesized is not None:
                    proved.append((task, synthesized[2]))
                    yield synthesized[1], task.seed

        t0 = time.perf_counter()
        prove_started_mono = time.monotonic()
        proofs = self.engine.prove_stream(
            compiled, pairs(), setup_seed=batch[0].setup_seed,
            budget_seconds=self.prove_budget_seconds,
        )
        prove_elapsed = time.perf_counter() - t0
        # One prove span per claim, all sharing the batch's start/duration
        # (the whole point of batching: each claim's prove cost IS the
        # batch's), closed here so packaging time below is not included.
        for task, _ in proved:
            self.tracer.finish(self.tracer.span(
                task.trace_id, "prove", claim_id=task.claim_id,
                parent_id=task.parent_span_id,
                start_monotonic=prove_started_mono,
                batch_size=len(proved),
            ))

        keypair = self.engine.setup(compiled)  # cached: resolved, not re-run
        vk_bytes = keypair.verifying_key.to_bytes()
        self.registry.store_verifying_key(compiled.digest, vk_bytes)

        for (task, synth_s), proof in zip(proved, proofs):
            persist_span = self.tracer.span(
                task.trace_id, "persist", claim_id=task.claim_id,
                parent_id=task.parent_span_id,
            )
            with self.tracer.active(persist_span):
                claim_frame = None
                if task.model is not None and task.keys is not None:
                    claim_frame = wire.encode_claim(self._package(task, proof))
                self._step(
                    task, lifecycle.PROVE,
                    claim_frame=claim_frame,
                    circuit_digest=compiled.digest,
                    timings={
                        "synthesize_seconds": synth_s,
                        "batch_prove_seconds": prove_elapsed,
                        "batch_size": float(len(proved)),
                    },
                )
            self.tracer.finish(persist_span)

    @staticmethod
    def _package(task: ProofTask, proof) -> OwnershipClaim:
        fmt = task.config.fixed_point
        return OwnershipClaim(
            proof_bytes=proof.to_bytes(),
            theta=task.config.theta,
            wm_bits=task.keys.num_bits,
            embed_layer=task.keys.embed_layer,
            model_sha256=model_digest(task.model, task.keys.embed_layer),
            frac_bits=fmt.frac_bits,
            total_bits=fmt.total_bits,
            sigmoid_degree=task.config.sigmoid_degree,
        )

    def __repr__(self) -> str:
        return (
            f"ProofScheduler(pending={self.pending()}, "
            f"stats={self.stats.as_dict()})"
        )
