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

Job lifecycle: ``queued -> proving -> done | failed`` (plus ``revoked``
applied later by the registry, and ``yielded`` when another replica's
registry lease wins the claim).  Every transition is mirrored to the
:class:`~repro.service.registry.ClaimRegistry`, which is the durable
record; the scheduler's own queue is in-memory and rebuilt empty on
restart -- :meth:`~repro.service.server.ProofService.start` re-enqueues
still-``queued`` registry records from their persisted request frames,
so a killed server resumes proving without resubmission.

Before a dispatched task transitions to ``proving``, the scheduler must
win the claim's registry lease (:meth:`ClaimRegistry.acquire`, an
``O_EXCL`` compare-and-set).  Tasks whose lease is held by another
replica are *yielded*: dropped from this scheduler with local state
``yielded``, never mirrored -- the owning replica's transitions are the
durable record.  Leases are released (and the persisted request frame
discarded) when a task reaches ``done`` or ``failed``.

While a batch proves, a *renewal heartbeat* thread re-acquires the lease
of every task still in ``proving`` at a configurable interval (default:
a third of the lease length), so even a **single proof** longer than the
lease -- where the per-task refresh at batch boundaries never runs --
cannot expire mid-prove and invite a takeover by another replica.
"""

from __future__ import annotations

import threading
import time
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
from . import wire
from .faults import SimulatedCrash
from .registry import DEFAULT_LEASE_SECONDS, ClaimRegistry

__all__ = ["JobState", "ProofScheduler", "ProofTask", "SchedulerStats"]


class JobState:
    """String states a claim job moves through (stored in the registry)."""

    QUEUED = "queued"
    PROVING = "proving"
    DONE = "done"
    FAILED = "failed"
    REVOKED = "revoked"
    # Poison claim: failed ``max_attempts`` dispatches (or was killed by
    # the watchdog); parked with its error chain in the registry instead
    # of crash-looping a worker.  Resubmitting the claim requeues it.
    QUARANTINED = "quarantined"
    # Local-only: another replica holds the claim's proving lease; poll
    # the registry (or the HTTP status endpoint) for the real outcome.
    YIELDED = "yielded"

    TERMINAL = (DONE, FAILED, REVOKED, QUARANTINED, YIELDED)


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
        # Retryable batch failures requeue a task up to max_attempts
        # dispatches, then quarantine it (poison-claim protection).
        self.max_attempts = max_attempts
        # Wall-clock budget for one proving batch: enforced cooperatively
        # by the engine between stream pulls, and by the watchdog thread
        # (at 2x the budget) for proves wedged inside a single proof.
        self.prove_budget_seconds = prove_budget_seconds
        self.faults = faults if faults is not None else _faults.active_plan()
        # Proving-lease length for this scheduler's acquisitions (None =
        # the registry default); deployments with known proof ceilings can
        # shorten it for faster crash takeover.
        self.lease_seconds = lease_seconds
        # Lease-renewal cadence while proving: a third of the lease keeps
        # two renewal opportunities ahead of every expiry.  <= 0 disables
        # the heartbeat (tests of the takeover path rely on that).
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
        self._m_claims = metrics.counter(
            "zkrownn_claims_total",
            "claims reaching a terminal state, by state",
        )
        self._m_queue_depth = metrics.gauge(
            "zkrownn_queue_depth", "jobs waiting for a proving worker",
        )
        self._m_retries = metrics.counter(
            "zkrownn_retries_total", "tasks requeued after retryable failures",
        )
        self._m_quarantines = metrics.counter(
            "zkrownn_quarantines_total", "tasks parked as poison claims",
        )
        self._m_lease_renewals = metrics.counter(
            "zkrownn_lease_renewals_total",
            "heartbeat lease re-acquisitions during long proves",
        )
        self._m_watchdog_kills = metrics.counter(
            "zkrownn_watchdog_kills_total",
            "tasks quarantined by the hung-prove watchdog",
        )
        self._m_deadline_shed = metrics.counter(
            "zkrownn_deadline_shed_total",
            "tasks dropped at dispatch past their deadline",
        )
        self._m_batch_size = metrics.histogram(
            "zkrownn_batch_size", "same-shape jobs proved per dispatch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
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
        self._inflight: Dict[int, dict] = {}  # live batches (watchdog)
        self._inflight_lock = threading.Lock()
        self._batch_counter = 0
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: Optional[threading.Thread] = None

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
        if self.prove_budget_seconds is not None and (
            self._watchdog_thread is None or not self._watchdog_thread.is_alive()
        ):
            self._watchdog_stop.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog, name="proof-watchdog", daemon=True
            )
            self._watchdog_thread.start()
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
        self._watchdog_stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=timeout)
            self._watchdog_thread = None

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
        """Enqueue a job; returns its claim id immediately."""
        with self._cv:
            if task.claim_id in self._states and self._states[
                task.claim_id
            ] not in (JobState.FAILED, JobState.QUARANTINED):
                return task.claim_id  # idempotent resubmission
            self._sequence += 1
            task.sequence = self._sequence
            self._queue.append(task)
            self._states[task.claim_id] = JobState.QUEUED
            self._errors.pop(task.claim_id, None)
            self.stats.submitted += 1
            self._m_queue_depth.set(len(self._queue))
            self._cv.notify_all()
        return task.claim_id

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
        """Win the registry lease for a registered claim (CAS).

        Tasks with no registry record (generic circuits driven straight
        through the scheduler) have nothing to contend for.  Acquiring is
        not enough on its own: another replica may have proved the claim
        and *released* its lease already, so after winning we re-read the
        durable record -- a claim already in a terminal state is yielded,
        never proved twice.
        """
        if task.claim_id not in self.registry:
            return True
        if not self._acquire(task.claim_id):
            return False
        try:
            state = self.registry.reload(task.claim_id).state
        except KeyError:
            state = None
        if state in (JobState.DONE, JobState.FAILED, JobState.REVOKED):
            self.registry.release(task.claim_id)
            return False
        return True

    def _worker(self) -> None:
        while True:
            with self._cv:
                while self._running and not self._queue:
                    self._cv.wait()
                if not self._running:
                    return
                batch = self._take_batch()
            # Deadline shed: work the client has already given up on is
            # failed here instead of burning a proving slot on it.
            live: List[ProofTask] = []
            for task in batch:
                if (
                    task.deadline is not None
                    and time.monotonic() > task.deadline
                ):
                    with self._cv:
                        self.stats.deadline_shed += 1
                    self._m_deadline_shed.inc()
                    self._finish(
                        task, JobState.FAILED,
                        error="deadline exceeded before dispatch",
                    )
                else:
                    live.append(task)
            batch = live
            if not batch:
                continue
            # Lease acquisition does file I/O: outside the queue lock.
            # A transient I/O failure there is retryable for that one
            # task -- it must neither kill the worker nor strand the
            # task as yielded.  (SimulatedCrash is a RuntimeError, not
            # an OSError: crashes still propagate.)
            owned: List[ProofTask] = []
            yielded: List[ProofTask] = []
            deferred: List[tuple] = []
            for task in batch:
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
                    deferred.append((task, exc))
                    continue
                self.tracer.finish(
                    lease_span, outcome="owned" if mine else "yielded"
                )
                (owned if mine else yielded).append(task)
            for task, exc in deferred:
                self._retry_or_quarantine(
                    [task], f"lease acquisition failed: {exc}"
                )
            with self._cv:
                for task in yielded:
                    self._states[task.claim_id] = JobState.YIELDED
                    self.stats.yielded += 1
                for task in owned:
                    self._states[task.claim_id] = JobState.PROVING
                    self.processed_order.append(task.claim_id)
                if owned:
                    self.stats.batches += 1
                    self.stats.batched_jobs += len(owned)
                    self.stats.largest_batch = max(
                        self.stats.largest_batch, len(owned)
                    )
                self._cv.notify_all()
            for task in yielded:
                self._m_claims.inc(state=JobState.YIELDED)
            if owned:
                self._m_batch_size.observe(len(owned))
            if not owned:
                continue
            for task in owned:
                self._mirror(task.claim_id, JobState.PROVING)
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
                self._quarantine_tasks(owned, f"prove budget exceeded: {exc}")
            except Exception as exc:  # noqa: BLE001 - a batch must never kill the worker
                self._retry_or_quarantine(
                    owned, f"batch proving failed: {exc}"
                )

    def _mirror(self, claim_id: str, state: str, *, error: str = "",
                **fields) -> None:
        """Best-effort registry update (the registry may lag, never block).

        Transient I/O failures are retried briefly: losing a ``done``
        mirror to one flaky write would leave a proved claim looking
        ``proving`` forever.  (A :class:`SimulatedCrash` is not an
        ``OSError`` and still propagates -- crashes are not retryable.)
        """
        for delay in (0.0, 0.05, 0.2):
            if delay:
                time.sleep(delay)
            try:
                self.registry.update(
                    claim_id, state=state, error=error, **fields
                )
                return
            except KeyError:
                return  # direct scheduler use without registered records
            except OSError:
                continue

    def _finish(self, task: ProofTask, state: str, *, error: str = "",
                **fields) -> None:
        with self._cv:
            if self._states.get(task.claim_id) in JobState.TERMINAL:
                # Already resolved -- e.g. the watchdog quarantined this
                # task while a wedged prove thread limped to completion.
                # A terminal state is never downgraded.
                return
        self._mirror(task.claim_id, state, error=error, **fields)
        # Local terminal state FIRST, lease release after: the renewal
        # heartbeat gates on the local state, so this order (plus its own
        # post-acquire re-check) keeps it from re-creating a lease for a
        # claim that has already been released.
        with self._cv:
            self._states[task.claim_id] = state
            if error:
                self._errors[task.claim_id] = error
            if state == JobState.DONE:
                self.stats.done += 1
            else:
                self.stats.failed += 1
            self._cv.notify_all()
        self._m_claims.inc(state=state)
        if state in (JobState.DONE, JobState.FAILED):
            # Terminal: the persisted request frame (prover secrets) has
            # served its recovery purpose, and the proving lease is free.
            self.registry.discard_request_bytes(task.claim_id)
            self.registry.release(task.claim_id)

    def _fail_tasks(self, tasks: List[ProofTask], error: str) -> None:
        for task in tasks:
            with self._cv:
                already = self._states.get(task.claim_id)
            if already not in JobState.TERMINAL:
                self._finish(task, JobState.FAILED, error=error)

    # --------------------------------------------------- retry + quarantine --

    def _append_error_chain(self, claim_id: str, entry: str) -> List[str]:
        """The claim's durable error chain with ``entry`` appended."""
        try:
            chain = list(self.registry.get(claim_id).error_chain)
        except (KeyError, OSError):
            chain = []
        chain.append(entry)
        return chain

    def _retry_or_quarantine(self, tasks: List[ProofTask], error: str) -> None:
        """Requeue tasks after a retryable batch failure, or quarantine.

        Each task's attempt counter survives requeues; a task that has
        burned ``max_attempts`` dispatches is a poison claim -- parked as
        ``quarantined`` with its full error chain in the registry instead
        of crash-looping the worker forever.
        """
        for task in tasks:
            with self._cv:
                already = self._states.get(task.claim_id)
            if already in JobState.TERMINAL:
                continue  # e.g. synthesis already failed it individually
            task.attempts += 1
            entry = f"attempt {task.attempts}: {error}"
            if task.attempts >= self.max_attempts:
                self._quarantine(task, error, entry=entry)
                continue
            self.tracer.finish(self.tracer.span(
                task.trace_id, "retry", claim_id=task.claim_id,
                parent_id=task.parent_span_id,
                attempt=task.attempts, error=error,
            ))
            self._m_retries.inc()
            self._mirror(
                task.claim_id, JobState.QUEUED, error=error,
                attempts=task.attempts,
                error_chain=self._append_error_chain(task.claim_id, entry),
            )
            self.registry.release(task.claim_id)
            with self._cv:
                self._sequence += 1
                task.sequence = self._sequence
                self._queue.append(task)
                self._states[task.claim_id] = JobState.QUEUED
                self.stats.retried += 1
                self._m_queue_depth.set(len(self._queue))
                self._cv.notify_all()

    def _quarantine_tasks(self, tasks: List[ProofTask], error: str) -> None:
        for task in tasks:
            with self._cv:
                already = self._states.get(task.claim_id)
            if already not in JobState.TERMINAL:
                task.attempts += 1
                self._quarantine(
                    task, error,
                    entry=f"attempt {task.attempts}: {error}",
                )

    def _quarantine(
        self, task: ProofTask, error: str, *, entry: str,
        release: bool = True,
    ) -> None:
        """Park a poison claim: terminal locally, ``quarantined`` durably.

        The persisted request frame is deliberately KEPT (unlike
        done/failed) so an operator can requeue the claim by resubmitting
        it -- or a restarted replica can inspect it.  ``release=False``
        (the watchdog path) leaves the proving lease to expire naturally:
        a wedged prove thread may still be running, and freeing the lease
        would invite another replica to double-prove against it.
        """
        self.tracer.finish(self.tracer.span(
            task.trace_id, "quarantine", claim_id=task.claim_id,
            parent_id=task.parent_span_id,
            attempt=task.attempts, error=error,
        ))
        self._m_quarantines.inc()
        self._m_claims.inc(state=JobState.QUARANTINED)
        self._mirror(
            task.claim_id, JobState.QUARANTINED, error=error,
            attempts=task.attempts,
            error_chain=self._append_error_chain(task.claim_id, entry),
        )
        try:
            self.registry.audit(
                "quarantined", claim_id=task.claim_id,
                attempts=task.attempts, error=error,
            )
        except OSError:
            pass
        with self._cv:
            self._states[task.claim_id] = JobState.QUARANTINED
            self._errors[task.claim_id] = error
            self.stats.quarantined += 1
            self._cv.notify_all()
        if release:
            self.registry.release(task.claim_id)

    def _watchdog(self) -> None:
        """Quarantine batches wedged past twice the prove budget.

        The engine's cooperative check fires between stream pulls; this
        thread catches the case it cannot -- a prove stuck *inside* one
        proof (or a hung backend) that never pulls again.
        """
        budget = self.prove_budget_seconds
        limit = budget * 2.0
        interval = max(0.02, budget / 4.0)
        while not self._watchdog_stop.wait(interval):
            now = time.monotonic()
            with self._inflight_lock:
                wedged = [
                    entry for entry in self._inflight.values()
                    if now - entry["started"] > limit
                ]
            for batch_entry in wedged:
                for task in batch_entry["tasks"]:
                    with self._cv:
                        state = self._states.get(task.claim_id)
                    if state != JobState.PROVING:
                        continue
                    with self._cv:
                        self.stats.watchdog_kills += 1
                    self._m_watchdog_kills.inc()
                    task.attempts += 1
                    self._quarantine(
                        task,
                        f"watchdog: prove wedged past {limit:.3f}s wall clock",
                        entry=(
                            f"attempt {task.attempts}: watchdog kill after "
                            f"{now - batch_entry['started']:.3f}s"
                        ),
                        release=False,
                    )

    # -------------------------------------------------------------- proving --

    def _acquire(self, claim_id: str) -> bool:
        """Acquire/refresh the claim's lease with this scheduler's length."""
        if self.lease_seconds is None:
            return self.registry.acquire(claim_id)
        return self.registry.acquire(claim_id, lease_seconds=self.lease_seconds)

    def _refresh_lease(self, task: ProofTask) -> None:
        """Extend our proving lease at task boundaries within a batch, so
        a long batch does not silently outlive the lease and invite a
        takeover mid-prove.  (A single proof longer than the lease is
        covered by the renewal heartbeat -- see :meth:`_start_heartbeat`.)"""
        if task.claim_id in self.registry:
            self._acquire(task.claim_id)

    def _start_heartbeat(self, tasks: List[ProofTask]) -> threading.Event:
        """Renew the proving leases of in-flight tasks on a timer.

        Runs for the lifetime of one :meth:`_prove_batch` call: every
        ``heartbeat_seconds`` each task still locally ``proving`` gets its
        registry lease re-acquired (an owner's ``acquire`` is a refresh),
        so a single proof longer than the lease can no longer expire it
        and invite a mid-prove takeover.  Returns the stop event; the
        caller sets it when the batch resolves.
        """
        stop = threading.Event()
        interval = self.heartbeat_seconds
        if interval is None or interval <= 0:
            stop.set()
            return stop

        def renew() -> None:
            while not stop.wait(interval):
                for task in tasks:
                    with self._cv:
                        state = self._states.get(task.claim_id)
                    if state != JobState.PROVING:
                        continue
                    if task.claim_id not in self.registry:
                        continue
                    if self._acquire(task.claim_id):
                        # The task may have reached a terminal state (and
                        # released its lease) between the check above and
                        # this acquire; undo rather than leave a dangling
                        # lease on a finished claim.
                        with self._cv:
                            still_proving = (
                                self._states.get(task.claim_id)
                                == JobState.PROVING
                            )
                            if still_proving:
                                self.stats.lease_renewals += 1
                        if still_proving:
                            self._m_lease_renewals.inc()
                        else:
                            self.registry.release(task.claim_id)

        threading.Thread(
            target=renew, name="proof-lease-heartbeat", daemon=True
        ).start()
        return stop

    def _record_audit_rejection(self, task: ProofTask, exc: Exception) -> None:
        """Mirror a strict-mode circuit-audit rejection to the audit log.

        The scheduler's generic ValueError handling already fails the
        claim; this adds the durable, queryable record of *why* -- which
        circuit, which digest, how many findings at each severity.
        """
        if not isinstance(exc, CircuitAuditError):
            return
        report = exc.report
        try:
            self.registry.audit(
                "circuit_audit_rejected",
                claim_id=task.claim_id,
                circuit=report.circuit,
                circuit_digest=report.digest,
                counts={k: v for k, v in report.counts().items() if v},
                worst=report.worst(),
            )
        except OSError:
            pass

    def _synthesize(self, task: ProofTask):
        """(compiled, synthesis) for one task, with the validity check."""
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
        return compiled, synthesis

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
                    self._batch_counter += 1
                    batch_id = self._batch_counter
                    self._inflight[batch_id] = {
                        "tasks": batch, "started": time.monotonic(),
                    }
                heartbeat_stop = self._start_heartbeat(batch)
                try:
                    self._prove_batch_inner(batch)
                finally:
                    heartbeat_stop.set()
                    with self._inflight_lock:
                        self._inflight.pop(batch_id, None)
            finally:
                self.tracer.finish(dispatch_span)

    def _prove_batch_inner(self, batch: List[ProofTask]) -> None:
        # The batch head compiles (or cache-hits) the shape; later tasks
        # replay the trace lazily inside the generator below.
        head_task = batch[0]
        t0 = time.perf_counter()
        head_synth_span = self.tracer.span(
            head_task.trace_id, "synthesize", claim_id=head_task.claim_id,
            parent_id=head_task.parent_span_id,
        )
        try:
            compiled, head_synthesis = self._synthesize(head_task)
        except (ConstraintViolation, TraceDivergence, OverflowError,
                ValueError) as exc:
            self.tracer.finish(head_synth_span, outcome="error",
                               error=str(exc))
            self._record_audit_rejection(head_task, exc)
            self._finish(head_task, JobState.FAILED,
                         error=f"witness synthesis failed: {exc}")
            rest = batch[1:]
            if rest:
                # Inner call: the enclosing _prove_batch's heartbeat
                # already covers every task of this batch.
                self._prove_batch_inner(rest)
            return
        self.tracer.finish(head_synth_span)
        head_elapsed = time.perf_counter() - t0

        proved: List[ProofTask] = []
        synth_seconds: List[float] = []

        def pairs():
            proved.append(head_task)
            synth_seconds.append(head_elapsed)
            yield head_synthesis, head_task.seed
            for task in batch[1:]:
                if self.faults is not None:
                    self.faults.fire("scheduler.prove")
                self._refresh_lease(task)
                t1 = time.perf_counter()
                synth_span = self.tracer.span(
                    task.trace_id, "synthesize", claim_id=task.claim_id,
                    parent_id=task.parent_span_id,
                )
                try:
                    _, synthesis = self._synthesize(task)
                except (ConstraintViolation, TraceDivergence, OverflowError,
                        ValueError) as exc:
                    self.tracer.finish(synth_span, outcome="error",
                                       error=str(exc))
                    self._record_audit_rejection(task, exc)
                    self._finish(task, JobState.FAILED,
                                 error=f"witness synthesis failed: {exc}")
                    continue
                self.tracer.finish(synth_span)
                proved.append(task)
                synth_seconds.append(time.perf_counter() - t1)
                yield synthesis, task.seed

        t0 = time.perf_counter()
        prove_started_mono = time.monotonic()
        proofs = self.engine.prove_stream(
            compiled, pairs(), setup_seed=head_task.setup_seed,
            budget_seconds=self.prove_budget_seconds,
        )
        prove_elapsed = time.perf_counter() - t0
        # One prove span per claim, all sharing the batch's start/duration
        # (the whole point of batching: each claim's prove cost IS the
        # batch's), closed here so packaging time below is not included.
        for task in proved:
            self.tracer.finish(self.tracer.span(
                task.trace_id, "prove", claim_id=task.claim_id,
                parent_id=task.parent_span_id,
                start_monotonic=prove_started_mono,
                batch_size=len(proved),
            ))

        keypair = self.engine.setup(compiled)  # cached: resolved, not re-run
        vk_bytes = keypair.verifying_key.to_bytes()
        self.registry.store_verifying_key(compiled.digest, vk_bytes)

        for task, proof, synth_s in zip(proved, proofs, synth_seconds):
            persist_span = self.tracer.span(
                task.trace_id, "persist", claim_id=task.claim_id,
                parent_id=task.parent_span_id,
            )
            with self.tracer.active(persist_span):
                if task.model is not None and task.keys is not None:
                    claim = self._package(task, proof)
                    self.registry.store_claim_bytes(
                        task.claim_id, wire.encode_claim(claim)
                    )
                    self.registry.audit(
                        "proved", claim_id=task.claim_id,
                        circuit_digest=compiled.digest,
                        batch_size=len(proved),
                    )
                self._finish(
                    task, JobState.DONE,
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
