"""The claim lifecycle: its table, and a model check of the service on it.

``ClaimLifecycle`` is a hypothesis state machine over a real
:class:`ClaimRegistry` and :class:`ProofScheduler` behind a
:class:`ProofService`.  Its rules are what happens to a proof service in
production: submissions and resubmissions, revokes (one of them landing
mid-prove), one-shot faults at ``scheduler.dispatch`` and
``registry.write``, a prove worker lost mid-batch, restarts, and another
replica that dies holding a claim until its lease expires.  After every
step the three invariants of the lifecycle must hold:

* **no acked claim lost** -- every claim a submission acknowledged has a
  durable record, and one still pending keeps its request frame, so a
  restart can finish it (teardown restarts and checks they all settle);
* **no terminal state downgraded** -- in the audit trail, ``done`` is
  left only for ``revoked``, ``revoked`` never, and a failed or
  quarantined claim is requeued only by a resubmission;
* **at most one proved event** per claim, and a stored claim frame only
  under one.

Claims prove a tiny chain circuit instead of the extraction circuit (the
service is under test, not the prover): :class:`ChainService` builds each
task from its request as usual, then swaps in the chain synthesizer.  The
task keeps the request's model and keys, so a proof still packages and
stores a claim frame and writes ``proved``.

Tier-1 runs the small default hypothesis profile; CI's chaos job runs
``--hypothesis-profile=chaos`` for more and longer runs.
"""

import hashlib
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.engine import ProvingEngine
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.model import Sequential
from repro.parallel import ProveWorkerLost, SerialBackend
from repro.service import (
    ClaimRecord,
    ClaimRegistry,
    FaultPlan,
    FaultSpec,
    JobState,
    ProofScheduler,
    ProofService,
    lifecycle,
    wire,
)
from repro.watermark import WatermarkKeys

README = Path(__file__).resolve().parents[1] / "README.md"


# -- the table, as the README renders it ---------------------------------------

_STATE_ROWS = (
    None, JobState.QUEUED, JobState.PROVING, JobState.DONE, JobState.FAILED,
    JobState.QUARANTINED, JobState.REVOKED, JobState.YIELDED,
)


def _name(state):
    return "*(new)*" if state is None else f"`{state}`"


def render_transitions(transitions):
    """The README's two tables: next states, then side effects."""
    lines = [
        "| state \\ event | " + " | ".join(lifecycle.EVENTS) + " |",
        "|---" * (len(lifecycle.EVENTS) + 1) + "|",
    ]
    for state in _STATE_ROWS:
        cells = [
            f"`{transitions[(state, event)].state}`"
            if (state, event) in transitions else "·"
            for event in lifecycle.EVENTS
        ]
        lines.append(f"| {_name(state)} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "| event | from | audit events | lease | request frame | counter |",
        "|---|---|---|---|---|---|",
    ]
    for event in lifecycle.EVENTS:
        groups = {}
        for state in _STATE_ROWS:
            if (state, event) in transitions:
                groups.setdefault(transitions[(state, event)], []).append(state)
        for step, states in groups.items():
            lines.append(
                f"| {event} | {', '.join(_name(s) for s in states)} | "
                f"{', '.join(step.audit) or '·'} | "
                f"{'released' if step.release else '·'} | "
                f"{'discarded' if step.discard else '·'} | "
                f"{step.counter or '·'} |"
            )
    return "\n".join(lines) + "\n"


class TestTable:
    def test_readme_renders_the_table(self):
        rendered = render_transitions(lifecycle.TRANSITIONS)
        assert rendered in README.read_text(), (
            "the README's Claim lifecycle tables should read:\n" + rendered
        )

    def test_refusals_are_typed(self):
        for state in lifecycle.TERMINAL_STATES:
            assert not lifecycle.allows(state, lifecycle.PROVE)
            with pytest.raises(lifecycle.TransitionRefused) as excinfo:
                lifecycle.transition(state, lifecycle.PROVE)
            assert excinfo.value.state == state
        for state in (JobState.DONE, JobState.REVOKED):
            assert [e for e in lifecycle.EVENTS
                    if lifecycle.allows(state, e)] == [lifecycle.REVOKE]

    def test_registry_refuses_a_state_outside_transition(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(ClaimRecord(claim_id="c", model_digest="m"))
        with pytest.raises(TypeError):
            registry.update("c", state=JobState.DONE)
        with pytest.raises(lifecycle.TransitionRefused):
            registry.transition("c", lifecycle.PROVE)  # never dispatched
        registry.revoke("c", "dispute")
        with pytest.raises(lifecycle.TransitionRefused) as excinfo:
            registry.transition("c", lifecycle.DISPATCH)
        assert excinfo.value.state == JobState.REVOKED
        assert registry.get("c").state == JobState.REVOKED


class TestConcurrentTransitions:
    def test_revoke_racing_prove_is_never_overwritten(self, tmp_path):
        """Threads racing ``prove`` against ``revoke`` on one registry, far
        more of them than cores: the table check and the write happen
        under one lock, so every claim ends ``revoked`` with no ``done``
        after its revocation -- a lost update would leave one ``done``."""
        registry = ClaimRegistry(tmp_path)
        claims = [f"race-{i}" for i in range(40)]
        for claim_id in claims:
            registry.register(ClaimRecord(claim_id=claim_id, model_digest="m"))
            registry.transition(claim_id, lifecycle.DISPATCH)

        def prove(claim_id):
            try:
                registry.transition(claim_id, lifecycle.PROVE)
            except lifecycle.TransitionRefused:
                pass

        threads = [
            threading.Thread(target=target, args=(claim_id,))
            for claim_id in claims
            for target in (prove, lambda c: registry.revoke(c, "race"))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for claim_id in claims:
            assert registry.reload(claim_id).state == JobState.REVOKED
            events = [
                (e["event"], e.get("state"))
                for e in registry.audit_entries(claim_id)
            ]
            after = events[events.index(("revoked", None)) + 1:]
            assert ("state", JobState.DONE) not in after, events


# -- the model check -----------------------------------------------------------

NUM_CLAIMS = 6


def _request(i):
    rng = np.random.default_rng(1000 + i)
    model = Sequential(
        [Dense(3, 3, rng=rng), ReLU(), Dense(3, 2, rng=rng), Sigmoid()],
        name="lifecycle-mlp",
    )
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=0,
        trigger_inputs=rng.normal(size=(1, 3)),
        projection=rng.normal(size=(3, 2)),
        signature=np.array([0, 1], dtype=np.int64),
    )
    return wire.ClaimRequest(model=model, keys=keys, seed=i)


FRAMES = [wire.encode_claim_request(_request(i)) for i in range(NUM_CLAIMS)]
# The content address the service gives each frame.
CLAIM_IDS = [
    hashlib.sha256(
        wire.encode_claim_request(wire.decode_claim_request(frame))
    ).hexdigest()
    for frame in FRAMES
]
ENGINE = ProvingEngine(backend=SerialBackend())


class Director:
    """What the next synthesis does: prove, lose its worker, or wait."""

    def __init__(self):
        self.lose_next = False
        self.holds = {}  # claim_id -> (started, release) events

    def synthesizer(self, claim_id):
        def synthesize(b):
            hold = self.holds.get(claim_id)
            if hold is not None:
                hold[0].set()
                hold[1].wait(timeout=30)
            if self.lose_next:
                self.lose_next = False
                raise ProveWorkerLost("a prove worker was lost")
            out = b.public_output("y")
            w = b.private_input("x", 3)
            acc = w
            for _ in range(4):
                acc = b.mul(acc, w)
            b.bind_output(out, acc + 1)

        return synthesize


class ChainService(ProofService):
    """A proof service whose claims prove a chain circuit."""

    director: Director

    def _task_for(self, claim_id, request, **kwargs):
        task = super()._task_for(claim_id, request, **kwargs)
        task.shape_key = "lifecycle-chain"
        task.synthesize = self.director.synthesizer(claim_id)
        task.require_valid = False
        return task


class ClaimLifecycle(RuleBasedStateMachine):
    acked_claims = Bundle("acked_claims")

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="zkrownn-lifecycle-"))
        self.plan = FaultPlan(seed=0)
        self.director = Director()
        self.acked = set()
        self.submissions = Counter()  # attempts, acked or not
        self.service = None
        self._restart()

    # -- plumbing --

    def _restart(self):
        if self.service is not None:
            self.service.close()  # in-flight batches finish first
        registry = ClaimRegistry(self.root, faults=self.plan)
        service = ChainService(
            registry,
            engine=ENGINE,
            scheduler=ProofScheduler(
                ENGINE, registry, max_batch=4, workers=1, max_attempts=2,
                faults=self.plan,
            ),
        )
        service.director = self.director
        self.service = service
        while True:  # each failed start consumes a one-shot write fault
            try:
                service.start()
                break
            except OSError:
                continue
        self._settle()

    def _settle(self, timeout=30.0):
        """Wait until the scheduler has nothing queued or proving."""
        scheduler = self.service.scheduler
        deadline = time.monotonic() + timeout
        while scheduler.pending() or any(
            scheduler.state(c) in lifecycle.ACTIVE_STATES for c in CLAIM_IDS
        ):
            assert time.monotonic() < deadline, "the scheduler never settled"
            time.sleep(0.005)

    def _submit(self, i):
        self.submissions[CLAIM_IDS[i]] += 1
        try:
            claim_id = self.service.submit(FRAMES[i])["claim_id"]
        except OSError:
            return None  # an injected write fault: not acknowledged
        self.acked.add(claim_id)
        return claim_id

    # -- rules --

    @rule(target=acked_claims, i=st.integers(0, NUM_CLAIMS - 1))
    def submit(self, i):
        claim_id = self._submit(i)
        self._settle()
        return multiple(claim_id) if claim_id else multiple()

    @rule(claim_id=acked_claims)
    def resubmit(self, claim_id):
        self._submit(CLAIM_IDS.index(claim_id))
        self._settle()

    @rule(claim_id=acked_claims)
    def revoke(self, claim_id):
        try:
            self.service.revoke(claim_id, "dispute lost")
        except OSError:
            pass
        self._settle()

    @rule(target=acked_claims, i=st.integers(0, NUM_CLAIMS - 1))
    def revoke_mid_prove(self, i):
        """A submission whose synthesis is revoked under it."""
        claim_id = CLAIM_IDS[i]
        hold = self.director.holds[claim_id] = (
            threading.Event(), threading.Event(),
        )
        scheduler = self.service.scheduler
        try:
            acked = self._submit(i)
            # Synthesis starts unless the claim leaves the queue first
            # (already settled, refused at dispatch, quarantined).
            while not hold[0].wait(timeout=0.005):
                if scheduler.state(claim_id) not in lifecycle.ACTIVE_STATES:
                    break
            if hold[0].is_set():
                try:
                    self.service.registry.revoke(claim_id, "dispute lost")
                except OSError:
                    pass
        finally:
            hold[1].set()
            del self.director.holds[claim_id]
        self._settle()
        return multiple(acked) if acked else multiple()

    @rule()
    def fault_at_dispatch(self):
        self.plan.specs.append(FaultSpec(
            site="scheduler.dispatch", kind="error", error="RuntimeError",
            max_fires=1, message="backend hiccup",
        ))

    @rule()
    def fault_at_registry_write(self):
        self.plan.specs.append(FaultSpec(
            site="registry.write", kind="error", error="OSError", max_fires=1,
        ))

    @rule()
    def lose_a_prove_worker(self):
        self.director.lose_next = True

    @rule()
    def restart(self):
        self._restart()

    @rule(target=acked_claims, i=st.integers(0, NUM_CLAIMS - 1))
    def replica_dies_holding_a_claim(self, i):
        """Another replica acks a claim, wins its lease and starts proving
        it, then dies; its lease expires."""
        claim_id = CLAIM_IDS[i]
        if (self.root / "claims" / f"{claim_id}.json").exists():
            return multiple()
        registry = ClaimRegistry(self.root, owner_token="dead-replica")
        dead = ProofService(
            registry, engine=ENGINE,
            scheduler=ProofScheduler(ENGINE, registry, workers=1),
        )
        self.submissions[claim_id] += 1
        dead.submit(FRAMES[i])  # acked; its scheduler never runs
        assert registry.acquire(claim_id, lease_seconds=0.05)
        registry.transition(claim_id, lifecycle.DISPATCH)
        time.sleep(0.06)
        self.acked.add(claim_id)
        return multiple(claim_id)

    # -- invariants --

    def _registry(self):
        return ClaimRegistry(self.root)  # what a restart would read

    @invariant()
    def no_acked_claim_is_lost(self):
        registry = self._registry()
        for claim_id in self.acked:
            record = registry.get(claim_id)
            if record.state in lifecycle.ACTIVE_STATES:
                assert registry.has_request(claim_id), record

    @invariant()
    def no_terminal_state_is_downgraded(self):
        registry = self._registry()
        for claim_id in CLAIM_IDS:
            state, requeues = None, 0
            for entry in registry.audit_entries(claim_id):
                new = {
                    "registered": JobState.QUEUED,
                    "state": entry.get("state"),
                    "revoked": JobState.REVOKED,
                }.get(entry["event"])
                if new is None:
                    continue
                if state == JobState.REVOKED:
                    assert new == JobState.REVOKED, (claim_id, entry)
                elif state == JobState.DONE:
                    assert new == JobState.REVOKED, (claim_id, entry)
                elif state in (JobState.FAILED, JobState.QUARANTINED) and (
                    new != JobState.REVOKED
                ):
                    assert new == JobState.QUEUED, (claim_id, entry)
                    requeues += 1
                state = new
            assert requeues <= self.submissions[claim_id], claim_id

    @invariant()
    def at_most_one_proved_event(self):
        registry = self._registry()
        for claim_id in CLAIM_IDS:
            events = [
                (e["event"], e.get("state"))
                for e in registry.audit_entries(claim_id)
                if e["event"] in ("proved", "state", "revoked")
            ]
            proved = [i for i, (event, _) in enumerate(events)
                      if event == "proved"]
            assert len(proved) <= 1, (claim_id, events)
            # ...and it is the proof of the move to done, not a stray.
            for i in proved:
                assert events[i + 1:i + 2] == [("state", JobState.DONE)], (
                    claim_id, events,
                )
            stored = (self.root / "claims" / f"{claim_id}.claim").exists()
            assert stored == bool(proved), (claim_id, events)

    def teardown(self):
        try:
            self.plan.specs.clear()
            self.director.lose_next = False
            self._restart()  # recovery finishes whatever is pending
            registry = self._registry()
            for claim_id in self.acked:
                state = registry.get(claim_id).state
                assert state in lifecycle.TERMINAL_STATES, (claim_id, state)
            self.at_most_one_proved_event()
            self.no_terminal_state_is_downgraded()
        finally:
            self.service.close()
            shutil.rmtree(self.root, ignore_errors=True)


TestClaimLifecycle = ClaimLifecycle.TestCase
