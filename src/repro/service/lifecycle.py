"""The claim lifecycle, written once as data.

A claim's state moves only through :func:`transition`, a lookup into
:data:`TRANSITIONS` keyed by ``(state, event)``: the next state plus its
side effects (the audit events the registry writes, whether the proving
lease is released and the persisted request frame discarded, which
scheduler counter goes up).  The registry checks it against the record on
disk before every write, the scheduler against its in-memory state when
there is no record to ask, and admission asks it what a resubmission may
do.  A pair not in the table is refused with :class:`TransitionRefused`,
wherever the event comes from: a revoked claim stays revoked when a proof
lands late.  The README's "Claim lifecycle" section renders the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["ACTIVE_STATES", "EVENTS", "JobState", "TERMINAL_STATES",
           "TRANSITIONS", "Transition", "TransitionRefused", "adopted",
           "allows", "transition", "unverifiable"]


class JobState:
    """String states a claim moves through (stored in the registry)."""

    QUEUED = "queued"
    PROVING = "proving"  # a replica holds the proving lease
    DONE = "done"
    FAILED = "failed"  # the claim itself cannot be proved
    REVOKED = "revoked"  # lost a dispute; bytes kept for the audit trail
    # Poison claim: attempts exhausted, budget blown or a watchdog kill;
    # the request frame is kept so a resubmission can requeue it.
    QUARANTINED = "quarantined"
    # Local to one scheduler, never written: another replica holds (or
    # already settled) the claim; poll the registry for the outcome.
    YIELDED = "yielded"

    TERMINAL = (DONE, FAILED, REVOKED, QUARANTINED, YIELDED)


# The durable states a polling client waits for, and those still in play.
TERMINAL_STATES = JobState.TERMINAL[:-1]
ACTIVE_STATES = (JobState.QUEUED, JobState.PROVING)

SUBMIT = "submit"  # a first submission registers the claim
REQUEUE = "requeue"  # a resubmission takes a failed/quarantined claim back
RESCUE = "rescue"  # a resubmission re-enqueues a claim a dead owner stranded
RECOVER = "recover"  # restart recovery re-enqueues what the last process held
DISPATCH = "dispatch"  # a scheduler won the lease and starts proving
YIELD = "yield"  # a scheduler leaves the claim to whoever holds it
PROVE = "prove"  # the proof landed
FAIL = "fail"  # the claim cannot be proved
RETRY = "retry"  # a batch failed for a reason outside the claim
QUARANTINE = "quarantine"
REVOKE = "revoke"
EVENTS = (
    SUBMIT, REQUEUE, RESCUE, RECOVER, DISPATCH, YIELD, PROVE, FAIL, RETRY,
    QUARANTINE, REVOKE,
)


class TransitionRefused(RuntimeError):
    """No row for ``(state, event)``; ``state`` is the one that refused."""

    def __init__(self, state: Optional[str], event: str):
        super().__init__(f"a {state or 'new'} claim cannot {event}")
        self.state = state
        self.event = event


@dataclass(frozen=True)
class Transition:
    """Where one event takes a claim, and what happens on the way."""

    state: str
    audit: Tuple[str, ...] = ()  # audit events, in order
    release: bool = False  # drop the proving lease
    discard: bool = False  # delete the persisted request frame
    counter: str = ""  # the SchedulerStats field that counts it


_Q, _P, _D = JobState.QUEUED, JobState.PROVING, JobState.DONE
_F, _R, _X, _Y = (
    JobState.FAILED, JobState.REVOKED, JobState.QUARANTINED, JobState.YIELDED,
)
_REQUEUE = Transition(_Q, ("state",), counter="submitted")
_FAIL = Transition(_F, ("state",), release=True, discard=True, counter="failed")
_RETRY = Transition(_Q, ("state",), release=True, counter="retried")
_QUARANTINE = Transition(
    _X, ("state", "quarantined"), release=True, counter="quarantined",
)

TRANSITIONS: Dict[Tuple[Optional[str], str], Transition] = {
    (None, SUBMIT): Transition(_Q, ("registered",), counter="submitted"),
    (_F, REQUEUE): _REQUEUE,
    (_X, REQUEUE): _REQUEUE,
    (_Y, REQUEUE): Transition(_Q, counter="submitted"),
    (_Q, RESCUE): Transition(_Q, ("rescued",)),
    (_P, RESCUE): Transition(_Q, ("state", "rescued")),
    (_Q, RECOVER): Transition(_Q, ("recovered",), release=True),
    (_P, RECOVER): Transition(_Q, ("state", "recovered"), release=True),
    (_Q, DISPATCH): Transition(_P, ("state",)),
    (_P, DISPATCH): Transition(_P, ("state",)),  # an expired lease taken over
    (_Q, YIELD): Transition(_Y, counter="yielded"),
    (_P, PROVE): Transition(
        _D, ("proved", "state"), release=True, discard=True, counter="done",
    ),
    **{(state, FAIL): _FAIL for state in (_Q, _P)},
    **{(state, RETRY): _RETRY for state in (_Q, _P)},
    **{(state, QUARANTINE): _QUARANTINE for state in (_Q, _P)},
    **{
        (state, REVOKE): Transition(_R, ("revoked",))
        for state in (_Q, _P, _D, _F, _X, _R)
    },
}


def transition(state: Optional[str], event: str) -> Transition:
    """The row for ``(state, event)``; :class:`TransitionRefused` if none."""
    try:
        return TRANSITIONS[(state, event)]
    except KeyError:
        raise TransitionRefused(state, event) from None


def allows(state: Optional[str], event: str) -> bool:
    return (state, event) in TRANSITIONS


def adopted(durable_state: str) -> str:
    """The local state a scheduler keeps when the registry refused it: a
    final durable state as is, else ``yielded`` (someone else holds it)."""
    return durable_state if durable_state in TERMINAL_STATES else _Y


def unverifiable(state: str, revoked_reason: str = "") -> str:
    """Why a claim in ``state`` has no proof to accept ('' once proved)."""
    if state == _R:
        return f"claim revoked: {revoked_reason}"
    if state != _D:
        return f"claim is {state}, not proved"
    return ""
