"""The durable claim registry: ownership claims that outlive the process.

A dispute over model ownership can surface months after a claim was
proved; the registry is the service's long-term memory.  It is a plain
directory tree (no database dependency), content-addressed, and safe for
the scheduler's worker threads and the HTTP handler threads to share::

    <root>/claims/<claim_id>.json    record metadata (state, digests, timings)
    <root>/claims/<claim_id>.claim   wire frame of the proved claim
    <root>/claims/<claim_id>.owner   ownership lease (which replica is proving)
    <root>/requests/<claim_id>.req   persisted request frame (restart recovery;
                                     contains prover secrets, mode 0600)
    <root>/vks/<circuit_digest>.vk   verifying key bytes (one per circuit shape)
    <root>/models/<model_digest>.model
                                     wire frame of the claimed model
    <root>/traces/<claim_id>.jsonl   per-claim trace spans (one JSON line
                                     per completed lifecycle span)
    <root>/audit.log                 append-only JSONL audit trail
    <root>/keylog.jsonl              signed key-transparency log (one entry
                                     per published verifying key)
    <root>/signing.key               HMAC key for the key log (mode 0600)

``claim_id`` is assigned at submission from the *content* of the request
(model digest, watermark-key digest, circuit config, seeds), so an
identical resubmission maps to the same record instead of a duplicate
proving job.  Models and verifying keys are keyed by their own content
digests and shared across claims.

Multiple registry instances (replicas of the proof service, or one
service restarted while another still runs) may share one root.  Claim
*ownership* is then arbitrated with a compare-and-set lease:
:meth:`ClaimRegistry.acquire` creates ``<claim_id>.owner`` with
``O_CREAT | O_EXCL`` -- an atomic create-if-absent even on NFS -- so
exactly one replica wins the right to transition a claim to ``proving``.
Leases expire (a crashed owner's claims become reclaimable) and are
released on terminal states.

A claim's state changes only through :meth:`ClaimRegistry.transition`,
which checks the :mod:`~repro.service.lifecycle` table against the record
on disk under the registry lock: a late event from any replica or thread
can never move a settled claim.  Every transition appends its audit
events; :meth:`ClaimRegistry.audit_entries` replays the trail for dispute
resolution ("when was this claim proved, with which key, and who revoked
it?").

All writes go through a temp file + ``os.replace`` so a crash mid-write
leaves either the old record or the new one, never a torn file.  Public
reads (:meth:`get`, :meth:`list`, ...) return snapshot *copies* taken
under the registry lock, never the live mutable records -- a status
handler can serialize them while an update is mid-flight without seeing
a half-applied transition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import os
import re
import secrets
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..obs import get_logger
from . import faults as _faults
from . import lifecycle

__all__ = ["ClaimRecord", "ClaimRegistry", "RegistryError"]

logger = get_logger("registry")

_SAFE_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]")

# What each audit event records beside the claim id, read off the record
# its transition just wrote (the audit log's schema).
_AUDIT_FIELDS = {
    "registered": lambda r: {"model_digest": r.model_digest},
    "state": lambda r: {"state": r.state, "error": r.error},
    "revoked": lambda r: {"reason": r.revoked_reason},
    "quarantined": lambda r: {"attempts": r.attempts, "error": r.error},
    "proved": lambda r: {"circuit_digest": r.circuit_digest,
                         "batch_size": int(r.timings.get("batch_size", 1))},
    "rescued": lambda r: {},
    "recovered": lambda r: {},
}

# How long a proving lease lasts before other replicas may reclaim the
# claim.  Generous: a lease only needs to outlive one proving batch.
DEFAULT_LEASE_SECONDS = 900.0


class RegistryError(KeyError):
    """Raised when a claim, model, or key is not in the registry."""


@dataclass
class ClaimRecord:
    """One claim's lifecycle, as stored on disk.

    ``owner_token`` names the replica currently (or last) holding the
    claim's proving lease; the lease itself lives in the ``.owner`` file.
    ``extra`` round-trips any fields written by a newer schema version so
    an older replica sharing the root never silently drops them.
    """

    claim_id: str
    model_digest: str
    state: str = lifecycle.JobState.QUEUED
    priority: int = 0
    shape_key: str = ""
    circuit_digest: str = ""
    error: str = ""
    revoked_reason: str = ""
    owner_token: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)
    attempts: int = 0
    error_chain: List[str] = field(default_factory=list)
    trace_id: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        data = asdict(self)
        extra = data.pop("extra")
        # Unknown fields ride at the top level, where the schema version
        # that wrote them expects to find them again.
        data.update(extra)
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(payload: str) -> "ClaimRecord":
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError(f"claim record must be a JSON object, got {type(data)}")
        known = {f.name for f in dataclasses.fields(ClaimRecord)} - {"extra"}
        kwargs = {k: v for k, v in data.items() if k in known}
        extra = {k: v for k, v in data.items() if k not in known}
        return ClaimRecord(**kwargs, extra=extra)

    def snapshot(self) -> "ClaimRecord":
        """An independent copy safe to hand outside the registry lock."""
        return dataclasses.replace(
            self,
            timings=dict(self.timings),
            error_chain=list(self.error_chain),
            extra=dict(self.extra),
        )


def _write_all(fd: int, data: bytes) -> None:
    # os.write may write fewer bytes than asked (POSIX allows it); a
    # partial write silently installed by os.replace would be a torn file.
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _atomic_write(
    path: Path,
    data: bytes,
    *,
    mode: Optional[int] = None,
    faults: Optional["_faults.FaultPlan"] = None,
) -> None:
    # Fault hooks bracket os.replace: "crash-before-persist" dies with
    # only the temp file written (old content survives), "crash-after"
    # dies with the new content installed but before the caller's
    # in-memory state catches up -- the two torn-timing cases crash
    # recovery must cover.
    if faults is not None:
        faults.fire("registry.write")
    tmp = path.with_suffix(path.suffix + ".tmp")
    if mode is None:
        tmp.write_bytes(data)
    else:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
        try:
            _write_all(fd, data)
        finally:
            os.close(fd)
    if faults is not None:
        faults.fire("registry.crash-before-persist")
    os.replace(tmp, path)
    if faults is not None:
        faults.fire("registry.crash-after-persist")


class ClaimRegistry:
    """Directory-backed persistent store for ownership claims.

    Thread-safe; every public method takes the registry lock.  Reopening
    the same root restores all records -- the restart story a proving
    service needs.  ``owner_token`` identifies this replica in proving
    leases; by default each instance mints a fresh random token.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        owner_token: Optional[str] = None,
        faults: Optional[_faults.FaultPlan] = None,
    ):
        self.root = Path(root)
        self.owner_token = owner_token or secrets.token_hex(8)
        self.faults = faults if faults is not None else _faults.active_plan()
        self._claims_dir = self.root / "claims"
        self._vks_dir = self.root / "vks"
        self._models_dir = self.root / "models"
        self._requests_dir = self.root / "requests"
        self._traces_dir = self.root / "traces"
        for d in (self._claims_dir, self._vks_dir, self._models_dir,
                  self._traces_dir):
            d.mkdir(parents=True, exist_ok=True)
        self._requests_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        self._audit_path = self.root / "audit.log"
        self._keylog_path = self.root / "keylog.jsonl"
        self._signing_key_path = self.root / "signing.key"
        self._lock = threading.RLock()
        self._records: Dict[str, ClaimRecord] = {}
        self._load()

    def _load(self) -> None:
        for path in sorted(self._claims_dir.glob("*.json")):
            try:
                record = ClaimRecord.from_json(path.read_text())
            except (ValueError, TypeError, KeyError, OSError) as exc:
                # Torn/foreign file: skip, never crash the service -- but
                # leave a trace instead of swallowing the loss.
                logger.warning(
                    "registry.unreadable_record", file=path.name, error=str(exc),
                )
                continue
            self._records[record.claim_id] = record

    # ------------------------------------------------------------- records --

    def _get_live(self, claim_id: str) -> ClaimRecord:
        record = self._records.get(claim_id)
        if record is None:
            raise RegistryError(f"unknown claim {claim_id!r}")
        return record

    def _write(self, record: ClaimRecord) -> None:
        record.updated_at = time.time()
        _atomic_write(
            self._claims_dir / f"{record.claim_id}.json",
            record.to_json().encode(),
            faults=self.faults,
        )
        self._records[record.claim_id] = record

    def _read_faults(self) -> None:
        if self.faults is not None:
            self.faults.fire("registry.read")

    def register(self, record: ClaimRecord) -> ClaimRecord:
        """Insert a new record (idempotent: an existing id is returned as-is).

        The existence check consults the shared root, not just this
        process's memory -- another replica may have registered (and even
        proved) the claim since this registry loaded, and re-registering
        would overwrite its terminal record with a fresh ``queued`` one.
        """
        with self._lock:
            existing = self._records.get(record.claim_id)
            if existing is None:
                try:
                    existing = self.reload(record.claim_id)
                except RegistryError as exc:  # absent, or torn (logged)
                    if (self._claims_dir / f"{record.claim_id}.json").exists():
                        logger.warning(
                            "registry.unreadable_record_on_register",
                            claim_id=record.claim_id, error=str(exc),
                        )
            if existing is not None:
                return existing.snapshot()
            step = lifecycle.transition(None, lifecycle.SUBMIT)
            if record.state != step.state:
                raise ValueError(
                    f"a claim registers {step.state}, not {record.state!r}: "
                    "every later state comes from transition()"
                )
            record.created_at = time.time()
            self._commit(record, step)
            return record.snapshot()

    def get(self, claim_id: str) -> ClaimRecord:
        with self._lock:
            return self._get_live(claim_id).snapshot()

    def __contains__(self, claim_id: str) -> bool:
        with self._lock:
            return claim_id in self._records

    @staticmethod
    def _set_fields(record: ClaimRecord, fields: dict) -> None:
        if "state" in fields:
            raise TypeError("a claim's state changes only through transition()")
        for name, value in fields.items():
            if not hasattr(record, name):
                raise AttributeError(f"ClaimRecord has no field {name!r}")
            setattr(record, name, value)

    def update(self, claim_id: str, **fields) -> ClaimRecord:
        """Mutate record fields other than the state (trace id, owner...)."""
        with self._lock:
            record = self._get_live(claim_id)
            self._set_fields(record, fields)
            self._write(record)
            return record.snapshot()

    def transition(self, claim_id: str, event: str, *,
                   claim_frame: Optional[bytes] = None,
                   **fields) -> lifecycle.Transition:
        """Apply one lifecycle event to the durable record; returns its row.

        Under the lock the record is re-read from disk (another replica
        may have moved it) and the table consulted: a pair it does not
        hold raises :class:`~repro.service.lifecycle.TransitionRefused`
        with the durable state, and nothing is written.  Otherwise the
        proved claim (``claim_frame``, for ``prove``), the record and the
        row's audit events are written, and the persisted request frame
        discarded if the row says so.  The lease is the caller's to
        release: it alone knows when it stops proving.
        """
        with self._lock:
            durable = self._records[claim_id] = self._read_record(claim_id)
            step = lifecycle.transition(durable.state, event)
            record = durable.snapshot()  # cached only once written
            self._set_fields(record, fields)
            if claim_frame is not None:
                self.store_claim_bytes(claim_id, claim_frame)
            self._commit(record, step, proved=claim_frame is not None)
            if step.discard:
                self.discard_request_bytes(claim_id)
            return step

    def _commit(self, record: ClaimRecord, step: lifecycle.Transition, *,
                proved: bool = False) -> None:
        """Write ``record`` in the row's state, then the row's audit events."""
        record.state = step.state
        self._write(record)
        for event in step.audit:
            # A proof with no claim to store (a generic circuit driven
            # straight through the scheduler) is not a proved claim.
            if event != "proved" or proved:
                self.audit(event, claim_id=record.claim_id,
                           **_AUDIT_FIELDS[event](record))

    def _read_record(self, claim_id: str) -> ClaimRecord:
        """The record as it is on disk now."""
        try:
            return ClaimRecord.from_json(
                (self._claims_dir / f"{claim_id}.json").read_text()
            )
        except FileNotFoundError:
            raise RegistryError(f"unknown claim {claim_id!r}") from None
        except (ValueError, TypeError, KeyError) as exc:
            raise RegistryError(
                f"unreadable record for claim {claim_id!r}: {exc}"
            ) from exc

    def reload(self, claim_id: str) -> ClaimRecord:
        """Re-read one record from disk (another replica may have moved it)."""
        with self._lock:
            record = self._records[claim_id] = self._read_record(claim_id)
            return record.snapshot()

    def list(
        self,
        *,
        model_digest: Optional[str] = None,
        state: Optional[str] = None,
    ) -> List[ClaimRecord]:
        """All records (snapshots), newest first, optionally filtered."""
        with self._lock:
            records = sorted(
                (r.snapshot() for r in self._records.values()),
                key=lambda r: r.created_at, reverse=True,
            )
        if model_digest is not None:
            records = [r for r in records if r.model_digest == model_digest]
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def revoke(self, claim_id: str, reason: str = "") -> ClaimRecord:
        """The ``revoke`` event (a lost dispute); bytes are retained so
        the audit trail stays replayable."""
        with self._lock:
            self.transition(claim_id, lifecycle.REVOKE, revoked_reason=reason)
            return self.get(claim_id)

    # ----------------------------------------------------- ownership leases --

    def _owner_path(self, claim_id: str) -> Path:
        return self._claims_dir / f"{claim_id}.owner"

    def _read_lease(self, claim_id: str) -> Optional[dict]:
        try:
            lease = json.loads(self._owner_path(claim_id).read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            return {}  # torn lease: unreadable, treated as expired below
        return lease if isinstance(lease, dict) else {}

    def acquire(
        self, claim_id: str, *, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> bool:
        """Compare-and-set: try to become the claim's proving owner.

        Returns True when this replica now holds the lease (including a
        refresh of its own lease, or a takeover of an expired one) and
        False when another replica's lease is still live.  The create
        path is ``os.link`` from a fully-written private temp file -- an
        atomic create-if-absent whose content is never observable empty
        or partial, so a contender can neither win the same claim nor
        misread a mid-write lease as torn/expired and steal it.
        """
        payload = json.dumps({
            "owner": self.owner_token,
            "expires_at": time.time() + lease_seconds,
        }, sort_keys=True).encode()
        path = self._owner_path(claim_id)
        tmp = path.parent / (path.name + ".tmp-" + self.owner_token)
        with self._lock:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                _write_all(fd, payload)
            finally:
                os.close(fd)
            try:
                for _ in range(3):
                    try:
                        os.link(tmp, path)
                    except FileExistsError:
                        lease = self._read_lease(claim_id)
                        if lease is None:
                            continue  # owner vanished mid-check; retry
                        if lease.get("owner") == self.owner_token:
                            _atomic_write(path, payload, mode=0o600)  # refresh
                            return True
                        if lease.get("expires_at", 0.0) > time.time():
                            return False  # live lease held elsewhere
                        # Expired: remove and retry the exclusive link.
                        # (Two reclaimers can race here; os.link still
                        # picks exactly one winner.)
                        try:
                            os.remove(path)
                        except FileNotFoundError:
                            pass
                    else:
                        return True
                return False
            finally:
                try:
                    os.remove(tmp)
                except FileNotFoundError:
                    pass

    def release(self, claim_id: str) -> None:
        """Drop this replica's lease on a claim (no-op if not held)."""
        with self._lock:
            lease = self._read_lease(claim_id)
            if lease and lease.get("owner") == self.owner_token:
                try:
                    os.remove(self._owner_path(claim_id))
                except FileNotFoundError:
                    pass

    def lease_owner(self, claim_id: str) -> Optional[str]:
        """The token holding a *live* lease on the claim, or None."""
        with self._lock:
            lease = self._read_lease(claim_id)
        if not lease or lease.get("expires_at", 0.0) <= time.time():
            return None
        return lease.get("owner")

    # ------------------------------------------------------- claim payloads --

    def store_claim_bytes(self, claim_id: str, frame: bytes) -> None:
        with self._lock:
            _atomic_write(
                self._claims_dir / f"{claim_id}.claim", frame,
                faults=self.faults,
            )

    def claim_bytes(self, claim_id: str) -> bytes:
        self._read_faults()
        path = self._claims_dir / f"{claim_id}.claim"
        if not path.is_file():
            raise RegistryError(f"no proved claim stored for {claim_id!r}")
        return path.read_bytes()

    # ----------------------------------------------------- persisted requests --

    def store_request_bytes(self, claim_id: str, frame: bytes) -> None:
        """Persist a claim's full request frame for restart recovery.

        The frame carries the watermark keys (prover secrets), so it is
        written mode 0600 inside the 0700 ``requests/`` directory and
        discarded once the claim reaches a terminal state.
        """
        with self._lock:
            _atomic_write(
                self._requests_dir / f"{claim_id}.req", frame, mode=0o600,
                faults=self.faults,
            )

    def request_bytes(self, claim_id: str) -> bytes:
        self._read_faults()
        path = self._requests_dir / f"{claim_id}.req"
        if not path.is_file():
            raise RegistryError(f"no persisted request for {claim_id!r}")
        return path.read_bytes()

    def has_request(self, claim_id: str) -> bool:
        return (self._requests_dir / f"{claim_id}.req").is_file()

    def discard_request_bytes(self, claim_id: str) -> None:
        """Remove a persisted request (the claim reached a terminal state)."""
        with self._lock:
            try:
                os.remove(self._requests_dir / f"{claim_id}.req")
            except FileNotFoundError:
                pass

    # ------------------------------------------------- verifying keys/models --

    def store_verifying_key(self, circuit_digest: str, vk_bytes: bytes) -> bool:
        """Publish a verifying key (first writer wins, exclusively).

        The VK file is created with ``os.link`` from a temp file -- an
        atomic create-if-absent, so replicas sharing one root publish (and
        log) each circuit digest exactly once.  Returns True when this
        call published the key, False when it already existed.
        """
        with self._lock:
            path = self._vks_dir / f"{circuit_digest}.vk"
            tmp = path.parent / (path.name + ".tmp-" + self.owner_token)
            tmp.write_bytes(vk_bytes)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                try:
                    os.remove(tmp)
                except FileNotFoundError:
                    pass
            self._append_key_log(circuit_digest, vk_bytes)
            return True

    def verifying_key_bytes(self, circuit_digest: str) -> bytes:
        self._read_faults()
        path = self._vks_dir / f"{circuit_digest}.vk"
        if not path.is_file():
            raise RegistryError(
                f"no verifying key stored for circuit {circuit_digest!r}"
            )
        return path.read_bytes()

    def vk_digests(self) -> List[str]:
        """Circuit digests with a published verifying key."""
        return sorted(p.stem for p in self._vks_dir.glob("*.vk"))

    def store_model_bytes(self, model_digest: str, frame: bytes) -> None:
        with self._lock:
            path = self._models_dir / f"{model_digest}.model"
            if not path.is_file():
                _atomic_write(path, frame, faults=self.faults)

    def model_bytes(self, model_digest: str) -> bytes:
        self._read_faults()
        path = self._models_dir / f"{model_digest}.model"
        if not path.is_file():
            raise RegistryError(f"no model stored under digest {model_digest!r}")
        return path.read_bytes()

    # ------------------------------------------------------ key transparency --

    def _signing_key(self) -> bytes:
        """The root's HMAC signing key (minted once, mode 0600).

        Shared by all replicas on one root: any of them may publish a VK,
        and any auditor holding the key can check every entry.
        """
        try:
            return self._signing_key_path.read_bytes()
        except FileNotFoundError:
            pass
        key = secrets.token_bytes(32)
        try:
            fd = os.open(
                self._signing_key_path,
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o600,
            )
        except FileExistsError:
            return self._signing_key_path.read_bytes()  # another replica won
        try:
            os.write(fd, key)
        finally:
            os.close(fd)
        return key

    @staticmethod
    def _key_log_entry_hash(entry: dict) -> str:
        core = {k: entry[k] for k in ("seq", "at", "circuit_digest",
                                      "vk_sha256", "prev")}
        canonical = json.dumps(core, sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()

    @contextmanager
    def _keylog_lock(self):
        """Cross-process mutex for key-log appends (``O_EXCL`` lockfile).

        The in-process thread lock cannot serialize two *replicas*
        appending distinct digests in the same instant -- both would read
        the same chain tail and fork ``seq``/``prev``.  A lockfile older
        than 10s is presumed left by a crash and stolen.
        """
        lock_path = self.root / "keylog.lock"
        while True:
            try:
                fd = os.open(
                    lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600
                )
                os.close(fd)
                break
            except FileExistsError:
                try:
                    stale = time.time() - lock_path.stat().st_mtime > 10.0
                except FileNotFoundError:
                    continue  # holder just released; retry immediately
                if stale:
                    try:
                        os.remove(lock_path)
                    except FileNotFoundError:
                        pass
                    continue
                time.sleep(0.01)
        try:
            yield
        finally:
            try:
                os.remove(lock_path)
            except FileNotFoundError:
                pass

    def _append_key_log(self, circuit_digest: str, vk_bytes: bytes) -> dict:
        """Append one signed entry to the append-only key-transparency log.

        Entries form a hash chain (``prev`` is the previous entry's hash)
        and each is HMAC-signed with the root's signing key, so an auditor
        can detect reordering, removal, or substitution of published VKs.
        The chain tail is read and extended under a cross-process lock.
        """
        with self._lock, self._keylog_lock():
            prev, seq = "", 0
            for entry in self.key_log_entries():
                prev, seq = entry["entry_hash"], entry["seq"] + 1
            entry = {
                "seq": seq,
                "at": time.time(),
                "circuit_digest": circuit_digest,
                "vk_sha256": hashlib.sha256(vk_bytes).hexdigest(),
                "prev": prev,
            }
            entry["entry_hash"] = self._key_log_entry_hash(entry)
            entry["signature"] = hmac.new(
                self._signing_key(), entry["entry_hash"].encode(), hashlib.sha256
            ).hexdigest()
            with open(self._keylog_path, "a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self.audit("vk_published", circuit_digest=circuit_digest,
                       vk_sha256=entry["vk_sha256"], key_log_seq=seq)
            return entry

    def key_log_entries(self) -> List[dict]:
        """The key-transparency log, oldest first (no verification)."""
        if not self._keylog_path.is_file():
            return []
        entries = []
        with open(self._keylog_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue
        return entries

    def verify_key_log(self) -> int:
        """Check the hash chain and every signature; returns the entry count.

        Raises :class:`RegistryError` on a broken chain, bad signature, or
        a logged ``vk_sha256`` that no longer matches the stored VK bytes.
        """
        key = self._signing_key()
        prev = ""
        entries = self.key_log_entries()
        for i, entry in enumerate(entries):
            if entry.get("prev", "") != prev:
                raise RegistryError(f"key log chain broken at entry {i}")
            expected = self._key_log_entry_hash(entry)
            if entry.get("entry_hash") != expected:
                raise RegistryError(f"key log entry {i} hash mismatch")
            signature = hmac.new(
                key, expected.encode(), hashlib.sha256
            ).hexdigest()
            if not hmac.compare_digest(entry.get("signature", ""), signature):
                raise RegistryError(f"key log entry {i} signature invalid")
            try:
                vk_bytes = self.verifying_key_bytes(entry["circuit_digest"])
            except RegistryError:
                raise RegistryError(
                    f"key log entry {i} names circuit "
                    f"{entry['circuit_digest']!r} with no stored VK"
                ) from None
            if hashlib.sha256(vk_bytes).hexdigest() != entry.get("vk_sha256"):
                raise RegistryError(
                    f"stored VK for {entry['circuit_digest']!r} does not "
                    f"match key log entry {i}"
                )
            prev = entry["entry_hash"]
        return len(entries)

    # --------------------------------------------------------------- traces --

    def _trace_path(self, claim_id: str) -> Path:
        # claim_id is normally a hex digest, but it arrives over the wire;
        # strip anything that could escape the traces directory.
        safe = _SAFE_NAME_RE.sub("_", claim_id)[:128] or "_"
        return self._traces_dir / f"{safe}.jsonl"

    def store_trace_span(self, claim_id: str, span: dict) -> None:
        """Append one completed trace span to the claim's trace file.

        JSONL append like :meth:`audit`: crash-tolerant (a torn tail line
        is skipped on read) and naturally ordered by completion time.
        """
        line = json.dumps(span, sort_keys=True, default=str) + "\n"
        with self._lock:
            with open(self._trace_path(claim_id), "a") as fh:
                fh.write(line)

    def trace_spans(self, claim_id: str) -> List[dict]:
        """A claim's persisted spans, sorted by wall-clock start."""
        path = self._trace_path(claim_id)
        spans: List[dict] = []
        try:
            with open(path) as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        span = json.loads(raw)
                    except ValueError:
                        continue  # torn tail from a crash mid-append
                    if isinstance(span, dict):
                        spans.append(span)
        except FileNotFoundError:
            return []
        spans.sort(key=lambda s: s.get("start_unix", 0.0))
        return spans

    # ---------------------------------------------------------------- audit --

    def audit(self, event: str, **fields) -> None:
        """Append one event to the audit log (JSONL, append-only)."""
        entry = {"at": time.time(), "event": event, **fields}
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            with open(self._audit_path, "a") as fh:
                fh.write(line)

    def audit_entries(self, claim_id: Optional[str] = None) -> Iterator[dict]:
        """Replay the audit trail, oldest first."""
        if not self._audit_path.is_file():
            return
        with open(self._audit_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if claim_id is None or entry.get("claim_id") == claim_id:
                    yield entry

    # ---------------------------------------------------------------- stats --

    def counts(self) -> Dict[str, int]:
        """Record counts by state (for ``/stats``)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for record in self._records.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            counts["total"] = len(self._records)
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:
        return f"ClaimRegistry({str(self.root)!r}, claims={len(self)})"
