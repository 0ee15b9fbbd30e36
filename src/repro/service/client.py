"""A resilient stdlib client for the proof service's HTTP API.

The client side of the deployment story: a model owner submits a claim
request (model + watermark keys + circuit config, wire-encoded) and
polls for the proved claim; any third party fetches the claim + VK pair
and can also verify locally, without trusting the service's ``/verify``.

Built for services that fail the way real ones do:

* **Retry with capped exponential backoff + jitter** on transport
  failures (connection refused/reset, timeouts) and retryable statuses
  (429/500/502/503/504), honoring the server's ``Retry-After`` hint.
  Claim ids are content-addressed, so retrying ``POST /claims`` is
  exact-once by construction -- a duplicate submit maps onto the same
  record.
* **Multi-endpoint failover**: ``ServiceClient(["http://a", "http://b"])``
  rotates to the next replica when one fails, with a per-endpoint
  **circuit breaker** (closed -> open -> half-open) so a dead replica
  stops eating the retry budget.
* **Resilient waiting**: :meth:`wait` polls with capped backoff (not a
  fixed busy-poll), rides out transient transport errors instead of
  abandoning a claim the server is still proving, and -- because submits
  are idempotent -- periodically *resubmits* the cached request frame so
  a claim stranded by a dead replica is rescued by whichever endpoint
  answers.

Uses only ``urllib`` -- the same no-new-dependencies constraint as the
rest of the repo.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from ..nn.model import Sequential
from ..obs import new_trace_id
from ..snark.keys import VerifyingKey
from ..watermark.keys import WatermarkKeys
from ..zkrownn.artifacts import OwnershipClaim
from ..zkrownn.circuit import CircuitConfig
from ..zkrownn.verifier import OwnershipVerifier, VerificationReport
from . import wire
from .lifecycle import TERMINAL_STATES  # the claim states that end a wait()

__all__ = ["CircuitBreaker", "RetryPolicy", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP-level or service-level failure, with the server's message.

    ``status`` is the HTTP status when one was received, else None (a
    transport-level failure: connection refused, reset, timeout...).
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass
class RetryPolicy:
    """Backoff schedule for retryable request failures.

    Delay before attempt *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)``, scaled by a
    uniform jitter in ``[1 - jitter, 1 + jitter]`` so a fleet of
    clients retrying one dead replica does not stampede in lockstep.
    A server ``Retry-After`` hint overrides the computed delay.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    retry_statuses: Sequence[int] = (429, 500, 502, 503, 504)

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(
            self.base_delay * self.multiplier ** max(0, attempt - 1),
            self.max_delay,
        )
        if self.jitter <= 0:
            return raw
        return raw * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)


class CircuitBreaker:
    """Per-endpoint failure gate: closed -> open -> half-open.

    ``failure_threshold`` consecutive transport failures open the
    breaker; while open the endpoint is skipped entirely.  After
    ``reset_seconds`` it goes *half-open*: exactly one trial request is
    allowed through -- success closes the breaker, failure re-opens it
    for another full window.  Application-level shedding (429/503) does
    not count as failure: the replica is alive, just busy.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_seconds:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request go to this endpoint right now?"""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True  # one trial in flight
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self._failures += 1
        if self._failures >= self.failure_threshold or self._opened_at is not None:
            # Threshold reached -- or a half-open probe failed: re-open
            # for a fresh window.
            self._opened_at = self._clock()

    def time_to_half_open(self) -> float:
        if self._opened_at is None:
            return 0.0
        return max(
            0.0, self.reset_seconds - (self._clock() - self._opened_at)
        )

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r}, failures={self._failures})"


class _Endpoint:
    def __init__(self, url: str, breaker: CircuitBreaker):
        self.url = url.rstrip("/")
        self.breaker = breaker

    def __repr__(self) -> str:
        return f"_Endpoint({self.url!r}, {self.breaker!r})"


class ServiceClient:
    """Talks to one proof service -- or a list of interchangeable replicas.

    ``base_url`` may be a single URL or a list; replicas must share a
    registry root (or replicate it) for failover to be transparent.
    ``sleep`` is injectable so tests drive the backoff clock.
    """

    def __init__(
        self,
        base_url: Union[str, Sequence[str]],
        *,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
        max_poll_seconds: float = 3.0,
        rescue_after: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: Optional[int] = None,
    ):
        urls = [base_url] if isinstance(base_url, str) else list(base_url)
        if not urls:
            raise ValueError("ServiceClient needs at least one base URL")
        self.endpoints = [
            _Endpoint(
                url,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_seconds=breaker_reset_seconds,
                ),
            )
            for url in urls
        ]
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.max_poll_seconds = max_poll_seconds
        # How long wait() lets a claim sit non-terminal before it
        # resubmits the cached frame (the stranded-claim rescue path).
        self.rescue_after = rescue_after
        self._sleep = sleep
        self._rng = random.Random(jitter_seed)
        self._active = 0  # index of the endpoint that last worked
        # Submitted request frames by claim id: resubmission is idempotent
        # (content-addressed ids), so wait() can re-POST to rescue a claim
        # stranded on a dead replica, on any endpoint that answers.
        self._frames: Dict[str, bytes] = {}
        # The trace id minted per submission, re-sent on every rescue
        # re-POST so retries and failovers stay on one trace.
        self._trace_ids: Dict[str, str] = {}

    @property
    def base_url(self) -> str:
        """The currently preferred endpoint (single-URL compatibility)."""
        return self.endpoints[self._active].url

    # ----------------------------------------------------------- transport --

    def _once(
        self,
        endpoint: _Endpoint,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
        headers: Optional[Dict[str, str]],
    ) -> bytes:
        all_headers = dict(headers or {})
        if body is not None:
            all_headers.setdefault("Content-Type", content_type)
        request = Request(
            endpoint.url + path, data=body, method=method, headers=all_headers
        )
        with urlopen(request, timeout=self.timeout) as response:
            return response.read()

    @staticmethod
    def _http_error_detail(exc: HTTPError) -> str:
        detail = exc.read().decode(errors="replace")
        try:
            detail = json.loads(detail).get("error", detail)
        except ValueError:
            pass
        return detail

    @staticmethod
    def _retry_after(exc: HTTPError) -> Optional[float]:
        value = exc.headers.get("Retry-After") if exc.headers else None
        if value is None:
            return None
        try:
            return max(0.0, float(value))
        except ValueError:
            return None

    def _pick_endpoint(self) -> _Endpoint:
        """The preferred endpoint whose breaker admits a request.

        Rotation starts at the last endpoint that worked.  If every
        breaker is hard-open, the one closest to half-open is probed
        anyway -- guaranteed progress; the breaker shapes ordering, it
        never deadlocks the client.
        """
        order = [
            self.endpoints[(self._active + i) % len(self.endpoints)]
            for i in range(len(self.endpoints))
        ]
        for endpoint in order:
            if endpoint.breaker.allow():
                return endpoint
        return min(order, key=lambda e: e.breaker.time_to_half_open())

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        content_type: str = "application/octet-stream",
        headers: Optional[Dict[str, str]] = None,
        idempotent: bool = True,
    ) -> bytes:
        """One logical request: retries, backoff, failover, breakers.

        Every API in this service is idempotent (submission is
        content-addressed; everything else is a read or an
        already-idempotent admin action), so retries default on;
        ``idempotent=False`` restricts a request to a single attempt
        per endpoint rotation.
        """
        policy = self.retry
        max_attempts = policy.max_attempts if idempotent else 1
        last_error: Optional[ServiceError] = None
        attempt = 0
        while attempt < max_attempts:
            attempt += 1
            endpoint = self._pick_endpoint()
            retry_hint: Optional[float] = None
            try:
                data = self._once(
                    endpoint, method, path, body, content_type, headers
                )
            except HTTPError as exc:
                status = exc.code
                detail = self._http_error_detail(exc)
                last_error = ServiceError(
                    f"{method} {path} -> {status}: {detail}", status=status
                )
                if status not in policy.retry_statuses:
                    raise last_error from exc
                if status in (429, 503):
                    # Alive but shedding: not a connectivity failure.
                    endpoint.breaker.record_success()
                    retry_hint = self._retry_after(exc)
                else:
                    endpoint.breaker.record_failure()
            except (URLError, OSError, http.client.HTTPException) as exc:
                # Transport-level: connection refused/reset, timeout,
                # half-closed socket.  (HTTPError is caught above --
                # it subclasses URLError.)
                reason = getattr(exc, "reason", exc)
                last_error = ServiceError(
                    f"{method} {path} failed against {endpoint.url}: {reason}"
                )
                endpoint.breaker.record_failure()
                # Prefer a different replica for the next attempt.
                self._active = (
                    self.endpoints.index(endpoint) + 1
                ) % len(self.endpoints)
            else:
                endpoint.breaker.record_success()
                self._active = self.endpoints.index(endpoint)
                return data
            if attempt >= max_attempts:
                break
            delay = (
                retry_hint
                if retry_hint is not None
                else policy.delay(attempt, self._rng)
            )
            if delay > 0:
                self._sleep(delay)
        raise ServiceError(
            f"{last_error} (after {attempt} attempt"
            f"{'s' if attempt != 1 else ''})",
            status=last_error.status if last_error else None,
        )

    def _json(self, method: str, path: str, **kwargs) -> Dict:
        return json.loads(self._request(method, path, **kwargs).decode())

    def _is_transient(self, error: ServiceError) -> bool:
        """Failures worth riding out inside a wait loop."""
        return error.status is None or error.status in self.retry.retry_statuses

    # -------------------------------------------------------------- submit --

    def submit_claim(
        self,
        model: Sequential,
        keys: WatermarkKeys,
        config: Optional[CircuitConfig] = None,
        *,
        priority: int = 0,
        seed: Optional[int] = None,
        setup_seed: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Dict:
        """Submit an ownership-claim request; returns ``{claim_id, state}``.

        ``deadline_seconds`` rides as the ``X-Deadline-Seconds`` header
        (never in the frame: the frame is the content address); the
        scheduler sheds the job at dispatch once it has expired.

        A trace id is minted per submission and sent as ``X-Trace-Id``,
        so the claim's whole server-side lifecycle -- including rescue
        resubmissions after a failover -- lands on one trace, fetchable
        via :meth:`trace`.  (If the claim was first registered under a
        different trace, the server keeps the original: first writer
        wins.)
        """
        frame = wire.encode_claim_request(
            wire.ClaimRequest(
                model=model,
                keys=keys,
                config=config or CircuitConfig(),
                priority=priority,
                seed=seed,
                setup_seed=setup_seed,
            )
        )
        trace_id = new_trace_id()
        headers = {"X-Trace-Id": trace_id}
        if deadline_seconds is not None:
            headers["X-Deadline-Seconds"] = str(deadline_seconds)
        result = self._json("POST", "/claims", body=frame, headers=headers)
        claim_id = result.get("claim_id")
        if claim_id:
            self._frames[claim_id] = frame
            self._trace_ids.setdefault(claim_id, trace_id)
        return result

    def _resubmit_headers(self, claim_id: str) -> Optional[Dict[str, str]]:
        """The original ``X-Trace-Id`` for a rescue re-POST, if known."""
        trace_id = self._trace_ids.get(claim_id)
        return {"X-Trace-Id": trace_id} if trace_id else None

    # -------------------------------------------------------------- status --

    def status(self, claim_id: str) -> Dict:
        return self._json("GET", f"/claims/{claim_id}")

    def wait(
        self,
        claim_id: str,
        *,
        timeout: float = 120.0,
        poll_seconds: float = 0.2,
        max_poll_seconds: Optional[float] = None,
        resubmit: bool = True,
    ) -> Dict:
        """Poll until the claim reaches a terminal state, surviving faults.

        The poll interval starts at ``poll_seconds`` and backs off (x1.5
        per poll, capped at ``max_poll_seconds``) instead of busy-polling.
        Transient failures -- transport errors, 429/503 shedding -- are
        ridden out until ``timeout``; only a definitive answer (terminal
        state, or a non-transient error like 404 with nothing to rescue)
        ends the wait early.

        ``resubmit=True`` (with a frame cached by :meth:`submit_claim`)
        re-POSTs the idempotent request whenever the claim has gone
        ``rescue_after`` seconds without resolving, or turns up unknown
        after a failover.  Resubmission is how a stranded claim -- its
        replica dead, its lease expired -- gets adopted by a surviving
        replica, with no manual intervention.
        """
        deadline = time.monotonic() + timeout
        cap = (
            max_poll_seconds
            if max_poll_seconds is not None
            else self.max_poll_seconds
        )
        delay = max(0.0, poll_seconds)
        last_state: Optional[str] = None
        next_rescue = time.monotonic() + self.rescue_after
        while True:
            try:
                status = self.status(claim_id)
            except ServiceError as exc:
                frame = self._frames.get(claim_id) if resubmit else None
                if exc.status == 404 and frame is not None:
                    # Unknown to whichever replica answered (e.g. after a
                    # failover to a node that never saw the submit):
                    # idempotent resubmission recreates it in place.
                    try:
                        self._json("POST", "/claims", body=frame,
                                   headers=self._resubmit_headers(claim_id))
                    except ServiceError:
                        pass
                elif not self._is_transient(exc):
                    raise
            else:
                state = status.get("state")
                if state != last_state:
                    last_state = state
                    # Progress resets both clocks: back to tight polling
                    # and a fresh rescue window.
                    delay = max(0.0, poll_seconds)
                    next_rescue = time.monotonic() + self.rescue_after
                if state in TERMINAL_STATES:
                    return status
            now = time.monotonic()
            if now > deadline:
                raise TimeoutError(
                    f"claim {claim_id} still {last_state!r} after {timeout}s"
                )
            if (
                resubmit
                and now >= next_rescue
                and claim_id in self._frames
            ):
                # Stuck: if the owning replica died, its lease has
                # expired and this idempotent re-POST makes whichever
                # endpoint answers adopt the claim (rescue path).
                try:
                    self._json(
                        "POST", "/claims", body=self._frames[claim_id],
                        headers=self._resubmit_headers(claim_id),
                    )
                except ServiceError:
                    pass
                next_rescue = time.monotonic() + self.rescue_after
            self._sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 1.5, cap) if delay > 0 else cap

    def list_claims(
        self,
        *,
        model_digest: Optional[str] = None,
        state: Optional[str] = None,
    ) -> List[Dict]:
        query = []
        if model_digest:
            query.append(f"model_digest={model_digest}")
        if state:
            query.append(f"state={state}")
        suffix = "?" + "&".join(query) if query else ""
        return self._json("GET", f"/claims{suffix}")["claims"]

    # --------------------------------------------------------------- fetch --

    def fetch_claim(self, claim_id: str) -> OwnershipClaim:
        return wire.decode_claim(self._request("GET", f"/claims/{claim_id}/proof"))

    def fetch_verifying_key(self, claim_id: str) -> VerifyingKey:
        return wire.decode_verifying_key(
            self._request("GET", f"/claims/{claim_id}/vk")
        )

    def fetch_vk_by_digest(self, circuit_digest: str) -> VerifyingKey:
        """Fetch a verifying key by circuit digest (``GET /vks/<digest>``).

        The shape-keyed distribution path for auditors checking many
        claims of one architecture: one VK fetch serves them all, and the
        digest pins *which* circuit the proof must satisfy.
        """
        return wire.decode_verifying_key(
            self._request("GET", f"/vks/{circuit_digest}")
        )

    def key_log(self) -> List[Dict]:
        """The service's signed key-transparency log (one entry per VK)."""
        return self._json("GET", "/vks")["key_log"]

    def circuit_audit(self, claim_id: str) -> Dict:
        """The static soundness-audit report for a claim's circuit."""
        return self._json("GET", f"/claims/{claim_id}/circuit-audit")

    # -------------------------------------------------------------- verify --

    def verify_remote(self, claim_id: str) -> Dict:
        """Ask the *service* to verify (convenient, but trusts the service)."""
        return self._json(
            "POST",
            "/verify",
            body=json.dumps({"claim_id": claim_id}).encode(),
            content_type="application/json",
        )

    def verify_local(
        self,
        claim_id: str,
        model: Sequential,
        *,
        circuit_digest: Optional[str] = None,
    ) -> VerificationReport:
        """Trustless check: fetch claim + VK, verify against OUR model copy.

        Passing ``circuit_digest`` pins the verifying key: it is fetched
        from the shape-keyed ``/vks/<digest>`` endpoint and the claim's
        record must name the same digest, so the service cannot swap in a
        different circuit's key for this verification.
        """
        claim = self.fetch_claim(claim_id)
        if circuit_digest is not None:
            recorded = self.status(claim_id).get("circuit_digest", "")
            if recorded != circuit_digest:
                raise ServiceError(
                    f"claim {claim_id} was proved under circuit "
                    f"{recorded!r}, not the pinned {circuit_digest!r}"
                )
            vk = self.fetch_vk_by_digest(circuit_digest)
        else:
            vk = self.fetch_verifying_key(claim_id)
        return OwnershipVerifier(vk).verify(model, claim)

    def verify_batch(
        self, claim_ids: List[str], *, seed: Optional[int] = None
    ) -> wire.VerifyBatchResult:
        """Ask the service to verify many claims in one batched sweep.

        Posts a binary :class:`~repro.service.wire.VerifyBatchRequest`
        frame to ``POST /verify-batch``; the service groups the claims by
        verifying key and runs one random-linear-combination
        multi-pairing per group.  Returns per-claim verdicts (with
        HTTP-style statuses: 404 unknown, 409 unverifiable state, 400
        malformed proof) plus per-group timing.
        """
        frame = wire.encode_verify_batch_request(
            wire.VerifyBatchRequest(claim_ids=list(claim_ids), seed=seed)
        )
        return wire.decode_verify_batch_result(
            self._request("POST", "/verify-batch", body=frame)
        )

    def audit_registry(
        self, *, seed: Optional[int] = None
    ) -> wire.VerifyBatchResult:
        """Sweep every non-revoked registered claim through ``/verify-batch``.

        The ``zkrownn audit`` workflow: list the registry, drop revoked
        records, batch-verify the rest.  Claims not yet proved come back
        as 409 verdicts (skipped, not failures).
        """
        claim_ids = [
            record["claim_id"]
            for record in self.list_claims()
            if record["state"] != "revoked"
        ]
        return self.verify_batch(claim_ids, seed=seed)

    # --------------------------------------------------------------- admin --

    def revoke(self, claim_id: str, reason: str = "") -> Dict:
        return self._json(
            "POST",
            f"/claims/{claim_id}/revoke",
            body=json.dumps({"reason": reason}).encode(),
            content_type="application/json",
        )

    def drain(self) -> Dict:
        """Ask the service to drain: stop admitting, finish in-flight work."""
        return self._json("POST", "/admin/drain", body=b"")

    def audit(self, claim_id: str) -> List[Dict]:
        return self._json("GET", f"/claims/{claim_id}/audit")["audit"]

    def health(self) -> Dict:
        return self._json("GET", "/healthz")

    def stats(self) -> Dict:
        return self._json("GET", "/stats")

    # ------------------------------------------------------- observability --

    def trace(self, claim_id: str) -> Dict:
        """The claim's span tree: ``{claim_id, trace_id, spans: [...]}``."""
        return self._json("GET", f"/claims/{claim_id}/trace")

    def trace_id(self, claim_id: str) -> Optional[str]:
        """The trace id this client minted for ``claim_id``, if any."""
        return self._trace_ids.get(claim_id)

    def metrics_text(self) -> str:
        """The service's Prometheus text exposition (``GET /metrics``)."""
        return self._request("GET", "/metrics").decode()

    def __repr__(self) -> str:
        urls = [endpoint.url for endpoint in self.endpoints]
        return f"ServiceClient({urls[0]!r})" if len(urls) == 1 else (
            f"ServiceClient({urls!r})"
        )
