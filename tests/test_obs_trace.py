"""Per-claim tracing: span/tracer units, end-to-end lifecycle
completeness over HTTP, and trace continuity across a chaos-seeded
replica failover.

The acceptance contract: a claim submitted through ``ServiceClient``
yields a span tree at ``GET /claims/<id>/trace`` covering queue-wait
through prove, every span carrying the client-minted trace id -- even
when the first replica dies mid-prove and the claim is rescued.
"""

import time

import pytest

from repro.circuit import FixedPointFormat
from repro.engine import ProvingEngine
from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    get_metrics,
    new_trace_id,
    reinit_metrics_after_fork,
    set_obs_enabled,
)
from repro.obs.trace import record_fault, sanitize_trace_id
from repro.service import (
    ClaimRegistry,
    FaultPlan,
    FaultSpec,
    ProofScheduler,
    ProofServer,
    ProofService,
    ServiceClient,
    ServiceError,
)
from repro.zkrownn import CircuitConfig
from shapes import SMALL_SETUP_SEED, small_claim


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    try:
        yield
    finally:
        set_obs_enabled(previous)


# -- units ---------------------------------------------------------------------


class TestSpan:
    def test_end_is_idempotent(self, obs_on):
        span = Span(new_trace_id(), "stage")
        span.end(outcome="first")
        duration = span.duration_seconds
        span.end(outcome="second")
        assert span.duration_seconds == duration
        assert span.attrs["outcome"] == "first"

    def test_backdated_start(self, obs_on):
        backdated = time.monotonic() - 5.0
        span = Span(new_trace_id(), "queue-wait", start_monotonic=backdated)
        assert span.start_unix == pytest.approx(time.time() - 5.0, abs=0.5)
        span.end()
        assert span.duration_seconds >= 5.0

    def test_as_dict_omits_empty_fields(self, obs_on):
        span = Span("t" * 8, "stage")
        out = span.as_dict()
        assert "parent_id" not in out
        assert "claim_id" not in out
        assert "duration_seconds" not in out
        span.event("blip", detail=1)
        span.end(outcome="ok")
        out = span.as_dict()
        assert out["attrs"] == {"outcome": "ok"}
        assert out["events"][0]["name"] == "blip"
        assert out["events"][0]["at"] >= 0

    def test_sanitize_trace_id(self):
        good = new_trace_id()
        assert sanitize_trace_id(good) == good
        assert sanitize_trace_id("  abc-DEF_123  ") == "abc-DEF_123"
        assert sanitize_trace_id("has space") == ""
        assert sanitize_trace_id("x" * 65) == ""
        assert sanitize_trace_id("") == ""
        assert sanitize_trace_id(None) == ""
        assert sanitize_trace_id(12345) == ""


class TestTracer:
    def test_null_span_without_trace_id(self, obs_on):
        assert Tracer().span("", "stage") is NULL_SPAN

    def test_null_span_when_disabled(self):
        previous = set_obs_enabled(False)
        try:
            assert Tracer().span(new_trace_id(), "stage") is NULL_SPAN
        finally:
            set_obs_enabled(previous)

    def test_null_span_is_falsy_and_inert(self):
        assert not NULL_SPAN
        NULL_SPAN.event("ignored")
        assert NULL_SPAN.end() is NULL_SPAN
        assert NULL_SPAN.as_dict() == {}
        Tracer().finish(NULL_SPAN)  # must not raise

    def test_auto_parenting_via_active_stack(self, obs_on):
        tracer = Tracer()
        trace_id = new_trace_id()
        outer = tracer.span(trace_id, "outer")
        with tracer.active(outer):
            assert current_span() is outer
            inner = tracer.span(trace_id, "inner")
            assert inner.parent_id == outer.span_id
            # A span of a DIFFERENT trace must not adopt this parent.
            foreign = tracer.span(new_trace_id(), "foreign")
            assert foreign.parent_id == ""
        assert current_span() is NULL_SPAN

    def test_finish_persists_via_sink_and_records_stage(self, obs_on):
        reinit_metrics_after_fork()
        stored = []
        tracer = Tracer(sink=lambda claim_id, span: stored.append(
            (claim_id, span)
        ))
        span = tracer.span(new_trace_id(), "prove", claim_id="c1")
        tracer.finish(span, outcome="ok")
        assert stored[0][0] == "c1"
        assert stored[0][1]["attrs"]["outcome"] == "ok"
        hist = get_metrics().histogram("zkrownn_stage_seconds")
        assert hist.snapshot(stage="prove")["count"] == 1

    def test_sink_failure_is_swallowed(self, obs_on):
        def broken(claim_id, span):
            raise OSError("disk gone")

        tracer = Tracer(sink=broken)
        tracer.finish(tracer.span(new_trace_id(), "persist", claim_id="c"))

    def test_spanless_claims_skip_the_sink(self, obs_on):
        stored = []
        tracer = Tracer(sink=lambda *a: stored.append(a))
        tracer.finish(tracer.span(new_trace_id(), "anonymous"))
        assert stored == []  # no claim_id -> nothing persisted

    def test_record_fault_attaches_to_active_span(self, obs_on):
        reinit_metrics_after_fork()
        tracer = Tracer()
        span = tracer.span(new_trace_id(), "dispatch")
        with tracer.active(span):
            record_fault("scheduler.prove", "crash")
        assert span.events[0]["name"] == "fault-injected"
        assert span.events[0]["site"] == "scheduler.prove"
        counter = get_metrics().counter("zkrownn_faults_injected_total")
        assert counter.value(site="scheduler.prove", kind="crash") == 1


class TestRegistryTraceStore:
    def test_spans_round_trip_sorted_and_torn_lines_skipped(self, tmp_path):
        registry = ClaimRegistry(tmp_path / "reg")
        claim_id = "a" * 64
        registry.store_trace_span(claim_id, {"name": "late", "start_unix": 2.0})
        registry.store_trace_span(claim_id, {"name": "early", "start_unix": 1.0})
        # A torn append (crash mid-write) must not poison the trace.
        with open(registry.root / "traces" / f"{claim_id}.jsonl", "a") as fh:
            fh.write('{"name": "torn", "start_un')
        spans = registry.trace_spans(claim_id)
        assert [s["name"] for s in spans] == ["early", "late"]
        assert registry.trace_spans("b" * 64) == []


# -- end-to-end lifecycle ------------------------------------------------------

LIFECYCLE_STAGES = (
    "submit", "queue-wait", "lease-acquire", "synthesize", "prove", "persist",
)


@pytest.fixture(scope="module")
def traced_claim(tmp_path_factory, watermarked_mlp):
    """One claim proved over real HTTP, with its trace fully recorded."""
    model, keys, _ = watermarked_mlp
    config = CircuitConfig(
        theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
    )
    root = tmp_path_factory.mktemp("obs-e2e") / "registry"
    server = ProofServer(ProofService(ClaimRegistry(root))).start()
    client = ServiceClient(server.url)
    submitted = client.submit_claim(model, keys, config, seed=5, setup_seed=99)
    claim_id = submitted["claim_id"]
    status = client.wait(claim_id, timeout=600)
    assert status["state"] == "done", status
    assert client.verify_remote(claim_id)["accepted"]
    yield client, claim_id, status, server
    server.stop()


class TestTraceEndToEnd:
    def test_record_carries_the_client_minted_trace_id(self, traced_claim):
        client, claim_id, status, _ = traced_claim
        assert status["trace_id"] == client.trace_id(claim_id)

    def test_every_lifecycle_stage_exactly_once(self, traced_claim):
        client, claim_id, _, _ = traced_claim
        trace = client.trace(claim_id)
        assert trace["trace_id"] == client.trace_id(claim_id)
        names = [span["name"] for span in trace["spans"]]
        for stage in LIFECYCLE_STAGES:
            assert names.count(stage) == 1, (
                f"expected stage {stage!r} exactly once, got {names}"
            )
        # The server-side verification above left its span too.
        assert names.count("verify") == 1

    def test_spans_share_one_trace_and_order_sanely(self, traced_claim):
        client, claim_id, _, _ = traced_claim
        trace = client.trace(claim_id)
        spans = {s["name"]: s for s in trace["spans"]}
        assert all(
            s["trace_id"] == trace["trace_id"] for s in trace["spans"]
        )
        # queue-wait is backdated to submission; prove starts after it.
        assert spans["queue-wait"]["start_unix"] <= spans["prove"]["start_unix"]
        assert spans["submit"]["start_unix"] <= spans["persist"]["start_unix"]
        for stage in LIFECYCLE_STAGES:
            assert spans[stage]["duration_seconds"] >= 0
            assert spans[stage]["claim_id"] == claim_id
        # Scheduler stages parent under the submit span.
        submit_id = spans["submit"]["span_id"]
        assert spans["queue-wait"]["parent_id"] == submit_id
        assert spans["lease-acquire"]["parent_id"] == submit_id

    def test_stage_metrics_mirror_the_trace(self, traced_claim):
        client, _, _, _ = traced_claim
        text = client.metrics_text()
        for stage in ("queue-wait", "prove", "persist"):
            assert f'zkrownn_stage_seconds_count{{stage="{stage}"}}' in text
        assert 'zkrownn_engine_stage_seconds_count{stage="prove_stream"}' in text

    def test_trace_of_unknown_claim_is_404(self, traced_claim):
        client, _, _, _ = traced_claim
        with pytest.raises(ServiceError) as excinfo:
            client.trace("f" * 64)
        assert excinfo.value.status == 404

    def test_cli_timeline_renders(self, traced_claim, capsys):
        from repro.cli import main

        client, claim_id, _, server = traced_claim
        assert main(["trace", "--url", server.url, claim_id]) == 0
        out = capsys.readouterr().out
        assert claim_id in out
        assert "prove" in out
        assert "queue-wait" in out


# -- chaos: failover keeps the trace -------------------------------------------


class TestTraceSurvivesFailover:
    # Replica A's worker thread dying on the injected crash IS the
    # scenario: the unhandled-thread-exception warning is by design.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_trace_id_intact_across_replica_death(self, tmp_path):
        """Replica A crashes at dispatch; the client's rescue resubmission
        gets the claim proved by replica B -- and every span, on either
        replica, lands on the one client-minted trace."""
        model, keys, config = small_claim()
        root = tmp_path / "registry"

        plan_a = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.dispatch", kind="crash", max_fires=1),
        ])
        registry_a = ClaimRegistry(root, owner_token="replica-a")
        engine_a = ProvingEngine(cache_dir=str(root / "engine-cache"))
        service_a = ProofService(
            registry_a,
            engine=engine_a,
            scheduler=ProofScheduler(
                engine_a, registry_a, lease_seconds=0.5,
                heartbeat_seconds=0, faults=plan_a,
            ),
        )
        server_a = ProofServer(service_a).start()

        registry_b = ClaimRegistry(root, owner_token="replica-b")
        service_b = ProofService(
            registry_b,
            engine=ProvingEngine(cache_dir=str(root / "engine-cache")),
        )
        server_b = ProofServer(service_b).start()

        try:
            client = ServiceClient(
                [server_a.url, server_b.url],
                breaker_threshold=1,
                breaker_reset_seconds=30.0,
                rescue_after=0.75,
            )
            submitted = client.submit_claim(
                model, keys, config, seed=5, setup_seed=SMALL_SETUP_SEED
            )
            claim_id = submitted["claim_id"]
            minted = client.trace_id(claim_id)
            assert minted

            deadline = time.monotonic() + 30
            while plan_a.fired("scheduler.dispatch") == 0:
                assert time.monotonic() < deadline, "replica A never dispatched"
                time.sleep(0.02)
            server_a._httpd.shutdown()
            server_a._httpd.server_close()

            status = client.wait(claim_id, timeout=600, poll_seconds=0.1)
            assert status["state"] == "done", status

            # First writer wins: the record keeps the original trace id
            # through the crash, the failover, and the rescue.
            assert status["trace_id"] == minted

            trace = client.trace(claim_id)
            assert trace["trace_id"] == minted
            names = [span["name"] for span in trace["spans"]]
            assert all(
                span["trace_id"] == minted for span in trace["spans"]
            ), names
            # The claim proved on B after the client's rescue/resubmit.
            assert "prove" in names
            assert "persist" in names
            assert any(n in names for n in ("rescued", "resubmit")), names
            # A's dispatch span carries the injected crash as an event.
            fault_events = [
                event
                for span in trace["spans"]
                for event in span.get("events", [])
                if event.get("name") == "fault-injected"
            ]
            assert any(
                e.get("site") == "scheduler.dispatch" for e in fault_events
            ), trace["spans"]
        finally:
            server_b.stop()
            try:
                service_a.close()
            except Exception:  # noqa: BLE001 - replica A is "dead" anyway
                pass
