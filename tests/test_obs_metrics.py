"""Metrics registry, Prometheus exposition, and structured-log tests.

The exposition contract matters more than the internals: every line of
``render()`` (and of a live ``GET /metrics`` scrape) must parse as
Prometheus text, histogram buckets must be cumulative and monotone, and
counters must never decrease between scrapes.
"""

import io
import json
import math
import re
import urllib.request

import pytest

from repro.obs import (
    configure_logging,
    get_logger,
    get_metrics,
    set_kernel_profiling,
    set_obs_enabled,
)
from repro import config
from repro.obs.logging import Logger
from repro.obs.metrics import (
    KERNEL_BUCKETS,
    MetricsRegistry,
    kernel_profiling_enabled,
    obs_enabled,
    observe_kernel,
    size_bucket,
)

# -- exposition-format helpers -------------------------------------------------

_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|untyped)$"
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?P<value>[^ ]+)$"
)


def parse_exposition(text):
    """Strict parse: every line must be HELP, TYPE, or a sample.

    Returns ``{(name, labels_str): float_value}``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    samples = {}
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), f"bad HELP line: {line!r}"
            continue
        if line.startswith("# TYPE"):
            assert _TYPE_RE.match(line), f"bad TYPE line: {line!r}"
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        value = match.group("value")
        parsed = math.inf if value == "+Inf" else float(value)
        key = (match.group("name"), match.group("labels") or "")
        assert key not in samples, f"duplicate series: {line!r}"
        samples[key] = parsed
    return samples


def assert_histogram_wellformed(samples, family):
    """Cumulative-bucket and sum/count invariants for one histogram."""
    by_labelset = {}
    for (name, labels), value in samples.items():
        if name == f"{family}_bucket":
            le = re.search(r'le="([^"]*)"', labels).group(1)
            rest = re.sub(r',?le="[^"]*"', "", labels).replace("{}", "")
            bound = math.inf if le == "+Inf" else float(le)
            by_labelset.setdefault(rest, []).append((bound, value))
    assert by_labelset, f"no bucket series for {family}"
    for rest, buckets in by_labelset.items():
        buckets.sort()
        assert buckets[-1][0] == math.inf, "histogram must end at le=+Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), (
            f"buckets of {family}{rest} are not cumulative: {buckets}"
        )
        count_key = (f"{family}_count", rest)
        assert samples[count_key] == counts[-1]
        assert (f"{family}_sum", rest) in samples


@pytest.fixture()
def obs_on():
    previous = set_obs_enabled(True)
    try:
        yield
    finally:
        set_obs_enabled(previous)


# -- registry units ------------------------------------------------------------


class TestCounter:
    def test_inc_and_labels(self, obs_on):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        counter.inc()
        counter.inc(2, state="done")
        counter.inc(state="done")
        assert counter.value() == 1
        assert counter.value(state="done") == 3

    def test_negative_increment_rejected(self, obs_on):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_disabled_is_a_no_op(self):
        counter = MetricsRegistry().counter("c_total")
        previous = set_obs_enabled(False)
        try:
            counter.inc(5)
        finally:
            set_obs_enabled(previous)
        assert counter.value() == 0


class TestGauge:
    def test_set_inc_dec(self, obs_on):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 8


class TestHistogram:
    def test_snapshot_is_cumulative(self, obs_on):
        hist = MetricsRegistry().histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["buckets"][0.1] == 1
        assert snap["buckets"][1.0] == 3
        assert snap["buckets"][10.0] == 4
        assert snap["buckets"][math.inf] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_conflicting_family_rejected(self, obs_on):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_get_or_create_is_idempotent(self, obs_on):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")


class TestRender:
    def test_every_line_parses(self, obs_on):
        registry = MetricsRegistry()
        registry.counter("a_total", "a counter").inc(3, kind="x")
        registry.gauge("b", "a gauge").set(1.5)
        hist = registry.histogram("c_seconds", "a histogram",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05, stage="s")
        hist.observe(2.0, stage="s")
        samples = parse_exposition(registry.render())
        assert samples[("a_total", '{kind="x"}')] == 3
        assert samples[("b", "")] == 1.5
        assert_histogram_wellformed(samples, "c_seconds")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == "\n"


# -- kernel profiling ----------------------------------------------------------


class TestKernelProfiling:
    def test_size_bucket(self):
        assert size_bucket(0) == "0"
        assert size_bucket(1) == "2^0"
        assert size_bucket(2) == "2^1"
        assert size_bucket(1000) == "2^10"
        assert size_bucket(1024) == "2^10"
        assert size_bucket(1025) == "2^11"

    def test_requires_both_flags(self, obs_on):
        prev_kernel = set_kernel_profiling(True)
        try:
            assert kernel_profiling_enabled()
            prev_obs = set_obs_enabled(False)
            try:
                assert not kernel_profiling_enabled()
            finally:
                set_obs_enabled(prev_obs)
        finally:
            set_kernel_profiling(prev_kernel)

    def test_observe_kernel_buckets_by_size(self, obs_on, fresh_metrics):
        observe_kernel("msm", 1000, 0.02, group="g1")
        hist = get_metrics().histogram(
            "zkrownn_msm_seconds", buckets=KERNEL_BUCKETS
        )
        assert hist.snapshot(n="2^10", group="g1")["count"] == 1

    def test_msm_lands_in_histogram_when_enabled(self, obs_on, fresh_metrics):
        from repro.curves.bn254 import G1_GENERATOR
        from repro.curves.msm import msm_g1

        prev = set_kernel_profiling(True)
        try:
            msm_g1([G1_GENERATOR] * 4, [1, 2, 3, 4])
        finally:
            set_kernel_profiling(prev)
        hist = get_metrics().histogram(
            "zkrownn_msm_seconds", buckets=KERNEL_BUCKETS
        )
        assert hist.snapshot(n="2^2", group="g1")["count"] == 1

    def test_one_msm_g1_call_is_one_sample(self, obs_on, fresh_metrics):
        """``msm_g1`` and ``msm_g1_multi`` share a body; a profiled call --
        by keyword, which the wrapper must accept -- is observed once,
        under ``group="g1"`` and nowhere else."""
        from repro.curves.bn254 import G1_GENERATOR
        from repro.curves.msm import msm_g1

        prev = set_kernel_profiling(True)
        try:
            msm_g1(points=[G1_GENERATOR] * 4, scalars=[1, 2, 3, 4])
        finally:
            set_kernel_profiling(prev)
        hist = get_metrics().histogram(
            "zkrownn_msm_seconds", buckets=KERNEL_BUCKETS
        )
        counts = [
            line for line in hist.render()
            if line.startswith("zkrownn_msm_seconds_count")
        ]
        assert len(counts) == 1
        assert 'group="g1"' in counts[0] and counts[0].endswith(" 1")

    def test_fixed_base_mul_many_lands_in_histogram(self, obs_on, fresh_metrics):
        """A slow ``setup`` stage is attributable the way a slow prove is."""
        from repro.curves.bn254 import G1_GENERATOR
        from repro.curves.g2 import G2Point
        from repro.curves.msm import FixedBaseTableG1, FixedBaseTableG2

        table_g1 = FixedBaseTableG1(G1_GENERATOR, window=4)
        table_g2 = FixedBaseTableG2(G2Point.generator(), window=4)
        table_g1.mul_many([9])  # profiling off: nothing recorded
        prev = set_kernel_profiling(True)
        try:
            table_g1.mul_many([1, 2, 3, 4, 5])
            table_g2.mul_many([6, 7])
        finally:
            set_kernel_profiling(prev)
        hist = get_metrics().histogram(
            "zkrownn_msm_seconds", buckets=KERNEL_BUCKETS
        )
        assert hist.snapshot(n="2^3", group="g1_fixed")["count"] == 1
        assert hist.snapshot(n="2^1", group="g2_fixed")["count"] == 1
        assert hist.snapshot(n="2^0", group="g1_fixed")["count"] == 0

    def test_ntt_profiled_fwd_and_inv(self, obs_on, fresh_metrics):
        from repro.field.ntt import get_domain, intt, ntt

        omega = get_domain(8).omega
        prev = set_kernel_profiling(True)
        try:
            evals = ntt([1, 2, 3, 4, 5, 6, 7, 8], omega)
            intt(evals, omega)  # runs a nested forward transform
        finally:
            set_kernel_profiling(prev)
        hist = get_metrics().histogram(
            "zkrownn_ntt_seconds", buckets=KERNEL_BUCKETS
        )
        assert hist.snapshot(n="2^3", direction="fwd")["count"] == 2
        assert hist.snapshot(n="2^3", direction="inv")["count"] == 1


# -- live /metrics scrapes -----------------------------------------------------


class TestMetricsEndpoint:
    def test_scrapes_parse_and_counters_never_decrease(
        self, tmp_path, obs_on, fresh_metrics
    ):
        from repro.service import ClaimRegistry, ProofServer, ProofService

        server = ProofServer(
            ProofService(ClaimRegistry(tmp_path / "reg"))
        ).start()
        try:
            def scrape():
                with urllib.request.urlopen(
                    f"{server.url}/metrics", timeout=10
                ) as response:
                    assert response.headers["Content-Type"].startswith(
                        "text/plain; version=0.0.4"
                    )
                    return parse_exposition(response.read().decode())

            first = scrape()
            # Work between scrapes: more HTTP traffic, a 404.
            for path in ("/healthz", "/stats", "/vks"):
                urllib.request.urlopen(f"{server.url}{path}", timeout=10).read()
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"{server.url}/claims/{'0' * 64}", timeout=10
                )
            second = scrape()

            assert ("zkrownn_http_requests_total",
                    '{code="200",method="GET"}') in second
            assert ("zkrownn_uptime_seconds", "") in second
            for (name, labels), value in first.items():
                if name.endswith("_total") or name.endswith("_count") \
                        or name.endswith("_bucket"):
                    assert second.get((name, labels), 0) >= value, (
                        f"{name}{labels} decreased between scrapes"
                    )
        finally:
            server.stop()


# -- structured logging --------------------------------------------------------


class TestStructuredLogging:
    def test_level_gating_and_json_lines(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        try:
            log = get_logger("test-component")
            log.debug("too.quiet", detail=1)
            log.info("loud.enough", claim_id="abc", n=2)
            log.error("very.loud")
        finally:
            import sys

            configure_logging(level="warning", stream=sys.stderr)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["level"] == "info"
        assert first["component"] == "test-component"
        assert first["event"] == "loud.enough"
        assert first["claim_id"] == "abc"
        assert json.loads(lines[1])["level"] == "error"

    def test_off_silences_everything(self):
        stream = io.StringIO()
        configure_logging(level="off", stream=stream)
        try:
            get_logger("quiet").error("should.not.appear")
        finally:
            import sys

            configure_logging(level="warning", stream=sys.stderr)
        assert stream.getvalue() == ""

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="verbose")

    def test_broken_stream_never_raises(self):
        class Broken:
            def write(self, data):
                raise OSError("stream gone")

            def flush(self):
                raise OSError("stream gone")

        import sys

        configure_logging(level="info", stream=Broken())
        try:
            get_logger("resilient").info("still.fine")
        finally:
            configure_logging(level="warning", stream=sys.stderr)

    def test_env_name_documented(self):
        assert config.VARIABLES["log_level"].env == "ZKROWNN_LOG_LEVEL"
        assert isinstance(get_logger("x"), Logger)
