"""Tests for the telemetry layer (:mod:`repro.telemetry`).

Covers the metrics registry (thread-safety under concurrent updates,
histogram bucket monotonicity as a hypothesis property, Prometheus-text
exposition), the tracer (no-op when disabled, span trees, leaf
suppression, sinks, cross-thread and cross-process context propagation),
the determinism contract with telemetry on (``canonical_dict`` identical
across every backend), the ISSUE's leaf-coverage acceptance criterion on
a traced 12×4 ``bnb-fleet`` solve, and the telemetry faces of the service
(``/stats`` schema version, ``GET /metrics``, ``GET /trace/<id>``) and
the CLI (``--profile`` / ``--trace-out``).
"""

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import TelemetryError
from repro.fleet import FleetAdvisor, FleetProblem
from repro.telemetry import get_tracer
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.trace import (
    InMemorySink,
    JsonlSink,
    Tracer,
    format_profile,
    leaf_wall_fraction,
    span_table,
)


def small_fleet(n_tenants=6, n_machines=3):
    machines = [{"name": f"m{i + 1}"} for i in range(n_machines)]
    tenants = [
        {
            "name": f"t{i + 1}",
            "engine": "postgresql" if i % 2 == 0 else "db2",
            "statements": [["q17" if i % 2 == 0 else "q18", 1.0 + i]],
            "gain_factor": 1.0 + i % 3,
        }
        for i in range(n_tenants)
    ]
    return FleetProblem.from_dict(
        {"tenants": tenants, "machines": machines, "name": "telemetry-fleet"}
    )


@pytest.fixture
def tracer():
    """The process tracer, enabled for one test and always disabled after."""
    tracer = get_tracer()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.disable()


# ----------------------------------------------------------------------
# Metrics: registry semantics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_requests_total", "requests")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0

        gauge = registry.gauge("t_in_flight", "in flight")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3.0

        histogram = registry.histogram(
            "t_latency_seconds", "latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_registration_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "help")
        assert registry.counter("t_total", "help") is first
        with pytest.raises(TelemetryError):
            registry.gauge("t_total", "same name, different kind")
        with pytest.raises(TelemetryError):
            registry.counter("t_total", "help", labelnames=("endpoint",))

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_neg_total", "help")
        with pytest.raises(TelemetryError):
            counter.inc(-1.0)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("t_bad", "help", buckets=())
        with pytest.raises(TelemetryError):
            registry.histogram("t_bad2", "help", buckets=(1.0, 1.0))

    def test_labels_are_memoized_and_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("t_by_endpoint", "help", labelnames=("endpoint",))
        child = family.labels(endpoint="fleet")
        assert family.labels(endpoint="fleet") is child
        with pytest.raises(TelemetryError):
            family.labels(method="GET")

    def test_labeled_family_refuses_unlabeled_updates(self):
        # Unlabeled families bind their one child at registration; a
        # labeled family has no default child to bind.
        registry = MetricsRegistry()
        counter = registry.counter("t_by_route", "help", labelnames=("route",))
        histogram = registry.histogram(
            "t_route_seconds", "help", buckets=(0.1,), labelnames=("route",)
        )
        for use in (
            counter.inc,
            lambda: counter.value,
            lambda: histogram.observe(0.05),
            lambda: histogram.count,
        ):
            with pytest.raises(TelemetryError, match="use .labels"):
                use()
        assert counter.children() == []

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_requests_total", "Requests served.")
        counter.inc(2)
        histogram = registry.histogram("t_seconds", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        text = registry.render()
        assert "# HELP t_requests_total Requests served.\n" in text
        assert "# TYPE t_requests_total counter\n" in text
        assert "t_requests_total 2\n" in text
        assert 't_seconds_bucket{le="0.1"} 1\n' in text
        assert 't_seconds_bucket{le="+Inf"} 1\n' in text
        assert "t_seconds_count 1\n" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Metrics: concurrency and properties
# ----------------------------------------------------------------------
class TestMetricsConcurrency:
    THREADS = 8
    PER_THREAD = 2_000

    def test_concurrent_updates_lose_nothing(self):
        """≥8 threads hammering one counter/gauge/histogram: exact totals."""
        registry = MetricsRegistry()
        counter = registry.counter("t_hammer_total", "help")
        gauge = registry.gauge("t_hammer_gauge", "help")
        histogram = registry.histogram(
            "t_hammer_seconds", "help", buckets=LATENCY_BUCKETS
        )
        labeled = registry.counter(
            "t_hammer_by_worker", "help", labelnames=("worker",)
        )
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            child = labeled.labels(worker=str(worker % 2))
            for i in range(self.PER_THREAD):
                counter.inc()
                gauge.inc()
                gauge.dec()
                histogram.observe(0.001 * (i % 50))
                child.inc()

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.THREADS * self.PER_THREAD
        assert counter.value == total
        assert gauge.value == 0.0
        assert histogram.count == total
        assert (
            labeled.labels(worker="0").value + labeled.labels(worker="1").value
            == total
        )
        cumulative = histogram.bucket_counts()
        assert cumulative[-1] == (float("inf"), total)

    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=200,
        )
    )
    def test_histogram_bucket_counts_are_monotone(self, observations):
        """Cumulative bucket counts never decrease as ``le`` grows."""
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_prop_seconds", "help", buckets=(0.001, 0.1, 1.0, 100.0)
        )
        for value in observations:
            histogram.observe(value)
        cumulative = histogram.bucket_counts()
        counts = [count for _bound, count in cumulative]
        assert counts == sorted(counts)
        assert cumulative[-1][0] == float("inf")
        assert cumulative[-1][1] == len(observations)
        for (bound, count) in cumulative[:-1]:
            assert count == sum(1 for value in observations if value <= bound)


# ----------------------------------------------------------------------
# Histogram quantile estimation
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_quantile_interpolates_within_a_bucket(self):
        # 100 observations, all inside (0.1, 1.0]: the p50 estimate sits
        # linearly in the middle of that bucket.
        cumulative = [(0.1, 0), (1.0, 100), (float("inf"), 100)]
        assert quantile_from_buckets(cumulative, 0.5) == pytest.approx(0.55)
        assert quantile_from_buckets(cumulative, 0.0) == pytest.approx(0.1)
        assert quantile_from_buckets(cumulative, 1.0) == pytest.approx(1.0)

    def test_quantile_clamps_to_highest_finite_bound(self):
        # Everything overflowed into +Inf: the estimate cannot invent a
        # value past the layout, so it reports the highest finite bound.
        cumulative = [(0.1, 0), (1.0, 0), (float("inf"), 10)]
        assert quantile_from_buckets(cumulative, 0.99) == 1.0

    def test_quantile_empty_and_invalid(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(1.0, 0), (float("inf"), 0)], 0.5) is None
        with pytest.raises(TelemetryError):
            quantile_from_buckets([(1.0, 1)], 1.5)

    def test_histogram_and_family_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_quant_seconds", "help", buckets=(0.1, 1.0, 10.0)
        )
        for _ in range(90):
            histogram.observe(0.05)
        for _ in range(10):
            histogram.observe(5.0)
        assert histogram.quantile(0.5) <= 0.1
        assert 1.0 < histogram.quantile(0.99) <= 10.0
        labeled = registry.histogram(
            "t_quant_labeled_seconds", "help", buckets=(0.1, 1.0),
            labelnames=("endpoint",),
        )
        labeled.labels(endpoint="a").observe(0.05)
        assert labeled.labels(endpoint="a").quantile(0.5) <= 0.1
        assert labeled.labels(endpoint="b").quantile(0.5) is None

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        st.sampled_from((0.5, 0.9, 0.95, 0.99)),
    )
    def test_quantile_brackets_the_exact_order_statistic(self, observations, q):
        """The estimate lands in the bucket holding the true quantile.

        With rank ``q*n``, the estimator picks the bucket containing the
        ``ceil(q*n)``-th smallest observation; the interpolated value
        must stay inside that bucket's bounds.
        """
        import math as _math

        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_quant_prop_seconds", "help", buckets=(0.1, 1.0, 10.0, 100.0)
        )
        for value in observations:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        k = _math.ceil(q * len(observations))
        element = sorted(observations)[k - 1]
        bounds = [0.0, 0.1, 1.0, 10.0, 100.0]
        bucket = next(i for i in range(1, len(bounds)) if element <= bounds[i])
        assert bounds[bucket - 1] <= estimate <= bounds[bucket]


# ----------------------------------------------------------------------
# Tracing: spans, sinks, propagation
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer()
        with tracer.span("anything", key="value") as span:
            assert not span.recording
            span.set_attribute("ignored", 1)
            span.event("ignored")
        assert len(tracer.ring) == 0

    def test_span_tree_lands_in_the_ring(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root", kind="test") as root:
            with tracer.span("child") as child:
                child.set_attribute("n", 3)
            root.set_attributes(done=True)
        assert len(tracer.ring) == 1
        trace = tracer.ring.get(tracer.ring.trace_ids()[0])
        assert trace["name"] == "root"
        assert trace["attributes"] == {"kind": "test", "done": True}
        (child_dict,) = trace["children"]
        assert child_dict["name"] == "child"
        assert child_dict["attributes"] == {"n": 3}
        assert child_dict["trace_id"] == trace["trace_id"]

    def test_leaf_spans_suppress_nested_spans(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root"):
            with tracer.span("hot-loop", leaf=True) as leaf:
                inner = tracer.span("suppressed")
                assert not inner.recording
                leaf.event("progress", n=1)
        trace = tracer.ring.get(tracer.ring.trace_ids()[0])
        (leaf_dict,) = trace["children"]
        assert leaf_dict["name"] == "hot-loop"
        assert "children" not in leaf_dict
        assert leaf_dict["events"][0]["name"] == "progress"

    def test_ring_is_bounded(self):
        sink = InMemorySink(max_traces=2)
        tracer = Tracer()
        tracer.enable(sink)
        for index in range(4):
            with tracer.span(f"span-{index}"):
                pass
        assert len(sink) == 2

    def test_jsonl_sink_writes_one_line_per_trace(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer()
        tracer.enable(JsonlSink(str(path)))
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        tracer.disable()
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["first", "second"]

    def test_jsonl_sink_unwritable_path_raises_telemetry_error(self):
        with pytest.raises(TelemetryError):
            JsonlSink("/nonexistent-dir/traces.jsonl")

    def test_bind_carries_context_to_worker_threads(self):
        tracer = Tracer()
        tracer.enable()

        def work() -> None:
            with tracer.span("worker-side"):
                pass

        with tracer.span("root"):
            bound = tracer.bind(work)
            thread = threading.Thread(target=bound)
            thread.start()
            thread.join()
        trace = tracer.ring.get(tracer.ring.trace_ids()[0])
        assert [child["name"] for child in trace["children"]] == ["worker-side"]

    def test_analysis_helpers(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root"):
            with tracer.span("step", leaf=True):
                pass
        trace = tracer.ring.get(tracer.ring.trace_ids()[0])
        fraction = leaf_wall_fraction(trace)
        assert 0.0 <= fraction <= 1.0 + 1e-9
        names = [row["name"] for row in span_table(trace)]
        assert set(names) == {"root", "step"}
        table = format_profile(trace)
        assert "root" in table and "step" in table and "share" in table


# ----------------------------------------------------------------------
# The pipeline under tracing: determinism and coverage
# ----------------------------------------------------------------------
class TestTracedPipeline:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", None), ("thread", 4), ("asyncio", 4),
    ])
    def test_canonical_dict_identical_with_telemetry_on(
        self, tracer, backend, jobs
    ):
        problem = small_fleet()
        baseline = FleetAdvisor(delta=0.25)
        tracer.disable()
        expected = baseline.recommend(problem).canonical_dict()
        tracer.enable()
        advisor = FleetAdvisor(delta=0.25, backend=backend, jobs=jobs)
        try:
            traced = advisor.recommend(problem).canonical_dict()
        finally:
            advisor.backend.close()
        assert traced == expected

    def test_bnb_fleet_12x4_leaf_spans_cover_90_percent(self, tracer):
        """The ISSUE's acceptance criterion, on the paper-sized fleet."""
        from repro.experiments.fleet import build_fleet_problem

        base = build_fleet_problem(n_tenants=12, n_machines=4)
        data = base.to_dict()
        data["calibration"] = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}
        problem = FleetProblem.from_dict(data)
        advisor = FleetAdvisor(delta=0.25, placement="bnb-fleet")
        report = advisor.recommend(problem)
        assert report.placement_provenance["strategy"] == "bnb-fleet"

        trace = tracer.ring.get(tracer.ring.trace_ids()[-1])
        assert trace["name"] == "fleet.recommend"
        assert leaf_wall_fraction(trace) >= 0.90
        names = {span["name"] for span in _walk(trace)}
        assert {"placement.place", "bnb.seed", "bnb.bound", "bnb.search"} <= names

    def test_greedy_trace_records_probes_and_memo_attributes(self, tracer):
        problem = small_fleet()
        advisor = FleetAdvisor(delta=0.25)
        advisor.recommend(problem, placement="greedy-cost+ls")
        trace = tracer.ring.get(tracer.ring.trace_ids()[-1])
        by_name = {span["name"]: span for span in _walk(trace)}
        assert by_name["greedy.assign"]["attributes"]["probes"] > 0
        assert by_name["placement.improve"]["attributes"]["rounds"] >= 0
        assert "memo_hits_delta" in by_name["fleet.recommend"]["attributes"]


def _walk(span):
    yield span
    for child in span.get("children", []):
        yield from _walk(child)


# ----------------------------------------------------------------------
# Service and CLI faces
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    def test_stats_reports_schema_version_and_telemetry(self):
        from repro.service import AdvisorService
        from repro.service.engine import STATS_SCHEMA_VERSION

        with AdvisorService(backend="serial") as service:
            stats = service.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["telemetry"]["tracing_enabled"] is False
        assert isinstance(stats["telemetry"]["recent_traces"], list)

    def test_metrics_and_trace_endpoints(self, tracer):
        import threading as _threading
        import urllib.error
        import urllib.request

        from repro.service.http import AdvisorHTTPServer

        from repro.telemetry.instruments import HTTP_REQUESTS_TOTAL, REQUESTS_TOTAL

        server = AdvisorHTTPServer(("127.0.0.1", 0))
        thread = _threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        # Metrics are process-global and cumulative, so assert deltas.
        served_before = REQUESTS_TOTAL.labels(endpoint="fleet").value
        http_before = HTTP_REQUESTS_TOTAL.labels(endpoint="/fleet", status="200").value
        try:
            fleet = small_fleet(n_tenants=4, n_machines=2).to_json()
            request = urllib.request.Request(
                server.url + "/fleet",
                data=fleet.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            assert urllib.request.urlopen(request).status == 200
            assert REQUESTS_TOTAL.labels(endpoint="fleet").value == served_before + 1
            assert (
                HTTP_REQUESTS_TOTAL.labels(endpoint="/fleet", status="200").value
                == http_before + 1
            )

            response = urllib.request.urlopen(server.url + "/metrics")
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
            assert 'repro_requests_total{endpoint="fleet"}' in text
            assert 'repro_http_requests_total{endpoint="/fleet",status="200"}' in text
            assert "repro_request_latency_seconds_bucket" in text
            assert "repro_solve_memo_hit_ratio" in text

            stats = json.loads(
                urllib.request.urlopen(server.url + "/stats").read()
            )
            assert stats["telemetry"]["tracing_enabled"] is True
            trace_id = stats["telemetry"]["recent_traces"][-1]
            trace = json.loads(
                urllib.request.urlopen(f"{server.url}/trace/{trace_id}").read()
            )
            assert "name" in trace and "wall_seconds" in trace

            with pytest.raises(urllib.error.HTTPError) as missing:
                urllib.request.urlopen(server.url + "/trace/no-such-trace")
            assert missing.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestCliTelemetry:
    @pytest.fixture
    def fleet_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(small_fleet(n_tenants=4, n_machines=2).to_json())
        return path

    def test_profile_prints_phase_table(self, fleet_file, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "report.json"
        assert main(["fleet", str(fleet_file), "--profile", "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "fleet.recommend" in captured.err
        assert "share" in captured.err
        assert not get_tracer().enabled  # main() restores the disabled state

    def test_trace_out_writes_jsonl(self, fleet_file, tmp_path):
        from repro.__main__ import main

        traces = tmp_path / "traces.jsonl"
        out = tmp_path / "report.json"
        code = main(
            ["fleet", str(fleet_file), "--trace-out", str(traces), "-o", str(out)]
        )
        assert code == 0
        lines = traces.read_text().strip().splitlines()
        assert any(
            json.loads(line)["name"] == "fleet.recommend" for line in lines
        )

    def test_unwritable_trace_out_is_a_clean_error(self, fleet_file, capsys):
        from repro.__main__ import main

        code = main(
            ["fleet", str(fleet_file), "--trace-out", "/nonexistent-dir/t.jsonl"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not get_tracer().enabled

    def test_version_never_touches_the_tracer(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert "repro" in capsys.readouterr().out
        assert not get_tracer().enabled
