"""Service observability: traces, metrics registry, worker timelines.

The acceptance contract for the telemetry layer, asserted end to end on a
real ``n_jobs=2`` service:

* a warm traced request returns a span tree covering decompose → ship →
  per-chunk enumerate (≥ 2 chunks) → merge, with the per-chunk
  ``cpu_seconds`` summing to the request's total CPU within 5%;
* the worker-folded ``mce_*`` registry counters equal the legacy
  :class:`repro.core.counters.Counters` the same request aggregated —
  the two accounting systems cannot drift;
* uptime runs on the monotonic clock, immune to wall-clock jumps;
* the ``metrics`` protocol op and the HTTP scrape endpoint expose the
  same registry, counters monotone across requests.
"""

import json
import urllib.request

import pytest

from repro.graph.generators import erdos_renyi_gnm
from repro.obs import find_spans
from repro.service import CliqueService, handle_request, serve_metrics_http


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(60, 600, seed=3)


@pytest.fixture()
def service(graph):
    with CliqueService(n_jobs=2) as svc:
        svc.register(graph, name="g")
        yield svc


class TestTracedRequest:
    def test_warm_trace_covers_the_whole_pipeline(self, service):
        service.count("g")  # cold request pays the prologue
        result = service.count("g", trace=True)
        assert result["warm"]
        tree = result["trace"]
        for name in ("decompose", "pack", "ship", "execute", "merge"):
            assert find_spans(tree, name), f"missing {name} span"
        chunks = find_spans(tree, "chunk")
        assert len(chunks) >= 2
        # Chunk spans are worker-built grafts with deterministic ids.
        assert sorted(c["id"] for c in chunks) == \
            [f"chunk{i}" for i in range(len(chunks))]
        execute = find_spans(tree, "execute")[0]
        assert execute["attrs"]["n_chunks"] == len(chunks)
        # Warm request: the graph state must not have shipped again.
        assert find_spans(tree, "ship")[0]["attrs"]["shipped"] is False

    def test_spans_share_one_clock(self, service):
        import time

        result = service.count("g", trace=True)
        tree = result["trace"]
        assert abs(tree["attrs"]["epoch"] - time.time()) < 60.0
        grafted = 0
        stack = [tree]
        while stack:
            parent = stack.pop()
            end = parent["start"] + parent["seconds"]
            for child in parent["children"]:
                grafted += child["name"] == "chunk"
                assert parent["start"] <= child["start"] + 1e-6, child
                assert child["start"] + child["seconds"] <= end + 1e-6, child
                stack.append(child)
        assert grafted >= 2

    def test_chunk_cpu_sums_to_request_total_within_5_percent(self, service):
        service.count("g")
        result = service.count("g", trace=True)
        chunks = find_spans(result["trace"], "chunk")
        cpu_sum = sum(c["attrs"]["cpu_seconds"] for c in chunks)
        total = result["parallel"]["total_cpu_seconds"]
        # Warm request: decompose is a cache hit, so worker CPU is the
        # request's CPU story up to scheduling noise.
        assert cpu_sum == pytest.approx(total, rel=0.05)

    def test_timeline_rides_along(self, service):
        result = service.count("g", trace=True)
        timeline = result["timeline"]
        assert len(timeline) == result["parallel"]["n_chunks"]
        for row in timeline:
            assert row["end"] >= row["start"]
            assert row["cpu_seconds"] >= 0.0
            assert row["counters"]["emitted"] >= 0
        assert {row["chunk_id"] for row in timeline} == \
            set(range(len(timeline)))

    def test_response_is_json_serialisable(self, service):
        result = service.enumerate("g", trace=True, limit=1)
        round_tripped = json.loads(json.dumps(result))
        assert round_tripped["trace"]["trace_id"] == \
            result["trace"]["trace_id"]

    def test_untraced_request_has_no_trace_payload(self, service):
        result = service.count("g")
        assert "trace" not in result and "timeline" not in result

    def test_counters_land_on_the_trace_root(self, service):
        result = service.count("g", trace=True)
        counters = result["trace"]["attrs"]["counters"]
        assert counters["emitted"] == result["count"]

    def test_trace_must_be_bool(self, service):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            service.count("g", trace=1)

    def test_fingerprint_and_enumerate_trace_too(self, service):
        for op in ("fingerprint", "enumerate"):
            result = getattr(service, op)("g", trace=True)
            assert find_spans(result["trace"], "merge")
            assert result["trace"]["name"] == op


class TestFoldedCounters:
    def test_folded_registry_equals_legacy_counters(self, graph):
        # Fresh service: the registry's mce_* totals come only from this
        # request's workers, so they must equal the aggregated legacy
        # Counters field-for-field (golden equality, not approximation).
        with CliqueService(n_jobs=2) as svc:
            svc.register(graph, name="g")
            result = svc.count("g", trace=True)
            legacy = result["trace"]["attrs"]["counters"]
            snapshot = svc.metrics_snapshot()
        for field, value in legacy.items():
            assert snapshot["counters"][f"mce_{field}_total"] == value, field

    def test_folds_accumulate_across_requests(self, graph):
        with CliqueService(n_jobs=1) as svc:
            svc.register(graph, name="g")
            one = svc.count("g", trace=True)
            emitted = one["trace"]["attrs"]["counters"]["emitted"]
            svc.count("g")
            snapshot = svc.metrics_snapshot()
        assert snapshot["counters"]["mce_emitted_total"] == 2 * emitted


class TestServiceMetrics:
    def test_request_latency_percentiles_in_stats(self, service):
        service.count("g")
        service.count("g")
        digest = service.stats()["request_seconds"]
        assert digest["count"] >= 2
        assert 0.0 <= digest["p50"] <= digest["p90"] <= digest["p99"]

    def test_uptime_is_monotonic_not_wall_clock(self, graph, monkeypatch):
        with CliqueService(n_jobs=1) as svc:
            # A wall-clock jump (NTP step, operator change) must not
            # affect uptime: it is derived from the monotonic clock.
            monkeypatch.setattr("time.time", lambda: 0.0)
            uptime = svc.stats()["uptime_seconds"]
        assert 0.0 <= uptime < 60.0

    def test_counters_monotone_across_requests(self, service):
        service.count("g")
        v1 = service.metrics_snapshot()["counters"]
        service.count("g")
        service.enumerate("g")
        v2 = service.metrics_snapshot()["counters"]
        assert v2['service_requests_total{op="count"}'] == \
            v1['service_requests_total{op="count"}'] + 1
        assert v2['service_requests_total{op="enumerate"}'] == 1
        assert v2["service_warm_requests_total"] >= \
            v1.get("service_warm_requests_total", 0)

    def test_exposition_text(self, service):
        service.count("g")
        text = service.metrics_text()
        assert "# TYPE service_request_seconds histogram" in text
        assert 'service_request_seconds_bucket{le="+Inf"' not in text  # labelled
        assert 'service_request_seconds_bucket{op="count",le="+Inf"}' in text
        assert "service_uptime_seconds" in text
        assert "mce_emitted_total" in text


class TestProtocolOps:
    def test_metrics_op_json_and_text(self, service):
        service.count("g")
        response, shutdown = handle_request(service, {"op": "metrics"})
        assert response["ok"] and not shutdown
        assert "service_requests_total{op=\"count\"}" in \
            response["metrics"]["counters"]
        response, _ = handle_request(
            service, {"op": "metrics", "format": "text"})
        assert "service_requests_total" in response["text"]

    def test_metrics_op_rejects_unknown_format(self, service):
        response, _ = handle_request(
            service, {"op": "metrics", "format": "xml"})
        assert not response["ok"] and "format" in response["error"]

    def test_trace_request_field(self, service):
        response, _ = handle_request(
            service, {"op": "count", "graph": "g", "trace": True})
        assert response["ok"] and "trace" in response
        assert find_spans(response["trace"], "merge")

    def test_trace_field_must_be_bool(self, service):
        response, _ = handle_request(
            service, {"op": "count", "graph": "g", "trace": "yes"})
        assert not response["ok"] and "trace" in response["error"]


class TestMetricsHTTP:
    def test_scrape_endpoint_serves_the_registry(self, service):
        service.count("g")
        server = serve_metrics_http(service, port=0)
        try:
            host, port = server.server_address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                body = response.read().decode()
            assert "service_requests_total" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/other")
        finally:
            server.shutdown()
            server.server_close()
