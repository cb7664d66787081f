"""Tests for the repo-wide observability core (``repro.obs``).

Covers the metrics move out of ``repro.service`` (deprecation shim, the
process-global default registry), Prometheus exposition edge cases (label
escaping, non-finite observations, empty registries, scrape-while-mutating),
the structured JSONL event log (envelope validation, crash-safe appends,
strict readers), span tracing (near-zero disabled path, histogram recording,
span events, error propagation), the threaded :class:`MetricsExporter`, the
``repro-ldp status`` snapshot/render layer over a scrape, and the
bit-identity of estimates with instrumentation on versus off.
"""

import json
import math
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.exceptions import ParameterError, ReproError
from repro.obs import (
    EventLog,
    MetricsExporter,
    MetricsRegistry,
    SCHEMA_VERSION,
    configure_tracing,
    default_registry,
    emit_event,
    get_default_event_log,
    read_events,
    set_default_event_log,
    set_default_registry,
    span,
    tracing_enabled,
)
from repro.obs.status import (
    StatusSnapshot,
    parse_exposition,
    render_status,
    snapshot_from_metrics_text,
)
from repro.simulation.runner import simulate_protocol


@pytest.fixture(autouse=True)
def _isolated_obs_state():
    """Every test runs against a fresh registry, no event log, tracing off."""
    previous_registry = set_default_registry(MetricsRegistry())
    previous_log = set_default_event_log(None)
    yield
    configure_tracing(False)
    set_default_registry(previous_registry)
    set_default_event_log(previous_log)


# --------------------------------------------------------------------- #
# The repro.service re-export of repro.obs.metrics
# --------------------------------------------------------------------- #
class TestModuleMove:
    def test_service_package_reexport_does_not_warn(self):
        # ``from repro.service import MetricsRegistry`` is the supported
        # spelling for the metrics surface outside repro.obs.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.service import MetricsRegistry as via_service
        from repro.obs.metrics import MetricsRegistry as canonical

        assert via_service is canonical


class TestDefaultRegistry:
    def test_swap_returns_previous(self):
        current = default_registry()
        fresh = MetricsRegistry()
        assert set_default_registry(fresh) is current
        assert default_registry() is fresh
        assert set_default_registry(current) is fresh

    def test_rejects_non_registry(self):
        with pytest.raises(ParameterError, match="MetricsRegistry"):
            set_default_registry({})

    def test_register_or_return_shares_series(self):
        registry = default_registry()
        a = registry.counter("repro_test_total", "help")
        b = registry.counter("repro_test_total")
        a.inc()
        b.inc(2)
        assert a.value() == 3.0

    def test_kind_conflict_raises(self):
        registry = default_registry()
        registry.counter("repro_test_conflict")
        with pytest.raises(ParameterError, match="already registered"):
            registry.gauge("repro_test_conflict")


# --------------------------------------------------------------------- #
# Exposition edge cases
# --------------------------------------------------------------------- #
class TestExpositionEdgeCases:
    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'line1\nline2 "quoted" back\\slash'
        registry.counter("repro_escape_total").labels(reason=nasty).inc()
        text = registry.render()
        # The raw exposition holds the escaped form on a single sample line.
        assert '\\n' in text and '\\"' in text and "\\\\" in text
        (labels, value), = parse_exposition(text)["repro_escape_total"]
        assert labels == {"reason": nasty}
        assert value == 1.0

    def test_non_finite_observation_rejected_and_state_unchanged(self):
        histogram = MetricsRegistry().histogram("repro_lat_seconds")
        histogram.observe(0.5)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match="non-finite"):
                histogram.observe(bad)
        assert histogram.count() == 1

    def test_empty_registry_renders_bare_newline(self):
        assert MetricsRegistry().render() == "\n"
        assert parse_exposition(MetricsRegistry().render()) == {}

    def test_untouched_instrument_exposes_zero_sample(self):
        registry = MetricsRegistry()
        registry.counter("repro_untouched_total", "never incremented")
        (labels, value), = parse_exposition(registry.render())[
            "repro_untouched_total"
        ]
        assert labels == {} and value == 0.0

    def test_histogram_exposition_is_cumulative_with_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_lat_seconds", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        samples = parse_exposition(registry.render())
        buckets = {
            labels["le"]: value
            for labels, value in samples["repro_lat_seconds_bucket"]
        }
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        assert samples["repro_lat_seconds_count"][0][1] == 3.0
        assert samples["repro_lat_seconds_sum"][0][1] == pytest.approx(5.55)

    def test_concurrent_scrape_while_mutating(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hammer_total")
        histogram = registry.histogram("repro_hammer_seconds")
        stop = threading.Event()
        errors = []

        def mutate(worker_id):
            try:
                i = 0
                while not stop.is_set():
                    counter.labels(worker=str(worker_id)).inc()
                    histogram.observe(0.001 * (i % 7))
                    i += 1
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [
            threading.Thread(target=mutate, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                parse_exposition(registry.render())
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        final = parse_exposition(registry.render())
        total = sum(value for _, value in final["repro_hammer_total"])
        assert total == histogram.count() >= 1


# --------------------------------------------------------------------- #
# Event log
# --------------------------------------------------------------------- #
class TestEventLog:
    def test_emit_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, component="tester", run_id="r1", clock=lambda: 42.5)
        written = log.emit("started", shards=3, note="hello")
        assert written == {
            "v": SCHEMA_VERSION,
            "ts": 42.5,
            "component": "tester",
            "event": "started",
            "run_id": "r1",
            "shards": 3,
            "note": "hello",
        }
        log.emit("finished", component="override", ok=True)
        records = read_events(path)
        assert [r["event"] for r in records] == ["started", "finished"]
        assert records[1]["component"] == "override"
        assert log.emitted == 2

    def test_fields_are_jsonable_converted(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl", clock=lambda: 0.0)
        record = log.emit(
            "mixed", shards=(1, 2), where=tmp_path, nested={"k": np.float64(1.5)}
        )
        assert record["shards"] == [1, 2]
        assert record["where"] == str(tmp_path)
        assert record["nested"] == {"k": 1.5}
        assert read_events(log.path)[0]["shards"] == [1, 2]

    def test_envelope_shadowing_rejected(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        with pytest.raises(ReproError, match="shadow"):
            log.emit("bad", ts=123.0)
        assert log.emitted == 0 and not log.path.exists()

    def test_reader_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"v": 1, "ts": 0,\n')
        with pytest.raises(ReproError, match=":1: not valid JSON"):
            read_events(path)

    def test_reader_rejects_non_object_and_missing_keys(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ReproError, match="not an object"):
            read_events(path)
        path.write_text('{"v": 1, "ts": 0.0}\n')
        with pytest.raises(ReproError, match="missing envelope keys"):
            read_events(path)

    def test_reader_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "e.jsonl"
        record = {"v": 99, "ts": 0.0, "component": "", "event": "x", "run_id": ""}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ReproError, match="unsupported event schema version"):
            read_events(path)

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        EventLog(path, clock=lambda: 1.0).emit("one")
        with path.open("a") as handle:
            handle.write("\n\n")
        EventLog(path, clock=lambda: 2.0).emit("two")
        assert [r["event"] for r in read_events(path)] == ["one", "two"]

    def test_default_log_install_and_noop(self, tmp_path):
        assert emit_event("dropped") is None
        log = EventLog(tmp_path / "e.jsonl", component="base", run_id="rid")
        assert set_default_event_log(log) is None
        assert get_default_event_log() is log
        record = emit_event("kept", component="worker", shard=1)
        assert record["component"] == "worker" and record["run_id"] == "rid"
        assert set_default_event_log(None) is log
        assert emit_event("dropped-again") is None
        assert [r["event"] for r in read_events(log.path)] == ["kept"]


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class TestSpans:
    def test_disabled_span_is_shared_noop_and_records_nothing(self):
        assert not tracing_enabled()
        first, second = span("a", x=1), span("b")
        assert first is second  # the shared no-op: no per-call allocation
        with first:
            pass
        assert default_registry().names() == []

    def test_enabled_span_records_histograms_and_counter(self):
        registry = MetricsRegistry()
        configure_tracing(True, registry=registry)
        assert tracing_enabled()
        with span("shard.run", shard_id=3):
            pass
        wall = registry.get("repro_span_seconds")
        assert wall.count(span="shard.run") == 1
        assert registry.get("repro_span_cpu_seconds").count(span="shard.run") == 1
        assert registry.get("repro_spans_total").value(span="shard.run") == 1.0

    def test_span_events_mirror_to_event_log(self, tmp_path):
        set_default_event_log(EventLog(tmp_path / "e.jsonl", run_id="r"))
        configure_tracing(True, registry=MetricsRegistry(), span_events=True)
        with span("sweep.point", component="sweep", point=7):
            pass
        record, = read_events(tmp_path / "e.jsonl")
        assert record["event"] == "span"
        assert record["span"] == "sweep.point"
        assert record["component"] == "sweep"
        assert record["point"] == 7
        assert record["error"] is False
        assert record["wall_seconds"] >= 0.0 and record["cpu_seconds"] >= 0.0

    def test_span_exception_propagates_and_flags_error(self, tmp_path):
        set_default_event_log(EventLog(tmp_path / "e.jsonl"))
        registry = MetricsRegistry()
        configure_tracing(True, registry=registry, span_events=True)
        with pytest.raises(ValueError, match="boom"):
            with span("fragile"):
                raise ValueError("boom")
        record, = read_events(tmp_path / "e.jsonl")
        assert record["error"] is True
        assert registry.get("repro_spans_total").value(span="fragile") == 1.0

    def test_configure_resets_to_default_registry(self):
        configure_tracing(True, registry=MetricsRegistry())
        configure_tracing(True)  # registry=None -> back to the default
        with span("resolved.late"):
            pass
        assert default_registry().get("repro_spans_total").value(
            span="resolved.late"
        ) == 1.0


# --------------------------------------------------------------------- #
# Metrics exporter
# --------------------------------------------------------------------- #
def _http(url, method="GET"):
    request = urllib.request.Request(url, method=method)
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, response.read().decode("utf-8")


class TestMetricsExporter:
    def test_serves_metrics_and_healthz(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc(5)
        with MetricsExporter(registry=registry) as exporter:
            host, port = exporter.address
            status, text = _http(f"http://{host}:{port}/metrics")
            assert status == 200
            assert "repro_demo_total 5" in text
            # The scrape itself is counted; the next scrape sees it.
            _, text = _http(f"http://{host}:{port}/metrics")
            samples = parse_exposition(text)
            assert samples["repro_metrics_scrapes_total"][0][1] >= 1.0
            status, body = _http(f"http://{host}:{port}/healthz")
            payload = json.loads(body)
            assert status == 200 and payload["status"] == "ok"
            assert payload["uptime_seconds"] >= 0.0

    def test_unknown_path_and_non_get_rejected(self):
        with MetricsExporter(registry=MetricsRegistry()) as exporter:
            host, port = exporter.address
            with pytest.raises(urllib.error.HTTPError) as info:
                _http(f"http://{host}:{port}/nope")
            assert info.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as info:
                _http(f"http://{host}:{port}/metrics", method="POST")
            assert info.value.code == 405

    def test_address_requires_start_and_close_is_idempotent(self):
        exporter = MetricsExporter(registry=MetricsRegistry())
        with pytest.raises(ReproError, match="not started"):
            exporter.address
        exporter.start()
        exporter.close()
        exporter.close()

    def test_bind_conflict_raises_repro_error(self):
        with MetricsExporter(registry=MetricsRegistry()) as exporter:
            _, port = exporter.address
            rival = MetricsExporter(registry=MetricsRegistry(), port=port)
            with pytest.raises(ReproError, match="cannot serve metrics"):
                rival.start()


# --------------------------------------------------------------------- #
# Status: parsing, snapshots, rendering
# --------------------------------------------------------------------- #
class TestStatusParsing:
    def test_parse_skips_comments_and_reads_inf(self):
        text = (
            "# HELP x help\n# TYPE x counter\n"
            'x_bucket{le="+Inf"} 3\nceiling +Inf\nplain 2\n'
        )
        samples = parse_exposition(text)
        assert samples["x_bucket"][0] == ({"le": "+Inf"}, 3.0)
        assert samples["ceiling"][0] == ({}, math.inf)
        assert samples["plain"][0] == ({}, 2.0)

    def test_unparseable_line_raises(self):
        with pytest.raises(ReproError, match="unparseable"):
            parse_exposition("not a sample line at all!\n")

    def test_snapshot_from_metrics_text(self):
        registry = MetricsRegistry()
        sweep = registry.counter("repro_sweep_points_total")
        sweep.labels(status="done").inc(4)
        sweep.labels(status="skipped").inc(1)
        snapshot = snapshot_from_metrics_text(registry.render(), source="t")
        assert snapshot.source == "t"
        assert (snapshot.sweep_done, snapshot.sweep_skipped) == (4, 1)

    def test_render_with_previous_shows_sweep_throughput(self):
        previous = StatusSnapshot(source="t", captured_at=100.0, sweep_done=2)
        current = StatusSnapshot(
            source="t", captured_at=102.0, sweep_done=6, sweep_skipped=1
        )
        text = render_status(current, previous)
        assert "sweep: 6 points done, 1 skipped (resume)" in text
        assert "sweep throughput: 2.00 points/s" in text

    def test_render_empty_snapshot_says_so(self):
        text = render_status(StatusSnapshot(source="t", captured_at=0.0))
        assert "no sweep series found" in text


# --------------------------------------------------------------------- #
# Instrumentation end to end
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_instrumentation_never_perturbs_estimates(self, tiny_dataset, tmp_path):
        from repro.longitudinal import LOSUE

        protocol = LOSUE(tiny_dataset.k, 2.0, 1.0)
        configure_tracing(False)
        baseline = simulate_protocol(protocol, tiny_dataset, rng=11)

        set_default_event_log(EventLog(tmp_path / "e.jsonl"))
        configure_tracing(True, span_events=True)
        protocol = LOSUE(tiny_dataset.k, 2.0, 1.0)
        traced = simulate_protocol(protocol, tiny_dataset, rng=11)
        assert np.array_equal(baseline.estimates, traced.estimates)


# --------------------------------------------------------------------- #
# CLI status command
# --------------------------------------------------------------------- #
class TestStatusCli:
    def test_status_from_metrics_endpoint(self, capsys):
        from repro.cli import main

        registry = default_registry()
        sweep = registry.counter("repro_sweep_points_total")
        sweep.labels(status="done").inc(3)
        sweep.labels(status="skipped").inc(1)
        with MetricsExporter(registry=registry) as exporter:
            host, port = exporter.address
            assert main(["status", "--metrics", f"{host}:{port}"]) == 0
        output = capsys.readouterr().out
        assert "sweep: 3 points done, 1 skipped (resume)" in output

    def test_watch_iterations_prints_repeated_dashboards(self, capsys):
        from repro.cli import main

        registry = default_registry()
        registry.counter("repro_sweep_points_total").labels(status="done").inc(2)
        with MetricsExporter(registry=registry) as exporter:
            host, port = exporter.address
            code = main(
                [
                    "status",
                    "--metrics", f"{host}:{port}",
                    "--watch",
                    "--interval", "0.01",
                    "--iterations", "2",
                ]
            )
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("repro-ldp status") == 2
        assert "sweep throughput: 0.00 points/s" in output

    def test_unreachable_endpoint_is_an_error(self, capsys):
        from repro.cli import main

        # Port 9 (discard) is almost certainly closed; the scrape must fail
        # as a clean CLI error, not a traceback.
        code = main(["status", "--metrics", "127.0.0.1:9"])
        assert code == 2
        assert "cannot scrape" in capsys.readouterr().err
