"""Tests for the repo-wide observability core (``repro.obs``).

Covers the metrics move out of ``repro.service`` (deprecation shim, the
process-global default registry), Prometheus exposition edge cases (label
escaping, non-finite observations, empty registries, scrape-while-mutating),
the structured JSONL event log (envelope validation, crash-safe appends,
strict readers), span tracing (near-zero disabled path, histogram recording,
span events, error propagation), the threaded :class:`MetricsExporter`, the
``repro-ldp status`` snapshot/render layer over both a scrape and the spool,
the coordinator/worker instrumentation of a live fleet, and the bit-identity
of estimates with instrumentation on versus off.
"""

import json
import math
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.distributed import (
    Coordinator,
    FileQueueTransport,
    InProcessTransport,
    TaskEnvelope,
    local_worker_threads,
    run_worker,
)
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
    snapshot_from_spool,
)
from repro.simulation.runner import (
    make_shard_tasks,
    result_from_summaries,
    simulate_protocol,
    simulate_protocol_sharded,
)
from repro.specs import ProtocolSpec

SPEC = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)


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
        registry.gauge("repro_coord_shards_total").set(8)
        registry.gauge("repro_coord_shards_done").set(3)
        registry.gauge("repro_coord_shards_pending").set(5)
        registry.counter("repro_coord_tasks_requeued_total").inc(2)
        registry.counter("repro_worker_tasks_claimed_total").inc(5)
        sweep = registry.counter("repro_sweep_points_total")
        sweep.labels(status="done").inc(4)
        sweep.labels(status="skipped").inc(1)
        snapshot = snapshot_from_metrics_text(registry.render(), source="t")
        assert snapshot.source == "t"
        assert (snapshot.shards_total, snapshot.shards_done) == (8, 3)
        assert snapshot.shards_pending == 5
        assert snapshot.counters["requeued"] == 2.0
        assert snapshot.counters["worker_claims"] == 5.0
        assert (snapshot.sweep_done, snapshot.sweep_skipped) == (4, 1)

    def test_render_with_previous_shows_throughput_and_eta(self):
        previous = StatusSnapshot(
            source="t", captured_at=100.0, shards_total=10, shards_done=2
        )
        current = StatusSnapshot(
            source="t",
            captured_at=102.0,
            shards_total=10,
            shards_done=6,
            shards_pending=4,
        )
        text = render_status(current, previous)
        assert "shards: 10 total | 6 done | 4 pending" in text
        assert "throughput: 2.00 shards/s (ETA 2s)" in text

    def test_render_empty_snapshot_says_so(self):
        text = render_status(StatusSnapshot(source="t", captured_at=0.0))
        assert "no fleet or sweep series found" in text


class TestStatusFromSpool:
    def test_missing_queue_dir_raises(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            snapshot_from_spool(tmp_path / "nope")

    def test_spool_counts_without_checkpoint(self, tmp_path):
        for sub in ("tasks", "claims", "summaries"):
            (tmp_path / sub).mkdir()
        (tmp_path / "tasks" / "task-000001.json").write_text("{}")
        (tmp_path / "tasks" / "task-000002.json").write_text("{}")
        (tmp_path / "claims" / "task-000003.json").write_text("{}")
        (tmp_path / "summaries" / "summary-000000.npz").write_bytes(b"x")
        snapshot = snapshot_from_spool(tmp_path)
        assert snapshot.shards_total == 4
        assert snapshot.shards_done == 1
        assert snapshot.shards_pending == 3
        assert snapshot.shards_leased == 1
        assert snapshot.counters["spool_unclaimed"] == 2.0
        assert snapshot.counters["spool_delivered"] == 1.0

    def test_checkpoint_progress_meta_wins(self, tmp_path, tiny_dataset):
        queue = tmp_path / "queue"
        checkpoint = tmp_path / "coordinator.npz"
        tasks = make_shard_tasks(SPEC, tiny_dataset, 3, rng=5)
        transport = FileQueueTransport(queue)
        coordinator = Coordinator(
            tasks, transport, poll_interval=0.02, checkpoint_path=checkpoint
        )
        coordinator.publish_pending()
        with local_worker_threads(transport, 2, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)
        snapshot = snapshot_from_spool(queue, checkpoint=checkpoint)
        assert snapshot.shards_total == 3
        assert snapshot.shards_done == 3
        assert snapshot.shards_pending == 0
        assert snapshot.counters["requeued"] == 0.0


# --------------------------------------------------------------------- #
# Fleet instrumentation end to end
# --------------------------------------------------------------------- #
class TestFleetInstrumentation:
    def test_coordinator_and_worker_metrics_after_collection(
        self, tmp_path, tiny_dataset
    ):
        serial = simulate_protocol_sharded(SPEC, tiny_dataset, n_shards=3, rng=9)
        events_path = tmp_path / "events.jsonl"
        set_default_event_log(
            EventLog(events_path, component="test", run_id="fleet")
        )
        transport = FileQueueTransport(tmp_path / "queue")
        tasks = make_shard_tasks(SPEC, tiny_dataset, 3, rng=9)
        coordinator = Coordinator(tasks, transport, poll_interval=0.02)
        coordinator.publish_pending()
        with local_worker_threads(transport, 2, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)

        registry = default_registry()
        assert registry.get("repro_coord_tasks_published_total").value() == 3.0
        assert registry.get("repro_coord_summaries_total").value() == 3.0
        assert registry.get("repro_coord_shards_done").value() == 3.0
        assert registry.get("repro_coord_shards_pending").value() == 0.0
        assert registry.get("repro_worker_tasks_claimed_total").value() == 3.0
        assert registry.get("repro_worker_summaries_total").value() == 3.0
        assert registry.get("repro_worker_task_seconds").count() == 3

        kinds = [record["event"] for record in read_events(events_path)]
        assert "tasks_published" in kinds
        assert "collection_complete" in kinds
        assert kinds.count("task_done") == 3
        assert all(r["run_id"] == "fleet" for r in read_events(events_path))

        result = result_from_summaries(
            SPEC, tiny_dataset, coordinator.ordered_summaries()
        )
        assert np.array_equal(result.estimates, serial.estimates)

    def test_worker_failure_event_metric_and_stderr(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        set_default_event_log(EventLog(events_path, run_id="crash"))
        transport = InProcessTransport()
        transport.publish(TaskEnvelope(shard_id=0, payload=b"not a task"))
        with pytest.raises(Exception):
            run_worker(transport.worker(), idle_timeout=0.5)

        assert default_registry().get("repro_worker_errors_total").value(
            stage="task_decode"
        ) == 1.0
        record, = read_events(events_path)
        assert record["event"] == "error"
        assert record["component"] == "worker"
        assert record["stage"] == "task_decode"
        assert "Traceback" in record["traceback"]
        stderr_record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert stderr_record["event"] == "error"
        assert stderr_record["stage"] == "task_decode"

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
    def test_status_from_spool_and_checkpoint(self, tmp_path, tiny_dataset, capsys):
        from repro.cli import main

        queue = tmp_path / "queue"
        checkpoint = tmp_path / "coordinator.npz"
        transport = FileQueueTransport(queue)
        tasks = make_shard_tasks(SPEC, tiny_dataset, 2, rng=5)
        coordinator = Coordinator(
            tasks, transport, poll_interval=0.02, checkpoint_path=checkpoint
        )
        coordinator.publish_pending()
        with local_worker_threads(transport, 1, dataset=tiny_dataset) as pool:
            coordinator.run(timeout=60.0, abort=pool.failure_reason)

        code = main(
            [
                "status",
                "--queue-dir", str(queue),
                "--checkpoint", str(checkpoint),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "repro-ldp status" in output
        assert "shards: 2 total | 2 done" in output

    def test_status_from_metrics_endpoint(self, capsys):
        from repro.cli import main

        registry = default_registry()
        registry.gauge("repro_coord_shards_total").set(4)
        registry.gauge("repro_coord_shards_done").set(1)
        registry.gauge("repro_coord_shards_pending").set(3)
        with MetricsExporter(registry=registry) as exporter:
            host, port = exporter.address
            assert main(["status", "--metrics", f"{host}:{port}"]) == 0
        output = capsys.readouterr().out
        assert "shards: 4 total | 1 done | 3 pending" in output

    def test_watch_iterations_prints_repeated_dashboards(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        for sub in ("tasks", "claims", "summaries"):
            (tmp_path / "queue" / sub).mkdir(parents=True)
        (tmp_path / "queue" / "summaries" / "summary-000000.npz").write_bytes(b"x")
        code = main(
            [
                "status",
                "--queue-dir", str(tmp_path / "queue"),
                "--watch",
                "--interval", "0.01",
                "--iterations", "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("repro-ldp status") == 2

    def test_checkpoint_without_queue_dir_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["status", "--metrics", "127.0.0.1:9", "--checkpoint", "x.npz"])
        assert code == 2
        assert "--checkpoint only applies" in capsys.readouterr().err

    def test_unreachable_endpoint_is_an_error(self, capsys):
        from repro.cli import main

        # Port 9 (discard) is almost certainly closed; the scrape must fail
        # as a clean CLI error, not a traceback.
        code = main(["status", "--metrics", "127.0.0.1:9"])
        assert code == 2
        assert "cannot scrape" in capsys.readouterr().err
